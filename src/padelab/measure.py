"""Complex measures on unions of real intervals, and rational polar parts.

A measure is a list of components, each a closed interval carrying a complex
density expression in the real variable ``t``. A component flagged
``endpoint_singular`` additionally carries the implicit positive factor
``1/sqrt((t-a)(b-t))``; that is how inverse-square-root (arcsine-type)
endpoint behavior is expressed, since the density grammar itself has no
fractional powers. Every integral against a measure -- transforms, their
derivatives, moments and the error formula -- is a generalized moment of
t^j / v(t), v a product of linear factors: the value of one functional L on
t^j / v, with F(z) = L_t[1/(z - t)]. F is an ordered list of parts, the
measure's (:meth:`ComplexMeasure.parts`) then the rational part R
(:class:`RationalPart`), and :func:`eval_F`, :func:`measure_moments` and
:func:`moments` are plain sums over them. The measure's parts are the
compiled Gauss-Legendre node set (:class:`CompiledMeasure`) of the
components whose density is not a short Chebyshev series, then one
:class:`chebyshev.ChebyshevSeries` per endpoint-singular component whose
density is. A series and R are closed form off their singular set
(:class:`chebyshev.ClosedForm`), so no quadrature runs for them. Every part
answers ``transform(z, r, tol)`` and ``moments(upto, tol, nodes)`` and
raises for a point of its own singular set.

A density is a :class:`density.DensityExpr`, evaluated at the working
precision by every integral and in float64 by the argument variation and
the density floor's screen.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_mul_mpf,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_cos,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_pow_int,
    mpf_sub,
    to_fixed,
)

from . import algebra
from .algebra import (
    _GUARD_BITS,
    Poly,
    _exact_ints,
    _on_grid,
    _support_log2,
    to_mpc,
    to_mpf,
)
from .chebyshev import ChebyshevSeries, ClosedForm
from .density import _TINY, _U, DensityExpr, _float64, _raw_number, least_candidates
from .errors import (
    PointAtPole,
    PoleOnNode,
    QuadFailure,
    UnwrapFailure,
)

__all__ = [
    "DensityExpr",
    "MeasureComponent",
    "ComplexMeasure",
    "RationalPart",
    "CompiledMeasure",
    "cauchy_transform",
    "measure_moments",
    "eval_F",
    "eval_F_derivative",
    "moments",
    "argument_variation_f64",
]


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_ORDER = 32
_GL_CACHE: dict[int, tuple[list, list]] = {}
_GL_NEWTON_STEPS = 16
PANEL_CAP = 2**16


def _legendre_pair(x: int, scale: int):
    """P_n(x) and P_(n-1)(x), n = _GL_ORDER, by the three-term recurrence in
    fixed point: x and both values are integers on the grid 2^-scale."""
    p0, p1 = 1 << scale, x
    for j in range(1, _GL_ORDER):
        p0, p1 = p1, ((2 * j + 1) * ((x * p1) >> scale) - j * p0) // (j + 1)
    return p1, p0


def gauss_legendre_rule():
    """Nodes and weights of the _GL_ORDER-point rule on [-1, 1] at the current
    precision, cached; nodes in decreasing order.

    Each positive node is found by Newton on the three-term Legendre
    recurrence in fixed point at prec + 64 bits, from the float64 asymptotic
    guess cos(pi (k + 3/4) / (n + 1/2)); its weight is
    2 (1 - x^2) / (n (x P_n(x) - P_(n-1)(x)))^2 at the converged node. Node
    and weight are rounded to ``mpf`` once, and the negative half mirrors the
    positive one exactly. Raises :class:`QuadFailure` if Newton has not
    converged within _GL_NEWTON_STEPS steps.
    """
    rule = _GL_CACHE.get(mp.mp.prec)
    if rule is not None:
        return rule
    n, scale = _GL_ORDER, mp.mp.prec + _GUARD_BITS
    one2 = 1 << (2 * scale)
    # a step this small leaves an error of order its square, below the grid
    converged = 1 << (scale // 2 - 16)
    xs, ws = [], []
    for k in range(n // 2):
        x = int(math.cos(math.pi * (k + 0.75) / (n + 0.5)) * 2.0**53) << (scale - 53)
        for _ in range(_GL_NEWTON_STEPS):
            pn, pm = _legendre_pair(x, scale)
            dx = pn * (x * x - one2) // ((n * (((x * pn) >> scale) - pm)) << scale)
            x -= dx
            if abs(dx) < converged:
                break
        else:
            raise QuadFailure(
                f"Gauss-Legendre Newton missed {_GL_NEWTON_STEPS} steps at node {k}"
            )
        pn, pm = _legendre_pair(x, scale)
        q = n * (((x * pn) >> scale) - pm)
        xs.append(mp.mpf((x, -scale)))
        ws.append(mp.mpf((((one2 - x * x) << (scale + 1)) // (q * q), -scale)))
    rule = (xs + [-x for x in reversed(xs)], ws + ws[::-1])
    _GL_CACHE[mp.mp.prec] = rule
    return rule


_TWO = from_int(2)


def _gl_values(f, a, b, xs):
    """f at the Gauss-Legendre nodes ``xs`` of the panel [a, b], as
    ``f((a + b)/2 + (b - a)/2 * x)``; every number is a raw tuple."""
    prec, rnd = mp.mp._prec_rounding
    h = mpf_div(mpf_sub(b, a, prec, rnd), _TWO, prec, rnd)
    m = mpf_div(mpf_add(a, b, prec, rnd), _TWO, prec, rnd)
    return [f(mpf_add(m, mpf_mul(h, x, prec, rnd), prec, rnd)) for x in xs]


def _gl_sum(vals, a, b, ws):
    """The rule's sum on the panel [a, b] of raw values, each real or
    complex, as ``(b - a)/2 * acc`` after ``acc += w * v`` from ``mpc(0)``:
    a raw ``_mpc_``."""
    prec, rnd = mp.mp._prec_rounding
    acc = (fzero, fzero)
    for w, v in zip(ws, vals):
        acc = (mpc_add(acc, mpc_mul_mpf(v, w, prec, rnd), prec, rnd) if len(v) == 2
               else mpc_add_mpf(acc, mpf_mul(w, v, prec, rnd), prec, rnd))
    return mpc_mul_mpf(acc, mpf_div(mpf_sub(b, a, prec, rnd), _TWO, prec, rnd), prec, rnd)


def _accepted_panels(f, a, b, tol):
    """Panels of [a, b] accepted by the adaptive bisection test, left to right.

    A panel is accepted once splitting it changes its value by less than its
    share of ``tol`` relative to the integrand's L1 mass. Yields
    ``(pa, pm, pb, left_vals, right_vals, value)`` per accepted panel, where
    the values are the integrand at the nodes of the two halves. Every
    number, ``f``'s argument and values too, is a raw ``_mpf_``/``_mpc_``
    tuple, and each step calls what the mpmath operator would. Raises
    :class:`QuadFailure` once more than ``PANEL_CAP`` panels are needed.
    """
    prec, rnd = mp.mp._prec_rounding
    xs, ws = ([x._mpf_ for x in rule] for rule in gauss_legendre_rule())
    whole_vals = _gl_values(f, a, b, xs)
    whole = _gl_sum(whole_vals, a, b, ws)
    acc_abs = fzero
    for w, v in zip(ws, whole_vals):
        v = mpc_abs(v, prec, rnd) if len(v) == 2 else mpf_abs(v, prec, rnd)
        acc_abs = mpf_add(acc_abs, mpf_mul(w, v, prec, rnd), prec, rnd)
    total_len = mpf_sub(b, a, prec, rnd)
    l1 = mpf_mul(mpf_abs(mpf_div(total_len, _TWO, prec, rnd), prec, rnd), acc_abs, prec, rnd)
    least = mpf_pow_int(_TWO, -prec, prec, rnd)
    scale = least if mpf_gt(least, l1) else l1

    panels = 0
    stack = [(a, b, whole)]
    while stack:
        pa, pb, pval = stack.pop()
        panels += 1
        if panels > PANEL_CAP:
            raise QuadFailure(f"panel budget {PANEL_CAP} exceeded on "
                              f"[{mp.nstr(mp.make_mpf(a), 8)}, {mp.nstr(mp.make_mpf(b), 8)}]")
        pm = mpf_div(mpf_add(pa, pb, prec, rnd), _TWO, prec, rnd)
        left_vals = _gl_values(f, pa, pm, xs)
        right_vals = _gl_values(f, pm, pb, xs)
        left = _gl_sum(left_vals, pa, pm, ws)
        right = _gl_sum(right_vals, pm, pb, ws)
        share = mpf_mul(mpf_mul(tol, scale, prec, rnd), mpf_sub(pb, pa, prec, rnd), prec, rnd)
        if mpf_le(mpc_abs(mpc_sub(mpc_sub(pval, left, prec, rnd), right, prec, rnd), prec, rnd),
                  mpf_div(share, total_len, prec, rnd)):
            yield pa, pm, pb, left_vals, right_vals, mpc_add(left, right, prec, rnd)
        else:
            stack.append((pm, pb, right))
            stack.append((pa, pm, left))


def quad_integrate(f, interval, tol=None):
    """Integral of ``f`` over a real interval by adaptive panel bisection.

    The general rule for arbitrary integrands; integrals against a measure
    of the kernels in this module go through :class:`CompiledMeasure`.
    Panels are processed in a fixed order so results are deterministic.
    Raises :class:`QuadFailure` once more than ``PANEL_CAP`` panels are
    needed. Nothing in the package calls it: it is the tests' independent
    reference, kept here because the benchmark tracer (``perfbench/tracer.py``)
    patches it by name.
    """
    a, b = (to_mpf(interval[0]), to_mpf(interval[1]))
    if tol is None:
        tol = algebra.drop_tolerance()
    tol = mp.mpf(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return mp.mpc(0)
    prec, rnd = mp.mp._prec_rounding
    acc = (fzero, fzero)
    for *_, value in _accepted_panels(lambda u: _raw_number(f(mp.make_mpf(u))),
                                      a._mpf_, b._mpf_, tol._mpf_):
        acc = mpc_add(acc, value, prec, rnd)
    return mp.make_mpc(acc)


# ---------------------------------------------------------------------------
# measure components
# ---------------------------------------------------------------------------


class MeasureComponent:
    """One interval of the support with its density expression; ``a`` and
    ``b`` are the endpoints as ``mpf`` at the current precision."""

    __slots__ = ("a_exact", "b_exact", "density", "endpoint_singular")

    def __init__(self, interval, density, endpoint_singular=False):
        self.a_exact = algebra.real_literal(interval[0])
        self.b_exact = algebra.real_literal(interval[1])
        if self.b_exact <= self.a_exact:
            raise ValueError("interval must have positive length")
        self.density = (
            density if isinstance(density, DensityExpr) else DensityExpr(density)
        )
        self.endpoint_singular = bool(endpoint_singular)

    @property
    def a(self) -> mp.mpf:
        return algebra.fraction_to_mpf(self.a_exact)

    @property
    def b(self) -> mp.mpf:
        return algebra.fraction_to_mpf(self.b_exact)

    def sample_points(self, n: int, ks=None):
        """The n equispaced samples, or those with the indices ``ks``."""
        a, b = self.a, self.b
        return [a + (b - a) * k / (n - 1) for k in (range(n) if ks is None else ks)]

    def sample_points_f64(self, n: int) -> np.ndarray:
        """The n equispaced samples in float64, from the endpoints rounded
        once; an endpoint beyond the float64 range reads as inf."""
        a, b = _float64(self.a_exact), _float64(self.b_exact)
        return a + (b - a) * np.arange(n) / (n - 1)


# equispaced samples per component at which a new measure's density is checked
_VALIDATION_SAMPLES = 64
# the least |density| a new measure accepts on those samples, unless waived
DENSITY_FLOOR = "1e-12"
# the float64 screen passes a sample at least this many times the floor
_SCREEN_MARGIN = 2**10


class ComplexMeasure:
    """Finite union of disjoint intervals, each carrying a complex density."""

    def __init__(self, components, density_floor=DENSITY_FLOOR, waive_floor=False):
        comps = list(components)
        comps.sort(key=lambda c: c.a_exact)
        for u, v in zip(comps, comps[1:]):
            if v.a_exact <= u.b_exact:
                raise ValueError("measure intervals must be pairwise disjoint")
        self.components = comps
        self.density_floor = mp.mpf(density_floor)
        self.waive_floor = bool(waive_floor)
        # the precision floor_observed is evaluated at
        self._built_prec = mp.mp.prec
        # state filled on first use: compiled node sets keyed by mp.prec and
        # the indices of their components, the parts keyed by mp.prec,
        # float64 density argument variations keyed by gridN
        self._compiled: dict[tuple, CompiledMeasure] = {}
        self._parts: dict[int, list] = {}
        self.variation_cache: dict[int, mp.mpf] = {}
        if comps:
            self._validate_densities()

    def _validate_densities(self):
        """Raise ValueError when the density is not finite at a validation
        sample, or, unless the floor is waived, when its least magnitude
        there is below ``density_floor``: the working-precision rule.

        One float64 pass per component (:meth:`DensityExpr.enclosed`) decides
        the samples whose magnitude is finite and at least ``_SCREEN_MARGIN``
        times the floor, and within half of itself of the exact value: such
        a sample is finite and above the floor at the working precision. The
        rest are evaluated and decided at the working precision, in sample
        order, so each error is the one the rule gives: their least magnitude
        is the least of all the samples whenever it is below the floor.
        """
        least = max(float(self.density_floor) * _SCREEN_MARGIN, _TINY)
        doubtful, self._enclosures = [], []
        for comp in self.components:
            t = comp.sample_points_f64(_VALIDATION_SAMPLES)
            # a float64 sample is within a few roundings of |a| + |b| of the exact one
            v, e = comp.density.enclosed(t, _U * (abs(t[0]) + abs(t[-1])) + _TINY)
            self._enclosures.append((v, e))
            m = np.abs(v)
            passed = np.isfinite(m) & np.isfinite(e) & (m >= least) & (e <= m / 2)
            ks = np.flatnonzero(~passed).tolist()
            doubtful += [(comp, t) for t in comp.sample_points(_VALIDATION_SAMPLES, ks)]
        lo = mp.inf
        for comp, t in doubtful:
            v = comp.density(t)
            if not (mp.isfinite(v.real) and mp.isfinite(v.imag)):
                raise ValueError(
                    f"density {comp.density.source!r} not finite at t={mp.nstr(t, 8)}"
                )
            lo = min(lo, abs(v))
        if not self.waive_floor and lo < self.density_floor:
            raise ValueError(
                f"sampled density magnitude {mp.nstr(lo, 6)} below floor "
                f"{mp.nstr(self.density_floor, 6)} (set waive_floor to accept)"
            )

    @functools.cached_property
    def floor_observed(self):
        """The least |density| over the validation samples, evaluated on
        first read at the precision the measure was built at, at the samples
        whose screen enclosure can hold it (:func:`least_candidates`); None
        for an empty measure."""
        if not self.components:
            return None
        picks = least_candidates(self._enclosures)
        with algebra.working_precision(self._built_prec):
            return min(abs(comp.density(t)) for comp, ks in zip(self.components, picks)
                       for t in comp.sample_points(_VALIDATION_SAMPLES, ks))

    @property
    def intervals(self):
        return [(c.a, c.b) for c in self.components]

    @property
    def hull(self):
        if not self.components:
            return None
        return (self.components[0].a, self.components[-1].b)

    def is_empty(self) -> bool:
        return not self.components

    def compiled(self) -> "CompiledMeasure":
        """The node set of every component at the current precision."""
        return self._node_set(tuple(range(len(self.components))))

    def _node_set(self, select: tuple) -> "CompiledMeasure":
        """The node set of the components with indices ``select`` at the
        current precision, compiled on first use and cached."""
        key = (mp.mp.prec, select)
        nodes = self._compiled.get(key)
        if nodes is None:
            nodes = self._compiled[key] = CompiledMeasure(
                [self.components[i] for i in select])
        return nodes

    def parts(self) -> list:
        """The parts of the measure at the current precision, in the order
        they are summed: the compiled node set of the components without a
        chopped Chebyshev series (:meth:`ChebyshevSeries.build`), when there
        are any, then each chopped series in component order. Cached."""
        out = self._parts.get(mp.mp.prec)
        if out is None:
            series = [ChebyshevSeries.build(c) if c.endpoint_singular else None
                      for c in self.components]
            rest = tuple(i for i, part in enumerate(series) if part is None)
            out = self._parts[mp.mp.prec] = (
                [self._node_set(rest)] if rest else []) + [s for s in series if s is not None]
        return out


# ---------------------------------------------------------------------------
# compiled measure: one Gauss-Legendre node set behind every kernel integral
# ---------------------------------------------------------------------------

# log of the Gauss-Legendre error factor rho^(-2*order) is -_GL_EXACT * log(rho)
_GL_EXACT = 2 * _GL_ORDER
_ELLIPSE_ANGLES = [cmath.exp(2j * math.pi * k / 16) for k in range(16)]


def _bernstein_rho(s: complex) -> float:
    """Parameter of the Bernstein ellipse (foci -1, 1) through the point s."""
    if not cmath.isfinite(s) or abs(s) > 1e150:
        return math.inf
    r = cmath.sqrt(s - 1) * cmath.sqrt(s + 1)
    return max(abs(s + r), abs(s - r))


def _rho_grid(rho_sing: float):
    """Ellipse parameters to try for a polynomial-growth kernel, up to rho_sing."""
    rho = 1.05
    while rho < min(rho_sing, 1e6):
        yield rho
        rho *= 1.25
    if rho_sing <= 1e6:
        yield rho_sing


class _Panel:
    """A panel [lo, hi] of the integration variable, by its geometry: its
    midpoint and half-width, as ``mpf``, as floats and as the integers
    ``bounds`` exact at the binary exponent ``b_exp``, which is all that the
    ellipse guard and the bisection floor read. Its two halves are made on
    first need.

    A panel is weighed once, when it is first emitted as a leaf
    (:meth:`_CompiledComponent.weigh`): its nodes t_k and weights
    W_k = w_k * h * rho(t_k) as raw ``_mpf_``/``_mpc_`` tuples ``ts`` and
    ``ws``, its nodes as the integers ``t_ints`` exact at
    ``t_exp``, with ``t_top`` the floor(log2) of the largest |t|, and its
    weights as integer parts ``wr``, ``wi`` on the grid 2^-w_scale, prec + 64
    bits below the floor(log2) of their largest real or imaginary part.
    ``ts`` is None until then.
    """

    __slots__ = ("lo", "hi", "mid", "half", "mid_f64", "half_f64", "ts", "ws", "halves",
                 "b_exp", "bounds", "t_exp", "t_ints", "t_top", "w_scale", "wr", "wi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.mid = (lo + hi) / 2
        self.half = (hi - lo) / 2
        self.mid_f64, self.half_f64 = float(self.mid), float(self.half)
        self.b_exp, self.bounds = _exact_ints([self.mid, self.half])
        self.halves = self.ts = None


def _quotient(num: int, den: int) -> float:
    """num/den correctly rounded to a float; infinite where it is out of range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


class _CompiledComponent:
    """Panels of one component in its integration variable u.

    u is t itself, or theta with t = c + r*cos(theta) on an endpoint-singular
    component, where the implicit 1/sqrt((t-a)(b-t)) dt is exactly dtheta.
    The base panels are weighed with the density values that
    :func:`_accepted_panels` computed for them; the guard bisects on panel
    geometry alone, and the density is evaluated only on the leaves it
    keeps (:meth:`weigh`).
    """

    def __init__(self, comp: MeasureComponent, tol):
        self.comp = comp
        self.theta = comp.endpoint_singular
        a, b = comp.a, comp.b
        self.c, self.r = (a + b) / 2, (b - a) / 2
        self.c_f64, self.r_f64 = float(self.c), float(self.r)
        lo, hi = (fzero, (+mp.pi)._mpf_) if self.theta else (a._mpf_, b._mpf_)
        rho = comp.density
        self.base = []
        for pa, pm, pb, left, right, _ in _accepted_panels(
            lambda u: rho(mp.make_mpf(self.t_of(u)))._mpc_, lo, hi, tol._mpf_
        ):
            pa, pm, pb = map(mp.make_mpf, (pa, pm, pb))
            self.base += [self.weigh(_Panel(pa, pm), left), self.weigh(_Panel(pm, pb), right)]

    def t_of(self, u):
        """t at u, both raw ``_mpf_`` tuples, as ``c + r * mp.cos(u)`` gives it."""
        if not self.theta:
            return u
        prec, rnd = mp.mp._prec_rounding
        cos = mpf_cos(u, prec, rnd)
        return mpf_add(self.c._mpf_, mpf_mul(self.r._mpf_, cos, prec, rnd), prec, rnd)

    def weigh(self, panel: _Panel, rho_vals=None) -> _Panel:
        """The panel with its nodes and weights, as raw tuples and as
        integers (:class:`_Panel`), from the density at its nodes
        (``rho_vals``, ``_mpc_`` tuples evaluated here when not given); a
        panel already weighed is returned as it is."""
        if panel.ts is not None:
            return panel
        prec, rnd = mp.mp._prec_rounding
        xs, gl_ws = ([x._mpf_ for x in rule] for rule in gauss_legendre_rule())
        h = panel.half._mpf_
        ts = _gl_values(self.t_of, panel.lo._mpf_, panel.hi._mpf_, xs)
        if rho_vals is None:
            rho_vals = [self.comp.density(mp.make_mpf(t))._mpc_ for t in ts]
        panel.ts = ts
        panel.ws = [mpc_mul_mpf(v, mpf_mul(w, h, prec, rnd), prec, rnd)
                    for w, v in zip(gl_ws, rho_vals)]
        panel.t_exp, panel.t_ints = _exact_ints(ts)
        panel.t_top = panel.t_exp + max(abs(x) for x in panel.t_ints).bit_length() - 1
        w_exp, w = _exact_ints([x for v in panel.ws for x in v])
        w_top = w_exp + max(abs(x) for x in w).bit_length() - 1
        panel.w_scale = mp.mp.prec + _GUARD_BITS - w_top
        w = _on_grid(w, w_exp, panel.w_scale)
        panel.wr, panel.wi = w[0::2], w[1::2]
        return panel

    def _halves(self, panel: _Panel):
        """The two halves of the panel. Raises :class:`QuadFailure` at the
        bisection floor, a half-width of 2^(20 - prec) max(1, |mid|): the one
        rule by which a kernel too close to the support fails."""
        if panel.halves is None:
            if panel.half <= mp.mpf(2) ** (20 - mp.mp.prec) * max(1, abs(panel.mid)):
                raise QuadFailure(
                    "kernel singularity too close to the support to resolve near "
                    f"t={mp.nstr(mp.make_mpf(self.t_of(panel.mid._mpf_)), 10)}"
                )
            panel.halves = (_Panel(panel.lo, panel.mid), _Panel(panel.mid, panel.hi))
        return panel.halves

    def _singular_u(self, p, scale: int):
        """Points u with t(u) = p, for theta the three nearest [0, pi], as
        integer pairs (re, im) on the grid 2^-scale."""
        us = [p]
        if self.theta:
            th = mp.acos((p - self.c) / self.r)
            us = [th, -th, 2 * mp.pi - th]
        return [(to_fixed(u.real._mpf_, scale), to_fixed(u.imag._mpf_, scale)) for u in us]

    def _log_growth(self, panel: _Panel, rho: float) -> float:
        """log of the growth of |t| from the component to the rho-ellipse of
        the panel: a numerator growing like |t|^degree grows by degree times it."""
        m, h = panel.mid_f64, panel.half_f64
        c, r = self.c_f64, self.r_f64
        try:
            us = [m + h * (rho * e + 1 / (rho * e)) / 2 for e in _ELLIPSE_ANGLES]
            ts = [c + r * cmath.cos(u) for u in us] if self.theta else us
        except OverflowError:
            return math.inf
        return math.log(max(abs(t) for t in ts) / (abs(c) + r))

    @staticmethod
    def _rho_sing(panel: _Panel, sing, scale: int) -> float:
        """Bernstein parameter of the panel's ellipse through the nearest
        singular point; ``sing`` holds the points u on the grid 2^-scale, and
        s = (u - mid)/half is one correctly rounded quotient of exact integer
        differences."""
        mid, half = _on_grid(panel.bounds, panel.b_exp, scale)
        return min(
            (_bernstein_rho(complex(_quotient(ur - mid, half), _quotient(ui, half)))
             for ur, ui in sing),
            default=math.inf,
        )

    def _resolved(self, panel: _Panel, rho_sing: float, degree: int, log_tol: float) -> bool:
        if degree == 0:
            return -_GL_EXACT * math.log(rho_sing) <= log_tol
        return any(
            -_GL_EXACT * math.log(rho) + degree * self._log_growth(panel, rho) <= log_tol
            for rho in _rho_grid(rho_sing)
        )

    def leaves(self, poles, scale: int, degree: int, log_tol: float):
        """Yield, left to right, the panels resolving the kernel, unweighed:
        each base panel, bisected while its Gauss-Legendre error bound misses
        tol."""
        sing = [u for p in poles for u in self._singular_u(p, scale)]
        stack = self.base[::-1]
        while stack:
            panel = stack.pop()
            if self._resolved(panel, self._rho_sing(panel, sing, scale), degree, log_tol):
                yield panel
            else:
                left, right = self._halves(panel)
                stack += [right, left]


class CompiledMeasure:
    """The measure as fixed nodes t_k and weights W_k at one precision.

    Base panels are composite 32-point Gauss-Legendre panels in each
    component's integration variable: the halves of the panels that the
    bisection test of :func:`quad_integrate` accepts for the density at the
    precision's drop tolerance. An integral against the measure is the sum
    of W_k * kernel(t_k). For each kernel a Bernstein-ellipse guard
    (Trefethen, *Approximation Theory and Approximation Practice*, ch. 19)
    bisects, for that kernel only, every panel whose error bound rho^(-64)
    misses ``tol * 2^(-64)``: rho is the ellipse through the kernel's
    nearest singularity, traded against the growth of a polynomial
    numerator off the support. The margin 2^(-64) is what one more bisection
    gains against a distant singularity; it matches the accuracy of
    :func:`quad_integrate`, which accepts a panel at ``tol`` and returns the
    sum over its halves. The guard bisects on panel geometry alone: the
    density is evaluated only on the panels a kernel keeps as leaves, once
    each, and the bisected panels are kept for the next kernel. A kernel that
    a panel at the bisection floor still misses raises :class:`QuadFailure`
    before any new leaf is weighed.

    Each weighed panel also carries its nodes and weights as integers, and
    every panel its midpoint and half-width. The guard forms its ellipse
    parameter from exact integer differences, and :meth:`moments`, the one
    sum over the nodes, adds W_k t_k^j / v(t_k) exactly in Python integers at
    block scale (Brent & Zimmermann, *Modern Computer Arithmetic*, ch. 1-3),
    rounding each result to ``mpc`` once. :meth:`nodes` is the mpmath view
    of the same node set.
    """

    def __init__(self, components):
        self.prec = mp.mp.prec
        tol = algebra.drop_tolerance()
        self.components = [_CompiledComponent(c, tol) for c in components]
        self.intervals = [(c.a, c.b) for c in components]

    def _leaves(self, tol, poles, degree: int, near: int) -> list:
        """Weighed panels resolving a kernel that is singular at ``poles``
        (points of the t-plane) and whose numerator grows like |t|^degree;
        ``near`` is floor(log2) of the smallest distance from a pole to the
        support.

        The guard holds the singular points, midpoints and half-widths on the
        grid 2^-(prec + 64 - near), and never coarser than 2^-(prec + 64), so
        theta-plane points of a distant pole keep their digits too. The walk
        over every component ends before any leaf is weighed, so a kernel that
        the bisection floor stops (:meth:`_CompiledComponent._halves`), or
        that needs more than ``PANEL_CAP`` leaves, raises :class:`QuadFailure`
        without evaluating the density.
        """
        if tol is None:
            tol = algebra.drop_tolerance()
        log_tol = float(mp.log(tol)) - _GL_EXACT * math.log(2)
        scale = self.prec + _GUARD_BITS - min(near, 0)
        leaves = []
        for comp in self.components:
            for panel in comp.leaves(poles, scale, degree, log_tol):
                leaves.append((comp, panel))
                if len(leaves) > PANEL_CAP:
                    raise QuadFailure(f"panel budget {PANEL_CAP} exceeded")
        return [comp.weigh(panel) for comp, panel in leaves]

    def _pole_panels(self, tol, poles, degree: int):
        """The poles as ``mpc``, floor(log2) of the distance from each to the
        support, and the panels resolving a kernel that is singular at them
        and whose numerator grows like |t|^degree. Raises
        :class:`PointOnSupport` for a pole within 10 eps max(1, |p|) of the
        support (:func:`_support_log2`)."""
        poles = [mp.mpc(p) for p in poles]
        near = [_support_log2(p, self.intervals) for p in poles]
        return poles, near, self._leaves(tol, poles, degree, min(near, default=0))

    def nodes(self, tol=None, poles=(), degree: int = 0):
        """Nodes and weights resolving a kernel that is singular at ``poles``
        (points of the t-plane) and whose numerator grows like |t|^degree."""
        if not self.components:
            return [], []
        _, _, panels = self._pole_panels(tol, poles, degree)
        return ([mp.make_mpf(t) for p in panels for t in p.ts],
                [mp.make_mpc(w) for p in panels for w in p.ws])

    def transform(self, z, r: int, tol=None):
        """The r-th derivative at z of the Cauchy transform over the node set,
        -r! L[1/(t - z)^(r+1)]: the j = 0 moment with z an (r+1)-fold node."""
        return -math.factorial(r) * self.moments(0, tol, [z] * (r + 1))[0]

    def moments(self, upto: int, tol=None, nodes=()):
        """Integrals of t^j / v(t) for j = 0..upto, where v(t) is the product
        of (t - zeta) over ``nodes`` (with repeats; v = 1 when there are none),
        in one running-power pass over the panels' integer nodes and weights.
        This is every integral against the measure: the Cauchy transform and
        its derivatives are the j = 0 moment with z as a node (repeated), and
        the error formula combines the moments with the nodes and z. Raises
        :class:`PointOnSupport` when a node lies on the support.

        With P = prec + 64, each panel holds t on the grid 2^-(P - L), L the
        floor(log2) of its largest |t|, and W_k / v(t_k) on the grid of its
        largest part (:func:`_weights_over_v`); each power is the floored
        (term * t) >> P, so every term carries P bits below the panel's bound
        max|W/v| * 2^(jL). The panel sums of each power are exact integers,
        aligned exactly across panels and rounded to ``mpc`` once.
        """
        if not self.components:
            return [mp.mpc(0)] * (upto + 1)
        nodes, near, panels = self._pole_panels(tol, nodes, upto)
        top = self.prec + _GUARD_BITS
        factors = [(m, lz, to_fixed(z.real._mpf_, top - lz), to_fixed(z.imag._mpf_, top - lz))
                   for (z, lz), m in Counter(zip(nodes, near)).items()]
        sums = [None] * (upto + 1)
        for panel in panels:
            gr, gi, exp = _weights_over_v(panel, factors, top)
            ts = _on_grid(panel.t_ints, panel.t_exp, top - panel.t_top) if upto else None
            for j in range(upto + 1):
                if j:
                    gr = [(a * t) >> top for a, t in zip(gr, ts)]
                    if gi is not None:
                        gi = [(b * t) >> top for b, t in zip(gi, ts)]
                _add_exact(sums, j, sum(gr), sum(gi) if gi is not None else 0,
                           exp + j * panel.t_top)
        return [mp.mpc(mp.mpf((re, e)), mp.mpf((im, e))) for re, im, e in sums]


def _weights_over_v(panel: _Panel, factors, top: int):
    """A panel's W_k / v(t_k) as integer parts (re, im) and one exponent e,
    W_k / v(t_k) = (re_k + i im_k) * 2^e; im is None when every part is 0.

    ``factors`` holds (multiplicity, L, Re zeta, Im zeta) per node zeta, L the
    floor(log2) of its distance to the support and zeta on the grid
    2^-(top - L). v(t_k) is the product of the exact differences t_k - zeta
    on that grid, each product after the first factor floored back to
    ``top`` bits, and W * conj(v) // |v|^2 is scaled so that it carries
    ``top`` bits below the panel's largest |W / v|.
    """
    wr, wi = panel.wr, panel.wi
    if not factors:
        return wr, (wi if any(wi) else None), -panel.w_scale
    vexp = sum(mult * lz for mult, lz, _, _ in factors) - top
    vr = None
    for mult, lz, zr, zi in factors:
        dr = [t - zr for t in _on_grid(panel.t_ints, panel.t_exp, top - lz)]
        if vr is None:
            # v starts from the first factor t - zeta, exact on its grid
            vr, vi, mult = dr, [-zi] * len(dr), mult - 1
        for _ in range(mult):
            vr, vi = ([(a * d + b * zi) >> top for a, b, d in zip(vr, vi, dr)],
                      [(b * d - a * zi) >> top for a, b, d in zip(vr, vi, dr)])
    den = [a * a + b * b for a, b in zip(vr, vi)]
    m = (min(den).bit_length() - 1) // 2
    gr, gi = [], []
    for x, y, a, b, d in zip(wr, wi, vr, vi, den):
        gr.append(((x * a + y * b) << m) // d)
        gi.append(((y * a - x * b) << m) // d)
    return gr, gi, -(m + panel.w_scale + vexp)


def _add_exact(sums: list, j: int, re: int, im: int, e: int) -> None:
    """Add (re + i im) * 2^e exactly to sums[j] = [re, im, exponent], which
    keeps the finer of the two exponents."""
    acc = sums[j]
    if acc is None:
        sums[j] = [re, im, e]
    elif e >= acc[2]:
        acc[0] += re << (e - acc[2])
        acc[1] += im << (e - acc[2])
    else:
        d = acc[2] - e
        acc[0], acc[1], acc[2] = (acc[0] << d) + re, (acc[1] << d) + im, e


def _running_powers(eta, upto: int) -> list:
    """eta^j for j = 0..upto, each bit for bit mpmath's ``eta**j``.

    mpmath's ``mpc ** int`` (``libmpc.mpc_pow_int``) puts the mantissas of
    eta on their common exponent e, raises that Gaussian integer to the j-th
    power exactly and rounds each part once at exponent j*e, while
    j * (|exponent difference| + largest bitcount) is below 10,000 bits;
    here the exact powers come from one running product instead of one power
    per j. j <= 2, a pole on an axis and the j that mpmath takes by exp and
    log are left to mpmath.
    """
    (asign, a, aexp, abc), (bsign, b, bexp, bbc) = eta._mpc_
    if not (a and b):
        return [eta**j for j in range(upto + 1)]
    powers = [eta**j for j in range(min(upto, 2) + 1)]
    e = min(aexp, bexp)
    a, b = (-a if asign else a) << (aexp - e), (-b if bsign else b) << (bexp - e)
    x, y = a * a - b * b, 2 * a * b
    prec, rnd = mp.mp._prec_rounding  # what mpc ** int rounds with
    for j in range(3, min(upto, 9999 // (abs(aexp - bexp) + max(abc, bbc))) + 1):
        x, y = x * a - y * b, x * b + y * a
        powers.append(mp.make_mpc((from_man_exp(x, j * e, prec, rnd),
                                   from_man_exp(y, j * e, prec, rnd))))
    return powers + [eta**j for j in range(len(powers), upto + 1)]


class RationalPart(ClosedForm):
    """Sum of polar parts r_{k}/(z-eta)^{k+1} over a finite set of poles: a
    part of F in closed form (:class:`chebyshev.ClosedForm`), singular at its
    poles."""

    class Pole:
        __slots__ = ("eta", "multiplicity", "coeffs")

        def __init__(self, eta, multiplicity, coeffs):
            self.eta = to_mpc(eta)
            self.multiplicity = int(multiplicity)
            self.coeffs = [to_mpc(c) for c in coeffs]
            if self.multiplicity < 1:
                raise ValueError("pole multiplicity must be >= 1")
            if len(self.coeffs) != self.multiplicity:
                raise ValueError("need exactly multiplicity Laurent coefficients")
            if self.coeffs[-1] == 0:
                raise ValueError("leading Laurent coefficient must be nonzero")

    def __init__(self, poles=()):
        self.poles = [
            p if isinstance(p, RationalPart.Pole) else RationalPart.Pole(*p)
            for p in poles
        ]
        for u in range(len(self.poles)):
            for v in range(u + 1, len(self.poles)):
                if self.poles[u].eta == self.poles[v].eta:
                    raise ValueError("poles must be pairwise distinct")

    @classmethod
    def empty(cls) -> "RationalPart":
        return cls(())

    def is_empty(self) -> bool:
        return not self.poles

    @property
    def s(self) -> int:
        return sum(p.multiplicity for p in self.poles)

    def denominator(self) -> Poly:
        return Poly.from_roots([p.eta for p in self.poles for _ in range(p.multiplicity)])

    def pole_locations(self):
        return [p.eta for p in self.poles]

    def check_clear_of(self, lam: ComplexMeasure, clearance=mp.mpf("1e-12")):
        for p in self.poles:
            if algebra.support_distance(p.eta, lam.intervals) <= clearance:
                raise ValueError("rational-part poles must avoid the support")

    def taylor(self, z, r: int) -> list:
        """R^(j)(z) / j!, j = 0..r: the sum over poles eta and k of
        r_k (-1)^j C(k + j, j) w^(k+j+1), w = 1/(z - eta), pole by pole, with
        the powers of w formed left to right."""
        out = [mp.mpc(0)] * (r + 1)
        for p in self.poles:
            w = 1 / (z - p.eta)
            powers = [w]
            for _ in range(len(p.coeffs) + r - 1):
                powers.append(powers[-1] * w)
            for k, rk in enumerate(p.coeffs):
                for j in range(r + 1) if rk else ():
                    term = rk * powers[k + j]
                    out[j] += (-1) ** j * math.comb(k + j, j) * term if j else term
        return out

    def _check_point(self, z) -> None:
        # z and a pole coincide at the scale of z
        if any(algebra.coincident(z - p.eta, z) for p in self.poles):
            raise PointAtPole(f"z = {mp.nstr(z, 10)} is a pole of the rational part")

    def _check_node(self, zeta) -> None:
        # a pole and the node coincide at the scale of the pole
        for p in self.poles:
            if algebra.coincident(p.eta - zeta, p.eta):
                raise PoleOnNode(f"pole {mp.nstr(p.eta, 10)} is a node of v2n")

    def _power_moments(self, upto: int) -> list:
        """R's Laurent coefficients at infinity, L on R against t^m for
        m = 0..upto: the sum over poles eta and k of r_k C(m, k) eta^(m-k),
        with the powers of eta from :func:`_running_powers`."""
        out = [mp.mpc(0)] * (upto + 1)
        for p in self.poles:
            powers = _running_powers(p.eta, upto)
            for k, rk in enumerate(p.coeffs):
                for m in range(k, upto + 1) if rk else ():
                    out[m] += rk * math.comb(m, k) * powers[m - k]
        return out


# ---------------------------------------------------------------------------
# transforms, moments, argument variation
# ---------------------------------------------------------------------------


def _transform(lam: ComplexMeasure, R: RationalPart, z, r: int, tol=None):
    """The r-th derivative at z of the measure's Cauchy transform plus R: the
    sum of each part's ``transform``, the measure's parts then R. A part
    raises for its own singular set: :class:`PointOnSupport` on a support,
    :class:`PointAtPole` at a pole of R (:func:`algebra.coincident`)."""
    z = mp.mpc(z)
    return sum(part.transform(z, r, tol) for part in (*lam.parts(), R))


def _moment_sum(parts, upto: int, tol, nodes=()) -> list:
    """L on each part against t^j / v(t), j = 0..upto, summed in order."""
    out = [mp.mpc(0)] * (upto + 1)
    for part in parts:
        out = [a + b for a, b in zip(out, part.moments(upto, tol, nodes))]
    return out


def cauchy_transform(lam: ComplexMeasure, z, tol=None):
    """Integral of 1/(z - t) against the measure (:func:`_transform`): closed
    form on the components with a Chebyshev series, the j = 0 moment with z
    as the one node on the others. Raises :class:`PointOnSupport` when z
    lies on the support."""
    return _transform(lam, RationalPart.empty(), z, 0, tol)


def measure_moments(lam: ComplexMeasure, upto: int, tol=None, nodes=()) -> list:
    """The integrals of t^j / v(t) against the measure, j = 0..upto, v(t) the
    product of (t - zeta) over ``nodes`` (with repeats; v = 1 when there are
    none): every such integral comes through here.

    The sum over the measure's parts (:meth:`ComplexMeasure.parts`): a
    series is closed form whatever ``tol``, the node set sums at ``tol``.
    Raises :class:`PointOnSupport` when a node lies on the support.
    """
    return _moment_sum(lam.parts(), upto, tol, [mp.mpc(z) for z in nodes])


def eval_F(lam: ComplexMeasure, R: RationalPart, z, tol=None):
    """F(z) = -L[1/(t - z)]: the Cauchy transform of the measure plus the
    rational polar part (:func:`_transform`)."""
    return _transform(lam, R, z, 0, tol)


def eval_F_derivative(lam: ComplexMeasure, R: RationalPart, z, r: int, tol=None):
    """r-th derivative of eval_F at z (r >= 0): -r! L[1/(t - z)^(r+1)], the
    j = 0 value of L with z as an (r+1)-fold node, with the jets of R and
    of the Chebyshev-series components in place of their part of L."""
    return _transform(lam, R, z, r, tol)


def moments(lam: ComplexMeasure, R: RationalPart, J: int, tol=None):
    """Power moments c_0..c_J of the full function at infinity, L[t^j]: the
    sum over the measure's parts (:func:`measure_moments`) then R, whose
    part is its Laurent coefficients at infinity."""
    if J < 0:
        raise ValueError("J must be >= 0")
    return _moment_sum((*lam.parts(), R), J, tol)


def _wrap_angle(x):
    y = mp.fmod(x + mp.pi, 2 * mp.pi)
    if y <= 0:
        y += 2 * mp.pi
    return y - mp.pi


def argument_variation(lam: ComplexMeasure, gridN: int):
    """Total variation of the unwrapped density argument on a sampling grid,
    at the working precision.

    Within each interval consecutive samples are unwrapped by nearest-branch
    continuation, guarded by the pi/2 jump test; gaps between intervals
    contribute the principal-value jump (the linear-interpolation extension
    of the argument across the gap). The result is a lower bound of the true
    variation that is nondecreasing under grid refinement.

    This is the mpmath reference for :func:`argument_variation_f64`, which
    the checkers call; the tests compare the two. Like :func:`quad_integrate`
    it stays in this module because the benchmark tracer patches it by name.
    """
    if gridN < 2:
        raise ValueError("gridN must be >= 2")
    total = mp.mpf(0)
    prev_raw = None
    for comp in lam.components:
        raw = []
        for t in comp.sample_points(gridN):
            v = comp.density(t)
            if v == 0:
                raise UnwrapFailure(
                    f"density vanishes at sample t={mp.nstr(t, 8)}; argument undefined"
                )
            raw.append(mp.arg(v))
        if prev_raw is not None:
            total += abs(_wrap_angle(raw[0] - prev_raw))
        for u, v in zip(raw, raw[1:]):
            step = _wrap_angle(v - u)
            if abs(step) >= mp.pi / 2:
                raise UnwrapFailure(
                    "argument jump >= pi/2 between samples; refine the grid"
                )
            total += abs(step)
        prev_raw = raw[-1]
    return total


def _wrap_f64(d):
    """An angle difference in [-2pi, 2pi] wrapped to (-pi, pi]; a difference
    already in that range is returned unchanged, so small steps stay exact."""
    return np.where(d > np.pi, d - 2 * np.pi, np.where(d <= -np.pi, d + 2 * np.pi, d))


def _sample_args_f64(comp: MeasureComponent, gridN: int) -> np.ndarray:
    """Principal arguments of the density at the component's gridN samples.

    One float64 pass over the parse tree; if any value is non-finite or
    exactly 0 (overflow or underflow in float64, or a true zero), the
    samples are evaluated at the working precision instead.
    """
    v = comp.density.f64(comp.sample_points_f64(gridN))
    if np.all(np.isfinite(v)) and np.all(v != 0):
        return np.angle(v)
    raw = []
    for t in comp.sample_points(gridN):
        w = comp.density(t)
        if w == 0:
            raise UnwrapFailure(
                f"density vanishes at sample t={mp.nstr(t, 8)}; argument undefined"
            )
        raw.append(float(mp.arg(w)))
    return np.array(raw)


def argument_variation_f64(lam: ComplexMeasure, gridN: int) -> mp.mpf:
    """Total variation of the unwrapped density argument, in float64.

    The same grid, nearest-branch unwrap, principal-value gap jumps, pi/2
    jump guard and :class:`UnwrapFailure` on a zero sample as
    :func:`argument_variation`, the working-precision reference; the steps
    are summed with ``math.fsum``. The value does not depend on the working
    precision beyond float64 rounding and agrees with the reference to about
    1e-13 relative, far inside the 1e-2 tolerances of the budgets that read
    it.
    """
    if gridN < 2:
        raise ValueError("gridN must be >= 2")
    steps = []
    prev_last = None
    for comp in lam.components:
        raw = _sample_args_f64(comp, gridN)
        if prev_last is not None:
            steps.append(abs(float(_wrap_f64(raw[0] - prev_last))))
        inner = np.abs(_wrap_f64(np.diff(raw)))
        if np.any(inner >= np.pi / 2):
            raise UnwrapFailure("argument jump >= pi/2 between samples; refine the grid")
        steps.extend(inner.tolist())
        prev_last = raw[-1]
    return mp.mpf(math.fsum(steps))
