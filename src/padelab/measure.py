"""Complex measures on unions of real intervals, and rational polar parts.

A measure is a list of components, each a closed interval carrying a complex
density expression in the real variable ``t``. A component flagged
``endpoint_singular`` additionally carries the implicit positive factor
``1/sqrt((t-a)(b-t))``; that is how inverse-square-root (arcsine-type)
endpoint behavior is expressed, since the density grammar itself has no
fractional powers. Such components are integrated after the substitution
``t = midpoint + halfwidth*cos(theta)``, which removes the singularity
exactly. Every integral against a measure -- transforms, their derivatives,
moments and the error formula -- is a generalized moment of t^j / v(t), v a
product of linear factors: the value of one functional L on t^j / v
(:func:`functional`), off which F, its derivatives and the power moments
are read. L has two kinds of part. A component whose density is not a
short Chebyshev series is summed over the measure's compiled
Gauss-Legendre node set (:meth:`CompiledMeasure.moments`). An
endpoint-singular component whose density is one
(:class:`chebyshev.ChebyshevSeries`) and the rational part R
(:class:`RationalPart`) are closed form off their support: each gives the
jets of its transform at a point (``taylor``) and L on itself
(``moments``), exact power moments or Laurent coefficients with no node and
one residue sum at the nodes otherwise (:func:`chebyshev.residue_moments`),
so no quadrature runs for them.

A density is parsed by Python's own expression parser and accepted only
within a whitelist: ``t``, the constants ``i``/``j``, ``pi``, ``e``, exact
decimal literals, unary and binary ``+ - * /``, integer powers (``^`` is
``**``) and one-argument ``exp``, ``log``/``ln``. One evaluator walks the
parse tree in either of two arithmetics: mpmath at the working precision,
which every integral uses, and numpy complex128 over a whole sample array,
for the float64 argument variation that the checkers grade.
"""

from __future__ import annotations

import ast
import cmath
import copy
import math
import operator
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from . import algebra
from .algebra import (
    _GUARD_BITS,
    Poly,
    _exact_ints,
    _exceeds,
    _on_grid,
    to_mpc,
    to_mpf,
)
from .chebyshev import ChebyshevSeries, residue_moments
from .errors import (
    PointAtPole,
    PointOnSupport,
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
    "functional",
    "measure_moments",
    "eval_F",
    "eval_F_derivative",
    "moments",
    "argument_variation_f64",
]


# ---------------------------------------------------------------------------
# density expressions
# ---------------------------------------------------------------------------


_CONSTANTS = ("i", "j", "pi", "e")
_FUNCTIONS = {"exp": "exp", "log": "log", "ln": "log"}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _parse_density(text: str):
    """Parse tree of a density expression, its literals as exact fractions,
    and the set of functions it calls.

    The text, with ``^`` read as ``**``, is parsed as a Python expression
    and every node is checked against the density grammar. A tree node is
    ``("t",)``, ``("value", key)`` for a constant name or the index of a
    literal, ``("neg", arg)``, ``("pow", base, int)``, ``("exp", arg)``,
    ``("log", arg)`` or ``(binary operator, left, right)``. Literals are
    read from their source text, never from the float Python made of them.
    """
    src = text.replace("^", "**").strip()
    try:
        body = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse density {text!r}: {exc.msg}") from None
    literals: list[Fraction] = []
    called: set[str] = set()

    def reject(node):
        return ValueError(
            f"{ast.get_source_segment(src, node)!r} is not in the density grammar"
        )

    def literal(node) -> Fraction:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return Fraction(ast.get_source_segment(src, node))
        raise reject(node)

    def exponent(node) -> int:
        sign = 1
        while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            sign = -sign if isinstance(node.op, ast.USub) else sign
            node = node.operand
        q = literal(node)
        if q.denominator != 1:
            raise ValueError("only integer powers are supported")
        return sign * int(q)

    def build(node):
        if isinstance(node, ast.Name) and node.id == "t":
            return ("t",)
        if isinstance(node, ast.Name) and node.id in _CONSTANTS:
            return ("value", node.id)
        if isinstance(node, ast.Constant):
            literals.append(literal(node))
            return ("value", len(literals) - 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", build(node.operand))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return build(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return ("pow", build(node.left), exponent(node.right))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], build(node.left), build(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            called.add(_FUNCTIONS[node.func.id])
            return (_FUNCTIONS[node.func.id], build(node.args[0]))
        raise reject(node)

    return build(body), literals, frozenset(called)


def _evaluate(node, t, values, functions):
    """Value of a parse tree at t in one arithmetic: ``values`` maps the
    constant names and literal indices, ``functions`` has exp and log."""
    kind = node[0]
    if kind == "t":
        return t
    if kind == "value":
        return values[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], t, values, functions)
    if kind == "pow":
        return _evaluate(node[1], t, values, functions) ** node[2]
    if kind in functions:
        return functions[kind](_evaluate(node[1], t, values, functions))
    return kind(_evaluate(node[1], t, values, functions),
                _evaluate(node[2], t, values, functions))


def _float64(q: Fraction) -> np.float64:
    try:
        return np.float64(float(q))
    except OverflowError:
        return np.float64(np.inf)


def _log_f64(x):
    # + 0.0 turns a -0.0 imaginary part into +0.0, so a negative real
    # takes the branch +pi, as mpmath (which has no signed zero) does
    return np.log(np.asarray(x, dtype=np.complex128) + 0.0)


_MP_FUNCTIONS = {"exp": mp.exp, "log": mp.log}
_F64_FUNCTIONS = {"exp": np.exp, "log": _log_f64}
_F64_CONSTANTS = {"i": np.complex128(1j), "j": np.complex128(1j),
                  "pi": np.float64(math.pi), "e": np.float64(math.e)}


class DensityExpr:
    """Closed expression in ``t`` over complex constants, exp, log, powers.

    ``functions`` is the set of functions the expression calls, with ``ln``
    read as ``log``.
    """

    __slots__ = ("source", "functions", "_tree", "_literals", "_f64_values",
                 "_mp_prec", "_mp_values")

    def __init__(self, source: str):
        self.source = str(source)
        self._tree, self._literals, self.functions = _parse_density(self.source)
        self._f64_values = dict(_F64_CONSTANTS)
        self._f64_values.update(enumerate(_float64(q) for q in self._literals))
        self._mp_prec = None
        self._mp_values = None

    def __call__(self, t):
        if self._mp_prec != mp.mp.prec:
            # literals are rounded once per precision
            values = {"i": mp.mpc(0, 1), "j": mp.mpc(0, 1), "pi": mp.pi, "e": mp.e}
            values.update(enumerate(algebra.fraction_to_mpf(q) for q in self._literals))
            self._mp_values, self._mp_prec = values, mp.mp.prec
        return mp.mpc(_evaluate(self._tree, t, self._mp_values, _MP_FUNCTIONS))

    def f64(self, t: np.ndarray) -> np.ndarray:
        """Values at a float64 (or complex128) sample array, as complex128.

        One vectorized pass over the parse tree; overflow, division by zero
        and invalid operations give inf or nan, without a warning.
        """
        t = np.asarray(t, dtype=np.complex128)
        with np.errstate(all="ignore"):
            v = _evaluate(self._tree, t, self._f64_values, _F64_FUNCTIONS)
        return np.broadcast_to(np.asarray(v, dtype=np.complex128), t.shape)

    def __repr__(self):
        return f"DensityExpr({self.source!r})"


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


def _gl_values(f, a, b, xs):
    """Integrand values at the Gauss-Legendre nodes of the panel [a, b]."""
    h = (b - a) / 2
    m = (a + b) / 2
    return [f(m + h * x) for x in xs]


def _gl_sum(vals, a, b, ws):
    acc = mp.mpc(0)
    for w, v in zip(ws, vals):
        acc += w * v
    return (b - a) / 2 * acc


def _accepted_panels(f, a, b, tol):
    """Panels of [a, b] accepted by the adaptive bisection test, left to right.

    A panel is accepted once splitting it changes its value by less than its
    share of ``tol`` relative to the integrand's L1 mass. Yields
    ``(pa, pm, pb, left_vals, right_vals, value)`` per accepted panel, where
    the values are the integrand at the nodes of the two halves. Raises
    :class:`QuadFailure` once more than ``PANEL_CAP`` panels are needed.
    """
    xs, ws = gauss_legendre_rule()
    whole_vals = _gl_values(f, a, b, xs)
    whole = _gl_sum(whole_vals, a, b, ws)
    acc_abs = mp.mpf(0)
    for w, v in zip(ws, whole_vals):
        acc_abs += w * abs(v)
    l1 = abs((b - a) / 2) * acc_abs
    scale = max(l1, mp.mpf(2) ** (-mp.mp.prec))
    total_len = b - a

    panels = 0
    stack = [(a, b, whole)]
    while stack:
        pa, pb, pval = stack.pop()
        panels += 1
        if panels > PANEL_CAP:
            raise QuadFailure(
                f"panel budget {PANEL_CAP} exceeded on [{mp.nstr(a,8)}, {mp.nstr(b,8)}]"
            )
        pm = (pa + pb) / 2
        left_vals = _gl_values(f, pa, pm, xs)
        right_vals = _gl_values(f, pm, pb, xs)
        left = _gl_sum(left_vals, pa, pm, ws)
        right = _gl_sum(right_vals, pm, pb, ws)
        if abs(pval - left - right) <= tol * scale * (pb - pa) / total_len:
            yield pa, pm, pb, left_vals, right_vals, left + right
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
    acc = mp.mpc(0)
    for *_, value in _accepted_panels(f, a, b, tol):
        acc += value
    return acc


# ---------------------------------------------------------------------------
# measure components
# ---------------------------------------------------------------------------


class MeasureComponent:
    """One interval of the support with its density expression; ``a`` and
    ``b`` are the endpoints as ``mpf``, rounded once per precision."""

    __slots__ = ("a_exact", "b_exact", "density", "endpoint_singular", "_rounded")

    def __init__(self, interval, density, endpoint_singular=False):
        self.a_exact = self._exact(interval[0])
        self.b_exact = self._exact(interval[1])
        if self.b_exact <= self.a_exact:
            raise ValueError("interval must have positive length")
        self.density = (
            density if isinstance(density, DensityExpr) else DensityExpr(density)
        )
        self.endpoint_singular = bool(endpoint_singular)
        self._rounded = (None, None, None)

    @staticmethod
    def _exact(x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            re_q, im_q = algebra.parse_complex(x)
            if im_q != 0:
                raise ValueError("interval endpoints must be real")
            return re_q
        return Fraction(x)

    def _endpoints(self):
        if self._rounded[0] != mp.mp.prec:
            self._rounded = (mp.mp.prec, algebra.fraction_to_mpf(self.a_exact),
                             algebra.fraction_to_mpf(self.b_exact))
        return self._rounded

    @property
    def a(self) -> mp.mpf:
        return self._endpoints()[1]

    @property
    def b(self) -> mp.mpf:
        return self._endpoints()[2]

    def sample_points(self, n: int):
        a, b = self.a, self.b
        return [a + (b - a) * k / (n - 1) for k in range(n)]


# equispaced samples per component at which a new measure's density is checked
_VALIDATION_SAMPLES = 64


class ComplexMeasure:
    """Finite union of disjoint intervals, each carrying a complex density."""

    def __init__(self, components, density_floor=1e-12, waive_floor=False):
        comps = list(components)
        comps.sort(key=lambda c: c.a_exact)
        for u, v in zip(comps, comps[1:]):
            if v.a_exact <= u.b_exact:
                raise ValueError("measure intervals must be pairwise disjoint")
        self.components = comps
        self.density_floor = mp.mpf(density_floor)
        self.waive_floor = bool(waive_floor)
        self.floor_observed = None
        # state filled on first use: compiled node sets and Chebyshev series
        # keyed by mp.prec, float64 density argument variations keyed by gridN
        self._compiled: dict[int, CompiledMeasure] = {}
        self._series: dict[int, list] = {}
        self.variation_cache: dict[int, mp.mpf] = {}
        if comps:
            self._validate_densities()

    def _validate_densities(self):
        lo = mp.inf
        for comp in self.components:
            for t in comp.sample_points(_VALIDATION_SAMPLES):
                v = comp.density(t)
                if not (mp.isfinite(v.real) and mp.isfinite(v.imag)):
                    raise ValueError(
                        f"density {comp.density.source!r} not finite at t={mp.nstr(t, 8)}"
                    )
                lo = min(lo, abs(v))
        self.floor_observed = lo
        if not self.waive_floor and lo < self.density_floor:
            raise ValueError(
                f"sampled density magnitude {mp.nstr(lo, 6)} below floor "
                f"{mp.nstr(self.density_floor, 6)} (set waive_floor to accept)"
            )

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
        """The node set at the current precision; each component's panels
        are compiled on first use."""
        nodes = self._compiled.get(mp.mp.prec)
        if nodes is None:
            nodes = self._compiled[mp.mp.prec] = CompiledMeasure(self)
        return nodes

    def series(self) -> list:
        """Per component, its chopped Chebyshev series at the current
        precision (:meth:`ChebyshevSeries.build`), or None where the Cauchy
        transform goes through the compiled measure: a component that is not
        endpoint-singular, or whose series does not chop. Built on first use."""
        out = self._series.get(mp.mp.prec)
        if out is None:
            out = self._series[mp.mp.prec] = [
                ChebyshevSeries.build(c) if c.endpoint_singular else None
                for c in self.components
            ]
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
    """A panel [lo, hi] of the integration variable with its nodes t_k and
    weights W_k = w_k * h * rho(t_k); its midpoint and half-width are also
    kept as floats for the ellipse guard. Its two halves and its integer view
    (:class:`_FixedPanel`) are made on first need."""

    __slots__ = ("lo", "hi", "mid", "half", "mid_f64", "half_f64", "ts", "ws", "halves",
                 "fixed")

    def __init__(self, lo, hi, ts, ws):
        self.lo, self.hi = lo, hi
        self.mid = (lo + hi) / 2
        self.half = (hi - lo) / 2
        self.mid_f64, self.half_f64 = float(self.mid), float(self.half)
        self.ts, self.ws = ts, ws
        self.halves = None
        self.fixed = None

    def view(self) -> "_FixedPanel":
        if self.fixed is None:
            self.fixed = _FixedPanel(self)
        return self.fixed


def _quotient(num: int, den: int) -> float:
    """num/den correctly rounded to a float; infinite where it is out of range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


class _FixedPanel:
    """A panel's nodes, midpoint and half-width as Python integers, each
    list exact at one binary exponent, and its weights on the grid
    2^-w_scale, prec + 64 bits below the floor(log2) of their largest real
    or imaginary part; ``t_top`` is floor(log2) of the largest |t|."""

    __slots__ = ("t_exp", "ts", "t_top", "w_scale", "wr", "wi", "b_exp", "mid", "half")

    def __init__(self, panel: _Panel):
        self.t_exp, self.ts = _exact_ints(panel.ts)
        self.t_top = self.t_exp + max(abs(x) for x in self.ts).bit_length() - 1
        w_exp, w = _exact_ints([x for v in panel.ws for x in (v.real, v.imag)])
        w_top = w_exp + max(abs(x) for x in w).bit_length() - 1
        self.w_scale = mp.mp.prec + _GUARD_BITS - w_top
        w = _on_grid(w, w_exp, self.w_scale)
        self.wr, self.wi = w[0::2], w[1::2]
        self.b_exp, (self.mid, self.half) = _exact_ints([panel.mid, panel.half])


class _CompiledComponent:
    """Panels of one component in its integration variable u.

    u is t itself, or theta with t = c + r*cos(theta) on an endpoint-singular
    component, where the implicit 1/sqrt((t-a)(b-t)) dt is exactly dtheta.
    """

    def __init__(self, comp: MeasureComponent, tol):
        self.comp = comp
        self.theta = comp.endpoint_singular
        a, b = comp.a, comp.b
        self.a, self.b = a, b
        self.c, self.r = (a + b) / 2, (b - a) / 2
        self.c_f64, self.r_f64 = float(self.c), float(self.r)
        lo, hi = (mp.mpf(0), +mp.pi) if self.theta else (a, b)
        rho = comp.density
        self.base = []
        for pa, pm, pb, left, right, _ in _accepted_panels(
            lambda u: rho(self.t_of(u)), lo, hi, tol
        ):
            self.base += [self._panel(pa, pm, left), self._panel(pm, pb, right)]

        self.narrowest = min((p.half for p in self.base), default=mp.inf)

    def t_of(self, u):
        return self.c + self.r * mp.cos(u) if self.theta else u

    def _panel(self, lo, hi, rho_vals=None) -> _Panel:
        xs, ws = gauss_legendre_rule()
        h, m = (hi - lo) / 2, (lo + hi) / 2
        ts = [self.t_of(m + h * x) for x in xs]
        if rho_vals is None:
            rho_vals = [self.comp.density(t) for t in ts]
        return _Panel(lo, hi, ts, [w * h * v for w, v in zip(ws, rho_vals)])

    def _halves(self, panel: _Panel):
        if panel.halves is None:
            if panel.half <= mp.mpf(2) ** (20 - mp.mp.prec) * max(1, abs(panel.mid)):
                raise QuadFailure(
                    "kernel singularity too close to the support to resolve near "
                    f"t={mp.nstr(self.t_of(panel.mid), 10)}"
                )
            panel.halves = (self._panel(panel.lo, panel.mid),
                            self._panel(panel.mid, panel.hi))
        return panel.halves

    def beyond_floor(self, p, log_tol: float) -> None:
        """Raise :class:`QuadFailure` when no panel that :meth:`_halves` can
        reach resolves a Cauchy kernel singular at p, so that the bisection
        would end in the same failure. Components integrated in theta are
        not tested.

        Every panel that contains x, the point of [a, b] nearest p, has its
        ends at a summed distance of at most 2 H + 2 dist from p, H its
        half-width and dist = |p - x|; so its Bernstein parameter is at most
        1 + delta + sqrt(delta^2 + 2 delta), delta = dist / H. A panel is
        halved only above the floor 2^(20 - prec) max(1, |mid|), so a panel
        the guard tests has H > 2^(18 - prec) max(1, |x|), or is a base
        panel: when even that bound on the parameter misses the guard's
        rho^(-64) <= tol 2^(-64) (with a factor e to spare), every panel
        containing x is bisected down to the floor.
        """
        if self.theta:
            return
        x = min(max(p.real, self.a), self.b)
        H = min(mp.ldexp(max(1, abs(x)), 18 - mp.mp.prec), self.narrowest)
        delta = float(algebra.segment_distance(p, self.a, self.b) / H)
        if -_GL_EXACT * math.log1p(delta + math.sqrt(delta * (delta + 2))) > log_tol + 1:
            raise QuadFailure(
                "kernel singularity too close to the support to resolve near "
                f"t={mp.nstr(x, 10)}"
            )

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
        v = panel.view()
        mid, half = _on_grid((v.mid, v.half), v.b_exp, scale)
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

    def leaves(self, poles, scale: int, degree: int, log_tol: float, out: list) -> None:
        """Append, left to right, the panels resolving the kernel: each base
        panel, bisected while its Gauss-Legendre error bound misses tol."""
        sing = [u for p in poles for u in self._singular_u(p, scale)]
        stack = self.base[::-1]
        while stack:
            panel = stack.pop()
            if self._resolved(panel, self._rho_sing(panel, sing, scale), degree, log_tol):
                out.append(panel)
                if len(out) > PANEL_CAP:
                    raise QuadFailure(f"panel budget {PANEL_CAP} exceeded")
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
    numerator off the support. The margin 2^(-64) is what one more bisection gains against a
    distant singularity; it matches the accuracy of :func:`quad_integrate`,
    which accepts a panel at ``tol`` and returns the sum over its halves.
    The bisected panels are kept, so each node's density is evaluated once.

    Each panel also carries an integer view of its nodes, weights, midpoint
    and half-width, made on first use. The guard forms its ellipse parameter
    from exact integer differences, and :meth:`moments`, the one sum over
    the nodes, adds W_k t_k^j / v(t_k) exactly in Python integers at block
    scale (Brent & Zimmermann, *Modern Computer Arithmetic*, ch. 1-3),
    rounding each result to ``mpc`` once. :meth:`nodes` is the mpmath view
    of the same node set.
    """

    def __init__(self, lam: ComplexMeasure):
        self.prec = mp.mp.prec
        self._sources = lam.components
        self._parts: list = [None] * len(self._sources)
        self._select = tuple(range(len(self._sources)))
        self._views: dict[tuple, CompiledMeasure] = {}
        self.intervals = [(c.a, c.b) for c in self._sources]

    def _part(self, i: int) -> _CompiledComponent:
        part = self._parts[i]
        if part is None:
            part = self._parts[i] = _CompiledComponent(
                self._sources[i], algebra.drop_tolerance())
        return part

    @property
    def components(self) -> list:
        """The panels of each selected component, compiled on first use."""
        return [self._part(i) for i in self._select]

    def restricted(self, select) -> "CompiledMeasure":
        """The node set of the components with indices ``select``: a view
        that shares this node set's panels, so no component is compiled
        twice."""
        select = tuple(select)
        if select == self._select:
            return self
        view = self._views.get(select)
        if view is None:
            view = self._views[select] = copy.copy(self)
            view._select = select
            view.intervals = [(c.a, c.b) for c in (self._sources[i] for i in select)]
        return view

    def _leaves(self, tol, poles, degree: int, near: int) -> list:
        """Panels resolving a kernel that is singular at ``poles`` (points of
        the t-plane) and whose numerator grows like |t|^degree; ``near`` is
        floor(log2) of the smallest distance from a pole to the support.

        The guard holds the singular points, midpoints and half-widths on the
        grid 2^-(prec + 64 - near), and never coarser than 2^-(prec + 64), so
        theta-plane points of a distant pole keep their digits too. A Cauchy
        kernel (degree 0) that no panel down to the bisection floor can
        resolve raises :class:`QuadFailure` before any panel is bisected
        (:meth:`_CompiledComponent.beyond_floor`).
        """
        if tol is None:
            tol = algebra.drop_tolerance()
        log_tol = float(mp.log(tol)) - _GL_EXACT * math.log(2)
        # beyond_floor raises only for delta < exp(-log_tol / 64) / 2, that is
        # within 2^(17 - prec) max(1, |x|) exp(-log_tol / 64) of the support
        reach = 20 - self.prec - log_tol / (_GL_EXACT * math.log(2))
        close = degree == 0 and near < reach + max((max(0, mp.mag(p)) for p in poles), default=0)
        scale = self.prec + _GUARD_BITS - min(near, 0)
        panels: list[_Panel] = []
        for comp in self.components:
            if close:
                for p in poles:
                    comp.beyond_floor(p, log_tol)
            comp.leaves(poles, scale, degree, log_tol, panels)
        return panels

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
        if not self._select:
            return [], []
        _, _, panels = self._pole_panels(tol, poles, degree)
        return ([t for p in panels for t in p.ts], [w for p in panels for w in p.ws])

    def moments(self, upto: int, tol=None, nodes=()):
        """Integrals of t^j / v(t) for j = 0..upto, where v(t) is the product
        of (t - zeta) over ``nodes`` (with repeats; v = 1 when there are none),
        in one running-power pass over the panels' integer views. This is
        every integral against the measure: the Cauchy transform and its
        derivatives are the j = 0 moment with z as a node (repeated), and
        the error formula combines the moments with the nodes and z. Raises
        :class:`PointOnSupport` when a node lies on the support.

        With P = prec + 64, each panel holds t on the grid 2^-(P - L), L the
        floor(log2) of its largest |t|, and W_k / v(t_k) on the grid of its
        largest part (:func:`_weights_over_v`); each power is the floored
        (term * t) >> P, so every term carries P bits below the panel's bound
        max|W/v| * 2^(jL). The panel sums of each power are exact integers,
        aligned exactly across panels and rounded to ``mpc`` once.
        """
        if not self._select:
            return [mp.mpc(0)] * (upto + 1)
        nodes, near, panels = self._pole_panels(tol, nodes, upto)
        top = self.prec + _GUARD_BITS
        factors = [(m, lz, to_fixed(z.real._mpf_, top - lz), to_fixed(z.imag._mpf_, top - lz))
                   for (z, lz), m in Counter(zip(nodes, near)).items()]
        sums = [None] * (upto + 1)
        for panel in panels:
            v = panel.view()
            gr, gi, exp = _weights_over_v(v, factors, top)
            ts = _on_grid(v.ts, v.t_exp, top - v.t_top) if upto else None
            for j in range(upto + 1):
                if j:
                    gr = [(a * t) >> top for a, t in zip(gr, ts)]
                    if gi is not None:
                        gi = [(b * t) >> top for b, t in zip(gi, ts)]
                _add_exact(sums, j, sum(gr), sum(gi) if gi is not None else 0,
                           exp + j * v.t_top)
        return [mp.mpc(mp.mpf((re, e)), mp.mpf((im, e))) for re, im, e in sums]


def _support_log2(p, intervals) -> int:
    """floor(log2) of the distance from the ``mpc`` p to a nonempty union of
    segments; raises :class:`PointOnSupport` when p lies within
    10 eps max(1, |p|) of it, eps = 2^(1 - prec), compared on the exact
    squares of :func:`algebra.support_distance_sq`."""
    d2, z2, e = algebra.support_distance_sq(p, intervals)
    zm, ze = (z2, e) if _exceeds(z2, e, 1, 0) else (1, 0)
    if not _exceeds(d2, e, 100 * zm, ze + 2 - 2 * mp.mp.prec):
        raise PointOnSupport(f"point {mp.nstr(p, 10)} lies on the support")
    # floor(log2 d) = floor(floor(log2 d^2) / 2)
    return (e + d2.bit_length() - 1) // 2


def _weights_over_v(v: _FixedPanel, factors, top: int):
    """A panel's W_k / v(t_k) as integer parts (re, im) and one exponent e,
    W_k / v(t_k) = (re_k + i im_k) * 2^e; im is None when every part is 0.

    ``factors`` holds (multiplicity, L, Re zeta, Im zeta) per node zeta, L the
    floor(log2) of its distance to the support and zeta on the grid
    2^-(top - L). v(t_k) is the product of the exact differences t_k - zeta
    on that grid, each product after the first factor floored back to
    ``top`` bits, and W * conj(v) // |v|^2 is scaled so that it carries
    ``top`` bits below the panel's largest |W / v|.
    """
    wr, wi = v.wr, v.wi
    if not factors:
        return wr, (wi if any(wi) else None), -v.w_scale
    vexp = sum(mult * lz for mult, lz, _, _ in factors) - top
    vr = None
    for mult, lz, zr, zi in factors:
        dr = [t - zr for t in _on_grid(v.ts, v.t_exp, top - lz)]
        if vr is None:
            # v starts from the first factor t - zeta, exact on its grid
            vr, vi, mult = dr, [-zi] * len(dr), mult - 1
        for _ in range(mult):
            vr, vi = ([(a * d + b * zi) >> top for a, b, d in zip(vr, vi, dr)],
                      [(b * d - a * zi) >> top for a, b, d in zip(vr, vi, dr)])
    if len(factors) == 1 and factors[0][0] == 1:
        # the Cauchy kernel v = t - z: Im v is the constant -Im z, squared once
        zi2 = vi[0] * vi[0]
        den = [a * a + zi2 for a in vr]
    else:
        den = [a * a + b * b for a, b in zip(vr, vi)]
    m = (min(den).bit_length() - 1) // 2
    gr, gi = [], []
    for x, y, a, b, d in zip(wr, wi, vr, vi, den):
        gr.append(((x * a + y * b) << m) // d)
        gi.append(((y * a - x * b) << m) // d)
    return gr, gi, -(m + v.w_scale + vexp)


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


class RationalPart:
    """Sum of polar parts r_{k}/(z-eta)^{k+1} over a finite set of poles."""

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
        roots = []
        for p in self.poles:
            roots.extend([p.eta] * p.multiplicity)
        return Poly.from_roots(roots) if roots else Poly.one()

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

    def moments(self, upto: int, nodes=()) -> list:
        """L on R against t^m / v(t), m = 0..upto, v(t) the product of
        (t - zeta) over ``nodes`` (with repeats): with no nodes R's Laurent
        coefficients at infinity, the sum over poles eta and k of
        r_k C(m, k) eta^(m-k); with nodes the residue sum at them
        (:func:`chebyshev.residue_moments`). Raises PoleOnNode when a pole lies
        within 10 eps max(1, |eta|) of a node, the bound of :func:`eval_F`'s
        pole guard."""
        out = [mp.mpc(0)] * (upto + 1)
        if not self.poles:
            return out
        if nodes:
            nodes = [mp.mpc(z) for z in nodes]
            for p in self.poles:
                # mag(x) is at most 2 above log2 |x|, so a node within the bound
                # has mag(eta - zeta) <= 7 - prec + max(0, mag(eta))
                near = 7 - mp.mp.prec + max(0, mp.mag(p.eta))
                for zeta in nodes:
                    d = p.eta - zeta
                    if mp.mag(d) <= near and abs(d) <= 10 * mp.eps * max(1, abs(p.eta)):
                        raise PoleOnNode(f"pole {mp.nstr(p.eta, 10)} is a node of v2n")
            return residue_moments(self, upto, nodes)
        for p in self.poles:
            powers = [p.eta**j for j in range(upto + 1)]
            for k, rk in enumerate(p.coeffs):
                for m in range(k, upto + 1) if rk else ():
                    out[m] += rk * math.comb(m, k) * powers[m - k]
        return out


# ---------------------------------------------------------------------------
# transforms, moments, argument variation
# ---------------------------------------------------------------------------


def _split(lam: ComplexMeasure, upto: int, tol, nodes=()):
    """The measure's Chebyshev series (:meth:`ComplexMeasure.series`), and the
    moments of t^j / v(t), j = 0..upto, over the compiled node set restricted
    to its other components (:meth:`CompiledMeasure.restricted`); with no
    other component nothing is compiled and the moments are 0."""
    series = lam.series()
    rest = [i for i, part in enumerate(series) if part is None]
    moms = (lam.compiled().restricted(rest).moments(upto, tol, nodes) if rest
            else [mp.mpc(0)] * (upto + 1))
    return [part for part in series if part is not None], moms


def _transform(lam: ComplexMeasure, R: RationalPart, z, r: int, tol=None):
    """The r-th derivative at z of the measure's Cauchy transform plus R.

    The components without a Chebyshev series give -r! L[1/(t - z)^(r+1)]:
    the j = 0 moment with z as an (r+1)-fold node over the compiled node set
    restricted to them (:func:`_split`). R and each series add r! times
    their r-th jet at z (``taylor``). Raises :class:`PointOnSupport` when z
    lies on the support.
    """
    parts, moms = _split(lam, 0, tol, [z] * (r + 1))
    if parts:
        _support_log2(z, [(part.a, part.b) for part in parts])
    scale = mp.factorial(r)
    value = -scale * moms[0]
    for part in (R, *parts):
        value += part.taylor(z, r)[r] * scale
    return value


def cauchy_transform(lam: ComplexMeasure, z, tol=None):
    """Integral of 1/(z - t) against the measure (:func:`_transform`): closed
    form on the components with a Chebyshev series, the j = 0 moment with z
    as the one node on the others. Raises :class:`PointOnSupport` when z
    lies on the support."""
    return _transform(lam, RationalPart.empty(), mp.mpc(z), 0, tol)


def functional(lam: ComplexMeasure, R: RationalPart, upto: int, nodes=(), tol=None):
    """L[t^j / v] for j = 0..upto, v(t) the product of (t - zeta) over
    ``nodes`` (with repeats; v = 1 when there are none).

    L is the functional whose transform is F, F(z) = L_t[1/(z - t)]: the
    integral against the measure (:func:`measure_moments`) plus L on R
    (:meth:`RationalPart.moments`).
    """
    measure = measure_moments(lam, upto, tol, nodes)
    return [a + b for a, b in zip(measure, R.moments(upto, nodes))]


def measure_moments(lam: ComplexMeasure, upto: int, tol=None, nodes=()) -> list:
    """The integrals of t^j / v(t) against the measure, j = 0..upto, v(t) the
    product of (t - zeta) over ``nodes`` (with repeats; v = 1 when there are
    none): every such integral comes through here.

    Components with a Chebyshev series give theirs in closed form at the
    current precision whatever ``tol`` (:meth:`ChebyshevSeries.moments`);
    the others are summed over the compiled node set restricted to them, at
    ``tol`` (:func:`_split`), bit for bit as before when there is no series.
    Raises :class:`PointOnSupport` when a node lies on the support.
    """
    nodes = [mp.mpc(z) for z in nodes]
    parts, out = _split(lam, upto, tol, nodes)
    for z in set(nodes) if parts else ():
        _support_log2(z, [(part.a, part.b) for part in parts])
    for part in parts:
        out = [a + b for a, b in zip(out, part.moments(upto, nodes))]
    return out


def _pole_guard(R: RationalPart, z):
    z = mp.mpc(z)
    if R.poles:
        bound = 10 * mp.eps * max(1, abs(z))
        if any(abs(z - p.eta) <= bound for p in R.poles):
            raise PointAtPole(f"z = {mp.nstr(z, 10)} is a pole of the rational part")
    return z


def eval_F(lam: ComplexMeasure, R: RationalPart, z, tol=None):
    """F(z) = -L[1/(t - z)]: the Cauchy transform of the measure plus the
    rational polar part (:func:`_transform`)."""
    return _transform(lam, R, _pole_guard(R, z), 0, tol)


def eval_F_derivative(lam: ComplexMeasure, R: RationalPart, z, r: int, tol=None):
    """r-th derivative of eval_F at z (r >= 0): -r! L[1/(t - z)^(r+1)], the
    j = 0 value of L with z as an (r+1)-fold node, with the jets of R and
    of the Chebyshev-series components in place of their part of L."""
    return _transform(lam, R, _pole_guard(R, z), r, tol)


def moments(lam: ComplexMeasure, R: RationalPart, J: int, tol=None):
    """Power moments c_0..c_J of the full function at infinity, L[t^j]: the
    measure's moments plus R's Laurent coefficients at infinity."""
    if J < 0:
        raise ValueError("J must be >= 0")
    return functional(lam, R, J, (), tol)


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
    a, b = float(comp.a_exact), float(comp.b_exact)
    v = comp.density.f64(a + (b - a) * np.arange(gridN) / (gridN - 1))
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
