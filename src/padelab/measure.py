"""Complex measures on unions of real intervals, and rational polar parts.

A measure is a list of components, each a closed interval carrying a complex
density expression in the real variable ``t``. A component flagged
``endpoint_singular`` additionally carries the implicit positive factor
``1/sqrt((t-a)(b-t))``; that is how inverse-square-root (arcsine-type)
endpoint behavior is expressed, since the density grammar itself has no
fractional powers. Such components are integrated after the substitution
``t = midpoint + halfwidth*cos(theta)``, which removes the singularity
exactly. Transforms, moments and the other kernel integrals are dot
products over the measure's compiled Gauss-Legendre node set
(:class:`CompiledMeasure`).

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
import math
import operator
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from . import algebra
from .algebra import Poly, to_mpc, to_mpf
from .errors import (
    PointAtPole,
    PointOnSupport,
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
# bits the fixed-point rule, guard and kernels carry below the working precision
_GUARD_BITS = 64


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
    """One interval of the support with its density expression."""

    __slots__ = ("a_exact", "b_exact", "density", "endpoint_singular")

    def __init__(self, interval, density, endpoint_singular=False):
        self.a_exact = self._exact(interval[0])
        self.b_exact = self._exact(interval[1])
        if self.b_exact <= self.a_exact:
            raise ValueError("interval must have positive length")
        self.density = (
            density if isinstance(density, DensityExpr) else DensityExpr(density)
        )
        self.endpoint_singular = bool(endpoint_singular)

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

    @property
    def a(self) -> mp.mpf:
        return algebra.fraction_to_mpf(self.a_exact)

    @property
    def b(self) -> mp.mpf:
        return algebra.fraction_to_mpf(self.b_exact)

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
        # state filled on first use: compiled node sets keyed by mp.prec,
        # float64 density argument variations keyed by gridN
        self._compiled: dict[int, CompiledMeasure] = {}
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

    def support_distance(self, z) -> mp.mpf:
        """Euclidean distance from z to the union of support intervals."""
        if not self.components:
            return mp.inf
        return min(algebra.segment_distance(z, c.a, c.b) for c in self.components)

    def compiled(self) -> "CompiledMeasure":
        """The node set at the current precision, compiled on first use."""
        nodes = self._compiled.get(mp.mp.prec)
        if nodes is None:
            nodes = self._compiled[mp.mp.prec] = CompiledMeasure(self)
        return nodes


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


def _exact_ints(values):
    """One exponent e and integers m_k with values[k] = m_k * 2^e exactly."""
    e = min((v._mpf_[2] for v in values if v), default=0)
    return e, [to_fixed(v._mpf_, -e) for v in values]


def _on_grid(ints, e, scale):
    """Integers m * 2^e rescaled to the grid 2^-scale, floored."""
    shift = e + scale
    return [m << shift for m in ints] if shift >= 0 else [m >> -shift for m in ints]


def _log2_floor(x) -> int:
    """floor(log2 x) of a positive mpf, read off its exponent and bit count."""
    _, _, exp, bc = x._mpf_
    return exp + bc - 1


def _quotient(num: int, den: int) -> float:
    """num/den correctly rounded to a float; infinite where it is out of range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


class _FixedPanel:
    """A panel's nodes, weights, midpoint and half-width as Python integers,
    each list exact at one binary exponent; ``t_top`` is floor(log2) of the
    largest |t| and ``w_top`` of the largest real or imaginary part of a
    weight."""

    __slots__ = ("t_exp", "ts", "t_top", "w_exp", "wr", "wi", "w_top", "b_exp", "mid",
                 "half")

    def __init__(self, panel: _Panel):
        self.t_exp, self.ts = _exact_ints(panel.ts)
        self.t_top = self.t_exp + max(abs(x) for x in self.ts).bit_length() - 1
        self.w_exp, w = _exact_ints([x for v in panel.ws for x in (v.real, v.imag)])
        self.wr, self.wi = w[0::2], w[1::2]
        self.w_top = self.w_exp + max(abs(x) for x in w).bit_length() - 1
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
    from exact integer differences; the Cauchy kernels sum W_k (z - t_k)^(-m)
    and the moments sum W_k t_k^j / v(t_k) exactly in Python integers at
    block scale (Brent & Zimmermann, *Modern Computer Arithmetic*, ch. 1-3),
    rounding each result to ``mpc`` once. :meth:`integrate` sums mpmath
    products over :meth:`nodes`.
    """

    def __init__(self, lam: ComplexMeasure):
        self.prec = mp.mp.prec
        tol = algebra.drop_tolerance()
        self.components = [_CompiledComponent(c, tol) for c in lam.components]

    def _leaves(self, tol, poles, degree: int, near: int) -> list:
        """Panels resolving a kernel that is singular at ``poles`` (points of
        the t-plane) and whose numerator grows like |t|^degree; ``near`` is
        floor(log2) of the smallest distance from a pole to the support.

        The guard holds the singular points, midpoints and half-widths on the
        grid 2^-(prec + 64 - near), and never coarser than 2^-(prec + 64), so
        theta-plane points of a distant pole keep their digits too.
        """
        if tol is None:
            tol = algebra.drop_tolerance()
        log_tol = float(mp.log(tol)) - _GL_EXACT * math.log(2)
        scale = self.prec + _GUARD_BITS - min(near, 0)
        panels: list[_Panel] = []
        for comp in self.components:
            comp.leaves(poles, scale, degree, log_tol, panels)
        return panels

    def _pole_panels(self, tol, poles, degree: int):
        """The poles as ``mpc``, floor(log2) of the distance from each to the
        support, and the panels resolving a kernel that is singular at them
        and whose numerator grows like |t|^degree."""
        poles = [mp.mpc(p) for p in poles]
        dists = [min(algebra.segment_distance(p, c.a, c.b) for c in self.components)
                 for p in poles]
        # a pole on the support counts as close as the precision resolves
        near = [_log2_floor(max(d, mp.eps)) for d in dists]
        return poles, near, self._leaves(tol, poles, degree, min(near, default=0))

    def nodes(self, tol=None, poles=(), degree: int = 0):
        """Nodes and weights resolving a kernel that is singular at ``poles``
        (points of the t-plane) and whose numerator grows like |t|^degree."""
        if not self.components:
            return [], []
        _, _, panels = self._pole_panels(tol, poles, degree)
        return ([t for p in panels for t in p.ts], [w for p in panels for w in p.ws])

    def _cauchy_sum(self, z, m: int, dist, tol=None):
        """Sum of W_k (z - t_k)^(-m), m >= 1, over the nodes resolving the
        kernel at z, a point at distance ``dist`` > 0 from the support.

        Block scaling, with L = floor(log2 dist) and P = prec + 64: t_k and z
        are held on the grid 2^-(P - L), the weights on the grid
        2^-(P - floor(log2 max|W|)), |W| read as the larger of |Re W| and
        |Im W|, and each term is the floored quotient
        (W * conj(z - t)^m << m*P) // |z - t|^(2m). Every term thus carries P
        bits below the largest term bound max|W| / dist^m, and the exact
        integer sum is rounded once.
        """
        if not self.components:
            return mp.mpc(0)
        near = _log2_floor(dist)
        panels = self._leaves(tol, [z], 0, near)
        top = self.prec + _GUARD_BITS
        scale = top - near
        zr, zi = to_fixed(z.real._mpf_, scale), to_fixed(z.imag._mpf_, scale)
        views = [p.view() for p in panels]
        wscale = top - max(v.w_top for v in views)
        shift = m * top
        zi2 = zi * zi
        sr = si = 0
        for v in views:
            for t, a, b in zip(_on_grid(v.ts, v.t_exp, scale),
                               _on_grid(v.wr, v.w_exp, wscale),
                               _on_grid(v.wi, v.w_exp, wscale)):
                dr = zr - t
                cr, ci, den = dr, -zi, dr * dr + zi2
                if m > 1:
                    for _ in range(1, m):
                        cr, ci = cr * dr + ci * zi, ci * dr - cr * zi
                    den **= m
                sr += ((a * cr - b * ci) << shift) // den
                si += ((a * ci + b * cr) << shift) // den
        exp = -(wscale + m * near)
        return mp.mpc(mp.mpf((sr, exp)), mp.mpf((si, exp)))

    def integrate(self, kernel, tol=None, poles=(), degree: int = 0):
        """Integral of ``kernel`` against the measure as one dot product."""
        ts, ws = self.nodes(tol, poles, degree)
        return mp.mpc(mp.fdot(ws, [kernel(t) for t in ts]))

    def moments(self, upto: int, tol=None, nodes=()):
        """Integrals of t^j / v(t) for j = 0..upto, where v(t) is the product
        of (t - zeta) over ``nodes`` (with repeats; v = 1 when there are none),
        in one running-power pass over the panels' integer views.

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
            v = panel.view()
            gr, gi, exp = _weights_over_v(v, factors, top)
            ts = _on_grid(v.ts, v.t_exp, top - v.t_top)
            for j in range(upto + 1):
                if j:
                    gr = [(a * t) >> top for a, t in zip(gr, ts)]
                    if gi is not None:
                        gi = [(b * t) >> top for b, t in zip(gi, ts)]
                _add_exact(sums, j, sum(gr), sum(gi) if gi is not None else 0,
                           exp + j * v.t_top)
        return [mp.mpc(mp.mpf((re, e)), mp.mpf((im, e))) for re, im, e in sums]


def _weights_over_v(v: _FixedPanel, factors, top: int):
    """A panel's W_k / v(t_k) as integer parts (re, im) and one exponent e,
    W_k / v(t_k) = (re_k + i im_k) * 2^e; im is None when every part is 0.

    ``factors`` holds (multiplicity, L, Re zeta, Im zeta) per node zeta, L the
    floor(log2) of its distance to the support and zeta on the grid
    2^-(top - L). v(t_k) is the product of the exact differences t_k - zeta
    on that grid, each product floored back to ``top`` bits; the weights are
    on the grid 2^-(top - w_top), and W * conj(v) // |v|^2 is scaled so that
    it carries ``top`` bits below the panel's largest |W / v|.
    """
    wscale = top - v.w_top
    wr, wi = _on_grid(v.wr, v.w_exp, wscale), _on_grid(v.wi, v.w_exp, wscale)
    if not factors:
        return wr, (wi if any(wi) else None), -wscale
    vr, vi, vexp = [1 << top] * len(wr), [0] * len(wr), -top
    for mult, lz, zr, zi in factors:
        for k, t in enumerate(_on_grid(v.ts, v.t_exp, top - lz)):
            dr, a, b = t - zr, vr[k], vi[k]
            for _ in range(mult):
                a, b = (a * dr + b * zi) >> top, (b * dr - a * zi) >> top
            vr[k], vi[k] = a, b
        vexp += mult * lz
    den = [a * a + b * b for a, b in zip(vr, vi)]
    m = (min(d.bit_length() for d in den) - 1) // 2
    gr = [((x * a + y * b) << m) // d for x, y, a, b, d in zip(wr, wi, vr, vi, den)]
    gi = [((y * a - x * b) << m) // d for x, y, a, b, d in zip(wr, wi, vr, vi, den)]
    return gr, gi, -(m + wscale + vexp)


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
            if lam.support_distance(p.eta) <= clearance:
                raise ValueError("rational-part poles must avoid the support")

    def eval(self, z):
        z = mp.mpc(z)
        acc = mp.mpc(0)
        for p in self.poles:
            w = z - p.eta
            invw = 1 / w
            term = invw
            for k in range(p.multiplicity):
                acc += p.coeffs[k] * term
                term *= invw
        return acc

    def eval_derivative(self, z, r: int):
        """r-th derivative (r >= 1) of the rational part at z."""
        z = mp.mpc(z)
        acc = mp.mpc(0)
        for p in self.poles:
            w = z - p.eta
            for k in range(p.multiplicity):
                rising = mp.mpf(1)
                for j in range(1, r + 1):
                    rising *= k + j
                acc += p.coeffs[k] * (-1) ** r * rising * w ** (-(k + 1 + r))
        return acc

    def moment_contribution(self, j: int):
        """Coefficient of z^{-j-1} in the expansion of the rational part at infinity."""
        acc = mp.mpc(0)
        for p in self.poles:
            for k in range(p.multiplicity):
                if j < k:
                    continue
                acc += p.coeffs[k] * math.comb(j, k) * p.eta ** (j - k)
        return acc


# ---------------------------------------------------------------------------
# transforms, moments, argument variation
# ---------------------------------------------------------------------------


def _on_support_guard(lam: ComplexMeasure, z):
    """z as mpc and its distance to the support; raises PointOnSupport."""
    z = mp.mpc(z)
    dist = lam.support_distance(z)
    if dist <= 10 * mp.eps * max(1, abs(z)):
        raise PointOnSupport(f"z = {mp.nstr(z, 10)} lies on the support")
    return z, dist


def cauchy_transform(lam: ComplexMeasure, z, tol=None):
    """Integral of 1/(z - t) against the measure.

    An exact integer sum over the compiled nodes at a block scale set by the
    distance from z to the support, rounded to ``mpc`` once (see
    :meth:`CompiledMeasure._cauchy_sum`).
    """
    z, dist = _on_support_guard(lam, z)
    return lam.compiled()._cauchy_sum(z, 1, dist, tol)


def _pole_guard(R: RationalPart, z):
    z = mp.mpc(z)
    for p in R.poles:
        if abs(z - p.eta) <= 10 * mp.eps * max(1, abs(z)):
            raise PointAtPole(f"z = {mp.nstr(z, 10)} is a pole of the rational part")
    return z


def eval_F(lam: ComplexMeasure, R: RationalPart, z, tol=None):
    """Cauchy transform of the measure plus the rational polar part."""
    z = _pole_guard(R, z)
    return cauchy_transform(lam, z, tol) + R.eval(z)


def eval_F_derivative(lam: ComplexMeasure, R: RationalPart, z, r: int, tol=None):
    """r-th derivative of eval_F at z (r >= 0)."""
    if r == 0:
        return eval_F(lam, R, z, tol)
    z = _pole_guard(R, z)
    z, dist = _on_support_guard(lam, z)
    ct = lam.compiled()._cauchy_sum(z, r + 1, dist, tol)
    return mp.factorial(r) * (-1) ** r * ct + R.eval_derivative(z, r)


def moments(lam: ComplexMeasure, R: RationalPart, J: int, tol=None):
    """Power moments c_0..c_J of the full function at infinity.

    c_j integrates t^j against the measure; the rational part contributes
    the Laurent expansion of its polar terms.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    mom = lam.compiled().moments(J, tol)
    return [c + R.moment_contribution(j) for j, c in enumerate(mom)]


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
