"""Density expressions: a closed expression in the real variable ``t``.

A density is parsed by Python's own expression parser and accepted only
within a whitelist: ``t``, the constants ``i``/``j``, ``pi``, ``e``, exact
decimal literals, unary and binary ``+ - * /``, integer powers (``^`` is
``**``) and one-argument ``exp``, ``log``/``ln``. The parse tree is walked
in any of three arithmetics: mpmath at the working precision, which every
integral uses, on the raw ``_mpf_``/``_mpc_`` tuples (:func:`_raw`); numpy
complex128 over a whole sample array, for the float64 argument variation
that the checkers grade; and complex128 with a running error bound
(:class:`_Enclosure`), which screens the samples a new measure checks
against its density floor. Each subexpression that does not read ``t`` is
evaluated once per arithmetic (and per precision), with the same operations
in the same order, so every value is the one the whole tree would give.
"""

from __future__ import annotations

import ast
import math
import operator
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import (ComplexResult, fone, fzero, mpc_add, mpc_add_mpf, mpc_div,
                          mpc_div_mpf, mpc_exp, mpc_log, mpc_mpf_div, mpc_mul, mpc_mul_mpf,
                          mpc_neg, mpc_pow_int, mpc_sub, mpc_sub_mpf, mpf_add, mpf_div,
                          mpf_exp, mpf_log, mpf_mul, mpf_neg, mpf_pow_int, mpf_sub)

from . import algebra

__all__ = ["DensityExpr", "least_candidates"]


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
    constant names, literal indices and folded subtrees, ``functions`` has
    exp, log and the integer power."""
    kind = node[0]
    if kind == "t":
        return t
    if kind == "value":
        return values[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], t, values, functions)
    if kind == "pow":
        return functions["pow"](_evaluate(node[1], t, values, functions), node[2])
    if kind in functions:
        return functions[kind](_evaluate(node[1], t, values, functions))
    return kind(_evaluate(node[1], t, values, functions),
                _evaluate(node[2], t, values, functions))


def _mpf_log(x, prec, rnd):
    try:
        return mpf_log(x, prec, rnd)
    except ComplexResult:
        return mpc_log((x, fzero), prec, rnd)


# The libmp function that mpmath's operator, or its exp and log, calls: per
# unary node for a real and a complex operand, and per binary operator for
# real-real, real-complex, complex-real and complex-complex operands
_RAW_UNARY = {"neg": (mpf_neg, mpc_neg), "pow": (mpf_pow_int, mpc_pow_int),
              "exp": (mpf_exp, mpc_exp), "log": (_mpf_log, mpc_log)}
_RAW_BINARY = {
    operator.add: (mpf_add, lambda x, z, p, r: mpc_add_mpf(z, x, p, r), mpc_add_mpf, mpc_add),
    operator.sub: (mpf_sub, lambda x, z, p, r: mpc_sub((x, fzero), z, p, r), mpc_sub_mpf,
                   mpc_sub),
    operator.mul: (mpf_mul, lambda x, z, p, r: mpc_mul_mpf(z, x, p, r), mpc_mul_mpf, mpc_mul),
    operator.truediv: (mpf_div, mpc_mpf_div, mpc_div_mpf, mpc_div),
}


def _raw_number(x):
    """The ``_mpf_`` or ``_mpc_`` tuple of a number, converted exactly as
    mpmath's operators convert it."""
    x = mp.convert(x)
    return getattr(x, "_mpf_", None) or x._mpc_


def _raw(node, t, values, prec, rnd):
    """Value of a parse tree at t in mpmath at ``prec``, on raw numbers: an
    ``_mpf_`` tuple for a real value, an ``_mpc_`` pair for a complex one.
    Each node calls what the mpmath expression would (``_RAW_UNARY``,
    ``_RAW_BINARY``), so every value is mpmath's bit for bit."""
    kind = node[0]
    if kind == "t":
        return t
    if kind == "value":
        return values[node[1]]
    x = _raw(node[1], t, values, prec, rnd)
    if kind in _RAW_UNARY:
        fn = _RAW_UNARY[kind][len(x) == 2]
        return fn(x, node[2], prec, rnd) if kind == "pow" else fn(x, prec, rnd)
    y = _raw(node[2], t, values, prec, rnd)
    return _RAW_BINARY[kind][2 * (len(x) == 2) + (len(y) == 2)](x, y, prec, rnd)


def _reads_t(node) -> bool:
    return node[0] == "t" or any(isinstance(x, tuple) and _reads_t(x) for x in node[1:])


def _fold(node, folded: dict):
    """The tree with each largest subtree that does not read t, other than a
    lone value, replaced by ``("value", subtree)``: the subtree is its own
    key among the values of an arithmetic (:func:`_with_folded`). The
    subtrees are collected, in order and once each, as the keys of
    ``folded``."""
    if node[0] in ("t", "value"):
        return node
    if not _reads_t(node):
        folded[node] = None
        return ("value", node)
    return (node[0], *(_fold(x, folded) if isinstance(x, tuple) else x for x in node[1:]))


def _with_folded(values: dict, folded, functions) -> dict:
    """``values`` with each folded subtree's value in that arithmetic."""
    values.update({sub: _evaluate(sub, None, values, functions) for sub in folded})
    return values


def _float64(q: Fraction) -> np.float64:
    try:
        return np.float64(float(q))
    except OverflowError:
        return np.float64(np.inf)


def _log_f64(x):
    # + 0.0 turns a -0.0 imaginary part into +0.0, so a negative real
    # takes the branch +pi, as mpmath (which has no signed zero) does
    return np.log(np.asarray(x, dtype=np.complex128) + 0.0)


def _pow_f64(x, n: int):
    """x^n (complex128 or :class:`_Enclosure`) by binary powering, as numpy
    takes |n| < 100; from 100 on numpy goes by exp and log, which moves a
    real negative base off the axis: (-1.5)^105 gets imaginary part -15142."""
    return x**n if abs(n) < 100 else _pow_f64(x, n // 2) ** 2 * x ** (n % 2)


# Relative error bound per operation of the float64 screen: 32 units of
# float64 rounding, for the few units of numpy's complex +, -, *, /, integer
# power, exp and log, the working precision's own rounding (one unit at 53
# bits, 2^-75 of one at 128), and the rounding of the bound's arithmetic
_U = 2.0**-48
# an absolute error bound for a value that float64 rounds to 0 or a subnormal
_TINY = 2.0**-1000


class _Enclosure:
    """complex128 values ``v`` with float64 bounds ``e`` on their distance
    to the exact values: |v - x| <= e, elementwise over a sample array.

    Each operation propagates the bounds of its operands to first order and
    beyond, and adds ``_U`` times the result for its own rounding (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 2-3). A
    quotient by a value whose bound reaches 0, a log whose argument's bound
    reaches 0, and a negative power of a base whose bound reaches 0 have an
    infinite bound; a log whose argument's disc reaches the negative real
    axis adds 2 pi for the branch cut. Non-finite values and their results
    have infinite or nan bounds, which no test of the form ``e <= ...``
    passes.
    """

    __slots__ = ("v", "e")

    def __init__(self, v, e):
        self.v, self.e = v, e

    @classmethod
    def rounded(cls, v):
        """A constant rounded once to float64."""
        return cls(v, _U * abs(v) + _TINY)

    def __neg__(self):
        return _Enclosure(-self.v, self.e)

    def __add__(self, other):
        v = self.v + other.v
        return _Enclosure(v, self.e + other.e + _U * abs(v))

    def __sub__(self, other):
        v = self.v - other.v
        return _Enclosure(v, self.e + other.e + _U * abs(v))

    def __mul__(self, other):
        v = self.v * other.v
        return _Enclosure(v, abs(self.v) * other.e + abs(other.v) * self.e
                          + self.e * other.e + _U * abs(v))

    def __truediv__(self, other):
        v = self.v / other.v
        gap = abs(other.v) - other.e
        # |x1/x2 - v1/v2| <= (e1 + |v1/v2| e2) / (|v2| - e2)
        return _Enclosure(v, np.where(gap > 0, (self.e + abs(v) * other.e) / gap, np.inf)
                          + _U * abs(v))

    def __pow__(self, n: int):
        v = self.v**n
        r = self.e / abs(self.v)
        # x = v (1 + d), |d| <= r: |(1 + d)^n - 1| <= (1 + r)^n - 1, or (1 - r)^n - 1 for n < 0
        grow = np.expm1(n * np.log1p(r)) if n >= 0 else np.where(
            r < 1, np.expm1(n * np.log1p(-r)), np.inf)
        e = abs(v) * (grow + _U * abs(n) * (1 + abs(np.log(abs(self.v)))))
        return _Enclosure(v, np.where(np.isfinite(self.e), e, np.inf))


def _enclosed_exp(x: _Enclosure) -> _Enclosure:
    v = np.exp(x.v)
    return _Enclosure(v, abs(v) * (np.expm1(x.e) + _U))


def _enclosed_log(x: _Enclosure) -> _Enclosure:
    v = _log_f64(x.v)
    r = x.e / abs(x.v)
    # |log(1 + w)| <= -log(1 - |w|) for |w| < 1
    e = np.where(r < 1, -np.log1p(-r), np.inf)
    cut = (x.v.real < 0) & (abs(x.v.imag) <= x.e)
    return _Enclosure(v, e + np.where(cut, 2 * np.pi, 0) + _U * (abs(v) + 1))


_F64_FUNCTIONS = {"exp": np.exp, "log": _log_f64, "pow": _pow_f64}
_ENCLOSED_FUNCTIONS = {"exp": _enclosed_exp, "log": _enclosed_log, "pow": _pow_f64}
_F64_CONSTANTS = {"i": np.complex128(1j), "j": np.complex128(1j),
                  "pi": np.float64(math.pi), "e": np.float64(math.e)}


def least_candidates(enclosures) -> list:
    """For each (v, e) of :meth:`DensityExpr.enclosed` over a sample array,
    the indices of the samples whose magnitude at the working precision can
    be the least over all the arrays: those whose |v| - e is at most the
    least |v| + e, and those whose value or bound is not finite. The slack
    _U (|v| + e) added to e covers the float64 rounding of |v| and of the
    sums, so the sample of least magnitude is always among them."""
    m = [np.abs(v) for v, _ in enclosures]
    w = [e + _U * (mk + e) for mk, (_, e) in zip(m, enclosures)]
    finite = [np.isfinite(mk + wk) for mk, wk in zip(m, w)]
    top = min((np.min((mk + wk)[f]) for mk, wk, f in zip(m, w, finite) if f.any()),
              default=np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf where a sample is not finite
        return [np.flatnonzero(~f | (mk - wk <= top)).tolist()
                for mk, wk, f in zip(m, w, finite)]


class DensityExpr:
    """Closed expression in ``t`` over complex constants, exp, log, powers.

    ``functions`` is the set of functions the expression calls, with ``ln``
    read as ``log``. The subexpressions that do not read ``t`` are folded
    (:func:`_fold`): evaluated once in float64, and once per precision in
    mpmath, beside the literals.
    """

    __slots__ = ("source", "functions", "_tree", "_literals", "_folded", "_f64_values",
                 "_mp_prec", "_mp_values")

    def __init__(self, source: str):
        self.source = str(source)
        tree, self._literals, self.functions = _parse_density(self.source)
        self._folded: dict = {}
        self._tree = _fold(tree, self._folded)
        values = dict(_F64_CONSTANTS)
        values.update(enumerate(_float64(q) for q in self._literals))
        with np.errstate(all="ignore"):
            self._f64_values = _with_folded(values, self._folded, _F64_FUNCTIONS)
        self._mp_prec = None
        self._mp_values = None

    def __call__(self, t):
        prec, rnd = mp.mp._prec_rounding
        if self._mp_prec != prec:
            # literals and folded subexpressions are rounded once per precision
            values = {"i": (fzero, fone), "j": (fzero, fone), "pi": mp.pi._mpf_, "e": mp.e._mpf_}
            values.update(enumerate(algebra.fraction_to_mpf(q)._mpf_ for q in self._literals))
            values.update({sub: _raw(sub, None, values, prec, rnd) for sub in self._folded})
            self._mp_values, self._mp_prec = values, prec
        t = _raw_number(t)
        x = _raw(self._tree, t, self._mp_values, prec, rnd)
        # mp.mpc rounds each part to prec, as it did the mpmath walk's value
        return mp.mpc(mp.make_mpc(x) if len(x) == 2 else mp.make_mpf(x))

    def f64(self, t: np.ndarray) -> np.ndarray:
        """Values at a float64 (or complex128) sample array, as complex128.

        One vectorized pass over the parse tree; overflow, division by zero
        and invalid operations give inf or nan, without a warning.
        """
        t = np.asarray(t, dtype=np.complex128)
        with np.errstate(all="ignore"):
            v = _evaluate(self._tree, t, self._f64_values, _F64_FUNCTIONS)
        return np.broadcast_to(np.asarray(v, dtype=np.complex128), t.shape)

    def enclosed(self, t: np.ndarray, t_err) -> tuple[np.ndarray, np.ndarray]:
        """Values at a float64 sample array whose points lie within
        ``t_err`` of the exact ones, as complex128, with a bound on the
        distance from each to the density's exact value there, and to its
        value at the working precision (:class:`_Enclosure`). A value that
        is not finite, or whose bound is not, has an infinite or nan bound.
        """
        t = np.asarray(t, dtype=np.complex128)
        values = {k: _Enclosure.rounded(v) for k, v in _F64_CONSTANTS.items()}
        values.update((k, _Enclosure.rounded(_float64(q))) for k, q in enumerate(self._literals))
        with np.errstate(all="ignore"):
            _with_folded(values, self._folded, _ENCLOSED_FUNCTIONS)
            x = _evaluate(self._tree, _Enclosure(t, t_err), values, _ENCLOSED_FUNCTIONS)
        return (np.broadcast_to(np.asarray(x.v, dtype=np.complex128), t.shape),
                np.broadcast_to(np.asarray(x.e, dtype=np.float64), t.shape))

    def __repr__(self):
        return f"DensityExpr({self.source!r})"
