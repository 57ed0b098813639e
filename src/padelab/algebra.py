"""Extended-precision complex scalars, polynomials, and dense linear kernels.

Everything downstream (quadrature, orthogonality systems, root distribution
checks) runs on top of this module. Scalars are mpmath ``mpf``/``mpc`` values
at a single run-wide binary precision; polynomials store ascending
coefficients and trim trailing noise relative to a drop tolerance tied to
that precision. The forward elimination, the back-substitution and residual
of the kernel solve, the evaluation of polynomials at sample points and the
Newton polish of their roots run on Gaussian integers: exact sums of exact
products, or vectors held on one binary grid, prec + 64 bits below their
largest part (the fixed-point helpers below, which the quadrature kernels
share), each output rounded once. Steps that replay one mpmath operation
(the distance to the support, the Newton update) run on the raw
``_mpc_``/``_mpf_`` tuples, through the libmp functions mpmath's own
operators call, so they give mpmath's bits without its objects.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_man_exp, from_rational, fzero, mpc_sub, mpf_gt, mpf_hypot, mpf_lt,
                          mpf_mul_int, mpf_sub, to_fixed, to_rational)

from .errors import PointOnSupport, RootFailure, SolveFailure

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 128
# Newton steps per root before poly_roots falls back to mp.polyroots; from a
# float64 seed a simple root needs log2(prec / 53) + 2 (six at 1024 bits)
NEWTON_MAXSTEPS = 12
# Durand-Kerner step budget of the fallback's first attempt; each retry doubles it
ROOT_MAXSTEPS = 120
# bits the fixed-point kernels carry below the working precision
_GUARD_BITS = 64


def set_precision(bits: int) -> None:
    """Set the run-wide binary precision (>= 128 bits)."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits, got {bits}")
    mp.mp.prec = int(bits)


# temporary precision changes (escalation ladder) reuse mpmath's context manager
working_precision = mp.workprec


def drop_tolerance() -> mp.mpf:
    """Relative magnitude below which trailing coefficients are noise."""
    return mp.mpf(2) ** (-(mp.mp.prec // 2))


def solve_tolerance() -> mp.mpf:
    """Relative residual bound for linear kernel extraction."""
    return mp.mpf(2) ** (-(mp.mp.prec // 4))


def root_tolerance() -> mp.mpf:
    """Scaled residual bound for polynomial root finding."""
    return mp.mpf(2) ** (-(mp.mp.prec // 4))


def full_digits() -> int:
    """Decimal digits that round-trip the current binary precision."""
    return mp.mp.dps + 4


def format_real(x) -> str:
    return mp.nstr(mp.mpf(x), full_digits(), strip_zeros=True)


def format_complex_pair(z) -> list[str]:
    z = mp.mpc(z)
    return [format_real(z.real), format_real(z.imag)]


# ---------------------------------------------------------------------------
# exact literals: sums of signed decimal or p/q terms, each optionally times
# i or j ("4i/7", "3/7i", "i/7"), parsed without rounding
# ---------------------------------------------------------------------------

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
# one signed term: sign, p, i before the slash, q, i after it
_TERM = _re.compile(rf"([-+])\s*({_NUMBER})?([ij]?)(?:/({_NUMBER}))?([ij]?)\s*")


def parse_complex(text) -> tuple[Fraction, Fraction]:
    """Parse a complex literal like ``-3/7+4i/7`` or ``0.5-2j`` exactly.

    A literal is a sum of signed terms (the first sign optional), each a
    decimal or p/q, optionally times ``i`` or ``j``. Returns the real and
    imaginary parts as :class:`fractions.Fraction`, so the binary rounding
    happens only when the value is materialized at the working precision.
    Raises ValueError for anything else, a zero denominator included. A
    number in place of the text is read at its exact value, each part by
    :func:`real_literal`.
    """
    if not isinstance(text, str):
        if isinstance(text, (complex, mp.mpc)):
            return real_literal(text.real), real_literal(text.imag)
        return real_literal(text), Fraction(0)
    s = text.strip()
    s = s if s.startswith(("+", "-")) else "+" + s
    parts = [Fraction(0), Fraction(0)]
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        # a term has p or i, one i at most, and q nonzero
        q = Fraction(m[4] or 1) if m else 0
        if not q or not (m[2] or m[3]) or (m[3] and m[5]):
            raise ValueError(f"malformed complex literal {text!r}")
        term = Fraction(m[2] or 1) / q
        parts[bool(m[3] or m[5])] += -term if m[1] == "-" else term
        pos = m.end()
    return parts[0], parts[1]


def real_literal(value) -> Fraction:
    """An exact real: a literal of :func:`parse_complex` with no imaginary
    part, or a finite real number at its exact (binary) value; never a
    boolean, which would read as 0 or 1."""
    if isinstance(value, str):
        re_q, im_q = parse_complex(value)
        if im_q:
            raise ValueError(f"expected a real literal, got {value!r}")
        return re_q
    if value is None or isinstance(value, bool):
        raise TypeError(f"expected a number or a literal, got {value!r}")
    if isinstance(value, mp.mpf) and mp.isfinite(value):
        return Fraction(*to_rational(value._mpf_))
    try:
        return Fraction(value)
    except OverflowError:
        raise ValueError(f"expected a finite number, got {value!r}") from None


def fraction_to_mpf(q: Fraction) -> mp.mpf:
    """q rounded once to the working precision."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, *mp.mp._prec_rounding))


def rounded(exact):
    """An exact value at the working precision: a Fraction as an mpf, a
    (real, imaginary) pair of :func:`parse_complex` as an mpc, a list or a
    dict entry by entry, and anything else (an int, None) as it is."""
    if isinstance(exact, Fraction):
        return fraction_to_mpf(exact)
    if isinstance(exact, tuple):
        return mp.mpc(*map(fraction_to_mpf, exact))
    if isinstance(exact, dict):
        return {k: rounded(x) for k, x in exact.items()}
    return [rounded(x) for x in exact] if isinstance(exact, list) else exact


def per_precision(store: dict, form):
    """The entry of ``store`` for the working precision, formed by ``form()``
    on first use there."""
    value = store.get(mp.mp.prec)
    if value is None:
        value = store[mp.mp.prec] = form()
    return value


def to_mpc(value) -> mp.mpc:
    """A literal or a number (:func:`parse_complex`) at the working precision."""
    if isinstance(value, (str, Fraction, bool)):
        return rounded(parse_complex(value))
    return mp.mpc(value)


def to_mpf(value) -> mp.mpf:
    """A real literal or a number (:func:`real_literal`) at the working precision."""
    if isinstance(value, (str, Fraction, bool)):
        return fraction_to_mpf(real_literal(value))
    return mp.mpf(value)


def support_distance(z, intervals) -> mp.mpf:
    """Euclidean distance from z to a union of real segments (a, b); inf
    for none.

    The distance is ``mp.hypot`` of the real gap max(0, a - x, x - b) and
    y, for z = x + iy rounded to the working precision. hypot rounds once
    and is monotone in the gap, so the gaps are compared exactly, on raw
    ``_mpf_`` tuples, and one ``mpf_hypot`` is taken of the least (the first
    wins a tie): the least of the rounded distances, bit for bit.
    """
    x, y = mp.mpc(z)._mpc_
    prec, rnd = mp.mp._prec_rounding
    least = None
    for a, b in intervals:
        gap = fzero
        for d in (mpf_sub(mp.convert(a)._mpf_, x, prec, rnd),
                  mpf_sub(x, mp.convert(b)._mpf_, prec, rnd)):
            gap = d if mpf_gt(d, gap) else gap
        least = gap if least is None or mpf_lt(gap, least) else least
    return mp.inf if least is None else mp.make_mpf(mpf_hypot(least, y, prec, rnd))


def _support_log2(p, intervals) -> int:
    """floor(log2) of the distance from the ``mpc`` p to a nonempty union of
    segments with ``mpf`` ends; raises :class:`PointOnSupport` when p lies
    within 10 eps max(1, |p|) of it, eps = 2^(1 - prec). The squares of the
    distance and of |p| are compared exactly, as d2 * 2^e and z2 * 2^e."""
    e, ints = _exact_ints([p.real, p.imag] + [x for ab in intervals for x in ab])
    x, y = ints[0], ints[1]
    dx = min(max(0, a - x, x - b) for a, b in zip(ints[2::2], ints[3::2]))
    d2, z2, e = dx * dx + y * y, x * x + y * y, 2 * e
    zm, ze = (z2, e) if _exceeds(z2, e, 1, 0) else (1, 0)
    if not _exceeds(d2, e, 100 * zm, ze + 2 - 2 * mp.mp.prec):
        raise PointOnSupport(f"point {mp.nstr(p, 10)} lies on the support")
    # floor(log2 d) = floor(floor(log2 d^2) / 2)
    return (e + d2.bit_length() - 1) // 2


def coincident(d, x) -> bool:
    """Whether two points a difference d apart coincide at the scale of the
    point x: |d| <= 10 eps max(1, |x|), eps = 2^(1 - prec)."""
    return abs(d) <= 10 * mp.eps * max(1, abs(x))


def trend_slope(xs, ys) -> mp.mpf:
    """Least-squares slope of ys against xs (centred ``fsum``); 0 when undefined."""
    pairs = [(mp.mpf(x), mp.mpf(y)) for x, y in zip(xs, ys)]
    if len(pairs) < 2:
        return mp.mpf(0)
    mx = mp.fsum(p[0] for p in pairs) / len(pairs)
    my = mp.fsum(p[1] for p in pairs) / len(pairs)
    den = mp.fsum((p[0] - mx) ** 2 for p in pairs)
    if den == 0:
        return mp.mpf(0)
    return mp.fsum((p[0] - mx) * (p[1] - my) for p in pairs) / den


# ---------------------------------------------------------------------------
# fixed point: integers on one binary grid per vector (block scaling)
# ---------------------------------------------------------------------------

_ZERO = mp.mpc(0)


def _top(parts, default=None):
    """The leading bit's exponent of the largest raw ``mpf`` part; ``default`` for none."""
    return max((exp + bc - 1 for _, man, exp, bc in parts if man), default=default)


def _exact_ints(values):
    """One exponent e and integers m_k with values[k] = m_k * 2^e exactly;
    a value is an ``mpf`` or its ``_mpf_`` tuple."""
    parts = [getattr(v, "_mpf_", v) for v in values]
    e = min((p[2] for p in parts if p != fzero), default=0)
    return e, [to_fixed(p, -e) for p in parts]


def _exact_vector(values):
    """``mpc`` values, or their ``_mpc_`` tuples, as Gaussian integers
    (re, im) on one grid 2^e, exactly, and e."""
    e, ints = _exact_ints([x for v in values for x in getattr(v, "_mpc_", v)])
    return list(zip(ints[0::2], ints[1::2])), e


def _gdot(xs, ys):
    """sum_k x_k y_k of Gaussian integers (re, im), exactly."""
    return (sum(a * c - b * d for (a, b), (c, d) in zip(xs, ys)),
            sum(a * d + b * c for (a, b), (c, d) in zip(xs, ys)))


def _magnitudes(xs):
    """|x_k| of Gaussian integers (re, im) on one grid, floored on the grid
    2^-k below it where the largest holds P = prec + 64 bits; and k."""
    squares = [a * a + b * b for a, b in xs]
    k = max(mp.mp.prec + _GUARD_BITS - max(squares, default=0).bit_length() // 2, 0)
    return [math.isqrt(m << 2 * k) for m in squares], k


def _on_grid(ints, e, scale):
    """Integers m * 2^e rescaled to the grid 2^-scale, floored."""
    shift = e + scale
    return [m << shift for m in ints] if shift >= 0 else [m >> -shift for m in ints]


def _fixed_vector(values, bits: int):
    """``mpc`` values, or their ``_mpc_`` tuples, as integer parts re, im
    and one exponent e, floored: values[k] ~ (re_k + i im_k) * 2^e with the
    largest part in [2^bits, 2^(bits+1)); e = 0 when every value is zero."""
    parts = [x for v in values for x in getattr(v, "_mpc_", v)]
    top = _top(parts, bits)
    ints = [to_fixed(x, bits - top) for x in parts]
    return ints[0::2], ints[1::2], top - bits


def _renormalise(row: list, bits: int) -> None:
    """Shift the fixed-point vector ``row`` = [re, im, e] so that its largest
    part is back in [2^bits, 2^(bits+1)); a zero vector is left as it is."""
    re, im, e = row
    top = max(max(map(abs, re)), max(map(abs, im))).bit_length()
    shift = bits + 1 - top
    if not top or not shift:
        return
    if shift > 0:
        row[0], row[1] = [x << shift for x in re], [x << shift for x in im]
    else:
        row[0], row[1] = [x >> -shift for x in re], [x >> -shift for x in im]
    row[2] = e - shift


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial with ascending mpc coefficients.

    Trailing coefficients whose magnitude falls below ``drop_tolerance()``
    relative to the largest coefficient are trimmed at construction. The
    zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(), trim: bool = True):
        cs = [mp.mpc(c) for c in coeffs]
        if trim and cs:
            top = max(abs(c) for c in cs)
            if top == 0:
                cs = []
            else:
                tol = drop_tolerance() * top
                while cs and abs(cs[-1]) <= tol:
                    cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((mp.mpc(1),), trim=False)

    @classmethod
    def from_roots(cls, roots) -> "Poly":
        """Monic polynomial with the given roots, multiplied in input order."""
        coeffs = [mp.mpc(1)]
        for r in roots:
            r = mp.mpc(r)
            coeffs.append(mp.mpc(0))
            for k in range(len(coeffs) - 1, 0, -1):
                coeffs[k] = coeffs[k - 1] - r * coeffs[k]
            coeffs[0] = -r * coeffs[0]
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z):
        return poly_eval(self, z)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], trim=False)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero()
            out = [mp.mpc(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        c = mp.mpc(other)
        return Poly([c * a for a in self.coeffs], trim=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly(degree={self.degree})"


def poly_eval(p: Poly, z):
    """Horner evaluation; the zero polynomial evaluates to 0."""
    acc = mp.mpc(0)
    z = mp.mpc(z)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


class GridPoint:
    """A point z as Gaussian integer parts on a binary grid, for
    :class:`FixedPoly`: z ~ (re + i im) * 2^-shift, floored, the larger part
    holding P = prec + 64 bits (z exactly when |z| >= 2^P). Sample points are
    put on the grid once and shared by every polynomial evaluated there."""

    __slots__ = ("re", "im", "shift")

    def __init__(self, z):
        parts = mp.mpc(z)._mpc_
        self.shift = max(mp.mp.prec + _GUARD_BITS - _top(parts, 0), 0)
        self.re, self.im = (to_fixed(x, self.shift) for x in parts)


class FixedPoly:
    """Integer view of a :class:`Poly` for Horner's rule at grid points.

    The coefficients are Gaussian integer parts, highest degree first, on
    the grid of the largest part, which holds P = prec + 64 bits
    (:func:`_fixed_vector`). Each step ``acc = ((acc * z) >> shift) + c``
    floors the product back to that grid, so the value at z carries P bits
    below max|c| * max(1, |z|)^degree.
    """

    __slots__ = ("re", "im", "exp")

    def __init__(self, p: Poly):
        re, im, self.exp = _fixed_vector(p.coeffs, mp.mp.prec + _GUARD_BITS)
        self.re, self.im = re[::-1], im[::-1]

    def __call__(self, z: GridPoint):
        """p(z) as (re, im, e) with p(z) ~ (re + i im) * 2^e; 0 for p = 0."""
        zr, zi, s = z.re, z.im, z.shift
        ar = ai = 0
        for cr, ci in zip(self.re, self.im):
            ar, ai = ((ar * zr - ai * zi) >> s) + cr, ((ar * zi + ai * zr) >> s) + ci
        return ar, ai, self.exp

    def derivative(self) -> "FixedPoly":
        """p' on the same grid: the integer coefficients times k, exactly."""
        d = FixedPoly.__new__(FixedPoly)
        deg = len(self.re) - 1
        d.re = [(deg - i) * c for i, c in enumerate(self.re[:-1])]
        d.im = [(deg - i) * c for i, c in enumerate(self.im[:-1])]
        d.exp = self.exp
        return d


def fixed_ratio(num, den):
    """The quotient of two values (re, im, e), as from :class:`FixedPoly`,
    from one floored integer division carrying P = prec + 64 bits, rounded
    once, as an ``_mpc_`` tuple. Raises ZeroDivisionError when ``den`` is 0."""
    ar, ai, ae = num
    br, bi, be = den
    d = br * br + bi * bi
    if not d:
        raise ZeroDivisionError("fixed_ratio: zero denominator")
    nr, ni = ar * br + ai * bi, ai * br - ar * bi
    prec, rnd = mp.mp._prec_rounding
    k = max(prec + _GUARD_BITS + d.bit_length() - max(abs(nr), abs(ni)).bit_length(), 0)
    e = ae - be - k
    return from_man_exp((nr << k) // d, e, prec, rnd), from_man_exp((ni << k) // d, e, prec, rnd)


def fixed_abs(squares) -> mp.mpf:
    """sqrt(num / den) * 2^e for the integers (num, den, e) of
    :meth:`pade.PadeApproximant.error_squares`, from one floored integer
    square root carrying P = prec + 64 bits, rounded to ``mpf`` once."""
    num, den, e = squares
    k = max(mp.mp.prec + _GUARD_BITS + (den.bit_length() - num.bit_length() + 2) // 2, 0)
    return mp.mpf((math.isqrt((num << 2 * k) // den), e - k))


# ---------------------------------------------------------------------------
# dense linear algebra: kernel extraction and square solves, full pivoting
# ---------------------------------------------------------------------------


class KernelInfo:
    """Kernel vector plus the diagnostics the solvers record; ``spread`` is
    log2 |first pivot| / |last pivot|, about the bits of precision q loses."""

    __slots__ = ("vector", "residual", "nullity", "spread")

    def __init__(self, vector, residual, nullity, spread):
        self.vector = vector
        self.residual = residual
        self.nullity = nullity
        self.spread = spread


def _exceeds(m1: int, x1: int, m2: int, x2: int) -> bool:
    """Whether m1 * 2^x1 > m2 * 2^x2, exactly, for integers m1, m2 >= 0."""
    if x1 >= x2:
        return (m1 << (x1 - x2)) > m2
    return m1 > (m2 << (x2 - x1))


def _row_pivot(re, im, cols):
    """Largest re^2 + im^2 over ``cols`` and its first column; (0, -1) when
    every entry is zero."""
    best, at = 0, -1
    for c in cols:
        m = re[c] * re[c] + im[c] * im[c]
        if m > best:
            best, at = m, c
    return best, at


def _eliminate(A):
    """Forward elimination with full pivoting over every column.

    ``A`` holds the rows of the matrix as ``_mpc_`` tuples and is not
    changed. Each step takes the largest remaining entry in an unused
    column, scanning rows then columns in order, and stops once that entry
    is at most ``drop_tolerance()`` times the largest entry of the matrix.
    Returns the (row, column) pivots in elimination order, the pivot rows
    after elimination in that order, as Gaussian integers [re, im, e] on the
    rows' grids, and the pivot spread of :class:`KernelInfo`.

    The rows are eliminated as Gaussian integers with block scaling, as in
    :meth:`measure.CompiledMeasure.moments`: with P = prec + 64 each row
    is (re_k + i im_k) * 2^e on one binary grid, its largest part holding
    P bits, and is renormalised to that after every update. Magnitudes are
    compared as exact squares re^2 + im^2, which also give the spread; each
    multiplier is formed once, on the grid 2^-P, as
    a * conj(piv) * 2^P // |piv|^2, and the update x - (f * y >> P) stays
    on the row's own grid.
    """
    prec = mp.mp.prec
    P = prec + _GUARD_BITS
    # per row [re, im, e]
    rows = [list(_fixed_vector(row, P)) for row in A]
    nrows, ncols = len(rows), len(A[0]) if A else 0
    free = list(range(ncols))
    pivots: list[tuple[int, int]] = []
    last_m = last_x = 0

    for step in range(nrows):
        best_m, best_x, best_rc = 0, 0, None
        for r in range(step, nrows):
            re, im, e = rows[r]
            m, c = _row_pivot(re, im, free)
            if c >= 0 and (best_rc is None or _exceeds(m, 2 * e, best_m, best_x)):
                best_m, best_x, best_rc = m, 2 * e, (r, c)
        if not step:
            # step 0 searches every entry: its pivot, m * 2^x, is the matrix's
            # largest square, and drop_tolerance()^2 = 2^-(2 (prec // 2))
            scale_m, scale_x = best_m, best_x
            rank_x = scale_x - 2 * (prec // 2)
        if best_rc is None or not _exceeds(best_m, best_x, scale_m, rank_x):
            break
        last_m, last_x = best_m, best_x
        r0, c0 = best_rc
        if r0 != step:
            rows[step], rows[r0] = rows[r0], rows[step]
        free.remove(c0)
        pivots.append((step, c0))
        yr, yi, _ = rows[step]
        pr, pi = yr[c0], yi[c0]
        d = pr * pr + pi * pi
        active = [c for c in range(ncols) if c != c0 and (yr[c] or yi[c])]
        for r in range(step + 1, nrows):
            x = rows[r]
            xr, xi, _ = x
            ar, ai = xr[c0], xi[c0]
            if not (ar or ai):
                continue
            # f = a / piv = (fr + i fi) * 2^-P on the rows' grids; x -= (f y) >> P
            fr = ((ar * pr + ai * pi) << P) // d
            fi = ((ai * pr - ar * pi) << P) // d
            for c in active:
                br, bi = yr[c], yi[c]
                xr[c] -= (fr * br - fi * bi) >> P
                xi[c] -= (fr * bi + fi * br) >> P
            xr[c0] = xi[c0] = 0
            _renormalise(x, P)

    # log2 sqrt(first square / last square)
    spread = (math.log2(scale_m) - math.log2(last_m) + scale_x - last_x) / 2 if pivots else 0.0
    return pivots, rows[: len(pivots)], spread


def kernel_vector(M) -> KernelInfo:
    """Kernel vector of an underdetermined system by full-pivot elimination.

    The returned vector is normalized so its highest-index entry above the
    drop tolerance equals 1 (monic convention). When the kernel has dimension
    greater than one, the vector attached to the highest-index free column in
    elimination order is returned and the dimension is recorded. Raises
    SolveFailure when the relative residual exceeds :func:`solve_tolerance`.

    The ``_mpc_`` tuples of M go straight to :func:`_eliminate`, whose pivot
    rows stay Gaussian integers, and the back-substitution keeps v on one
    grid of P = prec + 64 bits; the monic scaling rounds each entry once
    (:func:`fixed_ratio`). The relative residual
    max_r |M_r . v| / (max_r sum_j |M_rj| * max_j |v_j|) sums the exact
    products of the binary values of M and v and is rounded once.
    """
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    if nrows >= ncols:
        raise ValueError("kernel_vector expects rows < cols")

    A = [[a._mpc_ if type(a) is mp.mpc else mp.mpc(a)._mpc_ for a in row] for row in M]
    pivots, rows, spread = _eliminate(A)

    # v on one grid of P bits, whose scale the monic scaling cancels: each
    # entry the exact -sum_j y_j v_j over the entries set so far, // y_c
    P = mp.mp.prec + _GUARD_BITS
    pivot_cols = {c for _, c in pivots}
    known = [max(c for c in range(ncols) if c not in pivot_cols)]
    v = [[0] * ncols, [0] * ncols, 0]
    v[0][known[0]] = 1 << P
    for r, c in reversed(pivots):
        (yr, yi, _), (vr, vi, _) = rows[r], v
        sr = sum(yr[j] * vr[j] - yi[j] * vi[j] for j in known)
        si = sum(yr[j] * vi[j] + yi[j] * vr[j] for j in known)
        pr, pi = yr[c], yi[c]
        d = pr * pr + pi * pi
        vr[c], vi[c] = -(sr * pr + si * pi) // d, (sr * pi - si * pr) // d
        known.append(c)
        _renormalise(v, P)

    # monic scaling by the highest entry above the drop tolerance
    squares = [a * a + b * b for a, b in zip(v[0], v[1])]
    top = max(squares)
    lead = max(i for i, m in enumerate(squares) if m << 2 * (mp.mp.prec // 2) > top)
    v = [fixed_ratio((a, b, 0), (v[0][lead], v[1][lead], 0)) for a, b in zip(v[0], v[1])]

    # from exact integers; a Hankel system repeats its entries, so each
    # distinct one is converted once
    cells = dict.fromkeys(x for row in A for x in row)
    exact, _ = _exact_vector(cells)
    mags, k = _magnitudes(exact)
    cells = dict(zip(cells, zip(exact, mags)))
    w, _ = _exact_vector(v)
    res = max(sum(t * t for t in _gdot([cells[x][0] for x in row], w)) for row in A)
    norm = max(sum(cells[x][1] for x in row) for row in A)
    # res and norm^2 max|v|^2 share a grid, up to the 2^-k of the |M_rj|
    scale = norm * norm * max(a * a + b * b for a, b in w)
    rel = fixed_abs((res, scale, k)) if scale else mp.mpf(0)
    bound = solve_tolerance()
    if rel > bound:
        raise SolveFailure(
            f"kernel residual {mp.nstr(rel, 6)} exceeds bound "
            f"{mp.nstr(bound, 6)} at {mp.mp.prec} bits"
        )
    return KernelInfo([mp.mp.make_mpc(x) for x in v], rel, ncols - len(pivots), spread)


def solve_linear(A, b):
    """Solve a square dense system A x = b: (x, 1) is the kernel vector of
    [A | -b] (:func:`kernel_vector`, which scales its last entry above the
    drop tolerance to 1). Raises SolveFailure when that kernel is not
    one-dimensional or its last entry is below the drop tolerance."""
    info = kernel_vector([[*row, -mp.mpc(y)] for row, y in zip(A, b)])
    if info.nullity != 1 or info.vector[-1] != 1:
        raise SolveFailure("singular system in solve_linear")
    return info.vector[:-1]


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def _sort_key(z):
    return (mp.mpf(z.real), mp.mpf(z.imag))


def _float_seeds(desc):
    """float64 companion-matrix roots of a monic polynomial, or None.

    ``desc`` holds the monic coefficients, leading first. None when a
    coefficient overflows or underflows float64, or the eigenvalue solve
    fails or returns a non-finite value.
    """
    coeffs = [complex(c) for c in desc]
    for c, z in zip(desc, coeffs):
        if not (cmath.isfinite(z) and (z != 0 or c == 0)):
            return None
    try:
        seeds = np.roots(coeffs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(seeds)):
        return None
    return [mp.mpc(complex(z)) for z in seeds]


def _log2_abs(re: int, im: int, e: int) -> float:
    """log2 |(re + i im) * 2^e| in float64, for any size of integer; -inf at 0."""
    m = re * re + im * im
    return 0.5 * math.log2(m) + e if m else -math.inf


def _log2_sum(a: float, b: float) -> float:
    """log2(2^a + 2^b) in float64."""
    hi, lo = max(a, b), min(a, b)
    return hi + math.log2(1 + 2.0 ** (lo - hi)) if lo > -math.inf else hi


def _newton(fp: FixedPoly, fd: FixedPoly, z):
    """Newton's method on p = ``fp``, p' = ``fd`` from the ``_mpc_`` tuple z,
    by integer Horner at each iterate: z on the grid of :class:`GridPoint`,
    then p(z) and p'(z) in one loop, with the integers of ``fp(g)`` and
    ``fd(g)``. Stops after the first step below 2^-(prec-4) max(1, |z|)
    (tested on the binary exponents of the parts) and returns the new iterate;
    None at a zero of p', after NEWTON_MAXSTEPS steps, or at the first step
    from the third on that is not below half the one before it: the iterate
    is then converging at best linearly, towards a cluster or a multiple
    root that the certificate would reject anyway."""
    prec, rnd = mp.mp._prec_rounding
    pr, pi, pe = fp.re, fp.im, fp.exp
    last = None
    for k in range(NEWTON_MAXSTEPS):
        s = max(prec + _GUARD_BITS - _top(z, 0), 0)
        zr, zi = to_fixed(z[0], s), to_fixed(z[1], s)
        ar = ai = br = bi = 0
        for cr, ci, dr, di in zip(pr, pi, fd.re, fd.im):
            ar, ai, br, bi = (((ar * zr - ai * zi) >> s) + cr, ((ar * zi + ai * zr) >> s) + ci,
                              ((br * zr - bi * zi) >> s) + dr, ((br * zi + bi * zr) >> s) + di)
        ar, ai = ((ar * zr - ai * zi) >> s) + pr[-1], ((ar * zi + ai * zr) >> s) + pi[-1]
        try:
            step = fixed_ratio((ar, ai, pe), (br, bi, fd.exp))
        except ZeroDivisionError:
            return None
        z = mpc_sub(z, step, prec, rnd)
        top_step = _top(step)
        if top_step is None:
            return z
        if top_step <= max(_top(z, 0), 0) - prec + 2:
            return z
        size = mpf_hypot(*step, prec, rnd)
        if k >= 2 and mpf_gt(mpf_mul_int(size, 2, prec, rnd), last):
            return None
        last = size
    return None


def _cleanup(z):
    """``mp.polyroots``' cleanup at eps: |z| < eps is 0, |Im z| < eps makes z
    real and |Re z| < eps purely imaginary."""
    eps = mp.eps
    if abs(z) < eps:
        return _ZERO
    if abs(z.imag) < eps:
        return mp.mpc(z.real)
    if abs(z.real) < eps:
        return mp.mpc(0, z.imag)
    return z


def _certified(fp: FixedPoly, lead, points, values) -> bool:
    """Whether the roots z_i at ``points`` are certified: their inclusion
    discs D(z_i, r_i) are pairwise disjoint, each then holding exactly one
    root of p (Braess & Hadeler, Numer. Math. 21, 1973; Neumaier, J. Comput.
    Appl. Math. 156, 2003), and each radius is at most 2^-(prec-16) |z_i|
    (eps for z_i = 0, the cleanup's threshold). ``values`` holds p(z_i) from
    ``fp`` and ``lead`` is p's leading coefficient.

    r_i = deg (|p(z_i)| + E_i) / (|lead| prod_(j != i) |z_i - z_j|), where
    E_i = 2^(1/2) (2 deg + 1) max(1, |z_i|)^deg units of the coefficient grid
    bounds the floors of the coefficients and of the Horner steps. That
    floor error is absolute, so a root far smaller than the coefficients
    allow is not certified. The centres are the grid points themselves, so
    the differences z_i - z_j are exact integers on the finest of their
    grids; the magnitudes are float64 sums of log2, so nothing overflows or
    underflows at any precision, and each comparison keeps a slack of 2^-20
    in log2 for their rounding.
    """
    deg = len(points)
    prec = mp.mp.prec
    shift = max(g.shift for g in points)
    zs = [(g.re << (shift - g.shift), g.im << (shift - g.shift)) for g in points]
    e_lead, (lr, li) = _exact_ints([lead.real, lead.imag])
    log_lead = _log2_abs(lr, li, e_lead)
    log_d = [[0.0] * deg for _ in range(deg)]
    log_r = []
    for i, (xr, xi) in enumerate(zs):
        for j in range(i + 1, deg):
            yr, yi = zs[j]
            d = _log2_abs(xr - yr, xi - yi, -shift)
            if d == -math.inf:
                return False
            log_d[i][j] = log_d[j][i] = d
        log_z = _log2_abs(xr, xi, -shift)
        log_err = fp.exp + 0.5 + math.log2(2 * deg + 1) + deg * max(log_z, 0.0)
        log_num = _log2_sum(_log2_abs(*values[i]), log_err)
        log_r.append(math.log2(deg) + log_num - log_lead
                     - math.fsum(log_d[i][j] for j in range(deg) if j != i))
        if log_r[i] + 2.0 ** -20 > (log_z - prec + 16 if xr or xi else 1 - prec):
            return False
    return all(log_d[i][j] > _log2_sum(log_r[i], log_r[j]) + 2.0 ** -20
               for i in range(deg) for j in range(i + 1, deg))


def _polished(fp: FixedPoly, lead, seeds):
    """The seeds polished by :func:`_newton` and cleaned up, with their grid
    points and the values of p there; None when a seed does not converge or
    :func:`_certified` does not certify the roots."""
    fd = fp.derivative()
    roots = []
    for z in seeds:
        z = _newton(fp, fd, z._mpc_)
        if z is None:
            return None
        roots.append(_cleanup(mp.mp.make_mpc(z)))
    points = [GridPoint(z) for z in roots]
    values = [fp(g) for g in points]
    if not _certified(fp, lead, points, values):
        return None
    return roots, points, values


def _polyroots_ladder(desc, seeds):
    """``mp.polyroots`` from ``seeds`` (its default points for None), retried
    with more internal precision and steps when it does not converge."""
    maxsteps = ROOT_MAXSTEPS
    last_exc = None
    for extra in (mp.mp.prec // 2, mp.mp.prec, 2 * mp.mp.prec):
        try:
            return [mp.mpc(r) for r in mp.polyroots(
                desc, maxsteps=maxsteps, extraprec=extra, roots_init=seeds)]
        except mp.libmp.NoConvergence as exc:
            last_exc = exc
            maxsteps *= 2
    raise RootFailure(f"root iteration did not converge: {last_exc}")


def poly_roots(p: Poly):
    """All roots (with multiplicity) of a polynomial of degree >= 1.

    Start values are the float64 eigenvalues of the companion matrix of the
    monic polynomial (``numpy.roots``). Each is polished by Newton's method on
    p and p' by integer Horner (:class:`FixedPoly` at a :class:`GridPoint`,
    P = prec + 64 bits) until a step falls below 2^-(prec-4) max(1, |z|),
    then cleaned up as ``mp.polyroots`` does (parts below eps become 0).
    Disjoint inclusion discs around the polished values, each of radius at
    most 2^-(prec-16) |root| (:func:`_certified`), certify one root each.
    When the coefficients do not fit float64, the eigenvalue solve fails, a
    root does not converge within NEWTON_MAXSTEPS steps, or the discs do not
    certify the roots (a cluster, a multiple root, two seeds drawn to the
    same root, or a root far smaller than the coefficients' scale), the
    roots come from ``mp.polyroots``' Durand-Kerner iteration at elevated
    internal precision instead, started from the same seeds (mpmath's
    default points when there are none) and retried with more precision and
    steps when it does not converge. Either way every root must meet the scaled residual bound
    ``|p(root)| <= 2^-(prec//4) * max|coeff| * (1+|root|)^deg``, with p(root)
    the integer Horner value. Results are sorted by (Re, Im), so repeated
    calls are bit-identical.
    """
    deg = p.degree
    if deg < 1:
        raise ValueError("poly_roots needs degree >= 1")
    desc = list(reversed(p.coeffs))
    seeds = _float_seeds([c / desc[0] for c in desc])
    fp = FixedPoly(p)
    polished = _polished(fp, desc[0], seeds) if seeds is not None else None
    if polished is None:
        roots = _polyroots_ladder(desc, seeds)
        points = [GridPoint(z) for z in roots]
        polished = roots, points, [fp(g) for g in points]
    roots, points, values = polished

    log_maxc = max(_log2_abs(a, b, fp.exp) for a, b in zip(fp.re, fp.im))
    _, man, exp, _ = root_tolerance()._mpf_
    log_tol = math.log2(man) + exp
    for g, v in zip(points, values):
        log_bound = log_tol + log_maxc + deg * _log2_sum(0.0, _log2_abs(g.re, g.im, -g.shift))
        if _log2_abs(*v) > log_bound:
            raise RootFailure(
                f"root residual exceeds bound at degree {deg}, {mp.mp.prec} bits"
            )
    return sorted(roots, key=_sort_key)
