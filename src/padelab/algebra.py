"""Extended-precision complex scalars, polynomials, and dense linear kernels.

Everything downstream (quadrature, orthogonality systems, root distribution
checks) runs on top of this module. Scalars are mpmath ``mpf``/``mpc`` values
at a single run-wide binary precision; polynomials store ascending
coefficients and trim trailing noise relative to a drop tolerance tied to
that precision. The forward elimination, the evaluation of polynomials at
sample points and the Newton polish of their roots run on Gaussian integers
held on one binary grid per vector, prec + 64 bits below its largest part
(the fixed-point helpers below, which the quadrature kernels share), and
round to ``mpc`` once.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from .errors import RootFailure, SolveFailure

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
# exact literals: "a+bi" with decimal or p/q parts, parsed without rounding
# ---------------------------------------------------------------------------

_TERM_SPLIT = _re.compile(r"(?<![eE/^*])(?=[+-])")


def _fraction_token(tok: str) -> Fraction:
    tok = tok.strip()
    if tok in ("", "+"):
        return Fraction(1)
    if tok == "-":
        return Fraction(-1)
    if "/" in tok:
        num, den = tok.split("/", 1)
        if num in ("", "+"):
            num = "1"
        elif num == "-":
            num = "-1"
        return Fraction(num) / Fraction(den)
    return Fraction(tok)


def parse_complex(text: str) -> tuple[Fraction, Fraction]:
    """Parse a complex literal like ``-3/7+4i/7`` or ``0.5-2j`` exactly.

    Returns the real and imaginary parts as :class:`fractions.Fraction`
    so the binary rounding happens only when the value is materialized at
    the working precision.
    """
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    re_part = Fraction(0)
    im_part = Fraction(0)
    for term in _TERM_SPLIT.split(s):
        if not term:
            continue
        if "i" in term or "j" in term:
            bare = term.replace("i", "", 1) if "i" in term else term.replace("j", "", 1)
            if bare.startswith("/"):
                bare = "1" + bare
            elif bare.startswith(("+/", "-/")):
                bare = bare[0] + "1" + bare[1:]
            im_part += _fraction_token(bare)
        else:
            re_part += _fraction_token(term)
    return re_part, im_part


def fraction_to_mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def to_mpc(value) -> mp.mpc:
    """Coerce strings (exact literals), Fractions, numbers to mpc at run precision."""
    if isinstance(value, str):
        re_q, im_q = parse_complex(value)
        return mp.mpc(fraction_to_mpf(re_q), fraction_to_mpf(im_q))
    if isinstance(value, Fraction):
        return mp.mpc(fraction_to_mpf(value))
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], Fraction):
        return mp.mpc(fraction_to_mpf(value[0]), fraction_to_mpf(value[1]))
    return mp.mpc(value)


def to_mpf(value) -> mp.mpf:
    if isinstance(value, str):
        re_q, im_q = parse_complex(value)
        if im_q != 0:
            raise ValueError(f"expected a real literal, got {value!r}")
        return fraction_to_mpf(re_q)
    if isinstance(value, Fraction):
        return fraction_to_mpf(value)
    return mp.mpf(value)


def segment_distance(z, a, b) -> mp.mpf:
    """Euclidean distance from z to the real segment [a, b]."""
    z = mp.mpc(z)
    dx = max(mp.mpf(0), a - z.real, z.real - b)
    return mp.hypot(dx, z.imag)


def support_distance(z, intervals) -> mp.mpf:
    """Euclidean distance from z to a union of real segments (a, b); inf
    for none."""
    return min((segment_distance(z, a, b) for a, b in intervals), default=mp.inf)


def support_distance_sq(z, intervals):
    """The squared distance from an ``mpc`` z to a nonempty union of real
    segments (a, b) with ``mpf`` ends, and |z|^2, exactly: integers d2, z2
    and an exponent e with d^2 = d2 * 2^e and |z|^2 = z2 * 2^e."""
    e, ints = _exact_ints([z.real, z.imag] + [x for ab in intervals for x in ab])
    x, y = ints[0], ints[1]
    dx = min(max(0, a - x, x - b) for a, b in zip(ints[2::2], ints[3::2]))
    return dx * dx + y * y, x * x + y * y, 2 * e


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


def _exact_ints(values):
    """One exponent e and integers m_k with values[k] = m_k * 2^e exactly."""
    e = min((v._mpf_[2] for v in values if v), default=0)
    return e, [to_fixed(v._mpf_, -e) for v in values]


def _on_grid(ints, e, scale):
    """Integers m * 2^e rescaled to the grid 2^-scale, floored."""
    shift = e + scale
    return [m << shift for m in ints] if shift >= 0 else [m >> -shift for m in ints]


def _fixed_vector(values, bits: int):
    """``mpc`` values as integer parts re, im and one exponent e, floored:
    values[k] ~ (re_k + i im_k) * 2^e with the largest part in
    [2^bits, 2^(bits+1)); e = 0 when every value is zero."""
    parts = [x for v in values for x in v._mpc_]
    top = max((exp + bc - 1 for _, man, exp, bc in parts if man), default=bits)
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
        top = max((exp + bc - 1 for _, man, exp, bc in parts if man), default=0)
        self.shift = max(mp.mp.prec + _GUARD_BITS - top, 0)
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


def fixed_ratio(num, den) -> mp.mpc:
    """The quotient of two values (re, im, e) from :class:`FixedPoly`, from
    one floored integer division carrying P = prec + 64 bits, rounded to
    ``mpc`` once. Raises ZeroDivisionError when ``den`` is 0."""
    ar, ai, ae = num
    br, bi, be = den
    d = br * br + bi * bi
    if not d:
        raise ZeroDivisionError("fixed_ratio: zero denominator")
    nr, ni = ar * br + ai * bi, ai * br - ar * bi
    k = max(mp.mp.prec + _GUARD_BITS + d.bit_length()
            - max(abs(nr), abs(ni)).bit_length(), 0)
    e = ae - be - k
    return mp.mpc(mp.mpf(((nr << k) // d, e)), mp.mpf(((ni << k) // d, e)))


# ---------------------------------------------------------------------------
# dense linear algebra: kernel extraction and square solves, full pivoting
# ---------------------------------------------------------------------------


class KernelInfo:
    """Kernel vector plus the diagnostics the solvers record."""

    __slots__ = ("vector", "residual", "nullity")

    def __init__(self, vector, residual, nullity):
        self.vector = vector
        self.residual = residual
        self.nullity = nullity


def _matrix_scale(M) -> mp.mpf:
    best = mp.mpf(0)
    for row in M:
        s = mp.fsum(abs(a) for a in row)
        if s > best:
            best = s
    return best


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

    Works in place on the rows of mpc entries ``A``. Each step takes the
    largest remaining entry in an unused column, scanning rows then columns
    in order, and stops once that entry is at most ``drop_tolerance()``
    times the largest entry of the matrix. Returns the (row, column) pivots
    in elimination order.

    The rows are eliminated as Gaussian integers with block scaling, as in
    :meth:`measure.CompiledMeasure.moments`: with P = prec + 64 each row
    is (re_k + i im_k) * 2^e on one binary grid, its largest part holding
    P bits, and is renormalised to that after every update. Magnitudes are
    compared as exact squares re^2 + im^2; each multiplier is formed once,
    on the grid 2^-P, as a * conj(piv) * 2^P // |piv|^2, and the update
    x - (f * y >> P) stays on the row's own grid. The rows are rounded to
    ``mpc`` once, at the end, for the back-substitution.
    """
    P = mp.mp.prec + _GUARD_BITS
    # per row [re, im, e]
    rows = [list(_fixed_vector(row, P)) for row in A]
    nrows, ncols = len(rows), len(A[0]) if A else 0
    free = list(range(ncols))
    # largest squared entry, as m * 2^x
    scale_m, scale_x = 0, 0
    for re, im, e in rows:
        m, _ = _row_pivot(re, im, free)
        if _exceeds(m, 2 * e, scale_m, scale_x):
            scale_m, scale_x = m, 2 * e
    # drop_tolerance()^2 = 2^-(2 (prec // 2))
    rank_x = scale_x - 2 * (mp.mp.prec // 2)
    pivots: list[tuple[int, int]] = []

    for step in range(nrows):
        best_m, best_x, best_rc = 0, 0, None
        for r in range(step, nrows):
            re, im, e = rows[r]
            m, c = _row_pivot(re, im, free)
            if c >= 0 and (best_rc is None or _exceeds(m, 2 * e, best_m, best_x)):
                best_m, best_x, best_rc = m, 2 * e, (r, c)
        if best_rc is None or not _exceeds(best_m, best_x, scale_m, rank_x):
            break
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

    for k, (re, im, e) in enumerate(rows):
        A[k] = [_ZERO if not (a or b) else mp.mpc(mp.mpf((a, e)), mp.mpf((b, e)))
                for a, b in zip(re, im)]
    return pivots


def kernel_vector(M, residual_bound=None) -> KernelInfo:
    """Kernel vector of an underdetermined system by full-pivot elimination.

    The returned vector is normalized so its highest-index entry above the
    drop tolerance equals 1 (monic convention). When the kernel has dimension
    greater than one, the vector attached to the highest-index free column in
    elimination order is returned and the dimension is recorded.
    """
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    if nrows >= ncols:
        raise ValueError("kernel_vector expects rows < cols")
    if residual_bound is None:
        residual_bound = solve_tolerance()

    A = [[mp.mpc(a) for a in row] for row in M]
    pivots = _eliminate(A)

    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    v = [mp.mpc(0)] * ncols
    v[free_cols[-1]] = mp.mpc(1)
    for r, c in reversed(pivots):
        row = A[r]
        v[c] = -mp.fdot((row[j], v[j]) for j in range(ncols) if j != c and v[j] != 0) / row[c]

    # monic normalization on the highest significant entry
    top = max(abs(x) for x in v)
    tol = drop_tolerance() * top
    pivot_idx = max(i for i, x in enumerate(v) if abs(x) > tol)
    scale_inv = v[pivot_idx]
    v = [x / scale_inv for x in v]

    norm_m = _matrix_scale(M)
    norm_v = max(abs(x) for x in v)
    res = mp.mpf(0)
    for row in M:
        res = max(res, abs(mp.fdot(row, v)))
    rel = res / (norm_m * norm_v) if norm_m > 0 else res
    if rel > residual_bound:
        raise SolveFailure(
            f"kernel residual {mp.nstr(rel, 6)} exceeds bound "
            f"{mp.nstr(mp.mpf(residual_bound), 6)} at {mp.mp.prec} bits"
        )
    return KernelInfo(v, rel, ncols - len(pivots))


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
    """Newton's method on p = ``fp``, p' = ``fd`` from z, by integer Horner
    at each iterate. Stops after the first step below 2^-(prec-4) max(1, |z|)
    (tested on the binary exponents of the parts) and returns the new iterate;
    None at a zero of p', after NEWTON_MAXSTEPS steps, or at the first step
    from the third on that is not below half the one before it: the iterate
    is then converging at best linearly, towards a cluster or a multiple
    root that the certificate would reject anyway."""
    prec = mp.mp.prec
    last = None
    for k in range(NEWTON_MAXSTEPS):
        g = GridPoint(z)
        try:
            step = fixed_ratio(fp(g), fd(g))
        except ZeroDivisionError:
            return None
        z = z - step
        if not step:
            return z
        top_step = max(exp + bc - 1 for _, man, exp, bc in step._mpc_ if man)
        top_z = max((exp + bc - 1 for _, man, exp, bc in z._mpc_ if man), default=0)
        if top_step <= max(top_z, 0) - prec + 2:
            return z
        size = abs(step)
        if k >= 2 and 2 * size > last:
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
        z = _newton(fp, fd, z)
        if z is None:
            return None
        roots.append(_cleanup(z))
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
