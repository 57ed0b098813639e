"""Extended-precision complex scalars, polynomials, and dense linear kernels.

Everything downstream (quadrature, orthogonality systems, root distribution
checks) runs on top of this module. Scalars are mpmath ``mpf``/``mpc`` values
at a single run-wide binary precision; polynomials store ascending
coefficients and trim trailing noise relative to a drop tolerance tied to
that precision.
"""

from __future__ import annotations

import cmath
import re as _re
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import RootFailure, SolveFailure

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 128


def set_precision(bits: int) -> None:
    """Set the run-wide binary precision (>= 128 bits)."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits, got {bits}")
    mp.mp.prec = int(bits)


def precision_bits() -> int:
    return mp.mp.prec


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

    def leading(self) -> mp.mpc:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs], trim=False)

    def __call__(self, z):
        return poly_eval(self, z)

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly.zero()
        return Poly(
            [k * self.coeffs[k] for k in range(1, len(self.coeffs))], trim=False
        )

    def conjugate(self) -> "Poly":
        return Poly([mp.conj(c) for c in self.coeffs], trim=False)

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

    def roots(self):
        return poly_roots(self)

    def __repr__(self) -> str:
        return f"Poly(degree={self.degree})"


def poly_eval(p: Poly, z):
    """Horner evaluation; the zero polynomial evaluates to 0."""
    acc = mp.mpc(0)
    z = mp.mpc(z)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def poly_derivative_at(p: Poly, z, k: int):
    """Value of the k-th derivative at z (not divided by k!)."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    q = p
    for _ in range(k):
        q = q.derivative()
        if q.is_zero():
            return mp.mpc(0)
    return poly_eval(q, z)


# ---------------------------------------------------------------------------
# dense linear algebra: kernel extraction and square solves, full pivoting
# ---------------------------------------------------------------------------


class KernelInfo:
    """Kernel vector plus the diagnostics the solvers record."""

    __slots__ = ("vector", "residual", "nullity", "pivot_columns")

    def __init__(self, vector, residual, nullity, pivot_columns):
        self.vector = vector
        self.residual = residual
        self.nullity = nullity
        self.pivot_columns = pivot_columns


def _matrix_scale(M) -> mp.mpf:
    best = mp.mpf(0)
    for row in M:
        s = mp.fsum(abs(a) for a in row)
        if s > best:
            best = s
    return best


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
    scale = max(abs(a) for row in A for a in row) if nrows else mp.mpf(0)
    rank_tol = drop_tolerance() * scale
    pivots: list[tuple[int, int]] = []
    used = [False] * ncols

    for step in range(nrows):
        best = mp.mpf(0)
        best_rc = None
        for r in range(step, nrows):
            row = A[r]
            for c in range(ncols):
                if used[c]:
                    continue
                a = abs(row[c])
                if a > best:
                    best = a
                    best_rc = (r, c)
        if best_rc is None or best <= rank_tol:
            break
        r0, c0 = best_rc
        if r0 != step:
            A[step], A[r0] = A[r0], A[step]
        used[c0] = True
        pivots.append((step, c0))
        prow = A[step]
        piv = prow[c0]
        for r in range(step + 1, nrows):
            f = A[r][c0] / piv
            if f != 0:
                row = A[r]
                for c in range(ncols):
                    if c != c0 and prow[c] != 0:
                        row[c] = row[c] - f * prow[c]
                row[c0] = mp.mpc(0)

    free_cols = [c for c in range(ncols) if not used[c]]
    v = [mp.mpc(0)] * ncols
    v[free_cols[-1]] = mp.mpc(1)
    for r, c in reversed(pivots):
        row = A[r]
        s = mp.fsum(row[j] * v[j] for j in range(ncols) if j != c and v[j] != 0)
        v[c] = -s / row[c]

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
        r = abs(mp.fsum(mp.mpc(row[j]) * v[j] for j in range(ncols)))
        if r > res:
            res = r
    rel = res / (norm_m * norm_v) if norm_m > 0 else res
    if rel > residual_bound:
        raise SolveFailure(
            f"kernel residual {mp.nstr(rel, 6)} exceeds bound "
            f"{mp.nstr(mp.mpf(residual_bound), 6)} at {mp.mp.prec} bits"
        )
    return KernelInfo(v, rel, ncols - len(pivots), [c for _, c in pivots])


def nullspace_solve(M, rows: int | None = None, cols: int | None = None):
    """Nonzero kernel vector of an underdetermined homogeneous system.

    ``rows``/``cols`` are accepted for explicitness and validated against the
    matrix when given.
    """
    if rows is not None and rows != len(M):
        raise ValueError("rows does not match the matrix")
    if cols is not None and M and cols != len(M[0]):
        raise ValueError("cols does not match the matrix")
    return kernel_vector(M).vector


def solve_linear(A, b):
    """Solve a square dense system by elimination with full pivoting."""
    n = len(A)
    M = [[mp.mpc(x) for x in row] + [mp.mpc(b[i])] for i, row in enumerate(A)]
    scale = max((abs(x) for row in M for x in row[:n]), default=mp.mpf(0))
    tiny = drop_tolerance() * scale
    perm = list(range(n))
    for step in range(n):
        best = mp.mpf(0)
        best_rc = None
        for r in range(step, n):
            for c in range(step, n):
                a = abs(M[r][perm[c]])
                if a > best:
                    best = a
                    best_rc = (r, c)
        if best_rc is None or best <= tiny:
            raise SolveFailure("singular system in solve_linear")
        r0, c0 = best_rc
        if r0 != step:
            M[step], M[r0] = M[r0], M[step]
        if c0 != step:
            perm[step], perm[c0] = perm[c0], perm[step]
        pc = perm[step]
        piv = M[step][pc]
        for r in range(step + 1, n):
            f = M[r][pc] / piv
            if f != 0:
                for c in range(step, n):
                    M[r][perm[c]] -= f * M[step][perm[c]]
                M[r][n] -= f * M[step][n]
                M[r][pc] = mp.mpc(0)
    x = [mp.mpc(0)] * n
    for step in range(n - 1, -1, -1):
        pc = perm[step]
        s = M[step][n] - mp.fsum(
            M[step][perm[c]] * x[perm[c]] for c in range(step + 1, n)
        )
        x[pc] = s / M[step][pc]
    return x


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


def poly_roots(p: Poly, residual_bound=None, maxsteps: int = 120):
    """All roots (with multiplicity) of a polynomial of degree >= 1.

    Start values are the float64 eigenvalues of the companion matrix of the
    monic polynomial (``numpy.roots``); simultaneous (Durand-Kerner type)
    iteration at elevated internal precision then only polishes them, in a
    few quadratically convergent sweeps for simple roots (Bini & Fiorentino,
    Numer. Algorithms 23, 2000). When the coefficients do not fit float64 or
    the eigenvalue solve fails, the iteration starts from mpmath's default
    points instead. Either way the polish stops at mpmath's eps test, retries
    with more internal precision and steps if it does not converge, and must
    meet the scaled residual bound
    ``|p(root)| <= eps * max|coeff| * (1+|root|)^deg``.
    Results are sorted by (Re, Im) so repeated calls are bit-identical.
    """
    deg = p.degree
    if deg < 1:
        raise ValueError("poly_roots needs degree >= 1")
    if residual_bound is None:
        residual_bound = root_tolerance()
    desc = list(reversed(p.coeffs))
    seeds = _float_seeds([c / desc[0] for c in desc])
    roots = None
    last_exc = None
    for extra in (mp.mp.prec // 2, mp.mp.prec, 2 * mp.mp.prec):
        try:
            roots = mp.polyroots(
                desc, maxsteps=maxsteps, extraprec=extra, roots_init=seeds
            )
            break
        except mp.libmp.NoConvergence as exc:
            last_exc = exc
            maxsteps *= 2
    if roots is None:
        raise RootFailure(f"root iteration did not converge: {last_exc}")
    roots = sorted((mp.mpc(r) for r in roots), key=_sort_key)

    maxc = max(abs(c) for c in p.coeffs)
    for r in roots:
        bound = residual_bound * maxc * (1 + abs(r)) ** deg
        if abs(poly_eval(p, r)) > bound:
            raise RootFailure(
                f"root residual exceeds bound at degree {deg}, {mp.mp.prec} bits"
            )
    return roots
