"""Chebyshev series of endpoint-singular densities, and the closed form
they share with the rational part of F.

On a component [a, b] = [c - h, c + h] flagged ``endpoint_singular`` the
measure is rho(t) dt / sqrt((t - a)(b - t)); in x = (t - c)/h that is
rho dx / sqrt(1 - x^2). When rho(c + h x) is a short Chebyshev series
sum_k a_k T_k(x), the component's Cauchy transform, its derivatives and its
power moments are closed form, with no quadrature (:class:`ChebyshevSeries`).
Such a series and the rational part R are the parts of F that are closed
form off their singular set (:class:`ClosedForm`). Like the compiled node
set, each answers ``transform(z, r, tol)``, the r-th derivative of its
transform at z, and ``moments(upto, tol, nodes)``, the functional L on it
against t^j / v, v a node polynomial, and raises for a point of its own
singular set. With nodes, its moments are one sum of residues at the nodes
(:func:`residue_moments`), which bounds its own rounding error and reruns
when the residues cancel by more than its guard bits.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import TYPE_CHECKING

import mpmath as mp
import numpy as np
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_pi, round_nearest, to_fixed

from .algebra import _GUARD_BITS, _ZERO, _exact_ints, _fixed_vector, _support_log2, fraction_to_mpf
from .potential import inner_joukowski

if TYPE_CHECKING:
    from .measure import MeasureComponent

__all__ = ["ChebyshevSeries", "residue_moments"]

# first series length tried, and the longest kept; a density that needs more
# coefficients is integrated on the compiled measure
_SERIES_FIRST = 8
_SERIES_CAP = 256
# float64 coefficient levels, relative to the largest, between which the
# decay rate is read (in bits)
_F64_DECAY_BITS = (10, 43)
# the series chops where its coefficients fall below 2^(_SERIES_SLACK - prec)
# of the largest
_SERIES_SLACK = 16


def _chebyshev_coeffs_f64(vals: np.ndarray) -> np.ndarray:
    """Coefficients a_0..a_M of the Chebyshev interpolant through complex128
    values at x_j = cos(pi j / M), j = 0..M: the DCT-I of
    :func:`_chebyshev_coeffs` as elementwise float64 products summed by
    rows (no BLAS call, so no threads)."""
    M = vals.size - 1
    j = np.arange(M + 1)
    weights = np.where((j == 0) | (j == M), 1.0, 2.0)
    a = (np.cos(np.pi * (np.outer(j, j) % (2 * M)) / M) * (weights * vals)).sum(axis=1) / M
    a[[0, M]] /= 2
    return a


def _series_length(comp: MeasureComponent) -> int | None:
    """The length M (a power of two, at least _SERIES_FIRST) at which the
    float64 coefficients of the component's density predict the last
    quarter of the working-precision series below 2^(16 - prec) of the
    largest coefficient; None when that exceeds _SERIES_CAP.

    The float64 series is doubled until its last quarter sits below 2^-43
    of the largest coefficient; None if it overflows, or has not by
    _SERIES_CAP, for then the working-precision coefficient 3M/4 is above
    2^-43 of the largest too. The envelope max_(j >= k) |a_j| then falls
    from 2^-10 to 2^-43 between two indices k1 <= k2, and the decay rate
    read there is extrapolated to 2^(16 - prec). A density whose
    coefficients decay faster than geometrically gets a length to spare;
    one at the float64 plateau by k2 (a polynomial) gets the first length
    with 3M/4 >= k2.
    """
    lo_bits, hi_bits = _F64_DECAY_BITS
    c, h = float(comp.a_exact + comp.b_exact) / 2, float(comp.b_exact - comp.a_exact) / 2
    M = _SERIES_FIRST
    while M <= _SERIES_CAP:
        xs = np.cos(np.pi * np.arange(M + 1) / M)
        a = np.abs(_chebyshev_coeffs_f64(comp.density.f64(c + h * xs)))
        if not np.all(np.isfinite(a)):
            return None
        top = a.max()
        env = np.maximum.accumulate(a[::-1])[::-1]
        if env[3 * M // 4] <= top * 2.0**-hi_bits:
            k1 = int(np.argmax(env <= top * 2.0**-lo_bits))
            k2 = int(np.argmax(env <= top * 2.0**-hi_bits))
            need = k2
            if k2 > k1:
                rate = (hi_bits - lo_bits) / (k2 - k1)
                need += (mp.mp.prec - _SERIES_SLACK - hi_bits) / rate
            length = _SERIES_FIRST
            while 3 * length // 4 < need:
                length *= 2
            return length if length <= _SERIES_CAP else None
        M *= 2
    return None


_COSPI_CACHE: dict[tuple[int, int], list] = {}


def _chebyshev_points(M: int) -> list:
    """cos(pi m / M) for m = 0..M as ``mpf`` at prec + 64 bits, cached per
    precision and M."""
    key = (mp.mp.prec, M)
    xs = _COSPI_CACHE.get(key)
    if xs is None:
        with mp.workprec(mp.mp.prec + _GUARD_BITS):
            xs = _COSPI_CACHE[key] = [mp.cospi(mp.mpf(m) / M) for m in range(M + 1)]
    return xs


def _chebyshev_coeffs(vals, M: int) -> list:
    """Coefficients a_0..a_M of the Chebyshev interpolant through ``mpc``
    values at x_j = cos(pi j / M), M a power of two: the DCT-I
    a_k = (2/M) sum''_j f_j cos(pi j k / M) (a_0 and a_M halved), summed
    exactly in Python integers on one grid P = prec + 64 bits below the
    largest value, with the cosines (:func:`_chebyshev_points`) on the grid
    2^-P, and rounded to ``mpc`` once."""
    P = mp.mp.prec + _GUARD_BITS
    cos = [to_fixed(x._mpf_, P) for x in _chebyshev_points(M)]
    fold = cos + cos[-2:0:-1]  # cos(pi m / M) for m = 0..2M-1
    re, im, e = _fixed_vector(vals, P)
    half = M // 2
    # cos(pi (M - j) k / M) = (-1)^k cos(pi j k / M): for even k the sum runs
    # over f_j + f_(M-j), for odd k over f_j - f_(M-j), j <= M/2, with the
    # trapezoidal weights (ends once, interior twice)
    def fold_values(x, sign):
        inner = [2 * (x[j] + sign * x[M - j]) for j in range(1, half)]
        return [x[0] + sign * x[M], *inner, 2 * x[half]]

    folded = [(fold_values(re, sign), fold_values(im, sign)) for sign in (1, -1)]
    out = []
    for k in range(M + 1):
        row = [fold[j * k % (2 * M)] for j in range(half + 1)]
        fr, fi = folded[k % 2]
        # a_k = sum / M, and a_0, a_M once more halved; M = 2^(bit_length - 1)
        exp = e - P - (M.bit_length() - 1) - (k in (0, M))
        out.append(mp.mpc(mp.mpf((sum(map(operator.mul, fr, row)), exp)),
                          mp.mpf((sum(map(operator.mul, fi, row)), exp))))
    return out


class ClosedForm:
    """A part of F whose transform G is closed form off its singular set. A
    subclass gives G's jets (``taylor``), its power moments
    (``_power_moments``), ``is_empty``, and the checks that raise for a point
    (``_check_point``) or a node (``_check_node``) of its singular set.
    ``tol`` is not read: the closed forms carry the working precision."""

    __slots__ = ()

    def transform(self, z, r: int, tol=None):
        """G^(r)(z), r! times the r-th Taylor coefficient of G at z; one
        shared exact zero for an empty part."""
        self._check_point(z)
        if self.is_empty():
            return _ZERO
        return self.taylor(z, r)[r] * math.factorial(r)

    def moments(self, upto: int, tol=None, nodes=()) -> list:
        """L on this part against t^m / v(t), m = 0..upto, v(t) the product
        of (t - zeta) over ``nodes`` (with repeats)."""
        nodes = [mp.mpc(z) for z in nodes]
        for zeta in set(nodes):
            self._check_node(zeta)
        if self.is_empty():
            return [mp.mpc(0)] * (upto + 1)
        return residue_moments(self, upto, nodes) if nodes else self._power_moments(upto)


class ChebyshevSeries(ClosedForm):
    """An endpoint-singular component whose density is a chopped Chebyshev
    series, rho(c + h x) = sum_k a_k T_k(x) on [a, b] = [c - h, c + h].

    Its Cauchy transform is closed form (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 3-8): with x = (t - c)/h the measure is
    rho dx / sqrt(1 - x^2), and the integral of T_k(x) / (sqrt(1 - x^2) (u - x))
    is pi phi^k / s, s = sqrt(u - 1) sqrt(u + 1) and phi = 1/(u + s) the
    inner Joukowski map (:func:`potential.inner_joukowski`). So at
    u = (z - c)/h the transform is (pi/h) sum_k a_k phi^k / s
    (:meth:`taylor`), exact at any distance from the support. ``c_exact``
    and ``h_exact`` are c and h as fractions, from the exact endpoints.
    """

    __slots__ = ("c_exact", "h_exact", "coeffs", "_at")

    def __init__(self, comp: MeasureComponent, coeffs):
        self.c_exact = (comp.a_exact + comp.b_exact) / 2
        self.h_exact = (comp.b_exact - comp.a_exact) / 2
        self.coeffs = coeffs
        self._at: dict[int, tuple] = {}

    def _geometry(self):
        """c, h, a, b and pi/h rounded from the exact endpoints, per precision."""
        geo = self._at.get(mp.mp.prec)
        if geo is None:
            c, h = fraction_to_mpf(self.c_exact), fraction_to_mpf(self.h_exact)
            geo = self._at[mp.mp.prec] = (c, h, fraction_to_mpf(self.c_exact - self.h_exact),
                                          fraction_to_mpf(self.c_exact + self.h_exact), mp.pi / h)
        return geo

    @classmethod
    def build(cls, comp: MeasureComponent):
        """The component's series at the current precision, or None when it
        does not chop within _SERIES_CAP coefficients.

        The length comes from the float64 coefficients (:func:`_series_length`),
        so a density that will not chop costs no extended-precision work.
        From there the working-precision coefficients (:func:`_chebyshev_coeffs`)
        are doubled, reusing the density values at the nested points, until
        their last quarter is below 2^(16 - prec) of the largest; then the
        trailing coefficients below that are dropped.
        """
        M = _series_length(comp)
        if M is None:
            return None
        series = cls(comp, [])

        def values(count, start, step):
            # the density at t = c + h cos(pi j / count), j = start, start + step, ...
            xs = _chebyshev_points(count)[start::step]
            c, h = series._geometry()[:2]
            return [comp.density(c + h * x) for x in xs]

        vals = values(M, 0, 1)
        while True:
            coeffs = _chebyshev_coeffs(vals, M)
            mags = [abs(x) for x in coeffs]
            cut = mp.ldexp(max(mags), _SERIES_SLACK - mp.mp.prec)
            if max(mags[3 * M // 4:]) <= cut:
                break
            if 2 * M > _SERIES_CAP:
                return None
            fresh = values(2 * M, 1, 2)
            vals = [v for pair in zip(vals, fresh) for v in pair] + [vals[-1]]
            M *= 2
        while mags and mags[-1] <= cut:
            mags.pop()
        series.coeffs = coeffs[: len(mags)]
        return series

    def taylor(self, z, r: int) -> list:
        """G^(j)(z) / j!, j = 0..r, for the transform G = (pi/h) sum_k a_k phi^k / s,
        by Horner's rule in phi, for r >= 1 in truncated Taylor arithmetic in
        z - z_0 (:class:`_Jet`). u - 1 and u + 1 are formed as (z - b)/h and
        (z - a)/h, with no cancellation beside an endpoint."""
        if not self.coeffs:
            return [mp.mpc(0)] * (r + 1)
        c, h, a, b, scale = self._geometry()
        u, below, above = (z - c) / h, (z - b) / h, (z - a) / h
        sqrt = mp.sqrt
        if r:
            slope = [1 / h] + [0] * (r - 1)
            u, below, above = (_Jet([x, *slope]) for x in (u, below, above))
            sqrt = _Jet.sqrt
        s, phi = inner_joukowski(u, below, above, sqrt)
        acc = self.coeffs[-1]
        for ak in reversed(self.coeffs[:-1]):
            acc = acc * phi + ak
        value = acc / s * scale
        return value.c if r else [value]

    def is_empty(self) -> bool:
        return not self.coeffs

    def _check_point(self, z) -> None:
        _support_log2(z, [self._geometry()[2:4]])

    _check_node = _check_point

    def _power_moments(self, upto: int) -> list:
        """The integrals of t^j against the component for j = 0..upto, in
        closed form (Gautschi, *Orthogonal Polynomials*, OUP 2004, sec. 2.1).

        With c = C/D and h = H/D over one denominator, the expansion
        (2D t)^j = sum_k B_jk T_k(x) has integer coefficients, built from
        B_0 = [1] by 2D t T_k = 2C T_k + H (T_(k+1) + T_|k-1|). Against
        dx / sqrt(1 - x^2), T_k T_l integrates to pi (k = l = 0), pi/2
        (k = l >= 1) or 0, so the j-th moment is
        pi (2 B_j0 a_0 + sum_(k>=1) B_jk a_k) / (2 (2D)^j). The a_k are exact
        binary numbers, so the sum is exact in Python integers; times pi at
        prec + 64 bits, it is divided and rounded to ``mpc`` once.
        """
        D = math.lcm(self.c_exact.denominator, self.h_exact.denominator)
        C2, H = int(2 * D * self.c_exact), int(D * self.h_exact)
        e, ints = _exact_ints([x for a in self.coeffs for x in (a.real, a.imag)])
        re, im = ints[0::2], ints[1::2]
        re[0], im[0] = 2 * re[0], 2 * im[0]
        _, pi_man, pi_exp, _ = mpf_pi(mp.mp.prec + _GUARD_BITS)
        e += pi_exp
        # B_jk with k >= len(a) + upto - j reaches no coefficient by j = upto
        keep = len(self.coeffs) + upto
        B, out = [1], []
        for j in range(upto + 1):
            if j:
                nxt = [0] * (len(B) + 1)
                for k, b in enumerate(B):
                    if b:
                        nxt[k] += C2 * b
                        nxt[k + 1] += H * b
                        nxt[abs(k - 1)] += H * b
                B = nxt[: keep - j]
            den = from_int(2 * (2 * D) ** j)
            out.append(mp.make_mpc(tuple(
                mpf_div(from_man_exp(sum(map(operator.mul, B, part)) * pi_man, e), den,
                        mp.mp.prec, round_nearest)
                for part in (re, im))))
        return out

def residue_moments(part, upto: int, nodes, guard: int = _GUARD_BITS) -> list:
    """L[t^m / v(t)], m = 0..upto, on a part of F whose transform G is closed
    form off its support: a :class:`ChebyshevSeries` or the rational part
    (:class:`measure.RationalPart`), v(t) the product of (t - zeta) over
    ``nodes`` (with repeats).

    By the residue theorem: t^m G(t) / v(t) is analytic off the support and
    the nodes and O(t^(m - d - 1)) at infinity, d = deg v, so
    c_m = -sum_zeta Res_zeta[t^m G / v] for m < d; for m >= d the quotient of
    t^m by v adds sum_i e_i mu_(m - d - i), e_i the coefficients of t^d / v at
    infinity and mu the part's moments with no node. At a node of
    multiplicity k the residue is beta_0, beta_a the coefficient of
    e^(k-1-a) in G W (zeta + e), G's jets from ``part.taylor`` and
    W = (t - zeta)^k / v, and a step in m maps beta_a to zeta beta_a + beta_(a+1).

    The sum runs at P = prec + ``guard`` bits, the steps in Gaussian integers
    on the grid 2^eb of the largest beta, and bounds its own error as it
    goes (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    SIAM 2002, sec. 3.3). Each step floors by less than a unit of that
    grid, and a step grows an error by at most g = max(1, |zeta|), plus 1 at
    a repeated node, so the residues are off by less than
    2 d (upto + 4) g^upto 2^eb; the quotient terms, in ``mpc``, by less than
    (upto + 2) 2^-P max|mu| sum_i C(d + i - 1, i) max|zeta|^i. When that
    bound exceeds 2^-(prec + 16) of the largest |c_m|, the sum runs once
    more with the bits missing. Each c_m is rounded once.
    """
    groups, d, prec = list(Counter(nodes).items()), len(nodes), mp.mp.prec
    with mp.workprec(prec + guard):
        P = mp.mp.prec
        zr, zi, ez = _fixed_vector([z for z, _ in groups], P)
        betas = []
        for i, (zeta, k) in enumerate(groups):
            # the factors zeta - zeta' of v / (t - zeta)^k; for a simple node
            # their product from exact integer differences, floored to P bits
            others = [j for j, (_, kj) in enumerate(groups) if j != i for _ in range(kj)]
            if k == 1:
                re, im, e = 1, 0, 0
                for j in others:
                    x, y = zr[i] - zr[j], zi[i] - zi[j]
                    re, im = re * x - im * y, re * y + im * x
                    shift = max(0, max(abs(re), abs(im)).bit_length() - P)
                    re, im, e = re >> shift, im >> shift, e + shift + ez
                vprime = mp.mpc(mp.mpf((re, e)), mp.mpf((im, e)))
                betas.append([part.taylor(zeta, 0)[0] / vprime])
            else:
                den = _Jet([mp.mpc(1)] + [0] * (k - 1))
                for j in others:
                    den = den * _Jet([zeta - groups[j][0], 1] + [0] * (k - 2))
                betas.append((_Jet(part.taylor(zeta, k - 1)) / den).c[::-1])
        br, bi, eb = _fixed_vector([x for beta in betas for x in beta], P)
        ends = np.cumsum([len(beta) for beta in betas]).tolist()
        spans = [(zr[i], zi[i], hi - len(betas[i]), hi) for i, hi in enumerate(ends)]
        out = []
        for _ in range(upto + 1):
            re, im = sum(br[s] for _, _, s, _ in spans), sum(bi[s] for _, _, s, _ in spans)
            out.append(-mp.mpc(mp.mpf((re, eb)), mp.mpf((im, eb))))
            for x, y, lo, hi in spans:
                for s in range(lo, hi):
                    r, q = (br[s] * x - bi[s] * y) >> -ez, (br[s] * y + bi[s] * x) >> -ez
                    if s + 1 < hi:
                        r, q = r + br[s + 1], q + bi[s + 1]
                    br[s], bi[s] = r, q
        Z = max(abs(z) for z, _ in groups)
        growth = max(1, Z) + int(len(groups) < d)
        bound = mp.ldexp(2 * d * (upto + 4), eb) * growth**upto
        if upto >= d:
            mu, e = part.moments(upto - d), [mp.mpc(1)] + [0] * (upto - d)
            for zeta in nodes:
                for i in range(1, len(e)):
                    e[i] += zeta * e[i - 1]
            for m in range(d, upto + 1):
                out[m] += mp.fdot(e[: m - d + 1], mu[m - d :: -1])
            bound += mp.ldexp(upto + 2, -P) * max(map(abs, mu)) * mp.fsum(
                math.comb(d + i - 1, i) * Z**i for i in range(upto - d + 1))
    top = max(map(abs, out))
    if guard == _GUARD_BITS and top and bound > mp.ldexp(top, -prec - 16):
        missing = int(mp.ceil(mp.log(bound / top, 2))) + prec + 16
        return residue_moments(part, upto, nodes, guard + missing)
    return [+x for x in out]


class _Jet:
    """Truncated Taylor series c_0 + c_1 e + ... + c_r e^r with ``mpc``
    coefficients: the arithmetic in which the closed forms give their
    derivatives. Sums, products and quotients with scalars or jets of the
    same order, and the principal square root."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet([x + y for x, y in zip(self.c, other.c)])
        return _Jet([self.c[0] + other, *self.c[1:]])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Jet):
            x, y = self.c, other.c
            return _Jet([mp.fdot(x[: k + 1], y[k::-1]) for k in range(len(x))])
        return _Jet([x * other for x in self.c])

    __rmul__ = __mul__

    def __rtruediv__(self, num):
        x = self.c
        inv = [1 / x[0]]
        for k in range(1, len(x)):
            inv.append(-mp.fdot(x[1 : k + 1], inv[k - 1 :: -1]) * inv[0])
        return _Jet([num * v for v in inv])

    def __truediv__(self, other):
        return self * (1 / other)

    @staticmethod
    def sqrt(x: "_Jet") -> "_Jet":
        """The root whose constant term is the principal root of x's."""
        y = [mp.sqrt(x.c[0])]
        half = 1 / (2 * y[0])
        for k in range(1, len(x.c)):
            y.append((x.c[k] - mp.fdot(y[1:k], y[k - 1 : 0 : -1])) * half)
        return _Jet(y)
