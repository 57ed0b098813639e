"""Logarithmic potential theory on finite unions of real intervals, in closed form.

The equilibrium measure of an interval system and the balayage of a node
distribution onto it are :class:`SpectralMeasure` objects (Olver,
"Computation of equilibrium measures", J. Approx. Theory 163, 2011): on each
interval [m - h, m + h] the density in u = (x - m)/h is
sum_k c_k T_k(u) / (pi sqrt(1 - u^2)), and c_0 is the interval's mass. The
log potential of each basis function is closed form through the inner
Joukowski map phi of the interval: log(2/h) + log|phi| for k = 0, and
Re(phi^k)/k, which is T_k(u)/k on the interval, for k >= 1.

The coefficients and a constant solve a collocation system at K Chebyshev
points per interval plus a mass row: right-hand side 0 for the equilibrium
measure, whose constant is the Robin constant log(1/cap), and U^sigma for the
balayage of a finite sigma, so that U^(sigma hat) = U^sigma + c on the
system. K doubles from 4 until the last quarter of every interval's series
coefficients c_k/k is below 1e-14 of the mass, until that tail stops
falling (the float64 noise floor), or until it reaches the system's
``max_modes`` (the ``collocation_points`` config key). The solves
use a hand-rolled, elementwise-deterministic float64 elimination, so every
result is bit-reproducible run to run, and are accurate to about 1e-14,
against checker tolerances of 1e-2..1e-3.

Potentials, Green potentials and distribution functions of spectral
measures are float64 closed forms summed by Horner's rule and ``math.fsum``.
The potential of a node distribution (:class:`DiscreteMeasure`) is a float64
atom sum with ``math.fsum``, exactly rounded and so independent of the
summation order; at its own atoms it takes the distance ``GAMMA`` times the
spacing. :func:`log_potential` of a :class:`DiscreteMeasure` is an mpmath
atom sum at the working precision, the reference of the tests. All returned
values are mpmath numbers.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from .algebra import coincident
from .errors import CarrierHit, ConvergenceFailure, MassMismatch

__all__ = [
    "DiscreteMeasure",
    "SpectralMeasure",
    "IntervalSystem",
    "log_potential",
    "equilibrium_measure",
    "balayage",
    "green_potential",
    "weakstar_distance",
]

# a node distribution's potential at one of its own atoms takes the distance
# GAMMA * spacing for that atom
GAMMA = 0.25
DEFAULT_MAX_MODES = 256
_FIRST_MODES = 4
# coefficient tail, relative to the mass, at which K stops doubling
_TAIL_TOL = 1e-14
# a float64 distance this small (times max(1, |z|)) is a hit on a carrier point
_F64_HIT = 10 * 2.0**-52


class DiscreteMeasure:
    """Weighted point masses: node distributions and pole counting measures.

    ``local_lengths`` optionally records a carrier spacing per point, which
    lets the float64 potential be evaluated on the carrier itself. Instances
    are treated as immutable once constructed, which is what lets
    :attr:`f64` be cached.
    """

    __slots__ = ("points", "weights", "local_lengths", "_f64")

    def __init__(self, points, weights, local_lengths=None):
        self.points = [mp.mpc(p) for p in points]
        self.weights = [mp.mpf(w) for w in weights]
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not self.points:
            raise ValueError("a discrete measure needs at least one point")
        self.local_lengths = (
            None if local_lengths is None else [mp.mpf(x) for x in local_lengths]
        )
        self._f64 = None

    @property
    def f64(self):
        """(points, weights, local_lengths or None) as complex128/float64 arrays."""
        if self._f64 is None:
            self._f64 = (
                np.array([complex(p) for p in self.points], dtype=np.complex128),
                np.array([float(w) for w in self.weights]),
                None
                if self.local_lengths is None
                else np.array([float(x) for x in self.local_lengths]),
            )
        return self._f64

    @property
    def mass(self) -> mp.mpf:
        return mp.fsum(self.weights)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"DiscreteMeasure(n={len(self.points)}, mass={mp.nstr(self.mass, 8)})"


def inner_joukowski(u, below, above, sqrt=np.sqrt):
    """s = sqrt(u - 1) sqrt(u + 1) and the inner Joukowski map phi = 1/(u + s).

    ``below`` and ``above`` are u - 1 and u + 1, passed in so that a caller
    can form them without cancellation next to an endpoint. ``sqrt`` sets
    the arithmetic: ``numpy.sqrt`` on complex128 scalars or arrays, or
    ``mpmath.sqrt`` (or a truncated Taylor series' root) at the working
    precision. The product of principal roots has its cut exactly on
    [-1, 1], so the sum never cancels and |phi| < 1 everywhere off the
    interval; on it (either sign of zero imaginary part) |phi| = 1 and
    Re phi^k = T_k(u).
    """
    s = sqrt(below) * sqrt(above)
    return s, 1 / (u + s)


def _series(a, w: complex) -> complex:
    """sum_{k>=1} a[k-1] w^k by Horner's rule."""
    acc = 0j
    for ak in reversed(a):
        acc = (acc + ak) * w
    return acc


class SpectralMeasure:
    """Density sum_k c_k T_k(u)/(pi sqrt(1 - u^2)) in u = (x - m)/h on each
    interval [m - h, m + h] of an :class:`IntervalSystem`; ``coeffs`` holds
    one float64 array (c_0, ..., c_{K-1}) per interval. Immutable.
    """

    __slots__ = ("system", "coeffs", "_series_coeffs")

    def __init__(self, system: "IntervalSystem", coeffs):
        self.system = system
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        # c_k / k for k >= 1: the coefficients of the series in phi
        self._series_coeffs = [
            (c[1:] / np.arange(1, c.size)).tolist() for c in self.coeffs
        ]

    def _intervals(self):
        S = self.system
        return zip(S.centers, S.halves, self.coeffs, self._series_coeffs)

    @property
    def mass(self) -> mp.mpf:
        return mp.mpf(math.fsum(float(c[0]) for c in self.coeffs))

    def scaled(self, factor) -> "SpectralMeasure":
        f = float(factor)
        return SpectralMeasure(self.system, [f * c for c in self.coeffs])

    def __add__(self, other: "SpectralMeasure") -> "SpectralMeasure":
        coeffs = []
        for a, b in zip(self.coeffs, other.coeffs):
            out = np.zeros(max(a.size, b.size))
            out[: a.size] += a
            out[: b.size] += b
            coeffs.append(out)
        return SpectralMeasure(self.system, coeffs)

    def density(self, x: float) -> float:
        """Density with respect to dx at a real point (0 off the system)."""
        for m, h, c, _ in self._intervals():
            u = (x - m) / h
            if -1 < u < 1:
                series = np.polynomial.chebyshev.chebval(u, c)
                return float(series) / (math.pi * h * math.sqrt(1 - u * u))
        return 0.0

    def potential(self, z) -> float:
        """Logarithmic potential at z from the closed-form basis potentials."""
        z = complex(z)
        terms = []
        for m, h, c, a in self._intervals():
            u = np.complex128((z - m) / h)
            phi = complex(inner_joukowski(u, u - 1.0, u + 1.0)[1])
            terms.append(float(c[0]) * (math.log(2 / h) + math.log(abs(phi))))
            terms.append(_series(a, phi).real)
        return math.fsum(terms)

    def cdf(self, x: float) -> float:
        """Mass on (-inf, x]: per interval, with u = cos(theta),
        (c_0 (pi - theta) - sum_k c_k sin(k theta)/k) / pi."""
        parts = []
        for m, h, c, a in self._intervals():
            u = (x - m) / h
            if u >= 1:
                parts.append(float(c[0]))
            elif u > -1:
                th = math.acos(u)
                tail = _series(a, cmath.exp(1j * th)).imag
                parts.append((float(c[0]) * (math.pi - th) - tail) / math.pi)
        return math.fsum(parts)


class IntervalSystem:
    """Disjoint closed real intervals; caches their equilibrium and balayages.

    ``max_modes`` caps the Chebyshev modes K per interval of every solve.
    """

    def __init__(self, intervals, max_modes: int = DEFAULT_MAX_MODES):
        ivs = sorted(((mp.mpf(a), mp.mpf(b)) for a, b in intervals))
        for (a, b) in ivs:
            if not b > a:
                raise ValueError("intervals must have positive length")
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b1:
                raise ValueError("intervals must be pairwise disjoint")
        if not ivs:
            raise ValueError("need at least one interval")
        if int(max_modes) < 1:
            raise ValueError("max_modes must be >= 1")
        self.intervals = ivs
        self.max_modes = int(max_modes)
        self.centers = [float((a + b) / 2) for a, b in ivs]
        self.halves = [float((b - a) / 2) for a, b in ivs]
        self._cache: dict = {}

    # -- cached solves ------------------------------------------------------

    def equilibrium(self):
        out = self._cache.get("equilibrium")
        if out is None:
            out = equilibrium_measure(self)
            self._cache["equilibrium"] = out
        return out

    def balayage_of(self, mu: DiscreteMeasure):
        # the cached entry pins mu alive, so keying by id stays sound
        key = ("balayage", id(mu))
        hit = self._cache.get(key)
        if hit is not None and hit[0] is mu:
            return hit[1]
        out = _balayage_finite(mu, self)
        self._cache[key] = (mu, out)
        return out


def _solve_dense_f64(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting, vectorized per row.

    Uses only elementwise numpy operations (no BLAS reductions) so the
    result is bit-reproducible run to run.
    """
    A = A.copy()
    b = b.copy()
    n = A.shape[0]
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if A[piv, k] == 0.0:
            raise ConvergenceFailure("singular collocation system")
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        f = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= f[:, None] * A[k, k:]
        b[k + 1 :] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        # fsum is exactly rounded, so the result does not depend on the order
        x[k] = (b[k] - math.fsum((A[k, k + 1 :] * x[k + 1 :]).tolist())) / A[k, k]
    return x


def _collocation_matrix(S: IntervalSystem, K: int):
    """Collocation points (K Chebyshev points per interval) and the system
    matrix: basis potentials, a -1 column for the constant, a mass row."""
    u = np.cos((2 * np.arange(K) + 1) * np.pi / (2 * K))
    xs = np.concatenate([m + h * u for m, h in zip(S.centers, S.halves)])
    n = xs.size
    A = np.zeros((n + 1, n + 1))
    for j, (m, h) in enumerate(zip(S.centers, S.halves)):
        u = (xs - m).astype(np.complex128) / h
        _, phi = inner_joukowski(u, u - 1.0, u + 1.0)
        A[:n, j * K] = math.log(2 / h) + np.log(np.abs(phi))
        power = np.ones(n, dtype=np.complex128)
        for k in range(1, K):
            power = power * phi
            A[:n, j * K + k] = power.real / k
        A[n, j * K] = 1.0
    A[:n, n] = -1.0
    return xs, A


def _tail(coeffs, K: int) -> float:
    """Largest |c_k|/k over the last quarter (at least the last two) of the
    modes of every interval; K >= 4."""
    top = K - max(2, K // 4)
    return max(float(np.max(np.abs(c[top:]) / np.arange(top, K))) for c in coeffs)


def _spectral_solve(S: IntervalSystem, rhs_at, mass: float):
    """Coefficients and constant of U^mu = rhs + c on S with mu(S) = mass.

    K doubles until the tail of the coefficients c_k/k of the series in phi,
    the terms that carry the potential and the distribution function, is
    below ``_TAIL_TOL * mass``, until the tail stops falling (it has reached
    the float64 noise floor), or until K reaches ``S.max_modes``.
    """
    K = min(_FIRST_MODES, S.max_modes)
    last = math.inf
    while True:
        xs, A = _collocation_matrix(S, K)
        b = np.append(rhs_at(xs), mass)
        sol = _solve_dense_f64(A, b)
        coeffs = [sol[j * K : (j + 1) * K] for j in range(len(S.centers))]
        if K >= S.max_modes:
            break
        tail = _tail(coeffs, K)
        if tail <= _TAIL_TOL * mass or tail >= last:
            break
        K, last = min(2 * K, S.max_modes), tail
    return SpectralMeasure(S, coeffs), mp.mpf(sol[-1])


def equilibrium_measure(S: IntervalSystem):
    """Unit equilibrium measure of the system and its logarithmic capacity.

    The collocation constant is the Robin constant, so the capacity is
    ``exp(-c)``.
    """
    measure, c = _spectral_solve(S, np.zeros_like, 1.0)
    return measure, mp.exp(-c)


def _balayage_finite(mu: DiscreteMeasure, S: IntervalSystem):
    """Balayage of a finite measure off the system, and the constant c with
    U^(mu hat) = U^mu + c on the system."""
    for p in mu.points:
        if p.imag == 0 and any(a <= p.real <= b for a, b in S.intervals):
            raise ValueError("balayage carrier must be disjoint from the system")
    return _spectral_solve(
        S,
        lambda xs: np.array([_log_potential_f64(mu, x) for x in xs.tolist()]),
        float(mu.mass),
    )


def _parts(sigma):
    """(mass at infinity, finite DiscreteMeasure or None) of a node distribution."""
    mass_inf = mp.mpf(getattr(sigma, "mass_at_infinity", 0))
    finite = getattr(
        sigma, "finite", sigma if isinstance(sigma, DiscreteMeasure) else None
    )
    return mass_inf, finite


def balayage(mu, S: IntervalSystem) -> SpectralMeasure:
    """Sweep a measure onto the interval system, conserving total mass.

    Accepts a :class:`DiscreteMeasure` with carrier disjoint from the
    system, or any object with ``finite``/``mass_at_infinity`` attributes
    (an asymptotic node distribution); the atom at infinity sweeps to the
    equilibrium measure.
    """
    mass_inf, finite = _parts(mu)
    parts = []
    if mass_inf > 0:
        eq, _cap = S.equilibrium()
        parts.append(eq.scaled(mass_inf))
    if finite is not None and len(finite):
        hat, _c = S.balayage_of(finite)
        parts.append(hat)
    if not parts:
        raise ValueError("empty measure has no balayage")
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


def log_potential(mu, z) -> mp.mpf:
    """Logarithmic potential of mu at z.

    For a :class:`SpectralMeasure`, the float64 closed form. For a
    :class:`DiscreteMeasure`, sum(w * log 1/|z - p|) as an mpmath atom sum at
    the working precision, raising :class:`CarrierHit` at an atom that
    coincides with z (:func:`algebra.coincident`): the high-precision
    reference the tests compare against.
    """
    if isinstance(mu, SpectralMeasure):
        return mp.mpf(mu.potential(z))
    z = mp.mpc(z)
    terms = []
    for p, w in zip(mu.points, mu.weights):
        d = abs(z - p)
        if coincident(d, z):
            raise CarrierHit(f"z = {mp.nstr(z, 10)} is a carrier point")
        if w != 0:
            terms.append(-w * mp.log(d))
    return mp.fsum(terms)


def _log_potential_f64(mu: DiscreteMeasure, z) -> float:
    """Float64 ``sum(w * log 1/|z - p|)`` over the nonzero weights, via fsum.

    At a carrier point an atom takes the distance ``GAMMA * local_length``;
    without local lengths a carrier hit raises :class:`CarrierHit`.
    """
    pts, wts, lens = mu.f64
    z = complex(z)
    d = np.abs(z - pts)
    hit = d <= _F64_HIT * max(1.0, abs(z))
    if hit.any():
        if lens is None:
            raise CarrierHit(f"z = {z} is a carrier point")
        d = np.where(hit, GAMMA * lens, d)
    live = wts != 0
    return math.fsum(-wts[live] * np.log(d[live]))


def harmonic_transfer_residuals(mu: DiscreteMeasure, hat: SpectralMeasure,
                                S: IntervalSystem, count: int = 5):
    """Integrals of bounded harmonic test functions against mu vs its balayage.

    Test functions are the real parts of powers of the inner Joukowski map
    phi of the (single) interval [a, b] (:func:`inner_joukowski` at
    u = (t - m)/h, with u - 1 and u + 1 formed as (t - b)/h and (t - a)/h):
    harmonic off the interval, continuous on the sphere, and equal to the
    Chebyshev polynomials T_k on the interval itself. Balayage preserves
    their integrals exactly. Against mu they are working-precision atom
    sums; against the balayage the integral of T_k is c_k/2. Single-interval
    systems only.
    """
    if len(S.intervals) != 1:
        raise ValueError("harmonic transfer test is defined for one interval")
    a, b = S.intervals[0]
    h, m = (b - a) / 2, (a + b) / 2
    phis = [inner_joukowski((p - m) / h, (p - b) / h, (p - a) / h, mp.sqrt)[1]
            for p in map(mp.mpc, mu.points)]
    c = hat.coeffs[0]
    out = []
    for k in range(1, count + 1):
        lhs = mp.fsum(w * (phi**k).real for phi, w in zip(phis, mu.weights))
        rhs = mp.mpf(float(c[k]) / 2 if k < c.size else 0.0)
        out.append(abs(lhs - rhs))
    return out


def green_potential(sigma, S: IntervalSystem, z) -> mp.mpf:
    """Green potential of a node distribution relative to the complement of S.

    The atom at infinity contributes its mass times g(z, inf) =
    log(1/cap) - U^eq(z); the finite part sigma contributes
    c - U^(sigma hat)(z) + U^sigma(z), with c the balayage constant. The
    potentials of the spectral measures are their float64 closed forms and
    U^sigma is a float64 atom sum; the constants and the mass weighting stay
    mpmath numbers.
    """
    mass_inf, finite = _parts(sigma)
    val = mp.mpf(0)
    if mass_inf > 0:
        eq, cap = S.equilibrium()
        val += mass_inf * (mp.log(1 / cap) - eq.potential(z))
    if finite is not None and len(finite):
        hat, c = S.balayage_of(finite)
        val += c - hat.potential(z) + _log_potential_f64(finite, z)
    return val


def weakstar_distance(nu: DiscreteMeasure, mu: SpectralMeasure) -> mp.mpf:
    """Kolmogorov distance sup_x |nu(-inf, x] - mu(-inf, x]| of an atomic
    measure nu and a spectral measure mu, both carried by the real line.

    The distribution function of mu is continuous and nondecreasing, so the
    supremum is reached at an atom of nu, on one side of its jump, and is
    read off the closed-form distribution function there.
    """
    if not isinstance(mu, SpectralMeasure):
        raise TypeError("weakstar_distance compares against a spectral measure")
    if abs(nu.mass - mu.mass) > mp.mpf("1e-10") * max(1, nu.mass, mu.mass):
        raise MassMismatch(
            f"masses differ: {mp.nstr(nu.mass, 12)} vs {mp.nstr(mu.mass, 12)}"
        )
    atoms = sorted((p.real, w) for p, w in zip(nu.points, nu.weights))
    best = mp.mpf(0)
    below = mp.mpf(0)
    i = 0
    while i < len(atoms):
        x = atoms[i][0]
        jump = mp.mpf(0)
        while i < len(atoms) and atoms[i][0] == x:
            jump += atoms[i][1]
            i += 1
        F = mp.mpf(mu.cdf(float(x)))
        best = max(best, abs(below - F), abs(below + jump - F))
        below += jump
    return best
