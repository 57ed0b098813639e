"""Numerical logarithmic potential theory on finite unions of real intervals.

Equilibrium measures and balayage are computed by collocation on
Chebyshev-spaced grids: the unknown weights and the potential-matching
constant solve a dense linear system in which the singular diagonal is
regularized by the local cell length (``log(1/(gamma*len))`` with a fixed
``gamma``). The dense collocation solves run in float64 with hand-rolled,
elementwise-deterministic elimination: the quantities produced here feed
pass/fail diagnostics with tolerances of 1e-2..1e-3, far above float64
noise, and a full-precision solve of a 500x500 system would dominate the
runtime of every experiment.

For the same reason the Green potential sums that grade convergence in
capacity run in float64 too: each measure carries a lazily built float64
view (complex128 points, float64 weights and cell lengths), and one kernel,
``_log_potential_f64``, sums ``-w*log|z-p|`` over it with ``math.fsum``,
which is exactly rounded and so independent of the summation order. Carrier
hits are tested at the float64 scale. ``log_potential`` stays an mpmath atom
sum at the working precision: it is the high-precision reference the tests
and the potential oracle compare against. All returned values are mpmath
numbers.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .algebra import segment_distance
from .errors import CarrierHit, ConvergenceFailure, MassMismatch

__all__ = [
    "DiscreteMeasure",
    "IntervalSystem",
    "log_potential",
    "equilibrium_measure",
    "balayage",
    "green_potential",
    "weakstar_distance",
]

# diagonal regularization constant, calibrated once against cap([-1,1]) = 1/2
GAMMA = 0.25
DEFAULT_NODES_PER_INTERVAL = 256
_NEG_WEIGHT_TOL = 1e-10
# a float64 distance this small (times max(1, |z|)) is a hit on a carrier point
_F64_HIT = 10 * 2.0**-52


class DiscreteMeasure:
    """Weighted point masses; the numerical stand-in for all measures here.

    ``local_lengths`` optionally records a carrier spacing per point, which
    allows potentials to be evaluated on the carrier itself through the same
    diagonal regularization the solvers use. Instances are treated as
    immutable once constructed, which is what lets :attr:`f64` be cached.
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

    def scaled(self, factor) -> "DiscreteMeasure":
        f = mp.mpf(factor)
        return DiscreteMeasure(
            self.points, [w * f for w in self.weights], self.local_lengths
        )

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"DiscreteMeasure(n={len(self.points)}, mass={mp.nstr(self.mass, 8)})"


class IntervalSystem:
    """Disjoint closed real intervals with per-interval collocation grids."""

    def __init__(self, intervals, nodes_per_interval: int = DEFAULT_NODES_PER_INTERVAL):
        ivs = sorted(((mp.mpf(a), mp.mpf(b)) for a, b in intervals))
        for (a, b) in ivs:
            if not b > a:
                raise ValueError("intervals must have positive length")
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b1:
                raise ValueError("intervals must be pairwise disjoint")
        if not ivs:
            raise ValueError("need at least one interval")
        self.intervals = ivs
        self.nodes_per_interval = int(nodes_per_interval)
        self._cache: dict = {}

    def distance(self, z) -> mp.mpf:
        return min(segment_distance(z, a, b) for a, b in self.intervals)

    def grid(self, n_per_interval=None):
        """Chebyshev collocation points and their cell lengths, in float64."""
        n = n_per_interval or self.nodes_per_interval
        pts, lens = [], []
        for a, b in self.intervals:
            af, bf = float(a), float(b)
            m, h = (af + bf) / 2.0, (bf - af) / 2.0
            ang = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
            x = m + h * np.cos(ang)  # descending
            bnd = m + h * np.cos(np.arange(n + 1) * np.pi / n)  # descending
            ell = bnd[:-1] - bnd[1:]
            pts.append(x[::-1])
            lens.append(ell[::-1])
        return np.concatenate(pts), np.concatenate(lens)

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
        # fixed-order summation keeps this deterministic
        s = b[k]
        row = A[k, k + 1 :]
        xv = x[k + 1 :]
        acc = 0.0
        for v in row * xv:
            acc += v
        x[k] = (s - acc) / A[k, k]
    return x


def _kernel_matrix(pts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, 1.0)
    K = -np.log(diff)
    np.fill_diagonal(K, -np.log(GAMMA * lens))
    return K


def _collocation_solve(S: IntervalSystem, rhs_builder, mass):
    """Shared equilibrium/balayage collocation with one refinement retry."""
    n0 = S.nodes_per_interval
    for n_per in (n0, 2 * n0):
        pts, lens = S.grid(n_per)
        n = pts.size
        K = _kernel_matrix(pts, lens)
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = K
        A[:n, n] = -1.0
        A[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[:n] = rhs_builder(pts)
        rhs[n] = float(mass)
        sol = _solve_dense_f64(A, rhs)
        w, c = sol[:n], sol[n]
        if w.min() >= -_NEG_WEIGHT_TOL * max(float(mass), 1.0):
            w = np.where(w < 0.0, 0.0, w)
            measure = DiscreteMeasure(
                [mp.mpf(p) for p in pts.tolist()],
                [mp.mpf(x) for x in w.tolist()],
                [mp.mpf(x) for x in lens.tolist()],
            )
            return measure, mp.mpf(c)
    raise ConvergenceFailure(
        "collocation weights stayed negative after grid refinement"
    )


def equilibrium_measure(S: IntervalSystem):
    """Unit equilibrium measure of the system and its logarithmic capacity.

    The collocation constant is the Robin constant, so the capacity is
    ``exp(-c)``.
    """
    measure, c = _collocation_solve(S, lambda pts: np.zeros(pts.size), mp.mpf(1))
    return measure, mp.exp(-c)


def _balayage_finite(mu: DiscreteMeasure, S: IntervalSystem):
    for p in mu.points:
        if S.distance(p) <= 0:
            raise ValueError("balayage carrier must be disjoint from the system")
    carrier, weights, _ = mu.f64

    def rhs(pts):
        d = np.abs(pts[:, None] - carrier[None, :])
        vals = -np.log(d)
        out = np.zeros(pts.size)
        for i in range(pts.size):
            acc = 0.0
            for v in vals[i] * weights:
                acc += v
            out[i] = acc
        return out

    return _collocation_solve(S, rhs, mu.mass)


def balayage(mu, S: IntervalSystem) -> DiscreteMeasure:
    """Sweep a measure onto the interval system, conserving total mass.

    Accepts a :class:`DiscreteMeasure` with carrier disjoint from the
    system, or any object with ``finite``/``mass_at_infinity`` attributes
    (an asymptotic node distribution); the atom at infinity sweeps to the
    equilibrium measure.
    """
    mass_inf = mp.mpf(getattr(mu, "mass_at_infinity", 0))
    finite = getattr(mu, "finite", mu if isinstance(mu, DiscreteMeasure) else None)
    parts = []
    if mass_inf > 0:
        eq, _cap = S.equilibrium()
        parts.append(eq.scaled(mass_inf))
    if finite is not None and len(finite):
        hat, _c = S.balayage_of(finite)
        parts.append(hat)
    if not parts:
        raise ValueError("empty measure has no balayage")
    if len(parts) == 1:
        return parts[0]
    # both parts live on the system grid; verify and add weights
    if len(parts[0]) != len(parts[1]):
        raise ConvergenceFailure("balayage parts landed on different grids")
    return DiscreteMeasure(
        parts[0].points,
        [u + v for u, v in zip(parts[0].weights, parts[1].weights)],
        parts[0].local_lengths,
    )


def log_potential(mu: DiscreteMeasure, z) -> mp.mpf:
    """Logarithmic potential sum(w * log 1/|z - p|); raises on carrier hits.

    The high-precision reference: an mpmath atom sum at the working
    precision. The checkers use the float64 kernel behind
    :func:`green_potential` instead.
    """
    z = mp.mpc(z)
    terms = []
    for p, w in zip(mu.points, mu.weights):
        d = abs(z - p)
        if d <= 10 * mp.eps * max(1, abs(z)):
            raise CarrierHit(f"z = {mp.nstr(z, 10)} is a carrier point")
        if w != 0:
            terms.append(-w * mp.log(d))
    return mp.fsum(terms)


def _log_potential_f64(mu: DiscreteMeasure, z, regularize: bool) -> float:
    """Float64 ``sum(w * log 1/|z - p|)`` over the nonzero weights, via fsum.

    A carrier hit raises :class:`CarrierHit`, or with ``regularize`` takes
    the collocation diagonal ``gamma * cell`` as its distance.
    """
    pts, wts, lens = mu.f64
    z = complex(z)
    d = np.abs(z - pts)
    hit = d <= _F64_HIT * max(1.0, abs(z))
    if hit.any():
        if not regularize:
            raise CarrierHit(f"z = {z} is a carrier point")
        if lens is None:
            raise CarrierHit("carrier hit and no local lengths to regularize")
        d = np.where(hit, GAMMA * lens, d)
    live = wts != 0
    return math.fsum(-wts[live] * np.log(d[live]))


def joukowski_inner(t, a, b) -> mp.mpc:
    """Conformal map of the complement of [a, b] onto the unit disk, 0 at infinity."""
    m = (mp.mpf(a) + mp.mpf(b)) / 2
    h = (mp.mpf(b) - mp.mpf(a)) / 2
    u = (mp.mpc(t) - m) / h
    s = mp.sqrt(u * u - 1)
    lo, hi = u - s, u + s
    return lo if abs(lo) <= abs(hi) else 1 / hi


def harmonic_transfer_residuals(mu: DiscreteMeasure, hat: DiscreteMeasure,
                                S: IntervalSystem, count: int = 5):
    """Integrals of bounded harmonic test functions against mu vs its balayage.

    Test functions are the real parts of powers of the inner Joukowski map
    phi of the (single) interval: harmonic off the interval, continuous on
    the sphere, and equal to the Chebyshev polynomials on the interval
    itself. Balayage preserves their integrals exactly; the returned
    residuals measure how well the discrete sweep does. Single-interval
    systems only.
    """
    if len(S.intervals) != 1:
        raise ValueError("harmonic transfer test is defined for one interval")
    a, b = S.intervals[0]
    m, h = (a + b) / 2, (b - a) / 2
    out = []
    for k in range(1, count + 1):
        lhs = mp.fsum(
            w * (joukowski_inner(p, a, b) ** k).real
            for p, w in zip(mu.points, mu.weights)
        )
        rhs = mp.fsum(
            w * mp.chebyt(k, (p.real - m) / h)
            for p, w in zip(hat.points, hat.weights)
        )
        out.append(abs(lhs - rhs))
    return out


def green_potential(sigma, S: IntervalSystem, z) -> mp.mpf:
    """Green potential of a node distribution relative to the complement of S.

    The atom-at-infinity part contributes its mass times the Green function
    with pole at infinity (via the equilibrium identity); the finite part is
    reconstructed from its balayage and the collocation constant. The three
    atom sums run in float64 (``_log_potential_f64``); the collocation
    constants and the mass weighting stay mpmath numbers.
    """
    mass_inf = mp.mpf(getattr(sigma, "mass_at_infinity", 0))
    finite = getattr(
        sigma, "finite", sigma if isinstance(sigma, DiscreteMeasure) else None
    )
    val = mp.mpf(0)
    if mass_inf > 0:
        eq, cap = S.equilibrium()
        g_inf = mp.log(1 / cap) - _log_potential_f64(eq, z, False)
        val += mass_inf * g_inf
    if finite is not None and len(finite):
        hat, c = S.balayage_of(finite)
        val += (c - _log_potential_f64(hat, z, False)
                + _log_potential_f64(finite, z, True))
    return val


def weakstar_distance(nu: DiscreteMeasure, mu: DiscreteMeasure) -> mp.mpf:
    """Kolmogorov distance between two real-carried atomic measures."""
    if abs(nu.mass - mu.mass) > mp.mpf("1e-10") * max(1, nu.mass, mu.mass):
        raise MassMismatch(
            f"masses differ: {mp.nstr(nu.mass, 12)} vs {mp.nstr(mu.mass, 12)}"
        )
    events = sorted(
        [(p.real, 0, w) for p, w in zip(nu.points, nu.weights)]
        + [(p.real, 1, w) for p, w in zip(mu.points, mu.weights)]
    )
    best = mp.mpf(0)
    f = [mp.mpf(0), mp.mpf(0)]
    i = 0
    while i < len(events):
        x = events[i][0]
        best = max(best, abs(f[0] - f[1]))  # left limit at x
        while i < len(events) and events[i][0] == x:
            _, which, w = events[i]
            f[which] += w
            i += 1
        best = max(best, abs(f[0] - f[1]))
    return best
