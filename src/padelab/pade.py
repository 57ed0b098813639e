"""Assembly and solution of the orthogonality systems defining the approximants.

The denominator of the n-th approximant is a kernel vector of an n x (n+1)
system whose rows pair monomials with the measure weighted by the reciprocal
node polynomial, plus residue terms at the poles of the rational part. For
the all-nodes-at-infinity scheme the system is the Hankel matrix of the
power moments of the full function.
"""

from __future__ import annotations

import mpmath as mp

from . import measure as ms
from .algebra import (
    FixedPoly,
    GridPoint,
    Poly,
    drop_tolerance,
    fixed_ratio,
    kernel_vector,
    poly_eval,
    poly_roots,
    segment_distance,
    solve_tolerance,
    # not called here; kept because the benchmark tracer patches it by name
    solve_linear,
    working_precision,
)
from .errors import DegenerateChoice, PadelabError, SolveFailure

__all__ = [
    "PadeApproximant",
    "PadeFamily",
    "MomentCache",
    "assemble_orthogonality_system",
    "solve_qn",
    "recover_p",
    "error_eval",
    "solve_family",
]


class PadeApproximant:
    """Solved (p, q) pair for one n, with solve diagnostics.

    ``poles`` are the roots of q when they are already known (stored
    artifacts); otherwise the constructor finds them.
    """

    __slots__ = (
        "n",
        "q",
        "p",
        "defect",
        "scheme_id",
        "residual",
        "shifted_residual",
        "p_residual",
        "nullity",
        "poles",
        "precision_bits",
        "escalated",
        "quad_tol",
        "_fixed",
    )

    def __init__(self, n, q, scheme_id, poles=None):
        self.n = n
        self.q = q
        self.p = None
        self.defect = n - q.degree
        self.scheme_id = scheme_id
        self.residual = None
        self.shifted_residual = None
        self.p_residual = None
        self.nullity = None
        if poles is None:
            poles = poly_roots(q) if q.degree >= 1 else []
        self.poles = poles
        self.precision_bits = mp.mp.prec
        self.escalated = False
        self.quad_tol = None
        self._fixed = None

    def evaluate(self, z):
        """p(z)/q(z) by integer Horner (:class:`algebra.FixedPoly`), rounded
        once. ``z`` is a number, or an :class:`algebra.GridPoint` made at the
        current precision, which is how a sample point is converted once and
        shared by every n."""
        if not isinstance(z, GridPoint):
            z = GridPoint(z)
        view = self._fixed
        if view is None or view[:3] != (mp.mp.prec, self.p, self.q):
            view = self._fixed = (mp.mp.prec, self.p, self.q,
                                  FixedPoly(self.p), FixedPoly(self.q))
        return fixed_ratio(view[3](z), view[4](z))

    def __repr__(self):
        return f"PadeApproximant(n={self.n}, defect={self.defect})"


class PadeFamily:
    """A problem instance together with its solved approximants."""

    def __init__(self, lam, rational, scheme):
        self.lam = lam
        self.rational = rational
        self.scheme = scheme
        self.approximants: dict[int, PadeApproximant] = {}
        self.failures: dict[int, str] = {}

    @property
    def solved_ns(self):
        return sorted(self.approximants)

    def eval_F(self, z, tol=None):
        return ms.eval_F(self.lam, self.rational, z, tol)


class MomentCache:
    """Per-precision caches of the measure moments and of the values of the
    orthogonality functional, for one problem (measure, rational part and
    scheme).

    ``upto`` is the largest measure-moment index the caller will read; the
    first call reaches it, so one call serves every n. The power moments
    and the 1/v2n-weighted ones come from :func:`measure.measure_moments`:
    closed form on components with a Chebyshev series (from the
    coefficients, and from residues at the nodes), a running-power pass
    over the compiled node set on the others.
    """

    def __init__(self, lam, upto: int = 0):
        self.lam = lam
        self.upto = upto
        self._measure: dict[int, list] = {}
        self._values: dict[tuple[int, int], tuple] = {}

    def measure_moments(self, upto: int, tol=None):
        """Moments of the measure alone (no rational part), indices 0..upto."""
        cache = self._measure.get(mp.mp.prec)
        if cache is None or len(cache) <= upto:
            cache = ms.measure_moments(self.lam, max(upto, self.upto), tol)
            self._measure[mp.mp.prec] = cache
        return cache[: upto + 1]

    def generalized_moments(self, scheme, n: int, upto: int, tol=None):
        """Integrals of t^m against the measure weighted by 1/v2n; each n
        needs them once, for the functional's values, which are cached."""
        finite, _ = scheme.nodes(n)
        return ms.measure_moments(self.lam, upto, tol, finite)


def _functional(rational, scheme, n, tol, cache):
    """L[t^m / v2n] for m = 0..2n-1: its measure part and the whole values.

    L is the integral against the measure plus L on the rational part
    (:meth:`measure.RationalPart.moments`), so that F(z) = L_t[1/(z - t)]
    (:func:`measure.functional`); q is orthogonal under L weighted by 1/v2n,
    and p is read off the same values (:func:`recover_p`). Both parts take
    the scheme's finite nodes, the zeros of v2n; the pair is formed once per
    precision and n, on the cache.
    """
    key = (mp.mp.prec, n)
    if key not in cache._values:
        finite, _ = scheme.nodes(n)
        upto = 2 * n - 1
        measure = (cache.generalized_moments(scheme, n, upto, tol) if finite
                   else cache.measure_moments(upto, tol))
        polar = rational.moments(upto, finite)
        cache._values[key] = (measure, [a + b for a, b in zip(measure, polar)])
    return cache._values[key]


def assemble_orthogonality_system(lam, rational, scheme, n, tol=None, cache=None):
    """The n x (n+1) system whose kernel gives the denominator coefficients."""
    if cache is None:
        cache = MomentCache(lam)
    full = _functional(rational, scheme, n, tol, cache)[1]
    return [[full[i + j] for i in range(n + 1)] for j in range(n)]


def _shifted_residual(lam, rational, scheme, n, q, cache, tol=None):
    """Residual of the relations pairing t^k * Q_s * q against the measure.

    Multiples of Q_s annihilate the residue terms, so these relations only
    see the measure side; they cross-check the assembled polar terms.
    """
    s = rational.s
    if n - s - 1 < 0:
        return mp.mpf(0)
    qs_q = rational.denominator() * q
    coeffs = qs_q.coeffs
    upto = (n - s - 1) + len(coeffs) - 1
    g = _functional(rational, scheme, n, tol, cache)[0][: upto + 1]
    scale = max(abs(x) for x in g) * mp.fsum(abs(c) for c in coeffs)
    if scale == 0:
        return mp.mpf(0)
    worst = mp.mpf(0)
    for k in range(n - s):
        val = abs(mp.fsum(c * g[k + m] for m, c in enumerate(coeffs)))
        worst = max(worst, val)
    return worst / scale


def _escalated_tol(tol, base: int):
    """Quadrature tolerance in effect at the current precision for a solve
    set up at ``base`` bits: ``tol`` tightened by the bits escalation added
    (tol * 2^-base when the precision doubled), so the moments gain the
    accuracy the precision does; for ``tol`` None, the drop tolerance of the
    current precision, which the quadrature would take anyway."""
    if tol is None:
        return drop_tolerance()
    if mp.mp.prec == base:
        return tol
    return mp.mpf(tol) * mp.mpf(2) ** (base - mp.mp.prec)


def solve_qn(lam, rational, scheme, n, tol=None, cache=None):
    """Monic denominator of the n-th approximant, with escalation ladder.

    If the kernel extraction misses its residual bound at the working
    precision, or the shifted residual (:func:`_shifted_residual`) exceeds
    the same bound, the solve is repeated once at doubled precision, then
    fails.
    q, its poles and the shifted residual are formed at the precision the
    kernel was solved at, which ``precision_bits`` records; there every
    quadrature uses ``tol * 2^-base`` (base the working precision), which
    ``quad_tol`` records.
    """
    if n <= rational.s:
        raise DegenerateChoice(f"need n > s = {rational.s}, got n = {n}")
    if cache is None:
        cache = MomentCache(lam)

    base = bits = mp.mp.prec

    def attempt():
        quad_tol = _escalated_tol(tol, base)
        matrix = assemble_orthogonality_system(lam, rational, scheme, n, quad_tol, cache)
        info = kernel_vector(matrix)
        q = Poly(info.vector)
        shifted = _shifted_residual(lam, rational, scheme, n, q, cache, quad_tol)
        if shifted > solve_tolerance():
            raise SolveFailure(f"shifted residual {mp.nstr(shifted, 6)} exceeds bound "
                               f"{mp.nstr(solve_tolerance(), 6)} at {mp.mp.prec} bits")
        return info, q, shifted, quad_tol

    try:
        info, q, shifted, quad_tol = attempt()
    except SolveFailure:
        bits *= 2
        with working_precision(bits):
            info, q, shifted, quad_tol = attempt()

    with working_precision(bits):
        if q.is_zero():
            raise SolveFailure(f"kernel vector trimmed to zero at n={n}")
        approx = PadeApproximant(n, q, scheme.kind)
        approx.residual = info.residual
        approx.nullity = info.nullity
        approx.quad_tol = quad_tol
        approx.shifted_residual = shifted
    approx.escalated = bits != mp.mp.prec
    return approx


def recover_p(lam, rational, scheme, n, q: Poly, tol=None, cache=None):
    """Numerator p(z) = L_t[(q(z) v(t) - v(z) q(t)) / ((z - t) v(t))].

    L is the functional q is orthogonal under (:func:`_functional`) and v the
    node polynomial, so q*F - p = v(z) L_t[q(t) / (v(t) (z - t))] vanishes at
    every finite node and decays at infinity. With c_m = L[t^m / v], the
    coefficient of z^a is sum_{i,j} q_i v_j s_ij(a) c_{i+j-1-a}, where s_ij(a)
    is +1 for j <= a < i, -1 for i <= a < j and 0 otherwise, that is
    sum_{j<=a} v_j S+(a, j-1-a) - sum_{j>a} v_j S-(a, j-1-a) with the running
    sums S+(a, s) = sum_{i>a} q_i c_{i+s} and S-(a, s) = sum_{i<=a} q_i c_{i+s}.
    Orthogonality makes every coefficient from z^n up vanish; p keeps those
    below z^n, and the residual is the largest one dropped relative to the
    largest one kept. Returns (p, residual).
    """
    if cache is None:
        cache = MomentCache(lam)
    c = _functional(rational, scheme, n, tol, cache)[1]
    qc, vc = q.coeffs, scheme.v2n(n).coeffs
    top = max(len(qc), len(vc)) - 1
    coeffs = [mp.mpc(0)] * top
    # plus[a - j] = S+(a, j - 1 - a), built from a = top down
    plus = [mp.mpc(0)] * top
    for a in reversed(range(top)):
        if a + 1 < len(qc):
            for k in range(a + 1):
                plus[k] += qc[a + 1] * c[a - k]
        coeffs[a] = mp.fdot(vc[: a + 1], plus[a::-1])
    # minus[s] = S-(a, s), s = j - 1 - a for j > a, built from a = 0 up
    minus = [mp.mpc(0)] * (len(vc) - 1)
    for a in range(top):
        if a < len(qc):
            for s in range(len(vc) - 1 - a):
                minus[s] += qc[a] * c[a + s]
        coeffs[a] -= mp.fdot(vc[a + 1 :], minus)
    kept = coeffs[:n]
    scale = max((abs(x) for x in kept), default=0) or 1
    residual = max((abs(x) for x in coeffs[n:]), default=mp.mpf(0)) / scale
    return Poly(kept), residual


def error_eval(lam, rational, scheme, approx: PadeApproximant, z, tol=None):
    """Approximation error at z through the weighted interpolation integral.

    The auxiliary monic factor takes the roots of q nearest the support
    hull (all of them when the defect eats into their count), mirroring the
    construction that cancels the oscillation of q on the support. The
    moments of t^k / (v(t) (t - z)) come from :func:`measure.measure_moments`
    with the finite nodes and z: residues on components with a Chebyshev
    series, the compiled node set on the others.
    """
    n, s = approx.n, rational.s
    if n <= s:
        raise DegenerateChoice(f"need n > s = {s} for the error formula")
    hull = lam.hull
    if hull is None:
        raise DegenerateChoice("error formula needs a nonempty measure")
    roots = sorted(
        approx.poles,
        key=lambda r: (segment_distance(r, *hull), r.real, r.imag),
    )
    keep = roots[: max(min(n - s, len(roots)), 0)]
    p_ns = Poly.from_roots(keep) if keep else Poly.one()
    qs = rational.denominator()
    num = p_ns * qs * approx.q
    v = scheme.v2n(approx.n)
    z = mp.mpc(z)
    pref_den = poly_eval(num, z)
    if pref_den == 0:
        raise DegenerateChoice("z hits a zero of the error-formula denominator")
    finite, _ = scheme.nodes(approx.n)
    # the integral of num(t) / (v(t) (z - t)) is -sum_k num_k M_k, M_k the
    # moments of t^k / (v(t) (t - z))
    mom = ms.measure_moments(lam, num.degree, tol, [*finite, z])
    integral = -mp.fdot(num.coeffs, mom)
    return poly_eval(v, z) / pref_den * integral


def solve_family(lam, rational, scheme, n_list, tol=None):
    """Solve (q, p) for every n in the list, isolating per-n failures.

    Numerical failures (padelab errors, mpmath non-convergence) are recorded
    in ``family.failures``; any other exception propagates. p is recovered at
    the precision q was solved at, with the quadrature tolerance q used
    (``quad_tol``).
    """
    family = PadeFamily(lam, rational, scheme)
    ns = sorted(set(int(n) for n in n_list))
    # no n reads a measure moment beyond index 2n - 1
    cache = MomentCache(lam, upto=2 * max(ns, default=0) - 1)
    for n in ns:
        try:
            approx = solve_qn(lam, rational, scheme, n, tol, cache)
            with working_precision(approx.precision_bits):
                approx.p, approx.p_residual = recover_p(
                    lam, rational, scheme, n, approx.q, approx.quad_tol, cache
                )
            family.approximants[n] = approx
        except (PadelabError, mp.libmp.NoConvergence) as exc:
            family.failures[n] = f"{type(exc).__name__}: {exc}"
    return family
