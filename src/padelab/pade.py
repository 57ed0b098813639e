"""Assembly and solution of the orthogonality systems defining the approximants.

The denominator of the n-th approximant is a kernel vector of an n x (n+1)
system whose rows pair monomials with the measure weighted by the reciprocal
node polynomial, plus residue terms at the poles of the rational part. For
the all-nodes-at-infinity scheme the system is the Hankel matrix of the
power moments of the full function.
"""

from __future__ import annotations

import math
from collections import Counter

import mpmath as mp

from . import measure as ms
from .algebra import (
    FixedPoly,
    GridPoint,
    Poly,
    drop_tolerance,
    fixed_ratio,
    kernel_vector,
    poly_derivative_at,
    poly_eval,
    poly_roots,
    segment_distance,
    solve_linear,
    working_precision,
)
from .errors import DegenerateChoice, PadelabError, PoleOnNode, SolveFailure

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
    """Per-precision caches of measure moments and generalized moments.

    ``upto`` is the largest measure-moment index the caller will read; the
    first running-power pass reaches it, so one pass serves every n.
    """

    def __init__(self, lam, upto: int = 0):
        self.lam = lam
        self.upto = upto
        self._measure: dict[int, list] = {}
        self._generalized: dict[tuple[int, int], list] = {}

    def measure_moments(self, upto: int, tol=None):
        """Moments of the measure alone (no rational part), indices 0..upto."""
        cache = self._measure.get(mp.mp.prec)
        if cache is None or len(cache) <= upto:
            cache = self.lam.compiled().moments(max(upto, self.upto), tol)
            self._measure[mp.mp.prec] = cache
        return cache[: upto + 1]

    def generalized_moments(self, scheme, n: int, upto: int, tol=None):
        """Integrals of t^m against the measure weighted by 1/v2n."""
        key = (mp.mp.prec, n)
        cache = self._generalized.get(key)
        if cache is None or len(cache) <= upto:
            finite, _ = scheme.nodes(n)
            cache = self.lam.compiled().moments(upto, tol, nodes=finite)
            self._generalized[key] = cache
        return cache[: upto + 1]


def _falling(m: int, a: int) -> int:
    out = 1
    for j in range(a):
        out *= m - j
    return out


def _inverse_derivatives(v: Poly, eta, order: int):
    """Derivatives of 1/v at eta up to the given order, via v * (1/v) = 1."""
    v0 = poly_eval(v, eta)
    if v0 == 0:
        raise PoleOnNode(f"pole {mp.nstr(mp.mpc(eta), 10)} is a node of v2n")
    h = [1 / v0]
    for k in range(1, order + 1):
        s = mp.mpc(0)
        for a in range(1, k + 1):
            s += math.comb(k, a) * poly_derivative_at(v, eta, a) * h[k - a]
        h.append(-s / v0)
    return h


def _residue_row_terms(rational, v: Poly, upto: int):
    """Residue contributions d_m = sum over poles of the k-th derivative terms.

    d_m equals the value added to the pairing of t^m by the polar part, i.e.
    sum_eta sum_k (r_k / k!) * (d/dt)^k [t^m / v2n(t)] at eta.
    """
    out = [mp.mpc(0)] * (upto + 1)
    for pole in rational.poles:
        eta = pole.eta
        h = _inverse_derivatives(v, eta, pole.multiplicity - 1)
        powers = [eta**j for j in range(upto + 1)]
        for k in range(pole.multiplicity):
            rk = pole.coeffs[k]
            if rk == 0:
                continue
            factor = rk / mp.factorial(k)
            for m in range(upto + 1):
                s = mp.mpc(0)
                for a in range(0, min(k, m) + 1):
                    s += (
                        math.comb(k, a)
                        * _falling(m, a)
                        * (powers[m - a] if m != a else 1)
                        * h[k - a]
                    )
                out[m] += factor * s
    return out


def assemble_orthogonality_system(lam, rational, scheme, n, tol=None, cache=None):
    """The n x (n+1) system whose kernel gives the denominator coefficients."""
    if cache is None:
        cache = MomentCache(lam)
    v = scheme.v2n(n)
    upto = 2 * n - 1
    if v.degree == 0:
        mom = cache.measure_moments(upto, tol)
        full = [mom[m] + rational.moment_contribution(m) for m in range(upto + 1)]
    else:
        gm = cache.generalized_moments(scheme, n, upto, tol)
        res = _residue_row_terms(rational, v, upto)
        full = [gm[m] + res[m] for m in range(upto + 1)]
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
    v = scheme.v2n(n)
    if v.degree == 0:
        g = cache.measure_moments(upto, tol)
    else:
        g = cache.generalized_moments(scheme, n, upto, tol)
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
    precision the solve is repeated once at doubled precision, then fails.
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
        matrix = assemble_orthogonality_system(
            lam, rational, scheme, n, _escalated_tol(tol, base), cache
        )
        return kernel_vector(matrix)

    try:
        info = attempt()
    except SolveFailure:
        bits *= 2
        with working_precision(bits):
            info = attempt()

    with working_precision(bits):
        q = Poly(info.vector)
        if q.is_zero():
            raise SolveFailure(f"kernel vector trimmed to zero at n={n}")
        approx = PadeApproximant(n, q, scheme.kind)
        approx.residual = info.residual
        approx.nullity = info.nullity
        approx.quad_tol = _escalated_tol(tol, base)
        approx.shifted_residual = _shifted_residual(
            lam, rational, scheme, n, q, cache, approx.quad_tol
        )
    approx.escalated = bits != mp.mp.prec
    return approx


def recover_p(lam, rational, scheme, n, q: Poly, tol=None, cache=None):
    """Numerator matching the decay and node-interpolation conditions.

    High Laurent coefficients of q*F at infinity fix the coefficients of p
    from degree d-n upward (d the node polynomial degree); any remaining low
    coefficients solve the linearized interpolation conditions at the finite
    nodes. Returns (p, residual) where the residual reports how well the
    conditions not used to pin coefficients are satisfied.
    """
    if cache is None:
        cache = MomentCache(lam)
    v = scheme.v2n(n)
    d = v.degree
    upto = max(2 * n - d - 1, n - 1)
    mom = [c + rational.moment_contribution(m)
           for m, c in enumerate(cache.measure_moments(upto, tol))]

    def laurent_a(k):
        # coefficient of z^k in the expansion of q*F at infinity
        acc = mp.mpc(0)
        for i, qi in enumerate(q.coeffs):
            m = i - k - 1
            if m >= 0:
                acc += qi * mom[m]
        return acc

    p_coeffs = [None] * (n + 1)
    for k in range(max(0, d - n), n + 1):
        p_coeffs[k] = laurent_a(k)
    unknown = [k for k in range(n + 1) if p_coeffs[k] is None]

    finite, _ = scheme.nodes(n)
    rows = []
    rhs = []
    # each distinct node once, in order of first appearance, with its multiplicity
    for zeta, mult in Counter(finite).items():
        fvals = [ms.eval_F_derivative(lam, rational, zeta, r, tol) for r in range(mult)]
        for r in range(mult):
            qf = mp.fsum(
                math.comb(r, a) * poly_derivative_at(q, zeta, a) * fvals[r - a]
                for a in range(r + 1)
            )
            row = [ _falling(k, r) * zeta ** (k - r) if k >= r else mp.mpc(0)
                    for k in unknown ]
            b = qf - mp.fsum(
                _falling(k, r) * zeta ** (k - r) * p_coeffs[k]
                for k in range(n + 1)
                if p_coeffs[k] is not None and k >= r
            )
            rows.append(row)
            rhs.append(b)

    if unknown:
        u = len(unknown)
        ata = [[mp.fsum(mp.conj(rows[i][a]) * rows[i][b] for i in range(len(rows)))
                for b in range(u)] for a in range(u)]
        atb = [mp.fsum(mp.conj(rows[i][a]) * rhs[i] for i in range(len(rows)))
               for a in range(u)]
        sol = solve_linear(ata, atb)
        for k, val in zip(unknown, sol):
            p_coeffs[k] = val

    p = Poly(p_coeffs)

    residual = mp.mpf(0)
    scale = 1 + max((abs(b) for b in rhs), default=mp.mpf(0))
    for row, b in zip(rows, rhs):
        lhs = mp.fsum(
            row[j] * p_coeffs[unknown[j]] for j in range(len(unknown))
        ) if unknown else mp.mpc(0)
        residual = max(residual, abs(lhs - b) / scale)
    return p, residual


def error_eval(lam, rational, scheme, approx: PadeApproximant, z, tol=None):
    """Approximation error at z through the weighted interpolation integral.

    The auxiliary monic factor takes the roots of q nearest the support
    hull (all of them when the defect eats into their count), mirroring the
    construction that cancels the oscillation of q on the support.
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
    integral = lam.compiled().integrate(
        lambda t: poly_eval(num, t) / (poly_eval(v, t) * (z - t)),
        tol,
        poles=[z, *finite],
        degree=num.degree,
    )
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
