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
    _exact_vector,
    _gdot,
    _magnitudes,
    drop_tolerance,
    fixed_abs,
    fixed_ratio,
    kernel_vector,
    poly_eval,
    poly_roots,
    solve_tolerance,
    support_distance,
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

    def _horner(self, z: GridPoint):
        """p(z) and q(z) by integer Horner (:class:`algebra.FixedPoly`), on
        integer views of p and q made once per precision."""
        view = self._fixed
        if view is None or view[:3] != (mp.mp.prec, self.p, self.q):
            view = self._fixed = (mp.mp.prec, self.p, self.q,
                                  FixedPoly(self.p), FixedPoly(self.q))
        return view[3](z), view[4](z)

    def evaluate(self, z):
        """p(z)/q(z) by integer Horner, rounded once. ``z`` is a number, or an
        :class:`algebra.GridPoint` made at the current precision, which is how
        a sample point is converted once and shared by every n."""
        if not isinstance(z, GridPoint):
            z = GridPoint(z)
        return mp.mp.make_mpc(fixed_ratio(*self._horner(z)))

    def error_squares(self, z: GridPoint, f: GridPoint):
        """|F(z) - p(z)/q(z)| as exact integers (num, den, e), the error being
        sqrt(num / den) * 2^e: num = |F q - p|^2 and den = |q|^2 on their
        grids, with F(z) put on the grid ``f`` once per point, p(z) and q(z)
        by integer Horner at ``z`` and F q - p formed exactly.
        :func:`algebra.fixed_abs` rounds the error once; the capacity checker
        reads its log2 from the integers. Raises ZeroDivisionError at a zero
        of q."""
        (pr, pi, pe), (qr, qi, qe) = self._horner(z)
        den = qr * qr + qi * qi
        if not den:
            raise ZeroDivisionError("error_squares: zero denominator")
        # F q lies on the grid 2^(qe - f.shift) and p on 2^pe: align them on the finer
        fe = qe - f.shift
        e = min(fe, pe)
        a, b = fe - e, pe - e
        dr = ((f.re * qr - f.im * qi) << a) - (pr << b)
        di = ((f.re * qi + f.im * qr) << a) - (pi << b)
        return dr * dr + di * di, den, e - qe

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

    def sample_F(self, zs, tol=None) -> list:
        """Each point z and F(z) on the integer grid once (:class:`GridPoint`):
        the pairs that :meth:`PadeApproximant.error_squares` grades for every n."""
        return [(GridPoint(z), GridPoint(self.eval_F(z, tol))) for z in zs]


class MomentCache:
    """Per-precision caches of the moments and of the values of the
    orthogonality functional, for one problem (measure, rational part and
    scheme).

    ``upto`` is the largest moment index the caller will read; the first call
    at a precision reaches it, so one call serves every n, and a call past it
    forms the moments again to the index it asks for. The power moments and
    the 1/v2n-weighted ones come from :func:`measure.measure_moments`: closed
    form on components with a Chebyshev series (from the coefficients, and
    from residues at the nodes), a running-power pass over the compiled node
    set on the others. The classical polar part, R's Laurent coefficients at
    infinity, is cached the same way; each is an exact sum over one exact
    running power per pole, rounded once (:meth:`measure.RationalPart.moments`).
    """

    def __init__(self, lam, upto: int = 0):
        self.lam = lam
        self.upto = upto
        self._measure: dict[int, list] = {}
        self._polar: dict[int, list] = {}
        self._values: dict[tuple[int, int], tuple] = {}

    def _reaching(self, store: dict, upto: int, form) -> list:
        """Entries 0..upto of ``store`` at the current precision, formed by
        ``form`` to max(upto, self.upto) when missing or too short."""
        values = store.get(mp.mp.prec)
        if values is None or len(values) <= upto:
            values = store[mp.mp.prec] = form(max(upto, self.upto))
        return values[: upto + 1]

    def measure_moments(self, upto: int, tol=None):
        """Moments of the measure alone (no rational part), indices 0..upto."""
        return self._reaching(self._measure, upto,
                              lambda top: ms.measure_moments(self.lam, top, tol))

    def polar_moments(self, rational, upto: int, tol=None):
        """L on the rational part against t^m, m = 0..upto (no finite nodes)."""
        return self._reaching(self._polar, upto, lambda top: rational.moments(top, tol))

    def generalized_moments(self, scheme, n: int, upto: int, tol=None):
        """Integrals of t^m against the measure weighted by 1/v2n; each n
        needs them once, for the functional's values, which are cached."""
        finite, _ = scheme.nodes(n)
        return ms.measure_moments(self.lam, upto, tol, finite)


def _functional(rational, scheme, n, tol, cache):
    """L[t^m / v2n] for m = 0..2n-1: its measure part and the whole values.

    L is the integral against the measure plus L on the rational part
    (:meth:`measure.RationalPart.moments`), so that F(z) = L_t[1/(z - t)]
    (:func:`measure.eval_F`); q is orthogonal under L weighted by 1/v2n,
    and p is read off the same values (:func:`recover_p`). Both parts take
    the scheme's finite nodes, the zeros of v2n; the pair is formed once per
    precision and n, on the cache. With no finite nodes neither part depends
    on n, and both are slices of the cache's per-precision moments.
    """
    key = (mp.mp.prec, n)
    if key not in cache._values:
        finite, _ = scheme.nodes(n)
        upto = 2 * n - 1
        if finite:
            measure = cache.generalized_moments(scheme, n, upto, tol)
            polar = rational.moments(upto, tol, finite)
        else:
            measure = cache.measure_moments(upto, tol)
            polar = cache.polar_moments(rational, upto, tol)
        cache._values[key] = (measure, [a + b for a, b in zip(measure, polar)])
    return cache._values[key]


def assemble_orthogonality_system(lam, rational, scheme, n, tol=None, cache=None):
    """The n x (n+1) system whose kernel gives the denominator coefficients."""
    if cache is None:
        cache = MomentCache(lam)
    full = _functional(rational, scheme, n, tol, cache)[1]
    return [[full[i + j] for i in range(n + 1)] for j in range(n)]


def _shifted_residual(rational, scheme, n, q, cache, tol=None):
    """Residual of the relations pairing t^k * Q_s * q against the measure.

    Multiples of Q_s annihilate the residue terms, so these relations only
    see the measure side; they cross-check the assembled polar terms. The
    residual max_k |sum_m c_m g_(k+m)| / (max|g| sum|c|), with c the
    coefficients of Q_s * q and g the measure's values, is formed from the
    exact products of the binary values of q, the poles and g, with each
    |c_m| to P = prec + 64 bits, and rounded once.
    """
    # c = Q_s * q exactly, by each t - eta on the poles' grid (e <= 0 by the 1)
    c, _ = _exact_vector(q.coeffs)
    etas, e = _exact_vector([mp.mpc(1)] + [p.eta for p in rational.poles
                                            for _ in range(p.multiplicity)])
    for a, b in etas[1:]:
        c = [((x << -e) - a * u + b * w, (y << -e) - a * w - b * u)
             for (x, y), (u, w) in zip([(0, 0)] + c, c + [(0, 0)])]
    rows = n - rational.s
    g, _ = _exact_vector(_functional(rational, scheme, n, tol, cache)[0][: rows + len(c) - 1])
    worst = max(sum(t * t for t in _gdot(c, g[k:])) for k in range(rows))
    mags, shift = _magnitudes(c)
    scale = max(a * a + b * b for a, b in g) * sum(mags) ** 2
    # worst and scale share the grid of c g, up to the 2^-shift of the |c_m|
    return fixed_abs((worst, scale, shift)) if scale else mp.mpf(0)


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
    precision, the kernel has dimension above 1 (the elimination's rank cut
    found pivots too small to keep, so the vector kept is one of many), or
    the shifted residual (:func:`_shifted_residual`) exceeds the residual
    bound, the solve is repeated once at doubled precision, then fails.
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
        if info.nullity > 1:
            raise SolveFailure(f"kernel of dimension {info.nullity} at {mp.mp.prec} bits "
                               f"(pivot spread {info.spread:.1f} bits)")
        q = Poly(info.vector)
        shifted = _shifted_residual(rational, scheme, n, q, cache, quad_tol)
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
    largest one kept. The running sums and the coefficients are exact sums
    of the products of the binary values of q, v and c, in integers, and
    each coefficient and the residual is rounded once. Returns (p, residual).
    """
    if cache is None:
        cache = MomentCache(lam)
    # every sum exact, on the grid 2^e of the products q_i v_j c_k
    c, ce = _exact_vector(_functional(rational, scheme, n, tol, cache)[1])
    qc, qe = _exact_vector(q.coeffs)
    vc, ve = _exact_vector(scheme.v2n(n).coeffs)
    top = max(len(qc), len(vc)) - 1
    coeffs = [None] * top
    # plus[a - j] = S+(a, j - 1 - a), built from a = top down; the entries
    # past a, which no later a reads, are dropped
    plus = [(0, 0)] * top
    for a in reversed(range(top)):
        if a + 1 < len(qc):
            x, y = qc[a + 1]
            plus = [(r + x * u - y * w, i + x * w + y * u)
                    for (r, i), (u, w) in zip(plus, c[a::-1])]
        coeffs[a] = _gdot(vc[: a + 1], plus[a::-1])
    # minus[s] = S-(a, s), s = j - 1 - a for j > a, built from a = 0 up, cut alike
    minus = [(0, 0)] * (len(vc) - 1)
    for a in range(top):
        if a < len(qc):
            x, y = qc[a]
            minus = [(r + x * u - y * w, i + x * w + y * u)
                     for (r, i), (u, w) in zip(minus, c[a:])]
        r, i = _gdot(vc[a + 1 :], minus)
        coeffs[a] = (coeffs[a][0] - r, coeffs[a][1] - i)
    e = ce + qe + ve
    squares = [a * a + b * b for a, b in coeffs]
    kept, dropped = max(squares[:n], default=0), max(squares[n:], default=0)
    residual = fixed_abs((dropped, kept, 0) if kept else (dropped, 1, e))
    return Poly([mp.mpc(mp.mpf((a, e)), mp.mpf((b, e))) for a, b in coeffs[:n]]), residual


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
        key=lambda r: (support_distance(r, [hull]), r.real, r.imag),
    )
    keep = roots[: max(min(n - s, len(roots)), 0)]
    p_ns = Poly.from_roots(keep)
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
