import math
import random

import mpmath as mp
import pytest

from padelab import algebra, measure as ms, pade, scheme as sch
from padelab.algebra import Poly, poly_eval
from padelab.errors import DegenerateChoice, RootFailure
from padelab.oracles import (
    arcsine_measure,
    arcsine_moments_exact,
    gram_schmidt_monic,
    monic_chebyshev,
)

TOL = mp.mpf("1e-40")


def classical():
    return sch.ClassicalScheme()


def test_classical_system_is_moment_hankel(arcsine):
    n = 3
    M = pade.assemble_orthogonality_system(
        arcsine, ms.RationalPart.empty(), classical(), n, TOL
    )
    exact = arcsine_moments_exact(2 * n - 1)
    for j in range(n):
        for i in range(n + 1):
            assert abs(M[j][i] - exact[i + j]) < mp.mpf("1e-35")


def _laurent_terms(R, upto):
    """sum_k r_k C(m, k) eta^(m-k) over the poles, m = 0..upto: the Laurent
    coefficients of the rational part at infinity, summed in that order."""
    out = []
    for m in range(upto + 1):
        acc = mp.mpc(0)
        for p in R.poles:
            for k, rk in enumerate(p.coeffs):
                if k <= m:
                    acc += rk * math.comb(m, k) * p.eta ** (m - k)
        out.append(acc)
    return out


def test_classical_system_includes_polar_laurent_terms(arcsine):
    # with a polar part, the classical rows pair against the full moments
    R = ms.RationalPart([("2i", 2, ["1", "-1+i"])])
    n = 2
    M = pade.assemble_orthogonality_system(arcsine, R, classical(), n, TOL)
    exact = arcsine_moments_exact(2 * n - 1)
    laurent = _laurent_terms(R, 2 * n - 1)
    for j in range(n):
        for i in range(n + 1):
            want = exact[i + j] + laurent[i + j]
            assert abs(M[j][i] - want) < mp.mpf("1e-35")


def test_pole_on_node_rejected(arcsine):
    from padelab.errors import PoleOnNode

    # 3 is a node of the radius-3 circle scheme at every n
    circ = sch.CircleScheme("0", "3")
    for R in (ms.RationalPart([("3", 1, ["1"])]), ms.RationalPart([("3", 2, ["1", "1"])])):
        for n in (2, 3, 6):
            with pytest.raises(PoleOnNode):
                pade.assemble_orthogonality_system(arcsine, R, circ, n, TOL)
        family = pade.solve_family(arcsine, R, circ, [3, 6], TOL)
        assert not family.approximants
        assert all(msg.startswith("PoleOnNode") for msg in family.failures.values())
        assert sorted(family.failures) == [3, 6]


def test_pole_within_rounding_of_a_node_rejected(arcsine):
    from padelab.errors import PoleOnNode

    # a simple pole written as the second n = 3 node of the radius-3 circle
    # plus 3 ulp in each part: 4.5 eps from the node, inside the pole guard's
    # 10 eps max(1, |eta|). It counts as the node, so n = 3 fails instead of
    # solving with residue terms ~1e76 and a shifted residual of 0.27
    circ = sch.CircleScheme("0", "3")
    node = circ.nodes(3)[0][1]
    with mp.workprec(400):
        off = 3 * mp.ldexp(1, -255)
        eta = f"{mp.nstr(node.real + off, 90)}+{mp.nstr(node.imag - off, 90)}i"
    R = ms.RationalPart([(eta, 1, ["1"])])
    assert 0 < abs(R.poles[0].eta - node) <= 10 * mp.eps * abs(node)
    family = pade.solve_family(arcsine, R, circ, [2, 3], TOL)
    assert sorted(family.failures) == [3]
    assert family.failures[3].startswith("PoleOnNode")
    assert 2 in family.approximants


def test_pole_beside_a_node_escalates_or_fails_typed(arcsine):
    # a simple pole written as the second n = 3 node to 60 digits: 4.7e-61
    # from it, outside the pole guard at 256 bits. Its residue terms swamp the
    # functional, so the shifted residual must either meet the solve bound at
    # the precision n = 3 is recorded at, or the solve fails as SolveFailure
    # after escalating; it once recorded 0.27
    circ = sch.CircleScheme("0", "3")
    node = circ.nodes(3)[0][1]
    re, im = mp.nstr(node.real, 60), mp.nstr(node.imag, 60)
    R = ms.RationalPart([(f"{re}{'' if im.startswith('-') else '+'}{im}i", 1, ["1"])])
    assert 0 < abs(R.poles[0].eta - node) < mp.mpf("1e-59")
    family = pade.solve_family(arcsine, R, circ, [2, 3], TOL)
    assert 2 in family.approximants
    if 3 in family.approximants:
        approx = family.approximants[3]
        with algebra.working_precision(approx.precision_bits):
            assert approx.shifted_residual <= algebra.solve_tolerance()
    else:
        assert family.failures[3].startswith("SolveFailure")


def test_arcsine_n1_monic_linear(arcsine_family):
    q = arcsine_family.approximants[1].q
    assert q.degree == 1
    assert abs(q.coeffs[0]) < mp.mpf("1e-35")
    assert q.coeffs[1] == 1


def test_arcsine_q2_and_q5(arcsine_family):
    q2 = arcsine_family.approximants[2].q
    assert abs(q2.coeffs[0] + mp.mpf(1) / 2) < mp.mpf("1e-35")
    roots = arcsine_family.approximants[5].poles
    expected = sorted(mp.cos((2 * k - 1) * mp.pi / 10) for k in range(1, 6))
    for got, want in zip(roots, expected):
        assert abs(got - want) < mp.mpf("1e-30")


def test_symmetric_measure_gives_alternating_parity(arcsine_family):
    for n in (4, 6, 7):
        q = arcsine_family.approximants[n].q
        for k in range(q.degree + 1):
            if (q.degree - k) % 2:
                assert abs(q.coeffs[k]) < mp.mpf("1e-30")


def test_gram_schmidt_equivalence_up_to_8(arcsine_family):
    moms = arcsine_moments_exact(16)
    for n in range(1, 9):
        oracle = gram_schmidt_monic(moms, n)
        got = arcsine_family.approximants[n].q
        assert got.degree == oracle.degree == n
        assert max(abs(a - b) for a, b in zip(got.coeffs, oracle.coeffs)) < mp.mpf(
            "1e-30"
        )


def test_defect_bounded(arcsine_family):
    assert all(
        arcsine_family.approximants[n].defect == 0 for n in arcsine_family.solved_ns
    )


def test_pole_case_against_contour_integral_oracle(arcsine):
    """q_2 for the arcsine transform plus a simple pole at 2, cross-checked by
    trapezoid contour moments of the closed-form F on |z| = 10."""
    R = ms.RationalPart([("2", 1, ["1"])])

    def F(z):
        return 1 / (mp.sqrt(z - 1) * mp.sqrt(z + 1)) + 1 / (z - 2)

    M = 2**14
    radius = mp.mpf(10)
    pts = [radius * mp.expjpi(2 * mp.mpf(k) / M) for k in range(M)]
    fvals = [F(z) for z in pts]

    def contour_moment(m):
        return mp.fsum(fv * z ** (m + 1) for fv, z in zip(fvals, pts)) / M

    c = [contour_moment(m) for m in range(4)]
    # kernel of the 2x3 Hankel by the generalized cross product
    v = [
        c[1] * c[3] - c[2] * c[2],
        c[2] * c[1] - c[0] * c[3],
        c[0] * c[2] - c[1] * c[1],
    ]
    oracle = [x / v[2] for x in v]
    approx = pade.solve_qn(arcsine, R, classical(), 2, TOL)
    assert max(abs(a - b) for a, b in zip(approx.q.coeffs, oracle)) < mp.mpf("1e-25")
    # the shifted relations (multiples of the polar denominator) also vanish
    assert approx.shifted_residual < mp.mpf("1e-35")


def test_recover_p_against_exact_moment_convolution(arcsine_family):
    moms = arcsine_moments_exact(10)
    for n in (1, 2, 5):
        approx = arcsine_family.approximants[n]
        q = approx.q
        for i in range(n):
            oracle = mp.fsum(
                q.coeffs[j] * moms[j - i - 1] for j in range(i + 1, q.degree + 1)
            )
            got = approx.p.coeffs[i] if i <= approx.p.degree else mp.mpc(0)
            assert abs(got - oracle) < mp.mpf("1e-30")


def test_pi1_and_pi2_closed_forms(arcsine_family):
    a1 = arcsine_family.approximants[1]
    a2 = arcsine_family.approximants[2]
    for z in (mp.mpc(2), mp.mpc(0, 3), mp.mpc(-1.5, 0.5)):
        assert abs(a1.evaluate(z) - 1 / z) < mp.mpf("1e-30")
        assert abs(a2.evaluate(z) - z / (z * z - mp.mpf(1) / 2)) < mp.mpf("1e-30")


def test_linearized_decay_order(arcsine, arcsine_family):
    # (qF - p)(z) = O(z^(d-n-1)); slope-test the exponent over a decade
    fam = arcsine_family
    for n in (3, 5):
        a = fam.approximants[n]
        z1, z2 = mp.mpf(10**4), mp.mpf(10**5)
        v1 = abs(fam.eval_F(z1, TOL) * poly_eval(a.q, z1) - poly_eval(a.p, z1))
        v2 = abs(fam.eval_F(z2, TOL) * poly_eval(a.q, z2) - poly_eval(a.p, z2))
        slope = mp.log(v2 / v1) / mp.log(z2 / z1)
        assert abs(slope - (-n - 1)) < mp.mpf("0.1")


def test_error_formula_value_and_consistency(arcsine, arcsine_family):
    a1 = arcsine_family.approximants[1]
    e1 = pade.error_eval(arcsine, ms.RationalPart.empty(), classical(), a1, mp.mpc(2), TOL)
    assert abs(e1 - (1 / mp.sqrt(3) - mp.mpf(1) / 2)) < mp.mpf("1e-30")
    rng = random.Random(11)
    for n in (3, 5, 8):
        a = arcsine_family.approximants[n]
        for _ in range(20):
            r = mp.mpf(rng.uniform(1.4, 3.0))
            phi = mp.mpf(rng.uniform(0, 2 * 3.14159))
            z = r * mp.expj(phi)
            direct = arcsine_family.eval_F(z, TOL) - a.evaluate(z)
            formula = pade.error_eval(
                arcsine, ms.RationalPart.empty(), classical(), a, z, TOL
            )
            assert abs(direct - formula) < mp.mpf("1e-25")


def test_error_formula_needs_n_above_s(arcsine):
    R = ms.RationalPart([("2i", 2, ["1", "1"])])
    family = pade.solve_family(arcsine, R, classical(), [3], TOL)
    approx = family.approximants[3]
    fake = pade.PadeApproximant(2, Poly([0, 0, 1]), "classical")
    with pytest.raises(DegenerateChoice):
        pade.error_eval(arcsine, R, classical(), fake, mp.mpc(3), TOL)
    # n=3 > s=2 works
    val = pade.error_eval(arcsine, R, classical(), approx, mp.mpc(3), TOL)
    direct = ms.eval_F(arcsine, R, mp.mpc(3), TOL) - approx.evaluate(mp.mpc(3))
    assert abs(val - direct) < mp.mpf("1e-25")


def test_n_must_exceed_s(arcsine):
    R = ms.RationalPart([("2i", 2, ["1", "1"])])
    with pytest.raises(ValueError):
        pade.solve_qn(arcsine, R, classical(), 2, TOL)
    with pytest.raises(ValueError):
        pade.solve_qn(arcsine, ms.RationalPart.empty(), classical(), 0, TOL)


def test_multipoint_interpolation_and_consistency(arcsine):
    circ = sch.CircleScheme("0", "3")
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), circ, [2, 3], TOL)
    assert not family.failures
    a2 = family.approximants[2]
    v = circ.v2n(2)
    node = circ.nodes(2)[0][0]
    vals = []
    for eps in (mp.mpf("0.01"), mp.mpf("0.001")):
        for d in (1, mp.mpc(0, 1), -1, mp.mpc(0, -1)):
            z = node + eps * d
            vals.append(
                abs(
                    (family.eval_F(z, TOL) * poly_eval(a2.q, z) - poly_eval(a2.p, z))
                    / poly_eval(v, z)
                )
            )
    assert max(vals) < 2 * min(vals) + mp.mpf("1e-20")  # no pole: bounded, stable
    for z in (mp.mpc(2), mp.mpc(0, 2), mp.mpc(-1.5, 1)):
        direct = family.eval_F(z, TOL) - a2.evaluate(z)
        formula = pade.error_eval(arcsine, ms.RationalPart.empty(), circ, a2, z, TOL)
        assert abs(direct - formula) < mp.mpf("1e-25")


def test_multipoint_decay_order(arcsine):
    circ = sch.CircleScheme("0", "3")
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), circ, [2], TOL)
    a = family.approximants[2]
    d = circ.v2n(2).degree
    z1, z2 = mp.mpf(10**4), mp.mpf(10**5)
    v1 = abs(family.eval_F(z1, TOL) * poly_eval(a.q, z1) - poly_eval(a.p, z1))
    v2 = abs(family.eval_F(z2, TOL) * poly_eval(a.q, z2) - poly_eval(a.p, z2))
    slope = mp.log(v2 / v1) / mp.log(z2 / z1)
    assert abs(slope - (d - 2 - 1)) < mp.mpf("0.1")


def test_explicit_scheme_mixed_infinity_and_double_node(arcsine):
    # two coincident finite nodes, the other two interpolation points at infinity
    exp = sch.ExplicitScheme({2: ["3", "3"]})
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), exp, [2], TOL)
    assert not family.failures
    a = family.approximants[2]
    assert a.p_residual < mp.mpf("1e-30")
    z0 = mp.mpc(3)
    lin = lambda z: family.eval_F(z, TOL) * poly_eval(a.q, z) - poly_eval(a.p, z)
    assert abs(lin(z0)) < mp.mpf("1e-30")
    h = mp.mpf("1e-6")
    deriv = (lin(z0 + h) - lin(z0 - h)) / (2 * h)
    assert abs(deriv) < mp.mpf("1e-12")  # double node forces double vanishing


def test_explicit_scheme_node_on_support_fails_fast(arcsine):
    # the generalized-moment pass measures the node's distance to the support
    # before bisecting toward it, so n = 2 fails as PointOnSupport, not as a
    # QuadFailure after seconds of bisection, and the other n is unaffected
    exp = sch.ExplicitScheme({2: ["1/2"], 3: ["3"]})
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), exp, [2, 3], TOL)
    assert family.failures[2].startswith("PointOnSupport")
    assert family.solved_ns == [3]


def test_explicit_scheme_repeated_complex_nodes(arcsine):
    nodes = ["2i", "2i", "-2i", "-2i", "3", "3", "1+i", "1-i"]
    exp = sch.ExplicitScheme({4: nodes})
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), exp, [4], TOL)
    assert not family.failures
    a = family.approximants[4]
    assert a.p_residual < mp.mpf("1e-25")
    v = exp.v2n(4)
    node = mp.mpc(0, 2)
    vals = []
    for eps in (mp.mpf("0.01"), mp.mpf("0.001")):
        z = node + eps
        vals.append(
            abs(
                (family.eval_F(z, TOL) * poly_eval(a.q, z) - poly_eval(a.p, z))
                / poly_eval(v, z)
            )
        )
    assert vals[1] < 10 * vals[0] + mp.mpf("1e-20")  # analytic through the double node


def test_precision_escalation_ladder(arcsine, miss_kernel_at):
    # the arcsine moments are exact, so the 256-bit kernel meets any residual
    # bound; the base precision is made to fail, and the ladder must double it
    base = mp.mp.prec
    miss_kernel_at(base)
    approx = pade.solve_qn(arcsine, ms.RationalPart.empty(), classical(), 4, TOL)
    assert approx.escalated
    assert abs(approx.q.coeffs[0] - monic_chebyshev(4).coeffs[0]) < mp.mpf("1e-30")
    # q and its poles keep the doubled precision instead of rounding back,
    # and quad_tol records the tolerance of the doubled precision: TOL * 2^-base,
    # or for tol=None its drop tolerance
    assert approx.precision_bits == 2 * base
    assert approx.quad_tol == TOL * mp.ldexp(1, -base)
    approx = pade.solve_qn(arcsine, ms.RationalPart.empty(), classical(), 4)
    assert approx.escalated and approx.precision_bits == 2 * base
    # the drop tolerance of the doubled precision
    assert approx.quad_tol == mp.ldexp(1, -base)
    with algebra.working_precision(2 * base):
        exact = algebra.poly_roots(monic_chebyshev(4))
    err = max(abs(a - b) for a, b in zip(approx.poles, exact))
    assert err < mp.mpf(2) ** (-(5 * base // 4))
    # the arcsine moments are closed form at whatever precision the solve
    # runs, so at the test's own TOL the poles gain the doubled precision too
    approx = pade.solve_qn(arcsine, ms.RationalPart.empty(), classical(), 4, TOL)
    assert approx.escalated
    err = max(abs(a - b) for a, b in zip(approx.poles, exact))
    assert err < mp.mpf(2) ** (-(5 * base // 4))


def test_classical_solve_on_a_series_compiles_nothing():
    # the classical scheme reads only power moments, and the arcsine ones are
    # closed form: no node set is built for the solve
    lam = arcsine_measure()
    family = pade.solve_family(lam, ms.RationalPart.empty(), classical(), [2, 5, 10], TOL)
    assert not family.failures
    assert not lam._compiled
    err = max(abs(a - b) for a, b in zip(family.approximants[10].q.coeffs,
                                         monic_chebyshev(10).coeffs))
    assert err < mp.mpf("1e-60")


def test_multipoint_solve_on_a_series_compiles_nothing():
    # the 1/v2n-weighted moments and the error formula of the arcsine series
    # come from residues at the nodes: no node set is built for either
    lam = arcsine_measure()
    circ, empty = sch.CircleScheme("0", "3"), ms.RationalPart.empty()
    family = pade.solve_family(lam, empty, circ, [3, 6, 9], TOL)
    assert not family.failures
    z = ERROR_POINTS[0]
    direct = family.eval_F(z, TOL) - family.approximants[9].evaluate(z)
    formula = pade.error_eval(lam, empty, circ, family.approximants[9], z, TOL)
    assert abs(formula - direct) < mp.mpf("1e-35") * abs(direct)
    assert not lam._compiled


def test_per_n_failure_isolation(arcsine):
    R = ms.RationalPart([("2i", 2, ["1", "1"])])
    family = pade.solve_family(arcsine, R, classical(), [1, 4], TOL)
    assert 1 in family.failures  # n <= s cannot be solved
    assert 4 in family.approximants


def test_solve_family_records_root_failures(arcsine, monkeypatch):
    def no_roots(q):
        raise RootFailure("root iteration did not converge")

    monkeypatch.setattr(pade, "poly_roots", no_roots)
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), classical(), [2], TOL)
    assert family.failures[2].startswith("RootFailure")
    assert not family.approximants


def test_solve_family_raises_programming_errors(arcsine, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(pade, "recover_p", broken)
    with pytest.raises(TypeError):
        pade.solve_family(arcsine, ms.RationalPart.empty(), classical(), [2], TOL)


# ---------------------------------------------------------------------------
# the numerator read off the orthogonality functional
# ---------------------------------------------------------------------------

ERROR_POINTS = (mp.mpc("1.5", "0.5"), mp.mpc("-0.5", "1"), mp.mpc("2.5", "-0.5"))


def test_classical_p_is_the_laurent_convolution_bit_for_bit(arcsine):
    # with v2n = 1 the numerator is sum_{i > a} q_i c_{i-1-a}, the running
    # sum S+ accumulated from i = n down: the Laurent coefficients of q*F at
    # infinity, exactly
    R = ms.RationalPart([("2i", 2, ["1", "-1+i"])])
    cache = pade.MomentCache(arcsine)
    for n in (3, 6):
        approx = pade.solve_qn(arcsine, R, classical(), n, TOL, cache)
        p, residual = pade.recover_p(arcsine, R, classical(), n, approx.q, TOL, cache)
        c = [m + d for m, d in zip(cache.measure_moments(2 * n - 1, TOL),
                                   _laurent_terms(R, 2 * n - 1))]
        want = []
        for a in range(n):
            acc = mp.mpc(0)
            for i in range(n, a, -1):
                acc += approx.q.coeffs[i] * c[i - 1 - a]
            want.append(acc)
        assert p.coeffs == Poly(want).coeffs
        assert residual == 0


def test_polar_part_of_the_functional_is_formed_once_per_n(arcsine, monkeypatch):
    R = ms.RationalPart([("2i", 2, ["1", "-1+i"])])
    calls = []
    real = ms.RationalPart.moments

    def counting(self, upto, nodes=()):
        calls.append(upto)
        return real(self, upto, nodes)

    monkeypatch.setattr(ms.RationalPart, "moments", counting)
    family = pade.solve_family(arcsine, R, classical(), [3, 4], TOL)
    assert not family.failures
    assert sorted(calls) == [5, 7]


def _triple_pole():
    return ms.RationalPart([("2i", 3, ["1", "-1+i", "1/2-2i"])])


def _contour_terms(R, scheme, n, points=256):
    """(1/2 pi i) times the integral of R(t) t^m / v2n(t), m = 0..2n-1, on a
    circle about each pole, by the trapezoid rule: a quarter of the way to
    the nearest node, so the aliased Taylor terms are below 4^-points."""
    finite, _ = scheme.nodes(n)
    v, upto = scheme.v2n(n), 2 * n - 1
    out = [mp.mpc(0)] * (upto + 1)
    for p in R.poles:
        rho = min((abs(p.eta - z) for z in finite), default=mp.mpf(4)) / 4
        for j in range(points):
            w = rho * mp.expjpi(2 * mp.mpf(j) / points)
            t = p.eta + w
            r_of_t = sum(rk / w ** (k + 1) for k, rk in enumerate(p.coeffs))
            base = r_of_t * w / poly_eval(v, t) / points
            for m in range(upto + 1):
                out[m] += base * t**m
    return out


@pytest.mark.parametrize("scheme", [
    sch.ClassicalScheme(),
    sch.CircleScheme("0", "3/2"),
    sch.ExplicitScheme({3: ["3", "3", "-2i", "1/2+i"]}),
], ids=["classical", "circle", "explicit-double-node"])
def test_rational_moments_match_a_contour_integral(scheme):
    n, R = 3, _triple_pole()
    got = R.moments(2 * n - 1, scheme.nodes(n)[0])
    want = _contour_terms(R, scheme, n)
    for g, w in zip(got, want):
        assert abs(g - w) < mp.mpf("1e-40") * abs(w)


def test_rational_moments_with_v_one_are_the_laurent_coefficients_bit_for_bit():
    R = _triple_pole()
    assert R.moments(9) == _laurent_terms(R, 9)


def test_multipoint_solve_evaluates_no_point_and_solves_no_system(arcsine, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the numerator must come from the functional")

    monkeypatch.setattr(ms, "eval_F_derivative", forbidden)
    monkeypatch.setattr(pade, "solve_linear", forbidden)
    circ = sch.CircleScheme("0", "3")
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), circ, [3, 6], TOL)
    assert not family.failures
    for approx in family.approximants.values():
        assert approx.p.degree == approx.n - 1
        assert approx.p_residual < mp.mpf("1e-60")


def test_circle_error_formula_at_n20(arcsine):
    circ = sch.CircleScheme("0", "3/2")
    empty = ms.RationalPart.empty()
    family = pade.solve_family(arcsine, empty, circ, [20], TOL)
    approx = family.approximants[20]
    for z in ERROR_POINTS:
        direct = family.eval_F(z, TOL) - approx.evaluate(z)
        formula = pade.error_eval(arcsine, empty, circ, approx, z, TOL)
        assert abs(formula - direct) < mp.mpf("1e-44") * abs(direct)


def test_circle_scheme_with_polar_part_interpolates_at_every_node(arcsine):
    R = ms.RationalPart([("2i", 2, ["1", "-1+i"])])
    circ = sch.CircleScheme("0", "3/2")
    family = pade.solve_family(arcsine, R, circ, [3, 5], TOL)
    assert not family.failures
    for n, approx in family.approximants.items():
        for zeta in circ.nodes(n)[0]:
            qf = poly_eval(approx.q, zeta) * family.eval_F(zeta, TOL)
            assert abs(qf - poly_eval(approx.p, zeta)) < mp.mpf("1e-55") * abs(qf)


# ---------------------------------------------------------------------------
# integer evaluation against mpmath Horner at four times the precision
# ---------------------------------------------------------------------------


def _reference_value(approx, z):
    with algebra.working_precision(4 * mp.mp.prec):
        return poly_eval(approx.p, z) / poly_eval(approx.q, z)


def _sample_points():
    """The error circle |z| = 2 and a capacity-style grid clear of [-1, 1]."""
    circle = [2 * mp.expjpi(2 * mp.mpf(k) / 64) for k in range(64)]
    grid = [
        mp.mpc(mp.mpf("-1.75") + mp.mpf("3.5") * ix / 23, -1 + mp.mpf(2) * iy / 13)
        for iy in range(14) for ix in range(24)
    ]
    return circle + [z for z in grid if algebra.segment_distance(z, -1, 1) >= 0.15]


def _assert_matches_reference(approx, points, rel):
    grid = [algebra.GridPoint(z) for z in points]
    for z, g in zip(points, grid):
        got = approx.evaluate(g)
        want = _reference_value(approx, z)
        assert abs(got - want) <= rel * abs(want)
        assert approx.evaluate(z) == got


def test_evaluate_matches_reference_on_circle_and_grid(arcsine_family):
    points = _sample_points()
    for n in (1, 5, 10, 20, 40):
        _assert_matches_reference(arcsine_family.approximants[n], points, mp.mpf("1e-60"))


def test_evaluate_zero_numerator_and_constant_denominator():
    approx = pade.PadeApproximant(1, Poly([0, 1]), "classical", poles=[mp.mpc(0)])
    approx.p = Poly.zero()
    assert approx.evaluate(mp.mpc("0.3", 2)) == 0
    approx = pade.PadeApproximant(2, Poly([mp.mpc(3, -1)]), "classical", poles=[])
    approx.p = Poly([mp.mpc("0.1", 7), mp.mpc(-2), mp.mpc(0, "1e-30")])
    _assert_matches_reference(approx, [mp.mpc(0), mp.mpc(5, -4), mp.mpc("1e-40", 1)],
                              mp.mpf("1e-60"))


def test_evaluate_escalated_approximant_and_precision_change(arcsine, miss_kernel_at):
    miss_kernel_at(mp.mp.prec)
    family = pade.solve_family(arcsine, ms.RationalPart.empty(), classical(), [6], TOL)
    approx = family.approximants[6]
    assert approx.escalated and approx.precision_bits == 2 * mp.mp.prec
    points = _sample_points()[::7]
    _assert_matches_reference(approx, points, mp.mpf("1e-60"))
    # the integer view is rebuilt for a new precision, at its accuracy
    with algebra.working_precision(2 * mp.mp.prec):
        _assert_matches_reference(approx, points, mp.mpf("1e-140"))
