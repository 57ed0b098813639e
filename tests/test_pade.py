import random

import mpmath as mp
import pytest

from padelab import algebra, measure as ms, pade, scheme as sch
from padelab.algebra import Poly, poly_eval
from padelab.errors import DegenerateChoice, RootFailure
from padelab.oracles import arcsine_moments_exact, gram_schmidt_monic, monic_chebyshev

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


def test_classical_system_includes_polar_laurent_terms(arcsine):
    # with a polar part, the classical rows pair against the full moments
    R = ms.RationalPart([("2i", 2, ["1", "-1+i"])])
    n = 2
    M = pade.assemble_orthogonality_system(arcsine, R, classical(), n, TOL)
    exact = arcsine_moments_exact(2 * n - 1)
    for j in range(n):
        for i in range(n + 1):
            want = exact[i + j] + R.moment_contribution(i + j)
            assert abs(M[j][i] - want) < mp.mpf("1e-35")


def test_pole_on_node_rejected(arcsine):
    from padelab.errors import PoleOnNode

    R = ms.RationalPart([("3", 1, ["1"])])  # sits on a circle-scheme node
    circ = sch.CircleScheme("0", "3")
    with pytest.raises(PoleOnNode):
        pade.assemble_orthogonality_system(arcsine, R, circ, 2, TOL)


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


def test_precision_escalation_ladder(arcsine, monkeypatch):
    monkeypatch.setattr(algebra, "solve_tolerance", lambda: mp.mpf(2) ** -280)
    approx = pade.solve_qn(arcsine, ms.RationalPart.empty(), classical(), 4, TOL)
    assert approx.escalated
    assert abs(approx.q.coeffs[0] - monic_chebyshev(4).coeffs[0]) < mp.mpf("1e-30")
    # q and its poles keep the doubled precision instead of rounding back;
    # tol=None lets the quadrature follow the precision too (TOL caps it)
    base = mp.mp.prec
    assert approx.precision_bits == 2 * base
    approx = pade.solve_qn(arcsine, ms.RationalPart.empty(), classical(), 4)
    assert approx.escalated and approx.precision_bits == 2 * base
    with algebra.working_precision(2 * base):
        exact = algebra.poly_roots(monic_chebyshev(4))
    err = max(abs(a - b) for a, b in zip(approx.poles, exact))
    assert err < mp.mpf(2) ** (-(5 * base // 4))


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
