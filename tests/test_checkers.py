import mpmath as mp
import pytest

from padelab import checkers, measure as ms, pade, potential as pt, scheme as sch
from padelab.algebra import Poly
from padelab.checkers import (
    angle,
    check_capacity_convergence,
    check_pole_attraction,
    check_pole_distribution,
    covering_system,
    variation_budget,
)

TOL = mp.mpf("1e-40")


def test_angle_interior_is_pi():
    sys1 = [(mp.mpf(-1), mp.mpf(1))]
    for xi in (mp.mpf("-0.7"), mp.mpf(0), mp.mpf("0.99")):
        assert angle(xi, sys1) == mp.pi


def test_angle_at_i_is_half_pi():
    val = angle(mp.mpc(0, 1), [(mp.mpf(-1), mp.mpf(1))])
    assert abs(val - mp.pi / 2) < mp.mpf("1e-70")


def test_angle_vanishes_far_away():
    val = angle(mp.mpc(10**6, 10**6), [(mp.mpf(-1), mp.mpf(1))])
    assert val < mp.mpf("1e-5")


def test_angle_endpoint_convention():
    # Arg(0) = pi makes the left endpoint see pi and the right endpoint 0
    sys1 = [(mp.mpf(-1), mp.mpf(1))]
    assert angle(mp.mpf(-1), sys1) == mp.pi
    assert angle(mp.mpf(1), sys1) == 0


def test_angle_lipschitz_off_endpoints():
    sys1 = [(mp.mpf(-1), mp.mpf(1))]
    delta = mp.mpf("1e-4")
    for xi in (mp.mpc(0.3, 0.4), mp.mpc(-2, 0.1), mp.mpc(0.5, -0.8)):
        base = angle(xi, sys1)
        for d in (delta, delta * mp.mpc(0, 1)):
            assert abs(angle(xi + d, sys1) - base) < 100 * delta


def test_variation_budget_arcsine_is_tight_zero(arcsine_family):
    rep = variation_budget(arcsine_family)
    assert rep["pass"]
    assert rep["rhs"] < mp.mpf("1e-9")  # m=1, s=0, constant-argument density
    for row in rep["per_n"]:
        assert abs(row["lhs"]) < mp.mpf("1e-9")


def test_variation_budget_flags_synthetic_violation(arcsine):
    family = pade.PadeFamily(arcsine, ms.RationalPart.empty(), sch.ClassicalScheme())
    doctored = pade.PadeApproximant(3, Poly.from_roots([5 + 5j, 0.1, -0.2]), "classical")
    family.approximants[3] = doctored
    rep = variation_budget(family)
    assert not rep["pass"]
    assert rep["per_n"][0]["lhs"] > rep["rhs"]


def test_variation_budget_root_on_support_adds_nothing(arcsine):
    family = pade.PadeFamily(arcsine, ms.RationalPart.empty(), sch.ClassicalScheme())
    family.approximants[2] = pade.PadeApproximant(2, Poly.from_roots([0.3, -0.5]), "classical")
    base = variation_budget(family)["per_n"][0]["lhs"]
    family2 = pade.PadeFamily(arcsine, ms.RationalPart.empty(), sch.ClassicalScheme())
    family2.approximants[3] = pade.PadeApproximant(
        3, Poly.from_roots([0.3, -0.5, 0.7]), "classical"
    )
    with_extra = variation_budget(family2)["per_n"][0]["lhs"]
    assert abs(base - with_extra) < mp.mpf("1e-20")


def test_pole_distribution_improves_with_n(arcsine_family):
    rep = check_pole_distribution(arcsine_family)
    assert rep["pass"]
    dists = {row["n"]: row["distance"] for row in rep["per_n"]}
    assert dists[40] < dists[5]
    assert dists[40] <= mp.mpf("0.05")


def test_pole_distribution_conjugation_invariant():
    scheme = sch.ClassicalScheme()
    lam = ms.ComplexMeasure([ms.MeasureComponent(("-1/2", "1/2"), "exp(i*t)")])
    lam_conj = ms.ComplexMeasure([ms.MeasureComponent(("-1/2", "1/2"), "exp(-i*t)")])
    fam = pade.solve_family(lam, ms.RationalPart.empty(), scheme, [4, 6], TOL)
    fam_c = pade.solve_family(lam_conj, ms.RationalPart.empty(), scheme, [4, 6], TOL)
    assert not fam.failures and not fam_c.failures
    r1 = check_pole_distribution(fam)
    r2 = check_pole_distribution(fam_c)
    for a, b in zip(r1["per_n"], r2["per_n"]):
        assert abs(a["distance"] - b["distance"]) < mp.mpf("1e-12")


def test_pole_attraction_simple_pole(arcsine):
    R = ms.RationalPart([("2i", 1, ["1"])])
    family = pade.solve_family(arcsine, R, sch.ClassicalScheme(), [4, 6, 8], TOL)
    assert not family.failures
    rep = check_pole_attraction(family)
    assert rep["pass"]
    row = rep["poles"][0]
    assert row["liminf_proxy"] >= 1
    near = row["nearest_distance"]
    assert near[8] < near[4]


def test_pole_attraction_radii_use_the_given_system(arcsine, monkeypatch):
    R = ms.RationalPart([("2i", 1, ["1"]), ("-3", 1, ["1"])])
    family = pade.solve_family(arcsine, R, sch.ClassicalScheme(), [4, 6], TOL)
    system = pt.IntervalSystem(arcsine.intervals)

    def no_fresh_system(lam):
        raise AssertionError("a covering system was built for a pole")

    monkeypatch.setattr(checkers, "covering_system", no_fresh_system)
    rep = check_pole_attraction(family, system)
    assert [row["radius"] for row in rep["poles"]] == [mp.mpf(1), mp.mpf(1)]


def test_pole_attraction_empty_rational(arcsine_family):
    rep = check_pole_attraction(arcsine_family)
    assert rep["pass"] and rep["poles"] == []


def test_capacity_convergence_arcsine(arcsine, arcsine_family):
    rep = check_capacity_convergence(
        arcsine_family,
        grid_spec={"re_min": "-2.5", "re_max": "2.5", "im_min": "-1.25",
                   "im_max": "1.25", "nx": 14, "ny": 8},
        tol=TOL,
    )
    assert rep["pass"]
    fracs = {row["n"]: row["fraction"] for row in rep["per_n"]}
    assert fracs[40] == 0
    assert fracs[40] <= fracs[5]


def test_capacity_prediction_matches_green_closed_form(arcsine_family):
    S = covering_system(arcsine_family.lam)
    sigma = arcsine_family.scheme.sigma()
    for z in (mp.mpc(2), mp.mpc(1, 1), mp.mpc(0, 3)):
        pred = mp.exp(-pt.green_potential(sigma, S, z) / 2)
        g = mp.log(abs(z + mp.sqrt(z - 1) * mp.sqrt(z + 1)))
        assert abs(pred - mp.exp(-g)) < mp.mpf("5e-3")


def test_pole_distribution_arcsine_is_half_over_n(arcsine_family):
    # the n poles are the Chebyshev zeros, whose Kolmogorov distance to the
    # arcsine distribution is exactly 1/(2n)
    rep = check_pole_distribution(arcsine_family)
    assert [row["n"] for row in rep["per_n"]] == arcsine_family.solved_ns
    for row in rep["per_n"]:
        assert row["poles_kept"] == row["n"]
        assert abs(row["distance"] - mp.mpf(1) / (2 * row["n"])) < mp.mpf("1e-12")


def test_covering_system_rejects_empty_measure():
    with pytest.raises(ValueError):
        covering_system(ms.ComplexMeasure([]))


def _subfamily(family, ns):
    sub = pade.PadeFamily(family.lam, family.rational, family.scheme)
    for n in ns:
        sub.approximants[n] = family.approximants[n]
    return sub


def test_all_four_checkers_pass_at_defaults_for_arcsine(arcsine_family):
    fam = _subfamily(arcsine_family, [5, 10, 20, 40])
    assert variation_budget(fam)["pass"]
    assert check_pole_distribution(fam)["pass"]
    assert check_pole_attraction(fam)["pass"]
    assert check_capacity_convergence(fam, tol=TOL)["pass"]


def test_density_variation_evaluated_once_per_family(monkeypatch):
    lam = ms.ComplexMeasure([ms.MeasureComponent(("-1/2", "1/2"), "exp(i*t)")])
    R = ms.RationalPart([("2i", 1, ["1"])])
    family = pade.solve_family(lam, R, sch.ClassicalScheme(), [3, 4], TOL)
    assert not family.failures
    calls = []
    real = ms.argument_variation_f64

    def counting(lam_, gridN):
        calls.append(gridN)
        return real(lam_, gridN)

    monkeypatch.setattr(ms, "argument_variation_f64", counting)
    budget = variation_budget(family)
    attraction = check_pole_attraction(family)
    assert calls == [2048]
    assert budget["v_phi"] == real(lam, 2048)
    reference = ms.argument_variation(lam, 2048)
    assert abs(budget["v_phi"] - reference) <= mp.mpf("1e-12") * reference
    assert attraction["excess_bound"] >= budget["v_phi"]


def test_capacity_level_decision_matches_the_mpmath_pow():
    eps = checkers.EPS_CAP
    nudges = (0, mp.mpf(2) ** -200, mp.mpf("1e-12"), mp.mpf("1e-9"), mp.mpf("1e-3"))
    decided = set()
    for n in (1, 2, 5, 10, 40):
        for k in range(0, 301, 13):
            err = mp.mpf("0.73") * mp.mpf(10) ** -k
            obs = err ** (mp.mpf(1) / (2 * n))
            preds = [mp.mpf("0.5"), mp.mpf(1)]
            for d in nudges:
                preds += [obs + eps + d, obs + eps - d, obs - eps + d, obs - eps - d]
            for pred in preds:
                want = abs(obs - pred) > eps
                assert checkers._level_missed(err, n, pred) == want, (n, k, pred)
                decided.add(want)
        assert not checkers._level_missed(mp.mpf(0), n, mp.mpf("0.05"))
    assert decided == {True, False}


def test_spurious_pole_screen_matches_mpmath_at_the_threshold():
    r = checkers.SPURIOUS_CLEARANCE
    poles = [mp.mpc("0.3", "0.2"), mp.mpc(-1, 0), mp.mpc(10**400, 1)]
    points = [mp.mpc(0)]
    for eps in (0, mp.mpf(2) ** -200, -mp.mpf(2) ** -200, mp.mpf("1e-12"), mp.mpf("-1e-12"),
                mp.mpf("1e-3"), mp.mpf("-1e-3")):
        for u in (mp.mpc(1, 0), mp.mpc(0, 1), mp.expjpi(mp.mpf("0.3"))):
            points += [poles[0] + (r + eps) * u, poles[1] + (r + eps) * u]
    want = [not any(abs(z - p) < r for p in poles) for z in points]
    assert checkers._clear_of(points, poles, r) == want
    assert any(want) and not all(want)
    assert checkers._clear_of(points, [], r) == [True] * len(points)
