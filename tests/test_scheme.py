import mpmath as mp
import pytest

from padelab.algebra import Poly
from padelab.measure import _wrap_angle
from padelab.scheme import (
    CircleScheme,
    ClassicalScheme,
    ExplicitScheme,
    admissibility_report,
    arg_variation_on_hull,
    make_scheme,
)


def test_classical_v2n_is_one():
    v = ClassicalScheme().v2n(13)
    assert v.degree == 0 and v.coeffs[0] == 1


def test_circle_v2n_closed_forms():
    circ = CircleScheme("0", "3")
    v2 = circ.v2n(1)
    assert v2.degree == 2
    assert abs(v2.coeffs[0] + 9) < mp.mpf("1e-70")
    assert abs(v2.coeffs[1]) < mp.mpf("1e-70")
    v4 = circ.v2n(2)
    assert v4.degree == 4
    assert abs(v4.coeffs[0] + 81) < mp.mpf("1e-70")
    assert all(abs(c) < mp.mpf("1e-70") for c in v4.coeffs[1:4])


def test_v2n_degree_counts_finite_nodes():
    circ = CircleScheme("0", "2")
    for n in (1, 2, 5):
        finite, at_inf = circ.nodes(n)
        assert len(finite) + at_inf == 2 * n
        assert circ.v2n(n).degree == len(finite)
    exp = ExplicitScheme({3: ["2i", "-2i", "3"]})
    finite, at_inf = exp.nodes(3)
    assert len(finite) == 3 and at_inf == 3
    assert exp.v2n(3).degree == 3


def test_conjugate_symmetric_nodes_and_real_coefficients():
    circ = CircleScheme("0", "3")
    for n in (2, 4):
        finite, _ = circ.nodes(n)
        conj_set = sorted((mp.conj(z).real, mp.conj(z).imag) for z in finite)
        orig_set = sorted((z.real, z.imag) for z in finite)
        assert all(
            abs(a[0] - b[0]) < mp.mpf("1e-70") and abs(a[1] - b[1]) < mp.mpf("1e-70")
            for a, b in zip(conj_set, orig_set)
        )
        v = circ.v2n(n)
        assert all(abs(c.imag) < mp.mpf("1e-70") for c in v.coeffs)



def test_complex_centre_circle_nodes_lie_on_the_circle():
    circ = CircleScheme("1/4+1/2i", "2", sigma_points=64)
    tol = mp.mpf(2) ** (8 - mp.mp.prec)
    for n in range(1, 7):
        finite, _ = circ.nodes(n)
        assert len(finite) == 2 * n
        assert max(abs(abs(z - circ.center) - 2) for z in finite) < tol
    ring = circ.sigma().finite.points
    assert max(abs(abs(z - circ.center) - 2) for z in ring) < tol

def test_sigma_masses():
    assert ClassicalScheme().sigma().mass_at_infinity == 2
    sig = CircleScheme("0", "3", sigma_points=256).sigma()
    assert abs(sig.finite.mass - 2) < mp.mpf("1e-30")
    assert sig.mass_at_infinity == 0


def test_admissibility_classical_all_zero():
    rep = admissibility_report(ClassicalScheme(), range(2, 8), (-1, 1))
    for row in rep["rows"]:
        assert row["sup_darg_v2n"] == 0
        assert row["sup_n_im_kernel"] == 0
    assert rep["admissible"]


def test_admissibility_circle_kernel_cancels_exactly():
    rep = admissibility_report(CircleScheme("0", "3"), range(1, 13), (-1, 1))
    for row in rep["rows"]:
        assert row["sup_n_im_kernel"] == 0
        assert row["sup_darg_v2n"] == 0
    assert rep["admissible"]


def test_admissibility_real_node_on_hull_grid():
    # the node 1 is the last hull grid point: its kernel term is 0, not 0/0
    rep = admissibility_report(ExplicitScheme({2: ["1", "3i", "-3i"]}), [2], (-1, 1))
    assert rep["rows"][0]["sup_n_im_kernel"] == 0
    assert rep["flags"]["nodes_approach_singularities"]


def test_admissibility_flags_one_sided_nodes():
    nodes = {n: ["3i"] * (2 * n) for n in range(2, 21, 3)}
    rep = admissibility_report(ExplicitScheme(nodes), sorted(nodes), (-1, 1))
    assert rep["flags"]["kernel_growing"]
    assert not rep["admissible"]


def test_scheme_arg_variation_bounded_for_circle():
    circ = CircleScheme("0", "3")
    vals = [arg_variation_on_hull(circ, n, (-1, 1)) for n in range(1, 13)]
    assert max(vals) < 2 * mp.pi  # conjugate-symmetric: bounded, not growing
    assert all(v == 0 for v in vals)  # conjugate pairs cancel exactly


def _reference_arg_variation(scheme, n, hull, gridN=1024):
    """Argument variation of the coefficient form of v2n at working precision."""
    v = scheme.v2n(n)
    a, b = mp.mpf(hull[0]), mp.mpf(hull[1])
    total, prev = mp.mpf(0), None
    for k in range(gridN):
        cur = mp.arg(v(a + (b - a) * k / (gridN - 1)))
        if prev is not None:
            total += abs(_wrap_angle(cur - prev))
        prev = cur
    return total


def _reference_sups(scheme, n, hull, grid_points=512):
    """sup |Im v2n'/v2n| and sup |Im sum 1/(x - z_j)| at working precision."""
    finite, _ = scheme.nodes(n)
    v = scheme.v2n(n)
    dv = Poly([k * c for k, c in enumerate(v.coeffs)][1:], trim=False)
    a, b = mp.mpf(hull[0]), mp.mpf(hull[1])
    sup_darg = sup_kernel = mp.mpf(0)
    for k in range(grid_points):
        x = a + (b - a) * k / (grid_points - 1)
        sup_darg = max(sup_darg, abs((dv(x) / v(x)).imag))
        ker = mp.fsum((1 / (x - z) for z in finite), absolute=False)
        sup_kernel = max(sup_kernel, abs(mp.mpc(ker).imag))
    return sup_darg, sup_kernel


ASYMMETRIC_SCHEMES = [
    ExplicitScheme({
        2: ["2+i", "-3/2+1/2i", "1/2-2i"],
        3: ["2+i", "-3/2+1/2i", "1/2-2i", "3", "-1/4+3/4i"],
    }),
    CircleScheme("1/4+1/2i", "2"),
]


@pytest.mark.parametrize("scheme", ASYMMETRIC_SCHEMES, ids=["explicit", "circle"])
def test_float64_diagnostics_match_working_precision(scheme):
    hull = (-1, 1)
    ns = [2, 3]
    rep = admissibility_report(scheme, ns, hull)
    for row in rep["rows"]:
        n = row["n"]
        ref_darg, ref_kernel = _reference_sups(scheme, n, hull)
        assert ref_darg > mp.mpf("1e-3")
        assert abs(row["sup_darg_v2n"] - ref_darg) <= mp.mpf("1e-12") * ref_darg
        assert abs(row["sup_n_im_kernel"] - ref_kernel) <= mp.mpf("1e-12") * ref_kernel
        got = arg_variation_on_hull(scheme, n, hull)
        ref = _reference_arg_variation(scheme, n, hull)
        assert ref > mp.mpf("1e-3")
        assert abs(got - ref) <= mp.mpf("1e-12") * ref
    assert admissibility_report(scheme, ns, hull) == rep
    assert arg_variation_on_hull(scheme, 3, hull) == got


def test_make_scheme_dispatch():
    assert make_scheme({"kind": "classical"}).kind == "classical"
    assert make_scheme({"kind": "circle", "radius": "2"}).radius == 2
    with pytest.raises(ValueError):
        make_scheme({"kind": "parabola"})
    with pytest.raises(ValueError):
        CircleScheme("0", "-1")


@pytest.mark.parametrize("value", [64.9, True, 0, "x"])
def test_circle_sigma_points_is_an_integer_at_least_one(value):
    # the scheme owns the rule, so a direct call no longer truncates 64.9 to
    # 64 or reads true as 1
    from padelab.errors import InvalidConfig

    with pytest.raises(InvalidConfig, match="scheme.sigma_points"):
        make_scheme({"kind": "circle", "sigma_points": value})
    assert make_scheme({"kind": "circle", "sigma_points": 64}).sigma_points == 64


def test_asymptotic_distribution_mass_invariant():
    from padelab.potential import DiscreteMeasure
    from padelab.scheme import AsymptoticDistribution

    with pytest.raises(ValueError):
        AsymptoticDistribution(None, 1)
    AsymptoticDistribution(DiscreteMeasure([mp.mpc(3)], [mp.mpf(2)]), 0)


def test_explicit_scheme_node_budget():
    exp = ExplicitScheme({2: ["1", "2", "3", "4", "5"]})
    with pytest.raises(ValueError):
        exp.nodes(2)
    with pytest.raises(ValueError):
        ExplicitScheme({2: ["1"]}).nodes(3)
