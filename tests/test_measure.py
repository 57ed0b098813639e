import math

import mpmath as mp
import numpy as np
import pytest

from padelab import chebyshev, measure as ms
from padelab.algebra import support_distance, working_precision
from padelab.errors import (
    PointAtPole,
    PointOnSupport,
    QuadFailure,
    UnwrapFailure,
)
from padelab.measure import (
    ComplexMeasure,
    DensityExpr,
    MeasureComponent,
    RationalPart,
    argument_variation,
    cauchy_transform,
    eval_F,
    moments,
    quad_integrate,
)
from padelab.oracles import (
    arcsine_measure,
    arcsine_moments_exact,
    arcsine_transform_derivative_exact,
    arcsine_transform_exact,
    lebesgue01_transform_exact,
    near_support_points,
    odd_transform_exact,
)

TOL = mp.mpf("1e-35")


def lebesgue01():
    return ComplexMeasure([MeasureComponent(("0", "1"), "1")])


def test_quad_constant_and_odd():
    assert abs(quad_integrate(lambda t: mp.mpc(1), ("0", "1"), mp.mpf("1e-30")) - 1) < mp.mpf("1e-30")
    assert abs(quad_integrate(lambda t: t, ("-1", "1"), mp.mpf("1e-30"))) < mp.mpf("1e-30")


def test_quad_arcsine_mass_with_midpoint_oracle(arcsine):
    mass = arcsine.compiled().moments(0, TOL)[0]
    assert abs(mass - 1) < mp.mpf("1e-30")
    # crude midpoint oracle on the raw singular integrand
    n = 10**6
    t = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    midpoint = np.sum(1.0 / (np.pi * np.sqrt(1.0 - t * t))) * (2.0 / n)
    assert abs(float(mass.real) - midpoint) < 2e-3


def test_quad_panel_budget(monkeypatch):
    monkeypatch.setattr(ms, "PANEL_CAP", 64)
    with pytest.raises(QuadFailure):
        quad_integrate(
            lambda t: 1 / (t - mp.mpf(1) / 3), ("0", "1"), mp.mpf("1e-30")
        )


def test_quad_bit_determinism(arcsine):
    a = ms.cauchy_transform(arcsine, mp.mpc("1.25", "0.5"), TOL)
    b = ms.cauchy_transform(arcsine, mp.mpc("1.25", "0.5"), TOL)
    assert a == b  # identical panel order and rounding, bit for bit


def test_cauchy_transform_closed_forms(arcsine):
    got = cauchy_transform(arcsine, mp.mpc(2), TOL)
    assert abs(got - 1 / mp.sqrt(3)) < mp.mpf("1e-30")
    got = cauchy_transform(lebesgue01(), mp.mpc(2), TOL)
    assert abs(got - mp.log(2)) < mp.mpf("1e-30")


def test_cauchy_transform_asymptotic_mass(arcsine):
    # |z| * transform tends to the total mass like O(1/y^2) along rays
    errs = []
    for y in (mp.mpf(100), mp.mpf(10**4), mp.mpf(10**6)):
        z = mp.mpc(0, y)
        errs.append(abs(z * cauchy_transform(arcsine, z, TOL) - 1))
    assert errs[0] < mp.mpf("1e-4")
    assert errs[1] < mp.mpf("1e-8")
    assert errs[2] < mp.mpf("1e-12")


def test_point_on_support_guard(arcsine):
    with pytest.raises(PointOnSupport):
        cauchy_transform(arcsine, mp.mpc(0), TOL)
    with pytest.raises(PointOnSupport):
        cauchy_transform(arcsine, mp.mpf("0.517"), TOL)


@pytest.mark.parametrize("interval, base, direction", [
    (("-1", "1"), "0.3", 1j),   # above the interior
    (("-1", "1"), "1", 1),      # beside an endpoint
    (("0", "4"), "3", 1j),      # |p| > 1 scales the threshold
])
def test_point_on_support_boundary(monkeypatch, interval, base, direction):
    # the threshold is 10 eps max(1, |p|): half of it raises, twice it does
    # not, and the guard then gets floor(log2 d); the panel guard itself is
    # stubbed out, since it cannot resolve a kernel this close to the support
    lam = ComplexMeasure([MeasureComponent(interval, "1")])
    seen = []
    monkeypatch.setattr(ms.CompiledMeasure, "_leaves",
                        lambda self, tol, poles, degree, near: seen.append(near) or [])
    base = mp.mpc(base)
    for factor, on_support in ((mp.mpf("0.5"), True), (mp.mpf(2), False)):
        d = factor * 10 * mp.eps * max(1, abs(base))
        z = base + d * direction
        if on_support:
            with pytest.raises(PointOnSupport):
                lam.compiled().nodes(TOL, [z])
        else:
            lam.compiled().nodes(TOL, [z])
            assert seen == [int(mp.floor(mp.log(support_distance(z, lam.intervals), 2)))]


def test_eval_f_with_single_pole_against_branch_oracle(arcsine):
    # branch of (z^2-1)^(-1/2) positive for large real z, continued to iy
    R = RationalPart([("2i", 1, ["1"])])
    for y in (mp.mpf("0.01"), mp.mpf("0.37"), mp.mpf("5")):
        z = mp.mpc(0, y)
        oracle = -mp.mpc(0, 1) / mp.sqrt(1 + y * y) + 1 / (mp.mpc(0, y - 2))
        assert abs(eval_F(arcsine, R, z, TOL) - oracle) < mp.mpf("1e-30")
    with pytest.raises(PointAtPole):
        eval_F(arcsine, R, mp.mpc(0, 2), TOL)


def test_eval_f_empty_rational_is_transform(arcsine):
    z = mp.mpc(1, 1)
    assert eval_F(arcsine, RationalPart.empty(), z, TOL) == cauchy_transform(
        arcsine, z, TOL
    )


def test_eval_f_scales_affinely():
    scaled = ComplexMeasure(
        [MeasureComponent(("-1", "1"), "(2+i)/pi", endpoint_singular=True)]
    )
    base = ComplexMeasure(
        [MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True)]
    )
    R = RationalPart([("3", 1, ["1"])])
    z = mp.mpc(0, 2)
    lhs = eval_F(scaled, R, z, TOL)
    rhs = mp.mpc(2, 1) * cauchy_transform(base, z, TOL) + 1 / (z - 3)
    assert abs(lhs - rhs) < mp.mpf("1e-30")


def test_moments_arcsine_closed_form(arcsine):
    moms = moments(arcsine, RationalPart.empty(), 4, TOL)
    expected = [1, 0, mp.mpf(1) / 2, 0, mp.mpf(3) / 8]
    assert max(abs(a - b) for a, b in zip(moms, expected)) < mp.mpf("1e-30")


def test_moments_pure_rational_geometric():
    R = RationalPart([("1", 1, ["1"])])
    moms = moments(ComplexMeasure([]), R, 5)
    assert all(abs(c - 1) < mp.mpf("1e-70") for c in moms)


def test_moments_odd_vanish_for_symmetric(arcsine):
    moms = moments(arcsine, RationalPart.empty(), 9, TOL)
    assert all(abs(moms[j]) < mp.mpf("1e-30") for j in range(1, 10, 2))


def test_moments_linearity(arcsine):
    other = ComplexMeasure([MeasureComponent(("2", "3"), "exp(i*t)")])
    both = ComplexMeasure(
        [
            MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
            MeasureComponent(("2", "3"), "exp(i*t)"),
        ]
    )
    R = RationalPart.empty()
    m1 = moments(arcsine, R, 6, TOL)
    m2 = moments(other, R, 6, TOL)
    m12 = moments(both, R, 6, TOL)
    assert max(abs(a + b - c) for a, b, c in zip(m1, m2, m12)) < mp.mpf("1e-30")


def test_moments_match_taylor_differentiation_oracle(arcsine):
    """Fourier differentiation of w -> F(1/w) on a small circle, high order."""
    R = RationalPart([("2i", 2, ["1", "-1+i"])])
    J = 10
    M = 64
    rho = mp.mpf(1) / 10
    samples = [
        eval_F(arcsine, R, 1 / (rho * mp.expjpi(2 * mp.mpf(k) / M)), TOL)
        for k in range(M)
    ]
    got = moments(arcsine, R, J, TOL)
    for j in range(J + 1):
        order = j + 1  # c_j is the Taylor coefficient of w^(j+1)
        acc = mp.fsum(
            samples[k] * mp.expjpi(-2 * mp.mpf(k) * order / M) for k in range(M)
        )
        oracle = acc / (M * rho**order)
        assert abs(got[j] - oracle) < mp.mpf("1e-20")


def test_argument_variation_examples():
    lin = ComplexMeasure([MeasureComponent(("-6/7", "-1/8"), "exp(i*t)")])
    assert abs(argument_variation(lin, 512) - mp.mpf(41) / 56) < mp.mpf("1e-30")
    const = ComplexMeasure([MeasureComponent(("0", "1"), "3+2*i")])
    assert argument_variation(const, 128) == 0


def test_argument_variation_rational_density_closed_form():
    # d/dt arg((t-3/5)/(t-2i)) = -2/(t^2+4); integral gives the arctan difference
    lam = ComplexMeasure([MeasureComponent(("2/5", "1/2"), "(t-3/5)/(t-2*i)")])
    expected = mp.atan(mp.mpf(1) / 4) - mp.atan(mp.mpf(1) / 5)
    got = argument_variation(lam, 4096)
    assert abs(got - expected) < mp.mpf("1e-6")
    oracle = quad_integrate(
        lambda t: 2 / (t * t + 4), ("2/5", "1/2"), mp.mpf("1e-30")
    )
    assert abs(got - oracle) < mp.mpf("1e-6")


def test_argument_variation_monotone_in_grid():
    lam = ComplexMeasure(
        [MeasureComponent(("0", "1"), "(t-1/2)*(t-1/2)+i*t")],
        waive_floor=True,
    )
    vals = [argument_variation(lam, 2**k) for k in range(7, 13)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - mp.mpf("1e-30")


def test_argument_variation_unwrap_guard():
    wild = ComplexMeasure([MeasureComponent(("0", "10"), "exp(i*t)")])
    with pytest.raises(UnwrapFailure):
        argument_variation(wild, 2)


def test_density_expression_errors():
    with pytest.raises(ValueError):
        DensityExpr("t ** 0.5")
    with pytest.raises(ValueError):
        DensityExpr("sin(t)")
    tiny = "t/100000000000000000000"  # sampled magnitude below the default floor
    with pytest.raises(ValueError):
        ComplexMeasure([MeasureComponent(("0", "1"), tiny)])
    ComplexMeasure([MeasureComponent(("0", "1"), tiny)], waive_floor=True)


@pytest.mark.parametrize("src, same_as", [
    ("t^2", "t*t"),
    ("-t**2", "-(t*t)"),
    ("ln(t)", "log(t)"),
    ("+t", "t"),
    ("--t", "t"),
    ("t^-2", "t**-2"),
])
def test_density_grammar_accepted_forms(src, same_as):
    expr, ref = DensityExpr(src), DensityExpr(same_as)
    ts = [mp.mpf(k) / 7 - 1 for k in range(2, 14, 3)]
    assert [expr(t) for t in ts] == [ref(t) for t in ts]
    arr = np.linspace(-0.9, 0.9, 16)
    assert np.array_equal(expr.f64(arr), ref.f64(arr))


def test_density_grammar_values():
    t = mp.mpf(3) / 4
    assert abs(DensityExpr("t**-2")(t) - 16 / mp.mpf(9)) <= mp.eps * 2
    assert DensityExpr("-t**2")(t) == -(t * t)
    assert DensityExpr("ln(t)")(t) == mp.log(t)
    # literals are exact fractions of their source text, not Python floats
    with working_precision(256):
        assert DensityExpr("0.1")(t) == mp.mpf(1) / 10
        assert DensityExpr("1e-3")(t) == mp.mpf(1) / 1000
        assert DensityExpr("0.1")(t) != mp.mpf(0.1)


@pytest.mark.parametrize("src", [
    "t**0.5", "t^(1/2)", "sin(t)", "foo", "3j", "True", "t.real", "t[0]",
    "__import__('os')", "exp(t, 1)", "t if t else 1", "",
])
def test_density_grammar_rejections(src):
    with pytest.raises(ValueError):
        DensityExpr(src)


def test_density_functions_read_ln_as_log():
    assert DensityExpr("(2-4*i)*ln(t)").functions == {"log"}
    assert DensityExpr("exp(log(t))").functions == {"exp", "log"}
    assert DensityExpr("1/pi").functions == frozenset()


def test_measure_validation():
    with pytest.raises(ValueError):
        MeasureComponent(("1", "1"), "1")
    with pytest.raises(ValueError):
        ComplexMeasure(
            [MeasureComponent(("0", "2"), "1"), MeasureComponent(("1", "3"), "1")]
        )
    with pytest.raises(ValueError):
        RationalPart([("1", 1, ["0"])])  # zero leading Laurent coefficient
    with pytest.raises(ValueError):
        RationalPart([("1", 1, ["1"]), ("1", 2, ["0", "1"])])  # duplicate pole


def test_rational_pole_clearance(arcsine):
    R = RationalPart([("1/2", 1, ["1"])])
    with pytest.raises(ValueError):
        R.check_clear_of(arcsine)


NEAR_TOL = mp.mpf("1e-40")


@pytest.mark.parametrize("d", ["1e-1", "1e-2", "1e-3"])
def test_transforms_near_support_closed_forms(arcsine, d):
    R = RationalPart.empty()
    for z in near_support_points("0.3", 1, [d]):
        cases = [
            (cauchy_transform(arcsine, z, NEAR_TOL), arcsine_transform_exact(z)),
            (ms.eval_F_derivative(arcsine, R, z, 1, NEAR_TOL),
             arcsine_transform_derivative_exact(z)),
            (cauchy_transform(lebesgue01(), z, NEAR_TOL), lebesgue01_transform_exact(z)),
        ]
        for got, exact in cases:
            assert abs(got - exact) < mp.mpf("1e-35") * abs(exact), z


def test_moments_arcsine_to_80_at_512_bits():
    with working_precision(512):
        lam = arcsine_measure()
        got = moments(lam, RationalPart.empty(), 80)
        exact = arcsine_moments_exact(80)
        assert max(abs(a - b) for a, b in zip(got, exact)) < mp.mpf("1e-70")


def test_compiled_nodes_follow_working_precision():
    lam = arcsine_measure()
    base = lam.compiled()
    with working_precision(2 * mp.mp.prec):
        doubled = lam.compiled()
        ts, ws = doubled.nodes()
    assert doubled.prec == 2 * base.prec
    assert max(abs(t.man).bit_length() for t in ts) > base.prec
    assert max(abs(w.real.man).bit_length() for w in ws) > base.prec
    assert lam.compiled() is base


def _perfbench_workloads():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    # workloads.py imports only the standard library, so loading it is harmless
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bundled_and_benchmark_densities():
    from padelab.cli import load_config

    raws = [load_config(name).raw for name in ("markov_arcsine", "paper_section4")]
    raws += [w.base for w in _perfbench_workloads().WORKLOADS.values()]
    out = {(c["interval"][0], c["interval"][1], c["density"])
           for raw in raws for c in raw["measure"]}
    assert len(out) >= 4
    return sorted(out)


def _f64_relative_error(comp, count=257):
    ts = comp.sample_points(count)
    got = comp.density.f64(np.array([float(t) for t in ts]))
    return max(abs(complex(comp.density(t)) - v) / abs(complex(comp.density(t)))
               for t, v in zip(ts, got))


def test_density_f64_matches_working_precision():
    for a, b, src in _bundled_and_benchmark_densities():
        assert _f64_relative_error(MeasureComponent((a, b), src)) < 1e-14, src
    # a negative integer power, and a constant broadcast to the sample shape
    for src in ("(t-2)**-3", "(t+i)^-2*exp(i*t)/3", "3+2*i", "pi*e"):
        assert _f64_relative_error(MeasureComponent(("0", "1"), src)) < 1e-14, src


def test_density_f64_log_takes_the_mpmath_branch_on_negative_reals():
    # -(1-t) carries a -0.0 imaginary part in complex128; log must still give +pi
    for src in ("log(t-1)", "log(-(1-t))"):
        comp = MeasureComponent(("0", "1/2"), src)
        assert _f64_relative_error(comp) < 1e-14, src
        vals = comp.density.f64(np.linspace(0, 0.5, 9))
        assert np.all(vals.imag == np.pi), src


def test_argument_variation_f64_matches_reference():
    from padelab.cli import load_config

    section4 = load_config("paper_section4").build_measure()
    steep = ComplexMeasure([MeasureComponent(("0", "1"), "exp(800*t)*exp(i*t)")])
    # exp(800) overflows float64: that component falls back to working precision
    assert not np.all(np.isfinite(steep.components[0].density.f64(np.linspace(0, 1, 9))))
    for lam in (section4, steep):
        ref = argument_variation(lam, 2048)
        got = ms.argument_variation_f64(lam, 2048)
        assert isinstance(got, mp.mpf)
        assert abs(got - ref) <= mp.mpf("1e-12") * ref
        # repeated calls, and calls at another precision, are bit-identical
        assert ms.argument_variation_f64(lam, 2048) == got
        with working_precision(512):
            assert ms.argument_variation_f64(lam, 2048) == got


def test_argument_variation_f64_unwraps_across_the_branch_cut():
    # arg(-exp(it)) crosses pi at t = 0 (variation 1 on [-1/2, 1/2]); the gap
    # to the constant -1 on [1, 2] jumps from -pi + 1/2 to pi, i.e. by 1/2
    lam = ComplexMeasure([MeasureComponent(("-1/2", "1/2"), "-exp(i*t)"),
                          MeasureComponent(("1", "2"), "-1")])
    got = ms.argument_variation_f64(lam, 1024)
    assert abs(got - mp.mpf(3) / 2) < mp.mpf("1e-12")
    assert abs(got - argument_variation(lam, 1024)) < mp.mpf("1e-12")


def test_argument_variation_f64_failures():
    zero = ComplexMeasure([MeasureComponent(("0", "1"), "(t-1/2)")])
    with pytest.raises(UnwrapFailure):
        ms.argument_variation_f64(zero, 3)
    wild = ComplexMeasure([MeasureComponent(("0", "10"), "exp(i*t)")])
    with pytest.raises(UnwrapFailure):
        ms.argument_variation_f64(wild, 2)
    with pytest.raises(ValueError):
        ms.argument_variation_f64(wild, 1)


# ---------------------------------------------------------------------------
# the fixed-point Cauchy kernel and the integer Bernstein guard
# ---------------------------------------------------------------------------

KERNEL_DISTANCES = ["1e-3", "1e-9", "1e-20", "1e-30"]


def _scaled_arcsine(mass):
    return ComplexMeasure(
        [MeasureComponent(("-1", "1"), f"{mass}/pi", endpoint_singular=True)],
        waive_floor=True,
    )


def _arcsine_second_derivative_exact(z):
    # F'' = (2z^2 + 1)/(z^2 - 1)^(5/2) on the branch of arcsine_transform_exact
    return (2 * z * z + 1) * arcsine_transform_exact(z) ** 5


def _arcsine_third_derivative_exact(z):
    # F''' = -3z(2z^2 + 3)/(z^2 - 1)^(7/2)
    return -3 * z * (2 * z * z + 3) * arcsine_transform_exact(z) ** 7


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_cauchy_kernel_block_scale_near_support(bits):
    with working_precision(bits):
        for mass in ("1", "1e-30", "1e-60"):
            lam = _scaled_arcsine(mass)
            for z in near_support_points("0.3", 1, KERNEL_DISTANCES):
                exact = mp.mpf(mass) * arcsine_transform_exact(z)
                got = cauchy_transform(lam, z, NEAR_TOL)
                assert abs(got - exact) < mp.mpf("1e-35") * abs(exact), (mass, z)


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_cauchy_kernel_derivatives_near_support(bits):
    # r = 1, 2 only to 1e-9 and r = 3 only to 1e-3: the guard's tolerance is
    # relative to the kernel's L1 mass, which for (z - t)^(-r-1) above an
    # interior point outgrows the derivative like d^(-r), so deeper interior
    # points lose digits in the node set itself. r = 3 is the j = 0 moment
    # with z as a 4-fold node.
    R = RationalPart.empty()
    with working_precision(bits):
        lam = arcsine_measure()
        for r, exact_at, distances in (
                (1, arcsine_transform_derivative_exact, KERNEL_DISTANCES[:2]),
                (2, _arcsine_second_derivative_exact, KERNEL_DISTANCES[:2]),
                (3, _arcsine_third_derivative_exact, ["1e-1", "1e-2", "1e-3"])):
            for z in near_support_points("0.3", 1, distances):
                exact = exact_at(z)
                got = ms.eval_F_derivative(lam, R, z, r, NEAR_TOL)
                assert abs(got - exact) < NEAR_TOL * abs(exact), (r, z)


# the rational part of the bundled paper_section4 config
SECTION4_POLES = [("-3/7+4i/7", 2, ["0", "1"]), ("5/9+3i/4", 3, ["0", "0", "2"]),
                  ("-1/5-6i/7", 4, ["0", "0", "0", "6"])]


def _polar_derivative_exact(R, z, r):
    """r-th derivative of R at z: sum r_k (-1)^r (k+1)_r (z - eta)^-(k+1+r)."""
    return sum(rk * (-1) ** r * mp.rf(k + 1, r) / (z - p.eta) ** (k + 1 + r)
               for p in R.poles for k, rk in enumerate(p.coeffs))


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_eval_f_derivative_with_poles_near_support(bits):
    # the polar part of L enters the derivative as residue terms with z as
    # an (r+1)-fold node
    with working_precision(bits):
        lam, R = arcsine_measure(), RationalPart(SECTION4_POLES)
        for r, exact_at in ((1, arcsine_transform_derivative_exact),
                            (2, _arcsine_second_derivative_exact)):
            for z in near_support_points("0.3", 1, KERNEL_DISTANCES[:2]):
                exact = exact_at(z) + _polar_derivative_exact(R, z, r)
                got = ms.eval_F_derivative(lam, R, z, r, NEAR_TOL)
                assert abs(got - exact) < NEAR_TOL * abs(exact), (r, z)


def test_eval_f_with_poles_is_the_transform_plus_r_bit_for_bit():
    # eval_F reads F off L with z as the one node; its polar part is exactly
    # R(z) summed pole by pole as below, at every point of the error circle
    from padelab.cli import load_config

    config = load_config("paper_section4")
    with working_precision(config.raw["precision_bits"]):
        lam, R, tol = config.build_measure(), config.build_rational(), config.quad_tol()
        assert [(p.eta, p.multiplicity, p.coeffs) for p in R.poles] == [
            (p.eta, p.multiplicity, p.coeffs) for p in RationalPart(SECTION4_POLES).poles]
        center, radius, points = config.circle_spec()
        for k in range(points):
            z = center + radius * mp.expjpi(2 * mp.mpf(k) / points)
            polar = mp.mpc(0)
            for p in R.poles:
                invw = 1 / (z - p.eta)
                term = invw
                for c in p.coeffs:
                    polar += c * term
                    term *= invw
            assert eval_F(lam, R, z, tol) == cauchy_transform(lam, z, tol) + polar, k


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_cauchy_kernel_keeps_digits_under_cancellation(bits):
    with working_precision(bits):
        lam = ComplexMeasure([MeasureComponent(("-1", "1"), "t")])
        for z in ("1e10", "1e30"):
            exact = odd_transform_exact(z)
            got = cauchy_transform(lam, mp.mpf(z), NEAR_TOL)
            assert abs(got - exact) < mp.mpf("1e-45") * abs(exact), z


def test_cauchy_kernel_repeats_bit_for_bit():
    # the first call bisects and builds the integer views, the others reuse them
    R = RationalPart.empty()
    lam, arc = _scaled_arcsine("1e-30"), arcsine_measure()
    z = mp.mpc("0.3", "1e-20")
    values = [(cauchy_transform(lam, z, NEAR_TOL), ms.eval_F_derivative(arc, R, z, 2, NEAR_TOL))
              for _ in range(3)]
    assert values[0] == values[1] == values[2]


def test_cauchy_kernel_resolution_floor_still_raises():
    # the compiled node set cannot resolve the kernel 1e-74 above the
    # support; the transform itself is the closed form of the arcsine series
    with working_precision(256):
        arcsine, z = arcsine_measure(), mp.mpc("0.3", "1e-74")
        with pytest.raises(QuadFailure):
            arcsine.compiled().moments(0, NEAR_TOL, [z])
        exact = arcsine_transform_exact(z)
        assert abs(cauchy_transform(arcsine, z, NEAR_TOL) - exact) <= mp.ldexp(abs(exact), -236)


def _reference_nodes(compiled, tol, poles, degree):
    """The panel walk of CompiledMeasure.nodes with the guard's ellipse
    parameter formed in mpmath, as complex((u - mid)/half)."""
    log_tol = float(mp.log(tol)) - ms._GL_EXACT * math.log(2)
    ts = []
    for comp in compiled.components:
        us = []
        for p in map(mp.mpc, poles):
            if comp.theta:
                th = mp.acos((p - comp.c) / comp.r)
                us += [th, -th, 2 * mp.pi - th]
            else:
                us.append(p)
        stack = comp.base[::-1]
        while stack:
            panel = stack.pop()
            rho = min((ms._bernstein_rho(complex((u - panel.mid) / panel.half))
                       for u in us), default=math.inf)
            if comp._resolved(panel, rho, degree, log_tol):
                ts += panel.ts
            else:
                stack += comp._halves(panel)[::-1]
    return ts


def _workload_guard_cases():
    """(name, precision, config) of each perfbench workload."""
    return [(name, w.base["precision_bits"], w.base)
            for name, w in sorted(_perfbench_workloads().WORKLOADS.items())]


def _guard_points(raw, lam):
    circle = raw["error_circle"]
    c, r, n = mp.mpc(circle["center"]), mp.mpf(circle["radius"]), circle["points"]
    pts = [c + r * mp.expjpi(2 * mp.mpf(k) / n) for k in range(n)]
    grid = raw.get("capacity_grid")
    if grid:
        re0, re1 = mp.mpf(grid["re_min"]), mp.mpf(grid["re_max"])
        im0, im1 = mp.mpf(grid["im_min"]), mp.mpf(grid["im_max"])
        nx, ny = grid["nx"], grid["ny"]
        pts += [mp.mpc(re0 + (re1 - re0) * ix / (nx - 1), im0 + (im1 - im0) * iy / (ny - 1))
                for iy in range(ny) for ix in range(nx)]
    for comp in lam.components:
        a, b = comp.a, comp.b
        pts += near_support_points((a + b) / 2, b, ["1e-1", "1e-3", "1e-9"])
    return [z for z in pts if support_distance(z, lam.intervals) > 0]


@pytest.mark.parametrize("case", _workload_guard_cases(), ids=lambda case: case[0])
def test_integer_guard_selects_the_mpmath_guard_panels(case):
    from padelab import scheme as sch
    from padelab.cli import ProblemConfig

    _, bits, raw = case
    with working_precision(bits):
        config = ProblemConfig(dict(raw))
        lam = config.build_measure()
        tol = config.quad_tol()
        compiled = lam.compiled()
        calls = [((z,), 0) for z in _guard_points(raw, lam)]
        scheme = config.build_scheme()
        if not isinstance(scheme, sch.ClassicalScheme):
            # generalized moments and the error formula share the guard
            for n in raw["n_range"]:
                finite, _ = scheme.nodes(n)
                calls += [(tuple(finite), 2 * n), ((mp.mpc("1.5", "0.5"), *finite), 2 * n)]
        calls.append(((), 2 * max(raw["n_range"])))
        for poles, degree in calls:
            got, _ = compiled.nodes(tol, poles, degree)
            assert got == _reference_nodes(compiled, tol, poles, degree), (poles[:1], degree)


# ---------------------------------------------------------------------------
# the fixed-point Gauss-Legendre rule and the integer moment passes
# ---------------------------------------------------------------------------


def _newton_rule_reference(n=32):
    """The n-point rule by Newton in mpmath from the asymptotic guess, as the
    rule was computed before it moved onto integers; the reference at twice
    the precision."""
    xs, ws = [], []
    for k in range(n):
        x = mp.cos(mp.pi * (k + mp.mpf(3) / 4) / (n + mp.mpf(1) / 2))
        dp = mp.mpf(1)
        for _ in range(100):
            p0, p1 = mp.mpf(1), x
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < mp.eps * (1 + abs(x)):
                break
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws


def _ulp(x, bits):
    # x = m 2^e with 1/2 <= |m| < 1 has an ulp of 2^(e - bits) at ``bits`` bits
    return mp.ldexp(1, mp.frexp(x)[1] - bits)


@pytest.mark.parametrize("bits", [128, 256, 384, 512, 768])
def test_gauss_legendre_rule_against_mpmath_newton(bits):
    with working_precision(bits):
        xs, ws = ms.gauss_legendre_rule()
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert xs[::-1] == [-x for x in xs] and ws[::-1] == ws
    with working_precision(2 * bits):
        rx, rw = _newton_rule_reference()
        for got, ref in ((xs, rx), (ws, rw)):
            assert max(abs(a - b) / _ulp(b, bits) for a, b in zip(got, ref)) <= 1
        # the rule is exact to degree 63; the node rounding moves t^62 by
        # about 62 |t|^61 times half an ulp, summed: a few ulp of 1
        assert abs(mp.fsum(ws) - 2) <= 4 * _ulp(2, bits)
        t62 = mp.fsum(w * x**62 for x, w in zip(xs, ws))
        assert abs(t62 - mp.mpf(2) / 63) <= 4 * _ulp(1, bits)


def test_gauss_legendre_rule_raises_when_newton_misses_its_cap(monkeypatch):
    monkeypatch.setattr(ms, "_GL_CACHE", {})
    monkeypatch.setattr(ms, "_GL_NEWTON_STEPS", 2)
    with working_precision(256):
        with pytest.raises(QuadFailure):
            ms.gauss_legendre_rule()


def _assert_moment_pass(lam, upto, tol, nodes=()):
    from padelab.oracles import moment_pass_errors

    errs = moment_pass_errors(lam, upto, tol, nodes)
    assert len(errs) == upto + 1
    worst = max(range(upto + 1), key=lambda j: errs[j])
    assert errs[worst] <= mp.ldexp(1, -mp.mp.prec), (worst, errs[worst])


@pytest.mark.parametrize("case", _workload_guard_cases(), ids=lambda case: case[0])
def test_power_moments_against_twice_the_precision(case):
    from padelab.cli import ProblemConfig

    _, bits, raw = case
    with working_precision(bits):
        config = ProblemConfig(dict(raw))
        _assert_moment_pass(config.build_measure(), 79, config.quad_tol())


def test_power_moments_scale_each_panel():
    # the components' weights differ by ~30 orders and their nodes by ~3:
    # one weight grid for both would leave the [1, 2] terms short of bits
    from padelab.oracles import two_scale_measure

    for bits in (256, 384):
        with working_precision(bits):
            _assert_moment_pass(two_scale_measure(), 79, NEAR_TOL)


def test_generalized_moments_against_twice_the_precision():
    from padelab import scheme as sch

    with working_precision(256):
        lam = ComplexMeasure([
            MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
            MeasureComponent(("2", "3"), "(1+i)*exp(i*t)"),
        ])
        circle, _ = sch.CircleScheme("0.5+0.75i", "4").nodes(6)
        # a node 1e-3 above the support, next to the endpoint 1, and a repeat
        explicit = [mp.mpc("1.0001", "0.001"), mp.mpc(5), mp.mpc(5), mp.mpc("-2", "-1")]
        # 4-fold nodes 1e-3 from both ends: |v| exceeds the product of the
        # distances by ~2^80 on every panel, so |v| must be scaled per panel
        ends = [mp.mpc("1.0001", "0.001")] * 4 + [mp.mpc("-1.0001", "0.001")] * 4
        for nodes in (circle, explicit, ends):
            _assert_moment_pass(lam, 2 * len(nodes) - 1, NEAR_TOL, nodes)
            _assert_moment_pass(arcsine_measure(), 2 * len(nodes) - 1, NEAR_TOL, nodes)


def test_moment_passes_repeat_bit_for_bit():
    lam = arcsine_measure()
    nodes = [mp.mpc("1.0001", "0.001"), mp.mpc(0, 2)]
    first = lam.compiled().moments(9, NEAR_TOL, nodes)
    assert lam.compiled().moments(9, NEAR_TOL, nodes) == first
    assert lam.compiled().moments(9, NEAR_TOL) == lam.compiled().moments(9, NEAR_TOL)


# ---------------------------------------------------------------------------
# closed-form transforms of Chebyshev-series components
# ---------------------------------------------------------------------------


def _odd_arcsine():
    return ComplexMeasure([MeasureComponent(("-1", "1"), "t/pi", endpoint_singular=True)],
                          waive_floor=True)


def _odd_arcsine_exact(z, r):
    """r-th derivative of z F(z) - 1, F the arcsine transform: the transform
    of the density t on the arcsine measure."""
    A = arcsine_transform_exact(z)
    derivs = [A, -z * A**3, (2 * z * z + 1) * A**5]
    return z * derivs[r] + r * derivs[r - 1] - (r == 0)


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_series_transform_derivatives_near_support(bits):
    # closed form at any distance: every value within 2^(20 - prec) relative,
    # where the compiled node set gave r = 1, 2 only to 1e-9
    R = RationalPart.empty()
    arcsine_exact = [arcsine_transform_exact, arcsine_transform_derivative_exact,
                     _arcsine_second_derivative_exact]
    with working_precision(bits):
        arcsine, odd = arcsine_measure(), _odd_arcsine()
        assert [len(s.coeffs) for s in arcsine.series() + odd.series()] == [1, 2]
        bound = mp.ldexp(1, 20 - bits)
        for z in near_support_points("0.3", 1, ["1e-20", "1e-30"]):
            for r in range(3):
                for lam, exact in ((arcsine, arcsine_exact[r](z)), (odd, _odd_arcsine_exact(z, r))):
                    got = ms.eval_F_derivative(lam, R, z, r, NEAR_TOL)
                    assert abs(got - exact) <= bound * abs(exact), (r, z)
                    if r == 0:
                        assert cauchy_transform(lam, z, NEAR_TOL) == got
        # nothing was compiled: the transforms ran no quadrature
        assert not arcsine._compiled and not odd._compiled


def test_series_and_compiled_components_add():
    # arcsine plus Lebesgue [2, 3]: the closed form of the one and the
    # compiled node set of the other, which alone is compiled
    lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
                          MeasureComponent(("2", "3"), "1")])
    assert lam.series()[1] is None
    R = RationalPart.empty()
    for z in (mp.mpc("0.3", "1e-30"), mp.mpc(1, "1e-20"), mp.mpc("2.5", "0.25"), mp.mpc(-4, 3)):
        lebesgue = mp.log((z - 2) / (z - 3))
        exact = arcsine_transform_exact(z) + lebesgue
        assert abs(cauchy_transform(lam, z, NEAR_TOL) - exact) < NEAR_TOL * abs(exact), z
        d1 = arcsine_transform_derivative_exact(z) + 1 / (z - 2) - 1 / (z - 3)
        assert abs(ms.eval_F_derivative(lam, R, z, 1, NEAR_TOL) - d1) < mp.mpf("1e-35") * abs(d1)
    # the power moments likewise: the series' closed form plus the compiled
    # moments of [2, 3], against the central binomials plus the Lebesgue ones
    got = ms.measure_moments(lam, 20, NEAR_TOL)
    compiled = lam.compiled()
    parts = zip(compiled.restricted([1]).moments(20, NEAR_TOL), lam.series()[0].moments(20))
    assert got == [a + b for a, b in parts]
    exact = arcsine_moments_exact(20)
    for j, m in enumerate(got):
        want = exact[j] + mp.mpf(3 ** (j + 1) - 2 ** (j + 1)) / (j + 1)
        assert abs(m - want) < NEAR_TOL * abs(want), j
    assert compiled._parts[0] is None
    assert compiled.restricted([1]).components[0] is compiled.components[1]
    with pytest.raises(PointOnSupport):
        cauchy_transform(lam, mp.mpf("0.5"), NEAR_TOL)
    with pytest.raises(PointOnSupport):
        cauchy_transform(lam, mp.mpf("2.5"), NEAR_TOL)


def _pole_density_exact(z, a):
    """Transform of 1/(t - a) on the arcsine measure times pi:
    pi (A(z) - A(a)) / (z - a), A(z) = 1/sqrt(z^2 - 1)."""
    return mp.pi * (arcsine_transform_exact(z) - arcsine_transform_exact(a)) / (z - a)


def test_series_that_does_not_chop_stays_compiled():
    # a pole 1/100 beyond the endpoint: about 1200 coefficients at 256 bits
    a = mp.mpf(101) / 100
    lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/(t-101/100)", endpoint_singular=True)])
    assert lam.series() == [None]
    for z in (mp.mpc(2), mp.mpc("0.3", "0.1"), mp.mpc(-2, 1), mp.mpc("1.5", "-0.5")):
        exact = _pole_density_exact(z, a)
        assert abs(cauchy_transform(lam, z, NEAR_TOL) - exact) < mp.mpf("1e-35") * abs(exact), z
    # its power moments are the compiled ones, bit for bit
    got = moments(lam, RationalPart.empty(), 20, NEAR_TOL)
    assert got == lam.compiled().moments(20, NEAR_TOL)
    assert ms.measure_moments(lam, 20, NEAR_TOL) == got


def _best_of_three(build):
    import time

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - t0)
    return best


def test_series_build_cost():
    # the arcsine series chops to one coefficient at the first length; a
    # density that does not chop is turned away by its float64 coefficients
    with working_precision(256):
        assert len(arcsine_measure().series()[0].coeffs) <= 2
        assert _best_of_three(lambda: arcsine_measure().series()) < 0.005
        pole = MeasureComponent(("-1", "1"), "1/(t-101/100)", endpoint_singular=True)
        assert chebyshev._series_length(pole) is None
        assert _best_of_three(lambda: ComplexMeasure([pole]).series()) < 0.02


def test_series_matches_compiled_for_an_entire_density():
    # exp(t)/pi chops to some 50 coefficients; far from the support the
    # compiled node set agrees to its tolerance
    for bits in (256, 384):
        with working_precision(bits):
            lam = ComplexMeasure([MeasureComponent(("-1/2", "3/2"), "exp(t)/pi",
                                                   endpoint_singular=True)])
            coeffs = lam.series()[0].coeffs
            assert 16 < len(coeffs) <= chebyshev._SERIES_CAP
            for z in (mp.mpc(3), mp.mpc("0.5", 1), mp.mpc(-2, "-0.5")):
                compiled = -lam.compiled().moments(0, NEAR_TOL, [z])[0]
                assert abs(cauchy_transform(lam, z, NEAR_TOL) - compiled) < NEAR_TOL * abs(compiled)


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_series_power_moments_arcsine(bits):
    # the one-term series 1/pi: every moment within 2^(8 - prec) of the
    # central binomials, and no node set compiled for them; 0..48, so that
    # the last moment is one that does not vanish
    with working_precision(bits):
        lam = arcsine_measure()
        got = ms.measure_moments(lam, 48)
        exact = arcsine_moments_exact(48)
        assert max(abs(a - b) for a, b in zip(got, exact)) <= mp.ldexp(1, 8 - bits)
        assert moments(lam, RationalPart.empty(), 48) == got
        assert not lam._compiled


@pytest.mark.parametrize("bits", [256, 384])
def test_series_power_moments_shifted_component(bits):
    # exp(t) on [2/5, 1/2]: c = 9/20 and h = 1/20 over the denominator 20, and
    # tens of coefficients; the compiled node set at tol 2^-prec agrees to
    # 2^(8 - prec) relative
    with working_precision(bits):
        lam = ComplexMeasure([MeasureComponent(("2/5", "1/2"), "exp(t)",
                                               endpoint_singular=True)])
        assert len(lam.series()[0].coeffs) > 16
        got = ms.measure_moments(lam, 47)
        compiled = lam.compiled().moments(47, mp.ldexp(1, -bits))
        for a, b in zip(got, compiled):
            assert abs(a - b) <= mp.ldexp(1, 8 - bits) * abs(b)


def test_lebesgue_kernel_below_the_resolution_floor_fails_fast():
    # 60 eps above [0, 4]: no panel down to the bisection floor resolves the
    # kernel, so the guard raises before bisecting; 1e-30 above still solves
    import time

    with working_precision(256):
        lam = ComplexMeasure([MeasureComponent(("0", "4"), "1")])
        z = mp.mpc(3, 60 * mp.eps)
        t0 = time.perf_counter()
        with pytest.raises(QuadFailure):
            cauchy_transform(lam, z, NEAR_TOL)
        assert time.perf_counter() - t0 < 0.1
        z = mp.mpc(3, "1e-30")
        exact = mp.log(z / (z - 4))
        assert abs(cauchy_transform(lam, z, NEAR_TOL) - exact) < mp.mpf("1e-35") * abs(exact)


# ---------------------------------------------------------------------------
# 1/v-weighted moments of Chebyshev-series components, from residues
# ---------------------------------------------------------------------------


def _assert_residue_moments(lam, nodes, upto=None):
    """measure_moments over ``nodes`` against the compiled node set at tol
    2^-(prec + 40), within 2^(8 - prec) of the largest moment."""
    from padelab.algebra import to_mpc

    nodes = [to_mpc(z) for z in nodes]
    upto = 2 * len(nodes) - 1 if upto is None else upto
    tight = mp.ldexp(1, -(mp.mp.prec + 40))
    got = ms.measure_moments(lam, upto, tight, nodes)
    ref = lam.compiled().moments(upto, tight, nodes)
    bound = mp.ldexp(max(abs(c) for c in ref), 8 - mp.mp.prec)
    worst = max(range(upto + 1), key=lambda m: abs(got[m] - ref[m]))
    assert abs(got[worst] - ref[worst]) <= bound, (worst, got[worst] - ref[worst], bound)


RESIDUE_BITS = [256, 384, 512]


@pytest.mark.parametrize("bits", RESIDUE_BITS)
@pytest.mark.parametrize("n", [3, 9, 12])
def test_residue_moments_circle_nodes(bits, n):
    from padelab import scheme as sch

    with working_precision(bits):
        _assert_residue_moments(arcsine_measure(), sch.CircleScheme("0", "3").nodes(n)[0])


@pytest.mark.parametrize("bits", RESIDUE_BITS)
def test_residue_moments_double_and_triple_nodes(bits):
    # 6 nodes for n = 4: the moments up to 2n - 1 = 7 reach past deg v = 6,
    # where the quotient of t^m by v adds its power-moment integral
    from padelab import scheme as sch

    with working_precision(bits):
        nodes = sch.ExplicitScheme({4: ["3", "3", "-2i", "1/2+i", "1/2+i", "1/2+i"]}).nodes(4)[0]
        _assert_residue_moments(arcsine_measure(), nodes)


@pytest.mark.parametrize("bits", RESIDUE_BITS)
def test_residue_moments_fewer_than_2n_nodes(bits):
    from padelab import scheme as sch

    with working_precision(bits):
        nodes, at_infinity = sch.ExplicitScheme({5: ["3", "2i", "-1-i"]}).nodes(5)
        assert at_infinity == 7
        _assert_residue_moments(arcsine_measure(), nodes, 9)


@pytest.mark.parametrize("bits", RESIDUE_BITS)
def test_residue_moments_nodes_next_to_the_support(bits):
    with working_precision(bits):
        # 1e-3 above the interior and right of an endpoint, one at a time:
        # the compiled reference for both at once, or to t^3, takes 30 s at 512 bits
        for node in ("0.3+0.001i", "1.001"):
            _assert_residue_moments(arcsine_measure(), [node])


@pytest.mark.parametrize("bits", RESIDUE_BITS)
def test_residue_moments_node_cluster(bits):
    # four nodes 1e-6 wide: the residues cancel by some 60 bits more than the
    # far nodes' would, and the sum's own error bound sends it round again
    with working_precision(bits):
        cluster = [f"{mp.mpf('0.5') + k * mp.mpf('1e-6') / 3}+0.5i" for k in range(4)]
        _assert_residue_moments(arcsine_measure(), cluster + ["3"])


@pytest.mark.parametrize("bits", RESIDUE_BITS)
def test_residue_moments_with_a_compiled_component(bits):
    # arcsine plus Lebesgue [2, 3]: residues on the one, the compiled node set
    # restricted to the other
    with working_precision(bits):
        lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
                              MeasureComponent(("2", "3"), "1")])
        nodes = [mp.mpc(0, 3), mp.mpc(-2), mp.mpc("2.5", "0.5")]
        ms.measure_moments(lam, 5, None, nodes)
        assert lam.compiled()._parts[0] is None
        _assert_residue_moments(lam, nodes)


def _count_residue_passes(monkeypatch):
    """The guard bits of every pass of the residue sum, in order."""
    calls, real = [], chebyshev.residue_moments

    def counting(part, upto, nodes, guard=chebyshev._GUARD_BITS):
        calls.append(guard)
        return real(part, upto, nodes, guard)

    monkeypatch.setattr(chebyshev, "residue_moments", counting)
    return calls


@pytest.mark.parametrize("bits", [256, 512])
def test_residue_moments_rerun_when_the_residues_cancel(bits, monkeypatch):
    # four nodes 1e-9 apart: the residues cancel by some 90 bits, more than
    # the 64 guard bits hold, so the sum's own floor bound sends it round
    # once more, with the bits it found missing
    lam = arcsine_measure()
    with working_precision(bits):
        nodes = [mp.mpc(mp.mpf("0.5") + k * mp.mpf("1e-9"), "0.5") for k in range(4)]
        nodes.append(mp.mpc(3))
        calls = _count_residue_passes(monkeypatch)
        got = ms.measure_moments(lam, 9, None, nodes)
        assert len(calls) == 2 and calls[1] > calls[0]
        with working_precision(2 * bits):
            ref = ms.measure_moments(lam, 9, None, nodes)
        bound = mp.ldexp(max(abs(c) for c in ref), 8 - bits)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= bound


def test_residue_moments_on_the_circle_take_one_pass(monkeypatch):
    from padelab import scheme as sch

    with working_precision(256):
        calls = _count_residue_passes(monkeypatch)
        ms.measure_moments(arcsine_measure(), 17, None, sch.CircleScheme("0", "3").nodes(9)[0])
        assert calls == [chebyshev._GUARD_BITS]


def test_residue_moments_reject_a_node_on_the_support():
    with pytest.raises(PointOnSupport):
        ms.measure_moments(arcsine_measure(), 3, None, [mp.mpc(3), mp.mpc("0.5")])
