import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from padelab import chebyshev, density as dn, measure as ms
from padelab.algebra import fraction_to_mpf, support_distance, to_mpc, working_precision
from padelab.errors import (
    PointAtPole,
    PointOnSupport,
    PoleOnNode,
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


def _mp_value(x):
    return mp.make_mpc(x) if len(x) == 2 else mp.make_mpf(x)


def _raw(x):
    return getattr(x, "_mpc_", None) or x._mpf_


def _reference_accepted_panels(f, a, b, tol):
    """``measure._accepted_panels`` in mpf/mpc arithmetic, as it was, for an
    integrand f on mpmath numbers: the list of what it yields."""
    xs, ws = ms.gauss_legendre_rule()

    def values(pa, pb):
        h, m = (pb - pa) / 2, (pa + pb) / 2
        return [f(m + h * x) for x in xs]

    def total(vals, pa, pb):
        acc = mp.mpc(0)
        for w, v in zip(ws, vals):
            acc += w * v
        return (pb - pa) / 2 * acc

    whole_vals = values(a, b)
    acc_abs = mp.mpf(0)
    for w, v in zip(ws, whole_vals):
        acc_abs += w * abs(v)
    scale = max(abs((b - a) / 2) * acc_abs, mp.mpf(2) ** (-mp.mp.prec))
    out, stack = [], [(a, b, total(whole_vals, a, b))]
    while stack:
        pa, pb, pval = stack.pop()
        pm = (pa + pb) / 2
        left_vals, right_vals = values(pa, pm), values(pm, pb)
        left, right = total(left_vals, pa, pm), total(right_vals, pm, pb)
        if abs(pval - left - right) <= tol * scale * (pb - pa) / (b - a):
            out.append((pa, pm, pb, left_vals, right_vals, left + right))
        else:
            stack += [(pm, pb, right), (pa, pm, left)]
    return out


def _assert_panels_are_the_reference(got, f, a, b, tol):
    """The raw yields of ``_accepted_panels(f, a, b, tol)`` are those of the
    reference, bit for bit; f, a, b and tol are raw."""
    want = _reference_accepted_panels(lambda u: _mp_value(f(u._mpf_)),
                                      *map(mp.make_mpf, (a, b, tol)))
    assert [(pa, pm, pb, left, right, value) for pa, pm, pb, left, right, value in got] == [
        (pa._mpf_, pm._mpf_, pb._mpf_, [_raw(v) for v in left], [_raw(v) for v in right],
         value._mpc_) for pa, pm, pb, left, right, value in want]


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_quad_integrate_is_the_mpc_reference_bit_for_bit(bits):
    integrands = [
        (lambda t: 2 / (t * t + 4), ("2/5", "1/2")),  # real values
        (lambda t: t, ("-1", "1")),
        (lambda t: mp.exp(1j * t) / (t - 3), ("-1", "2")),
        (lambda t: t if t < 0 else mp.mpc(t, t * t), ("-1", "1/2")),  # real, then complex
        (lambda t: 1 / (t - mp.mpf(1) / 3), ("2", "1")),  # a reversed interval
    ]
    with working_precision(bits):
        tol = mp.mpf(2) ** (-bits // 2)
        for f, (a, b) in integrands:
            a, b = ms.to_mpf(a), ms.to_mpf(b)
            want = mp.mpc(0)
            for *_, value in _reference_accepted_panels(f, a, b, tol):
                want += value
            assert quad_integrate(f, (a, b), tol)._mpc_ == want._mpc_
            raw_f = lambda u, f=f: _raw(mp.mpmathify(f(mp.make_mpf(u))))
            got = list(ms._accepted_panels(raw_f, a._mpf_, b._mpf_, tol._mpf_))
            _assert_panels_are_the_reference(got, raw_f, a._mpf_, b._mpf_, tol._mpf_)


def _reference_weights(comp, panel):
    """The raw nodes and weights of ``_CompiledComponent.weigh`` in mpf/mpc
    arithmetic, as it was: t_k = t(mid + half x_k), W_k = w_k * half * rho(t_k)."""
    xs, gl_ws = ms.gauss_legendre_rule()
    ts = [panel.mid + panel.half * x for x in xs]
    if comp.theta:
        ts = [comp.c + comp.r * mp.cos(u) for u in ts]
    ws = [w * panel.half * _reference_density(comp.comp.density, t) for w, t in zip(gl_ws, ts)]
    return [t._mpf_ for t in ts], [w._mpc_ for w in ws]


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_compiled_panels_and_weights_are_the_reference_bit_for_bit(bits):
    comps = [MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
             MeasureComponent(("2", "3"), "exp(i*t)*(t-2)", endpoint_singular=True),
             MeasureComponent(("-6/7", "-1/8"), "7*exp(i*t)")]
    with working_precision(bits):
        tol = ms.algebra.drop_tolerance()
        for comp in comps:
            compiled = ms._CompiledComponent(comp, tol)
            lo, hi = (mp.mpf(0), +mp.pi) if compiled.theta else (comp.a, comp.b)
            t_of = (lambda u: compiled.c + compiled.r * mp.cos(u)) if compiled.theta else (
                lambda u: u)
            want = _reference_accepted_panels(
                lambda u: _reference_density(comp.density, t_of(u)), lo, hi, tol)
            assert [(p.lo, p.hi) for p in compiled.base] == [
                ends for pa, pm, pb, *_ in want for ends in ((pa, pm), (pm, pb))]
            # the base panels and the leaves of a kernel singular near the support
            leaves = list(compiled.leaves([comp.b + mp.mpc("0.01", "0.001")], bits + 64, 0,
                                          -bits * math.log(2)))
            for panel in compiled.base + [compiled.weigh(p) for p in leaves]:
                assert (panel.ts, panel.ws) == _reference_weights(compiled, panel)


def test_workload_panels_and_weights_are_the_reference_bit_for_bit(workload_samples):
    for bits, args, got in workload_samples["panels"]:
        with working_precision(bits):
            _assert_panels_are_the_reference(got, *args)
    for bits, (comp, *_), panel in workload_samples["weigh"]:
        with working_precision(bits):
            assert (panel.ts, panel.ws) == _reference_weights(comp, panel)
    # paper_section4's three components, built by run and again by check;
    # the other workloads' components are Chebyshev series
    assert len(workload_samples["panels"]) == 6
    assert len(workload_samples["weigh"]) > 100


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


def test_an_empty_part_adds_one_shared_exact_zero():
    R = RationalPart.empty()
    for r in (0, 1, 3):
        zero = R.transform(mp.mpc(2, 1), r)
        assert zero == 0 and R.transform(mp.mpc("-1/2", 3), r) is zero


def test_moments_pure_rational_geometric():
    R = RationalPart([("1", 1, ["1"])])
    moms = moments(ComplexMeasure([]), R, 5)
    assert all(abs(c - 1) < mp.mpf("1e-70") for c in moms)


POWER_POLES = {
    "generic": "-3/7+4i/7",
    "real-axis": "-3/2",
    "imaginary-axis": "6i/7",
    "inside-unit-circle": "1/5-2i/7",
    "outside-unit-circle": "-5/2+7i/3",
    # 3/4 has a two-bit mantissa far above 5/9's exponent: at 256 bits mpmath
    # leaves its exact branch for exp-log from j = 20
    "short-mantissa": "5/9+3i/4",
}


@pytest.mark.parametrize("bits", [128, 256, 384, 512])
@pytest.mark.parametrize("pole", POWER_POLES.values(), ids=POWER_POLES.keys())
def test_running_powers_are_mpmath_powers_bit_for_bit(pole, bits):
    # a pole made at the working precision, and one made at 256 bits and
    # raised at another, as after escalation
    with working_precision(256):
        made = to_mpc(pole)
    with working_precision(bits):
        for eta in (to_mpc(pole), made):
            want = [(eta**j)._mpc_ for j in range(81)]
            for upto in (0, 1, 2, 3, 80):
                assert [x._mpc_ for x in ms._running_powers(eta, upto)] == want[: upto + 1]


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


# ---------------------------------------------------------------------------
# the density floor: a float64 screen, then the working precision
# ---------------------------------------------------------------------------


def _working_precision_rule(comps, floor=ms.DENSITY_FLOOR, waive=False):
    """The density check of a new measure as it was made before the float64
    screen, every validation sample at the working precision: the message
    of the ValueError it raises, or the least magnitude."""
    lo = mp.inf
    for comp in comps:
        for t in comp.sample_points(ms._VALIDATION_SAMPLES):
            v = comp.density(t)
            if not (mp.isfinite(v.real) and mp.isfinite(v.imag)):
                return f"density {comp.density.source!r} not finite at t={mp.nstr(t, 8)}"
            lo = min(lo, abs(v))
    if not waive and lo < mp.mpf(floor):
        return (f"sampled density magnitude {mp.nstr(lo, 6)} below floor "
                f"{mp.nstr(mp.mpf(floor), 6)} (set waive_floor to accept)")
    return lo


def _assert_screen_is_the_rule(comps, floor=ms.DENSITY_FLOOR, waive=False):
    want = _working_precision_rule(comps, floor, waive)
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            ComplexMeasure(comps, density_floor=floor, waive_floor=waive)
        assert str(exc.value) == want
    else:
        lam = ComplexMeasure(comps, density_floor=floor, waive_floor=waive)
        assert lam.floor_observed._mpf_ == want._mpf_
    return want


# 1/2 + 2^-61 and 2^61: float64 rounds the first to 1/2
_JUST_ABOVE_HALF, _TWO_61 = "1152921504606846977/2305843009213693952", "2305843009213693952"
_SECTION4 = [(("-6/7", "-1/8"), "7*exp(i*t)"), (("2/5", "1/2"), "-(3+i)*(t-3/5)/(t-2*i)"),
             (("2/3", "7/8"), "(2-4*i)*log(t)")]


@pytest.mark.parametrize("waive", [False, True], ids=["floor", "waived"])
@pytest.mark.parametrize("interval, density", [
    # 2.2e-78 at the sample 1/63
    (("-1", "1"), "t-1/63"),
    # overflows float64 from t = 0.89
    (("0", "1"), "exp(800*t)"),
    # a zero 1e-20 off the sample 1/2
    (("0", "63/32"), "t-1/2-1/10^20"),
    # zeros at the sample 1/2 + 2^-61, which float64 reads as 1/2: there
    # float64 takes a log of -2^-61, and reads 2^-21 for the product
    ((_JUST_ABOVE_HALF, "1"), f"log(t-1/2-1/{_TWO_61})"),
    ((_JUST_ABOVE_HALF, "1"), f"(t-1/2-1/{_TWO_61})*2^40"),
    # a log on its branch cut, and across it in the exponent
    (("1", "2"), "log(-t)"),
    (("1", "2"), "exp(2*i*log(-t))"),
    # a pole at the sample 1/2, and a power of a tiny value
    (("0", "63/32"), "1/(t-1/2)"),
    (("0", "1"), "(t/10^100)^3"),
    *_SECTION4,
])
def test_density_screen_decides_as_the_working_precision(interval, density, waive):
    if density == "1/(t-1/2)":
        # the rule raised ZeroDivisionError at the pole; so does the screen
        with pytest.raises(ZeroDivisionError):
            _working_precision_rule([MeasureComponent(interval, density)])
        with pytest.raises(ZeroDivisionError):
            ComplexMeasure([MeasureComponent(interval, density)], waive_floor=waive)
        return
    want = _assert_screen_is_the_rule([MeasureComponent(interval, density)], waive=waive)
    if density == "t-1/63":
        assert want if isinstance(want, str) else want < mp.mpf("1e-70")
        assert waive or "2.15904e-78 below floor" in want


def test_density_screen_defers_a_log_on_its_branch_cut():
    # at the sample 1/2 + 2^-61 the log reads -1 exactly, and float64 reads
    # -1 - 2^-61 i, across the cut: e^(-2 pi) = 0.0019 against e^(2 pi) = 535
    comp = MeasureComponent((_JUST_ABOVE_HALF, "1"),
                            f"exp(2*i*log(-1+i*(t-1/2-1/{_TWO_61})))")
    assert "0.00186744 below floor" in _assert_screen_is_the_rule([comp], floor="1e-2")


def test_density_screen_decides_as_the_working_precision_on_random_densities():
    import random

    rng = random.Random(3101)
    atoms = ["t", "i", "pi", "2", "1/3", "3/7", "(t-1/2)", "(t+i)", "(1-t)", "0.001"]

    def expr(depth):
        if not depth:
            return rng.choice(atoms)
        op = rng.choice(["+", "-", "*", "/", "exp", "log", "^"])
        if op == "^":
            return f"({expr(depth - 1)})^{rng.choice([-3, -1, 0, 2, 5])}"
        if op in ("exp", "log"):
            return f"{op}({expr(depth - 1)})"
        return f"({expr(depth - 1)}{op}{expr(depth - 1)})"

    intervals = [("-1", "1"), ("1/3", "1/2"), ("-3", "-1"), ("0", "63/32")]
    decided = 0
    for _ in range(60):
        comps = [MeasureComponent(rng.choice(intervals), expr(rng.randint(1, 3)))]
        floor = rng.choice(["1e-12", "1e-3"])
        try:
            _working_precision_rule(comps, floor)
        except ZeroDivisionError:
            continue
        decided += 1
        for waive in (False, True):
            _assert_screen_is_the_rule(comps, floor, waive)
    assert decided >= 50


def test_screen_evaluates_no_section4_density_at_the_working_precision(monkeypatch):
    comps = [MeasureComponent(*c) for c in _SECTION4]
    calls = _count_density_evals(monkeypatch)
    lam = ComplexMeasure(comps)
    assert calls == [0]
    # the observed floor is evaluated once, on first read, at the precision
    # the measure was built at, and only where the screen's enclosures leave
    # room for the least magnitude: one sample of the 192
    with working_precision(512):
        observed = lam.floor_observed
    assert [sum(map(len, dn.least_candidates(lam._enclosures)))] == calls == [1]
    assert lam.floor_observed is observed
    assert calls == [1]
    monkeypatch.undo()
    assert observed._mpf_ == _working_precision_rule(comps)._mpf_


def _reference_density(expr, t):
    """``DensityExpr.__call__`` in mpf/mpc arithmetic, as it was, on the
    unfolded parse tree: mpmath's operators, ``mp.exp`` and ``mp.log``."""
    tree, literals, _ = dn._parse_density(expr.source)
    values = {"i": mp.mpc(0, 1), "j": mp.mpc(0, 1), "pi": mp.pi, "e": mp.e}
    values.update(enumerate(fraction_to_mpf(q) for q in literals))
    return mp.mpc(dn._evaluate(tree, t, values, {"exp": mp.exp, "log": mp.log}))


def _random_density(rng, depth):
    atoms = ["t", "i", "pi", "e", "2", "1/3", "3/7", "(t-1/2)", "(t+i)", "(1-t)", "0.001",
             "(-t)", "(t-3)"]
    if not depth:
        return rng.choice(atoms)
    op = rng.choice(["+", "-", "*", "/", "exp", "log", "^", "neg"])
    if op == "^":
        return f"({_random_density(rng, depth - 1)})^{rng.choice([-3, -1, 0, 1, 2, 5])}"
    if op in ("exp", "log"):
        return f"{op}({_random_density(rng, depth - 1)})"
    if op == "neg":
        return f"-({_random_density(rng, depth - 1)})"
    return f"({_random_density(rng, depth - 1)}{op}{_random_density(rng, depth - 1)})"


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_density_is_the_mpc_reference_bit_for_bit(bits):
    import random

    rng = random.Random(3201)
    sources = [_random_density(rng, rng.randint(1, 4)) for _ in range(120)] + [
        # a pole at t = 1/2, logs of negative reals, negative powers, bare values
        "1/(t-1/2)", "log(-t)", "log(t-3)", "(t-1/2)^-3", "(t+i)^-2*log(t)", "t", "-t", "pi",
        "i", "t^1", "exp(-t)^-2",
        # a real operand on the left of each operator, with t on the right
        "(2+t)^2", "(2+t)-t", "(1/3-t)*(t+i)", "(2*t)*(3/7+t)", "(3/(t+i))*t", "pi/(t+e)",
    ]
    with working_precision(2 * bits):
        # t with more bits than the working precision
        ts = [mp.mpf(1) / 3, mp.mpc(2, 1) / 7]
    ts += [mp.mpf(k) / 8 - 1 for k in range(17)] + [mp.mpc("0.3", "-0.2")]
    raised = complex_log = 0
    with working_precision(bits):
        for src in sources:
            expr = DensityExpr(src)
            for t in ts:
                try:
                    want = _reference_density(expr, t)
                except ZeroDivisionError:
                    raised += 1
                    with pytest.raises(ZeroDivisionError):
                        expr(t)
                    continue
                assert expr(t)._mpc_ == want._mpc_, (src, t)
                complex_log += src == "log(-t)" and t.imag == 0 and t > 0
    assert raised >= 20 and complex_log >= 8


def test_workload_densities_are_the_mpc_reference_bit_for_bit(workload_samples):
    calls = workload_samples["density"]
    for bits, (expr, t), got in calls:
        with working_precision(bits):
            assert got._mpc_ == _reference_density(expr, t)._mpc_, (expr, t)
    assert len(calls) > 1000


def _reference_floor_observed(lam):
    """``ComplexMeasure.floor_observed`` as it was: the least |density| over
    every validation sample, at the precision the measure was built at."""
    with working_precision(lam._built_prec):
        return min(abs(_reference_density(comp.density, t)) for comp in lam.components
                   for t in comp.sample_points(ms._VALIDATION_SAMPLES))


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_floor_observed_is_the_reference_bit_for_bit(bits):
    cases = [[MeasureComponent(("-1", "1"), "t-1/63")], [MeasureComponent(("0", "1"), "exp(800*t)")],
             [MeasureComponent(("-1", "1"), "1/pi")], [MeasureComponent(*c) for c in _SECTION4],
             *([MeasureComponent(*c)] for c in _SECTION4),
             # float64 reads 1 at every sample; the least, 1, is at the sample 1/2
             [MeasureComponent(("0", "63/32"), "1+(t-1/2)^2/10^20")],
             # float64 reads its least at the sample 59/63, of an error it
             # bounds by about 2e3; the least is at 19/63
             [MeasureComponent(("0", "1"), "2+((t+10^6)-10^6-t)*10^10+(t-0.3)^2/1000")]]
    with working_precision(bits):
        measures = [ComplexMeasure(comps, waive_floor=True) for comps in cases]
    for lam in measures:
        assert lam.floor_observed._mpf_ == _reference_floor_observed(lam)._mpf_
    # about 2^-bits at the sample 1/63; exp(800 t) overflows float64 from
    # t = 56/63, and those samples are evaluated beside the least, at t = 0
    assert measures[0].floor_observed < mp.mpf(2) ** (8 - bits)
    assert dn.least_candidates(measures[1]._enclosures) == [[0, *range(56, 64)]]
    assert measures[-2].floor_observed == 1


def test_workload_floors_are_the_reference_bit_for_bit(workload_samples):
    calls = workload_samples["floor_observed"]
    for _, (lam,), got in calls:
        assert got._mpf_ == _reference_floor_observed(lam)._mpf_
    # read by each run's report, not by check
    assert len(calls) == 4


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_folded_density_is_the_unfolded_tree_bit_for_bit(bits):
    sources = [src for _, src in _SECTION4] + [
        "1/pi", "(1/7)^3*t^2 - exp(-(1/3))*t", "exp(2*i*pi/3)*log(t+2)/(t-(1+i)^-2)",
        "-(2-i)", "t*e*(3/5)+ln(2)*(t-1/2)^2",
    ]
    ts = [mp.mpf(k) / 7 - mp.mpf(1) / 3 for k in range(1, 6)]
    arr = np.linspace(-0.4, 0.9, 11)
    with working_precision(bits):
        for src in sources:
            expr = DensityExpr(src)
            tree, literals, _ = dn._parse_density(src)
            for t in ts:
                assert expr(t)._mpc_ == _reference_density(expr, t)._mpc_, (src, t)
            f64 = dict(dn._F64_CONSTANTS)
            f64.update(enumerate(dn._float64(q) for q in literals))
            want = dn._evaluate(tree, arr.astype(np.complex128), f64, dn._F64_FUNCTIONS)
            assert np.array_equal(expr.f64(arr), np.broadcast_to(want, arr.shape)), src
    # every source but 7*exp(i*t) has a subexpression that does not read t
    assert [src for src in sources if not DensityExpr(src)._folded] == ["7*exp(i*t)"]


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


def _transform_with_every_step(lam, R, z, r, tol):
    """The r-th derivative of F at z from the parts of F in their order,
    with every step: the node-set moment with z as an (r+1)-fold node (0
    when every component has a series), then each series' jet and R's jet
    (0 when R has no pole), each times r!."""
    z = mp.mpc(z)
    parts = lam.parts()
    scale = mp.factorial(r)
    compiled = [part for part in parts if isinstance(part, ms.CompiledMeasure)]
    moment = compiled[0].moments(0, tol, [z] * (r + 1))[0] if compiled else mp.mpc(0)
    value = -scale * moment
    for part in (*parts[len(compiled):], R):
        value += part.taylor(z, r)[r] * scale
    return value


def _section4_problem():
    from padelab.cli import load_config

    config = load_config("paper_section4")
    return config.build_measure(), config.build_rational(), config.quad_tol()


@pytest.mark.parametrize("problem", ["markov", "multipoint", "section4", "mixed"])
def test_transform_without_no_op_steps_is_bit_for_bit(arcsine, problem):
    # the steps eval_F skips add 0 or multiply by 0! = 1, so every value is
    # the one the full formula gives
    ring = [mp.expjpi(2 * mp.mpf(k) / 8) for k in range(8)]
    lam, R, tol = arcsine, RationalPart.empty(), TOL
    points = [2 * w for w in ring] + [mp.mpc("1.75", "0.5"), mp.mpc("-0.25", "0.75")]
    if problem == "multipoint":
        # the points where a multipoint run reads F: its error circle and grid
        points = [mp.mpf("2.01") * w for w in ring] + [mp.mpc("-2.5", "-1.25")]
    elif problem == "section4":
        lam, R, tol = _section4_problem()
        points = ring[::2] + [mp.mpc("1.2", "0.4")]
    elif problem == "mixed":
        # a series beside a compiled component, and R
        lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/pi", True),
                              MeasureComponent(("2", "3"), "t")])
        R = RationalPart([("4i", 1, ["1"])])
        points = [mp.mpc("0.5", "0.5"), mp.mpc("2.5", "-1")]
    for r in (0, 2):
        for z in points:
            want = _transform_with_every_step(lam, R, z, r, tol)
            assert ms.eval_F_derivative(lam, R, z, r, tol) == want, (r, z)
            if not r:
                assert eval_F(lam, R, z, tol) == want, z


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


def _count_density_evals(monkeypatch):
    """A one-item list holding the number of density evaluations so far."""
    calls, real = [0], ms.DensityExpr.__call__

    def counting(self, t):
        calls[0] += 1
        return real(self, t)

    monkeypatch.setattr(ms.DensityExpr, "__call__", counting)
    return calls


def test_cauchy_kernel_resolution_floor_still_raises(monkeypatch):
    # the compiled node set cannot resolve the kernel 1e-74 above the
    # support, and its walk in theta reaches the bisection floor without
    # evaluating the density; the transform itself is the closed form of
    # the arcsine series
    with working_precision(256):
        arcsine, z = arcsine_measure(), mp.mpc("0.3", "1e-74")
        compiled = arcsine.compiled()
        calls = _count_density_evals(monkeypatch)
        with pytest.raises(QuadFailure):
            compiled.moments(0, NEAR_TOL, [z])
        assert calls == [0]
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
                ts += map(mp.make_mpf, comp.weigh(panel).ts)
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
        assert [len(s.coeffs) for s in arcsine.parts() + odd.parts()] == [1, 2]
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
    node_set, series = lam.parts()
    assert node_set is lam._node_set((1,)) and isinstance(series, chebyshev.ChebyshevSeries)
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
    lebesgue = ComplexMeasure([MeasureComponent(("2", "3"), "1")]).compiled()
    parts = zip(lebesgue.moments(20, NEAR_TOL), series.moments(20))
    assert got == [a + b for a, b in parts]
    exact = arcsine_moments_exact(20)
    for j, m in enumerate(got):
        want = exact[j] + mp.mpf(3 ** (j + 1) - 2 ** (j + 1)) / (j + 1)
        assert abs(m - want) < NEAR_TOL * abs(want), j
    with pytest.raises(PointOnSupport):
        cauchy_transform(lam, mp.mpf("0.5"), NEAR_TOL)
    with pytest.raises(PointOnSupport):
        cauchy_transform(lam, mp.mpf("2.5"), NEAR_TOL)


def test_each_part_raises_for_its_own_singular_set():
    # arcsine on [-1, 1] (a series), Lebesgue on [2, 3] (the compiled node
    # set) and a pole at 4i: each part raises for its own singular set only,
    # and F and the moments raise through whichever part owns the point
    lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
                          MeasureComponent(("2", "3"), "1")])
    R = RationalPart([("4i", 1, ["1"])])
    node_set, series = lam.parts()
    owners = {mp.mpc("0.5"): (series, PointOnSupport), mp.mpc("2.5"): (node_set, PointOnSupport),
              mp.mpc(0, 4): (R, PointAtPole)}
    for z, (owner, error) in owners.items():
        for r in (0, 1):
            with pytest.raises(error):
                ms.eval_F_derivative(lam, R, z, r, NEAR_TOL)
        for part in (node_set, series, R):
            if part is owner:
                with pytest.raises(error):
                    part.transform(z, 0, NEAR_TOL)
            else:
                part.transform(z, 0, NEAR_TOL)
    for node in (mp.mpc("0.5"), mp.mpc("2.5")):
        with pytest.raises(PointOnSupport):
            ms.measure_moments(lam, 3, NEAR_TOL, [mp.mpc(5), node])
    # a node at the pole: R raises PoleOnNode, the measure's parts do not
    assert len(ms.measure_moments(lam, 3, NEAR_TOL, [mp.mpc(0, 4)])) == 4
    with pytest.raises(PoleOnNode):
        R.moments(3, NEAR_TOL, [mp.mpc(5), mp.mpc(0, 4)])


def _pole_density_exact(z, a):
    """Transform of 1/(t - a) on the arcsine measure times pi:
    pi (A(z) - A(a)) / (z - a), A(z) = 1/sqrt(z^2 - 1)."""
    return mp.pi * (arcsine_transform_exact(z) - arcsine_transform_exact(a)) / (z - a)


def test_series_that_does_not_chop_stays_compiled():
    # a pole 1/100 beyond the endpoint: about 1200 coefficients at 256 bits
    a = mp.mpf(101) / 100
    lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/(t-101/100)", endpoint_singular=True)])
    assert lam.parts() == [lam.compiled()]
    for z in (mp.mpc(2), mp.mpc("0.3", "0.1"), mp.mpc(-2, 1), mp.mpc("1.5", "-0.5")):
        exact = _pole_density_exact(z, a)
        assert abs(cauchy_transform(lam, z, NEAR_TOL) - exact) < mp.mpf("1e-35") * abs(exact), z
    # its power moments are the compiled ones, bit for bit
    got = moments(lam, RationalPart.empty(), 20, NEAR_TOL)
    assert got == lam.compiled().moments(20, NEAR_TOL)
    assert ms.measure_moments(lam, 20, NEAR_TOL) == got


def _count_compiles(monkeypatch):
    """The precision of every component compile, in order."""
    seen, real = [], ms._CompiledComponent.__init__

    def counting(self, comp, tol):
        seen.append(mp.mp.prec)
        real(self, comp, tol)

    monkeypatch.setattr(ms._CompiledComponent, "__init__", counting)
    return seen


def test_run_compiles_only_the_components_without_a_series(monkeypatch, tmp_path):
    from padelab import cli

    # arcsine plus Lebesgue [2, 3]: the run compiles the Lebesgue component
    # alone, once
    seen = _count_compiles(monkeypatch)
    raw = {
        "name": "mixed", "precision_bits": 256,
        "measure": [{"interval": ["-1", "1"], "density": "1/pi", "endpoint_singular": True},
                    {"interval": ["2", "3"], "density": "1"}],
        "rational": [], "scheme": {"kind": "classical"}, "n_range": [1, 2],
        "tolerances": {"quad_rel": "1e-35"},
        "error_circle": {"center": "0", "radius": "4", "points": 16},
        "capacity_grid": {"re_min": "-4", "re_max": "4", "im_min": "-1", "im_max": "1",
                          "nx": 5, "ny": 3},
        "collocation_points": 128,
    }
    record = cli.run(cli.ProblemConfig(raw), out_dir=tmp_path / "mixed")
    assert record.family.solved_ns == [1, 2]
    assert list(record.family.lam._compiled) == [(256, (1,))]
    assert seen == [256]
    # paper_section4 has no component with a series: its run compiles the
    # three once per precision, as the full node set
    seen.clear()
    raw = _perfbench_workloads().WORKLOADS["paper_section4"].config(0)
    record = cli.run(cli.ProblemConfig(raw), out_dir=tmp_path / "section4")
    lam = record.family.lam
    precs = sorted(set(seen))
    assert sorted(lam._compiled) == [(bits, (0, 1, 2)) for bits in precs]
    assert seen == [bits for bits in precs for _ in range(3)]
    with working_precision(precs[0]):
        run_set = lam._compiled[(precs[0], (0, 1, 2))]
        assert lam.compiled() is run_set


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
        assert len(arcsine_measure().parts()[0].coeffs) <= 2
        assert _best_of_three(lambda: arcsine_measure().parts()) < 0.005
        pole = MeasureComponent(("-1", "1"), "1/(t-101/100)", endpoint_singular=True)
        assert chebyshev._series_length(pole) is None
        build = chebyshev.ChebyshevSeries.build
        assert _best_of_three(lambda: build(ComplexMeasure([pole]).components[0])) < 0.02


def test_series_matches_compiled_for_an_entire_density():
    # exp(t)/pi chops to some 50 coefficients; far from the support the
    # compiled node set agrees to its tolerance
    for bits in (256, 384):
        with working_precision(bits):
            lam = ComplexMeasure([MeasureComponent(("-1/2", "3/2"), "exp(t)/pi",
                                                   endpoint_singular=True)])
            coeffs = lam.parts()[0].coeffs
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
        assert len(lam.parts()[0].coeffs) > 16
        got = ms.measure_moments(lam, 47)
        compiled = lam.compiled().moments(47, mp.ldexp(1, -bits))
        for a, b in zip(got, compiled):
            assert abs(a - b) <= mp.ldexp(1, 8 - bits) * abs(b)


@pytest.mark.parametrize("bits", [256, 384])
def test_series_doubles_its_length_past_the_float64_prediction(bits):
    # the t^40 term sits below float64 resolution, so the float64
    # coefficients predict M = 8, and the working-precision series doubles
    # 8 -> 16 -> 32 -> 64 to keep 41 coefficients; the power moments are
    # alpha_j + 1e-20 alpha_(j+40) to 2^(8 - prec) relative, and the
    # transform at 2 is the compiled node set's
    with working_precision(bits):
        lam = ComplexMeasure([MeasureComponent(("-1", "1"), "(1+1e-20*t^40)/pi",
                                               endpoint_singular=True)])
        assert chebyshev._series_length(lam.components[0]) == 8
        assert len(lam.parts()[0].coeffs) == 41
        alpha = arcsine_moments_exact(60)
        got = ms.measure_moments(lam, 20)
        for j, value in enumerate(got):
            exact = alpha[j] + mp.mpf("1e-20") * alpha[j + 40]
            assert abs(value - exact) <= mp.ldexp(1, 8 - bits) * abs(exact)
        z = mp.mpc(2)
        compiled = -lam.compiled().moments(0, mp.ldexp(1, -bits), [z])[0]
        assert abs(cauchy_transform(lam, z) - compiled) <= mp.ldexp(1, 8 - bits) * abs(compiled)


def test_lebesgue_kernel_below_the_resolution_floor_fails_fast():
    # 60 eps above [0, 4]: no panel down to the bisection floor resolves the
    # kernel, so the walk reaches the floor and raises before it evaluates
    # the density; 1e-30 above still solves
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


@pytest.mark.parametrize("interval, density, x, factor, m", [
    (("0", "4"), "1", "3", 3, 4),
    (("0", "4"), "1", "3", 3, 6),
    (("0", "4"), "1", "3", 3, 8),
    (("-1", "1"), "exp(i*t)", "0.3", 1, 4),
    (("-1", "1"), "exp(i*t)", "0.3", 1, 8),
    (("-1", "1"), "exp(i*t)", "0.3", 1, 16),
])
def test_kernel_at_the_bisection_floor_raises_without_density_evaluations(
        monkeypatch, interval, density, x, factor, m):
    # m * factor * 2^(18 - prec) above the support: the bisection floor
    # 2^(20 - prec) max(1, |mid|) stops the geometric walk, which evaluates
    # no density on the panels it bisects
    with working_precision(256):
        lam = ComplexMeasure([MeasureComponent(interval, density)])
        compiled = lam.compiled()
        calls = _count_density_evals(monkeypatch)
        z = mp.mpc(x, m * factor * mp.ldexp(1, 18 - mp.mp.prec))
        with pytest.raises(QuadFailure):
            compiled.moments(0, NEAR_TOL, [z])
        assert calls == [0]


def test_lebesgue_kernel_just_above_the_bisection_floor_solves(monkeypatch):
    # 16 * 3 * 2^(18 - prec) above [0, 4] at 3: the walk stops short of the
    # floor, and the density is evaluated only on the leaves it keeps that
    # are not base panels, once each. The value is not checked: the nodes of
    # panels this narrow keep only about 20 bits of their place in the panel
    with working_precision(256):
        lam = ComplexMeasure([MeasureComponent(("0", "4"), "1")])
        compiled = lam.compiled()
        calls = _count_density_evals(monkeypatch)
        z = mp.mpc(3, 16 * 3 * mp.ldexp(1, 18 - mp.mp.prec))
        compiled.moments(0, NEAR_TOL, [z])
        leaves = compiled._pole_panels(NEAR_TOL, [z], 0)[2]
        base = {id(p) for p in compiled.components[0].base}
        assert calls == [ms._GL_ORDER * sum(id(p) not in base for p in leaves)]


# ---------------------------------------------------------------------------
# 1/v-weighted moments of Chebyshev-series components, from residues
# ---------------------------------------------------------------------------


def _gauss_chebyshev_moments(nodes, upto):
    """The integrals of t^m / v(t) against the arcsine measure, m = 0..upto,
    as the N-point Gauss-Chebyshev sum (1/N) sum_k x_k^m / v(x_k) at
    prec + 60 bits. The sum is exact on polynomials of degree below 2N, so
    the pole of 1/v at a node zeta adds an error of about
    |zeta|^m rho^(-2N), rho the node's Bernstein parameter |zeta + sqrt(zeta^2 - 1)|;
    N is the least that makes that 2^-(prec + 60) at every node."""

    def points(z):
        rho = abs(z + cmath.sqrt(z - 1) * cmath.sqrt(z + 1))
        bits = mp.mp.prec + 60 + upto * max(math.log2(abs(z)), 0)
        return math.ceil(bits / (2 * math.log2(rho)))

    count = max(points(complex(z)) for z in nodes)
    with working_precision(mp.mp.prec + 60):
        out = [mp.mpc(0)] * (upto + 1)
        for k in range(count):
            x = mp.cos(mp.pi * (2 * k + 1) / (2 * count))
            term = 1 / mp.fprod(x - z for z in nodes)
            for m in range(upto + 1):
                out[m] += term
                term *= x
        return [c / count for c in out]


def _one_node_moments(nodes, upto):
    """The same integrals for one node zeta, in closed form at prec + 40 bits:
    c_0 = -F(zeta) and c_m = zeta c_(m-1) + mu_(m-1), from
    t^m = zeta t^(m-1) + (t - zeta) t^(m-1), with mu the power moments."""
    (zeta,) = nodes
    with working_precision(mp.mp.prec + 40):
        mu = arcsine_moments_exact(upto)
        out = [-arcsine_transform_exact(zeta)]
        for m in range(1, upto + 1):
            out.append(zeta * out[-1] + mu[m - 1])
        return out


def _assert_residue_moments(lam, nodes, upto=None, reference=_gauss_chebyshev_moments):
    """measure_moments of ``lam`` over ``nodes`` at tol 2^-(prec + 40) against
    ``reference(nodes, upto)``, within 2^(8 - prec) of the largest moment.
    The references share no code with the residue sum under test."""
    from padelab.algebra import to_mpc

    nodes = [to_mpc(z) for z in nodes]
    upto = 2 * len(nodes) - 1 if upto is None else upto
    got = ms.measure_moments(lam, upto, mp.ldexp(1, -(mp.mp.prec + 40)), nodes)
    ref = reference(nodes, upto)
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
        # 1e-3 above the interior and right of an endpoint, one at a time, to t^3
        for node in ("0.3+0.001i", "1.001"):
            _assert_residue_moments(arcsine_measure(), [node], 3, reference=_one_node_moments)


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
    # of the other, which alone is compiled; the reference adds the
    # Gauss-Chebyshev sum to a separate compiled Lebesgue [2, 3]
    with working_precision(bits):
        lam = ComplexMeasure([MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True),
                              MeasureComponent(("2", "3"), "1")])
        nodes = [mp.mpc(0, 3), mp.mpc(-2), mp.mpc("2.5", "0.5")]
        ms.measure_moments(lam, 5, None, nodes)
        assert list(lam._compiled) == [(bits, (1,))]
        lebesgue = ComplexMeasure([MeasureComponent(("2", "3"), "1")]).compiled()

        def reference(nodes, upto):
            tight = mp.ldexp(1, -(mp.mp.prec + 40))
            return [a + b for a, b in zip(_gauss_chebyshev_moments(nodes, upto),
                                          lebesgue.moments(upto, tight, nodes))]

        _assert_residue_moments(lam, nodes, reference=reference)


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
