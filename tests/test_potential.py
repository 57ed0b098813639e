from types import SimpleNamespace

import mpmath as mp
import pytest

from padelab import potential as pt
from padelab.errors import CarrierHit, MassMismatch
from padelab.potential import (
    DiscreteMeasure,
    IntervalSystem,
    balayage,
    equilibrium_measure,
    green_potential,
    harmonic_transfer_residuals,
    joukowski_inner,
    log_potential,
    weakstar_distance,
)
from padelab.scheme import AsymptoticDistribution, CircleScheme, ClassicalScheme, ExplicitScheme

SECTION4 = [("-6/7", "-1/8"), ("2/5", "1/2"), ("2/3", "7/8")]


def _interior(count=181):
    """Sample points of [-0.9, 0.9]."""
    return [mp.mpf("-0.9") + mp.mpf("1.8") * k / (count - 1) for k in range(count)]


def _delta2_density(x):
    """Density of the balayage of delta_2 onto [-1, 1] (harmonic measure at 2)."""
    return mp.sqrt(3) / ((2 - x) * mp.sqrt(1 - x * x)) / mp.pi


def test_log_potential_trivia():
    mu = DiscreteMeasure([mp.mpc(0)], [mp.mpf(1)])
    assert abs(log_potential(mu, mp.e) + 1) < mp.mpf("1e-70")
    two = DiscreteMeasure([mp.mpc(-1), mp.mpc(1)], [mp.mpf("0.5")] * 2)
    assert abs(log_potential(two, mp.mpc(0))) < mp.mpf("1e-70")
    with pytest.raises(CarrierHit):
        log_potential(mu, mp.mpc(0))


def test_equilibrium_capacity_and_weights(unit_interval_system):
    eq, cap = unit_interval_system.equilibrium()
    assert abs(cap - mp.mpf(1) / 2) < mp.mpf("1e-15")
    assert abs(eq.mass - 1) < mp.mpf("1e-15")
    worst = mp.mpf(0)
    for x in _interior():
        model = 1 / (mp.pi * mp.sqrt(1 - x * x))
        worst = max(worst, abs(eq.density(float(x)) - model) / model)
    assert worst < mp.mpf("1e-13")


def test_equilibrium_potential_value_at_2(unit_interval_system):
    eq, _ = unit_interval_system.equilibrium()
    expected = mp.log(2 / (2 + mp.sqrt(3)))
    assert abs(log_potential(eq, mp.mpf(2)) - expected) < mp.mpf("1e-14")


def test_two_interval_capacity_closed_form():
    # cap([-b, -a] u [a, b]) = sqrt(b^2 - a^2)/2
    for a, b in (("1", "2"), ("0.3", "1"), ("0.5", "1"), ("0.01", "1")):
        a, b = mp.mpf(a), mp.mpf(b)
        _, cap = equilibrium_measure(IntervalSystem([(-b, -a), (a, b)]))
        assert abs(cap - mp.sqrt(b * b - a * a) / 2) < mp.mpf("1e-12")


def test_capacity_scaling_law():
    _, cap1 = equilibrium_measure(IntervalSystem([(-1, 1)]))
    _, cap4 = equilibrium_measure(IntervalSystem([(-2, 2)]))
    assert abs(cap4 - 1) < mp.mpf("3e-3")
    assert abs(cap4 / cap1 - 2) < mp.mpf("1e-9")  # discretization bias cancels


def test_two_interval_capacity_monotone():
    caps = {}
    for alpha in (mp.mpf("0.3"), mp.mpf("0.5")):
        _, cap2 = equilibrium_measure(
            IntervalSystem([(-1, -alpha), (alpha, 1)], 128)
        )
        _, cap_right = equilibrium_measure(IntervalSystem([(alpha, 1)], 128))
        assert cap_right < cap2 < mp.mpf("0.501")
        caps[alpha] = cap2
    assert caps[mp.mpf("0.5")] < caps[mp.mpf("0.3")]


def test_equilibrium_flatness(unit_interval_system):
    eq, _ = unit_interval_system.equilibrium()
    vals = [
        log_potential(eq, mp.mpf(-0.9) + mp.mpf("1.8") * k / 516)
        for k in range(517)
    ]
    assert max(vals) - min(vals) < mp.mpf("1e-14")
    section4, _ = IntervalSystem(SECTION4).equilibrium()
    vals = [log_potential(section4, x) for x in (mp.mpf("-0.5"), mp.mpf("0.45"), mp.mpf("0.8"))]
    assert max(vals) - min(vals) < mp.mpf("1e-13")


def test_capacity_cauchy_refinement():
    # the mode cap only limits K: [-1, 1] is exact at any cap, and the
    # three-interval capacity converges geometrically as the cap doubles
    for n in (1, 4, 64, 256):
        _, cap = equilibrium_measure(IntervalSystem([(-1, 1)], n))
        assert abs(cap - mp.mpf(1) / 2) < mp.mpf("1e-15")
    caps = [equilibrium_measure(IntervalSystem(SECTION4, n))[1] for n in (4, 8, 16)]
    d1 = abs(caps[1] - caps[0])
    d2 = abs(caps[2] - caps[1])
    assert d2 < mp.mpf("1e-4") * d1


def test_balayage_of_infinity_is_equilibrium(unit_interval_system):
    class Sigma:
        mass_at_infinity = 2
        finite = None

    hat = balayage(Sigma(), unit_interval_system)
    eq, _ = unit_interval_system.equilibrium()
    assert abs(hat.mass - 2) < mp.mpf("1e-15")
    for a, b in zip(hat.coeffs, eq.coeffs):
        assert (a == 2 * b).all()


def test_balayage_point_mass_closed_form(unit_interval_system):
    mu = DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat = balayage(mu, unit_interval_system)
    assert abs(hat.mass - 1) < mp.mpf("1e-15")
    worst = mp.mpf(0)
    for x in _interior():
        dens = _delta2_density(x)
        worst = max(worst, abs(hat.density(float(x)) - dens) / dens)
    assert worst < mp.mpf("1e-12")


def test_balayage_potential_match(unit_interval_system):
    mu = DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat, c = unit_interval_system.balayage_of(mu)
    worst = mp.mpf(0)
    for k in range(301):
        x = mp.mpf(-0.9) + mp.mpf("1.8") * k / 300
        lhs = log_potential(hat, x)
        rhs = log_potential(mu, x) + c
        worst = max(worst, abs(lhs - rhs))
    assert worst < mp.mpf("1e-13")


def test_balayage_harmonic_transfer(unit_interval_system):
    mu = DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat = balayage(mu, unit_interval_system)
    residuals = harmonic_transfer_residuals(mu, hat, unit_interval_system, 5)
    assert len(residuals) == 5
    assert max(residuals) < mp.mpf("1e-12") * mu.mass


def test_balayage_of_mixed_distribution_adds_parts(unit_interval_system):
    S = unit_interval_system
    finite = DiscreteMeasure([mp.mpc(3), mp.mpc(0, 2)], [mp.mpf("0.5")] * 2)
    sigma = AsymptoticDistribution(finite, mp.mpf(1))
    hat = balayage(sigma, S)
    assert abs(hat.mass - 2) < mp.mpf("1e-15")
    eq, _ = S.equilibrium()
    swept, _ = S.balayage_of(finite)
    for x in _interior(19):
        want = eq.density(float(x)) + swept.density(float(x))
        assert abs(hat.density(float(x)) - want) < mp.mpf("1e-14") * want
    z = mp.mpc("0.4", "0.7")
    whole = green_potential(sigma, S, z)
    at_infinity = SimpleNamespace(mass_at_infinity=1, finite=None)
    parts = green_potential(at_infinity, S, z) + green_potential(finite, S, z)
    assert abs(whole - parts) < mp.mpf("1e-14")


def test_balayage_carrier_must_avoid_system(unit_interval_system):
    with pytest.raises(ValueError):
        balayage(DiscreteMeasure([mp.mpc("0.5")], [mp.mpf(1)]), unit_interval_system)


def test_green_potential_closed_form(unit_interval_system):
    class Sigma:
        mass_at_infinity = 2
        finite = None

    val = green_potential(Sigma(), unit_interval_system, mp.mpc(2))
    assert abs(val - 2 * mp.log(2 + mp.sqrt(3))) < mp.mpf("1e-14")


def test_green_potential_vanishes_toward_boundary(unit_interval_system):
    class Sigma:
        mass_at_infinity = 2
        finite = None

    for x in (mp.mpf("-0.4"), mp.mpf("0.1"), mp.mpf("0.6")):
        vals = [
            green_potential(Sigma(), unit_interval_system, mp.mpc(x, d))
            for d in (mp.mpf("0.2"), mp.mpf("0.1"), mp.mpf("0.05"))
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < mp.mpf("0.15")


def test_green_potential_circle_distribution(unit_interval_system):
    m = 64
    pts = [3 * mp.expjpi(2 * mp.mpf(k) / m) for k in range(m)]
    spacing = 6 * mp.pi / m
    sigma = DiscreteMeasure(pts, [mp.mpf(2) / m] * m, [spacing] * m)
    z_on = pts[5]
    val = green_potential(sigma, unit_interval_system, z_on)
    assert mp.isfinite(val) and val > 0
    z = mp.mpc(2, 1)
    v1 = green_potential(sigma, unit_interval_system, z)
    v2 = green_potential(sigma, unit_interval_system, mp.conj(z))
    assert abs(v1 - v2) < mp.mpf("1e-12")


def _reference_green(sigma, S, z):
    """Green potential of sigma on the complement of the single interval of S,
    summed over sigma's atoms from the Green function of the unit disk pulled
    back by the inner Joukowski map phi, at the working precision:

        g(z, inf) = -log|phi(z)|,
        g(z, p) = log|1 - phi(z) conj(phi(p))| - log|phi(z) - phi(p)|.

    At an atom p itself the term log 1/|z - p| takes the distance
    GAMMA * spacing, and the rest of g(z, p) its limit
    log(1 - |phi(p)|^2) - log|phi'(p)|, with phi' = -phi/(h (u - phi)).
    """
    ((a, b),) = S.intervals
    m, h = (a + b) / 2, (b - a) / 2
    z = mp.mpc(z)
    fz = joukowski_inner(z, a, b)
    val = -sigma.mass_at_infinity * mp.log(abs(fz))
    if sigma.finite is not None:
        for p, w, ell in zip(sigma.finite.points, sigma.finite.weights,
                             sigma.finite.local_lengths):
            fp = joukowski_inner(p, a, b)
            if abs(z - p) > 0:
                g = mp.log(abs(1 - fz * mp.conj(fp))) - mp.log(abs(fz - fp))
            else:
                dphi = -fp / (h * ((p - m) / h - fp))
                g = (-mp.log(pt.GAMMA * ell) + mp.log(1 - abs(fp) ** 2)
                     - mp.log(abs(dphi)))
            val += w * g
    return val


def test_green_potential_float64_matches_atom_sums(unit_interval_system):
    S = unit_interval_system
    circle = CircleScheme("0", "3", sigma_points=256).sigma()
    zs = [mp.mpc(2), mp.mpc(1, 1), mp.mpc(0, 3), mp.mpc("-1.5", "0.25"),
          mp.mpc("0.3", "0.05")]
    cases = [(ClassicalScheme().sigma(), zs), (circle, zs + [circle.finite.points[7]])]
    for sigma, points in cases:
        for z in points:
            got = green_potential(sigma, S, z)
            ref = _reference_green(sigma, S, z)
            assert isinstance(got, mp.mpf)
            assert abs(got - ref) <= mp.mpf("1e-12") * abs(ref)
            assert green_potential(sigma, S, z) == got  # bit-identical repeat


def test_green_potential_vanishes_on_support(unit_interval_system):
    S = unit_interval_system
    circle = CircleScheme("0", "3", sigma_points=64).sigma()
    for x in ("-1", "-0.999", "-0.3", "0", "0.71", "1"):
        for sigma in (ClassicalScheme().sigma(), circle):
            assert abs(green_potential(sigma, S, mp.mpf(x))) < mp.mpf("1e-13")
    # a node distribution without spacings has no potential at its own atoms
    explicit = ExplicitScheme({1: ["2", "-3"]}).sigma()
    with pytest.raises(CarrierHit):
        green_potential(explicit, S, mp.mpc(2))


def test_weakstar_distance_examples(unit_interval_system):
    a = DiscreteMeasure([mp.mpc(0)], [mp.mpf(1)])
    b = DiscreteMeasure([mp.mpc(1)], [mp.mpf(1)])
    assert weakstar_distance(a, a) == 0
    assert weakstar_distance(a, b) == 1
    n = 40
    zeros = [mp.cos((2 * k - 1) * mp.pi / (2 * n)) for k in range(1, n + 1)]
    nu = DiscreteMeasure(zeros, [mp.mpf(1) / n] * n)
    eq, _ = unit_interval_system.equilibrium()
    assert weakstar_distance(nu, eq) <= mp.mpf("0.05")
    with pytest.raises(MassMismatch):
        weakstar_distance(a, DiscreteMeasure([mp.mpc(0)], [mp.mpf(2)]))
    with pytest.raises(MassMismatch):
        weakstar_distance(a, eq.scaled(2))


def test_weakstar_distance_to_spectral_measure_is_exact(unit_interval_system):
    eq, _ = unit_interval_system.equilibrium()
    for n in (1, 2, 3, 7, 40):
        # n Chebyshev zeros against the arcsine distribution: 1/(2n)
        zeros = [mp.cos((2 * k - 1) * mp.pi / (2 * n)) for k in range(1, n + 1)]
        nu = DiscreteMeasure(zeros, [mp.mpf(1) / n] * n)
        assert abs(weakstar_distance(nu, eq) - mp.mpf(1) / (2 * n)) < mp.mpf("1e-14")
    # atoms outside the support, and a repeated atom
    nu = DiscreteMeasure([mp.mpf(-2), mp.mpf(0), mp.mpf(0), mp.mpf(3)], [mp.mpf(1) / 4] * 4)
    assert abs(weakstar_distance(nu, eq) - mp.mpf(1) / 4) < mp.mpf("1e-15")
    # the distribution function of the arcsine law is 1 - theta/pi at cos(theta)
    for theta in (mp.mpf("0.1"), mp.mpf(1), mp.mpf(3)):
        assert abs(eq.cdf(float(mp.cos(theta))) - (1 - theta / mp.pi)) < mp.mpf("1e-14")
    # the balayage of delta_2 against the integral of its closed-form density
    hat, _ = unit_interval_system.balayage_of(DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)]))
    for x in ("-0.95", "-0.3", "0", "0.5", "0.99"):
        F = mp.quad(_delta2_density, [-1, mp.mpf(x)])
        assert abs(hat.cdf(float(mp.mpf(x))) - F) < mp.mpf("1e-13")
    nu = DiscreteMeasure([mp.mpf("0.5")], [mp.mpf(1)])
    F = mp.quad(_delta2_density, [-1, mp.mpf("0.5")])
    assert abs(weakstar_distance(nu, hat) - max(F, 1 - F)) < mp.mpf("1e-13")


def test_joukowski_inner_maps_into_the_disk():
    for t in (mp.mpf(-2), mp.mpf(3), mp.mpc("0.2", "0.5"), mp.mpc("-0.5", "-1"),
              mp.mpc(-1, "1e-9"), mp.mpc("-0.5", 1)):
        phi = joukowski_inner(t, -1, 1)
        assert abs(phi) < 1
        assert abs(joukowski_inner(-mp.conj(t), -1, 1) + mp.conj(phi)) < mp.mpf("1e-70")
        f64 = complex(pt._inner_joukowski_f64(complex(t)))
        assert abs(f64 - phi) < mp.mpf("1e-15")
    assert abs(joukowski_inner(-2, -1, 1) - (-2 + mp.sqrt(3))) < mp.mpf("1e-60")
    # [2, 4]: t = 1 is u = -2 of the unit interval
    assert abs(joukowski_inner(1, 2, 4) - (-2 + mp.sqrt(3))) < mp.mpf("1e-60")
    for x in (-1, "-0.3", 1):
        assert abs(abs(complex(pt._inner_joukowski_f64(complex(mp.mpf(x))))) - 1) < 1e-15


def test_weakstar_distance_interleaved_atoms():
    center = DiscreteMeasure([mp.mpc(0)], [mp.mpf(1)])
    split = DiscreteMeasure([mp.mpc(-1), mp.mpc(1)], [mp.mpf("0.5")] * 2)
    assert weakstar_distance(center, split) == mp.mpf("0.5")
    # shared atom locations with different weights
    a = DiscreteMeasure([mp.mpc(0), mp.mpc(1)], [mp.mpf("0.25"), mp.mpf("0.75")])
    b = DiscreteMeasure([mp.mpc(0), mp.mpc(1)], [mp.mpf("0.75"), mp.mpf("0.25")])
    assert weakstar_distance(a, b) == mp.mpf("0.5")


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([], [])
    with pytest.raises(ValueError):
        DiscreteMeasure([mp.mpc(0)], [mp.mpf(-1)])
    with pytest.raises(ValueError):
        IntervalSystem([(0, 1), (0.5, 2)])
    with pytest.raises(ValueError):
        IntervalSystem([(0, 1)], 0)
