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
    log_potential,
    weakstar_distance,
)
from padelab.scheme import CircleScheme, ClassicalScheme


def log_potential_smoothed(mu: DiscreteMeasure, z) -> mp.mpf:
    """Potential with the kernel floored at the gamma*cell scale per atom.

    Treats each atom as spread over its grid cell, which is the continuum
    object the collocation solvers approximate; plain atom potentials spike
    logarithmically near carrier points and would drown the flatness and
    potential-match diagnostics in discretization noise.
    """
    if mu.local_lengths is None:
        return log_potential(mu, z)
    z = mp.mpc(z)
    terms = []
    for p, w, ell in zip(mu.points, mu.weights, mu.local_lengths):
        if w == 0:
            continue
        d = max(abs(z - p), mp.mpf(pt.GAMMA) * ell)
        terms.append(-w * mp.log(d))
    return mp.fsum(terms)


def test_log_potential_trivia():
    mu = DiscreteMeasure([mp.mpc(0)], [mp.mpf(1)])
    assert abs(log_potential(mu, mp.e) + 1) < mp.mpf("1e-70")
    two = DiscreteMeasure([mp.mpc(-1), mp.mpc(1)], [mp.mpf("0.5")] * 2)
    assert abs(log_potential(two, mp.mpc(0))) < mp.mpf("1e-70")
    with pytest.raises(CarrierHit):
        log_potential(mu, mp.mpc(0))


def test_equilibrium_capacity_and_weights(unit_interval_system):
    eq, cap = unit_interval_system.equilibrium()
    assert abs(cap - mp.mpf(1) / 2) < mp.mpf("1e-3")
    assert abs(eq.mass - 1) < mp.mpf("1e-12")
    worst = mp.mpf(0)
    for p, w, ell in zip(eq.points, eq.weights, eq.local_lengths):
        x = p.real
        if abs(x) <= mp.mpf("0.9"):
            model = ell / (mp.pi * mp.sqrt(1 - x * x))
            worst = max(worst, abs(w - model) / model)
    assert worst < mp.mpf("0.02")


def test_equilibrium_potential_value_at_2(unit_interval_system):
    eq, _ = unit_interval_system.equilibrium()
    expected = mp.log(2 / (2 + mp.sqrt(3)))
    assert abs(log_potential(eq, mp.mpf(2)) - expected) < mp.mpf("5e-3")


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
        log_potential_smoothed(eq, mp.mpf(-0.9) + mp.mpf("1.8") * k / 516)
        for k in range(517)
    ]
    assert max(vals) - min(vals) < mp.mpf("5e-3")


def test_capacity_cauchy_refinement():
    caps = []
    for n in (64, 128, 256):
        _, cap = equilibrium_measure(IntervalSystem([(-1, 1)], n))
        caps.append(cap)
    d1 = abs(caps[1] - caps[0])
    d2 = abs(caps[2] - caps[1])
    assert d2 < d1


def test_balayage_of_infinity_is_equilibrium(unit_interval_system):
    class Sigma:
        mass_at_infinity = 2
        finite = None

    hat = balayage(Sigma(), unit_interval_system)
    eq, _ = unit_interval_system.equilibrium()
    assert abs(hat.mass - 2) < mp.mpf("1e-10")
    assert max(
        abs(a - 2 * b) for a, b in zip(hat.weights, eq.weights)
    ) < mp.mpf("1e-12")


def test_balayage_point_mass_closed_form(unit_interval_system):
    mu = DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat = balayage(mu, unit_interval_system)
    assert abs(hat.mass - 1) < mp.mpf("1e-12")
    x0 = mp.mpf(2)
    worst = mp.mpf(0)
    for p, w, ell in zip(hat.points, hat.weights, hat.local_lengths):
        x = p.real
        if abs(x) <= mp.mpf("0.9"):
            dens = mp.sqrt(x0 * x0 - 1) / ((x0 - x) * mp.sqrt(1 - x * x)) / mp.pi
            worst = max(worst, abs(w - dens * ell) / (dens * ell))
    assert worst < mp.mpf("0.02")


def test_balayage_potential_match(unit_interval_system):
    mu = DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat, c = unit_interval_system.balayage_of(mu)
    worst = mp.mpf(0)
    for k in range(301):
        x = mp.mpf(-0.9) + mp.mpf("1.8") * k / 300
        lhs = log_potential_smoothed(hat, x)
        rhs = log_potential(mu, x) + c
        worst = max(worst, abs(lhs - rhs))
    assert worst < mp.mpf("5e-3")


def test_balayage_harmonic_transfer(unit_interval_system):
    mu = DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat = balayage(mu, unit_interval_system)
    residuals = harmonic_transfer_residuals(mu, hat, unit_interval_system, 5)
    assert len(residuals) == 5
    assert max(residuals) < mp.mpf("1e-2") * mu.mass


def test_balayage_carrier_must_avoid_system(unit_interval_system):
    with pytest.raises(ValueError):
        balayage(DiscreteMeasure([mp.mpc("0.5")], [mp.mpf(1)]), unit_interval_system)


def test_green_potential_closed_form(unit_interval_system):
    class Sigma:
        mass_at_infinity = 2
        finite = None

    val = green_potential(Sigma(), unit_interval_system, mp.mpc(2))
    assert abs(val - 2 * mp.log(2 + mp.sqrt(3))) < mp.mpf("8e-3")


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
    """Green potential from working-precision atom sums (log_potential)."""
    z = mp.mpc(z)
    val = mp.mpf(0)
    if sigma.mass_at_infinity > 0:
        eq, cap = S.equilibrium()
        val += sigma.mass_at_infinity * (mp.log(1 / cap) - log_potential(eq, z))
    if sigma.finite is not None:
        hat, c = S.balayage_of(sigma.finite)
        own = mp.fsum(
            -w * mp.log(abs(z - p) if abs(z - p) > 0 else pt.GAMMA * ell)
            for p, w, ell in zip(sigma.finite.points, sigma.finite.weights,
                                 sigma.finite.local_lengths)
        )
        val += c - log_potential(hat, z) + own
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


def test_green_potential_raises_on_equilibrium_atom(unit_interval_system):
    eq, _ = unit_interval_system.equilibrium()
    with pytest.raises(CarrierHit):
        green_potential(ClassicalScheme().sigma(), unit_interval_system, eq.points[100])


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
