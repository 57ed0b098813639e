"""Closed-form oracle suites runnable from the command line.

Each suite returns (name, passed, detail) rows. The constructions here are
deliberately independent of the solver paths they validate: orthogonal
polynomials come from Gram-Schmidt on closed-form moments, capacities and
Green values from textbook formulas for a single interval.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from . import measure as ms, pade, potential as pt, scheme as sch
from .algebra import Poly, fraction_to_mpf, poly_eval, poly_roots, working_precision

__all__ = [
    "arcsine_measure",
    "arcsine_moments_exact",
    "arcsine_transform_exact",
    "arcsine_transform_derivative_exact",
    "lebesgue01_transform_exact",
    "near_support_points",
    "gram_schmidt_monic",
    "monic_chebyshev",
    "markov_suite",
    "potential_suite",
    "quadrature_suite",
]


def arcsine_measure() -> ms.ComplexMeasure:
    return ms.ComplexMeasure(
        [ms.MeasureComponent(("-1", "1"), "1/pi", endpoint_singular=True)]
    )


def arcsine_moments_exact(upto: int):
    """Moments of the arcsine measure on [-1,1]: central binomials over 4^k."""
    out = []
    for j in range(upto + 1):
        if j % 2:
            out.append(mp.mpc(0))
        else:
            k = j // 2
            out.append(mp.mpc(fraction_to_mpf(Fraction(math.comb(2 * k, k), 4**k))))
    return out


def arcsine_transform_exact(z):
    """Cauchy transform of the arcsine measure, 1/(sqrt(z-1) sqrt(z+1))."""
    z = mp.mpc(z)
    return 1 / (mp.sqrt(z - 1) * mp.sqrt(z + 1))


def arcsine_transform_derivative_exact(z):
    """Derivative of the arcsine transform, -z/(z^2-1)^(3/2), same branch."""
    z = mp.mpc(z)
    return -z * arcsine_transform_exact(z) ** 3


def lebesgue01_transform_exact(z):
    """Cauchy transform of Lebesgue measure on [0, 1], log(z/(z-1))."""
    z = mp.mpc(z)
    return mp.log(z / (z - 1))


def near_support_points(interior, endpoint, distances=("1e-1", "1e-2", "1e-3")):
    """Points at each distance above an interior point and right of an endpoint."""
    out = []
    for d in distances:
        d = mp.mpf(d)
        out += [mp.mpc(interior, d), mp.mpc(mp.mpf(endpoint) + d, 0)]
    return out


def gram_schmidt_monic(moms, n: int) -> Poly:
    """Monic degree-n polynomial orthogonal to lower degrees, from moments.

    Uses the non-Hermitian pairing <f, g> = sum f_i g_j c_{i+j}; independent
    of the kernel-elimination solver it cross-checks.
    """

    def pair(f: Poly, g: Poly):
        acc = mp.mpc(0)
        for i, fi in enumerate(f.coeffs):
            for j, gj in enumerate(g.coeffs):
                acc += fi * gj * moms[i + j]
        return acc

    basis: list[Poly] = []
    for k in range(n + 1):
        mono = Poly([0] * k + [1], trim=False)
        p = mono
        for q in basis:
            p = p - (pair(mono, q) / pair(q, q)) * q
        basis.append(p)
    return basis[n]


def monic_chebyshev(n: int) -> Poly:
    """Monic Chebyshev polynomial of the first kind, exact coefficients."""
    if n == 0:
        return Poly.one()
    prev = [1]
    cur = [0, 1]
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    scale = Fraction(1, 2 ** (n - 1))
    return Poly([fraction_to_mpf(Fraction(c) * scale) for c in cur])


def _row(name, err, tol):
    err = mp.mpf(err)
    return (name, err <= tol, f"err={mp.nstr(err, 5)} tol={mp.nstr(mp.mpf(tol), 3)}")


def markov_suite():
    rows = []
    lam = arcsine_measure()
    rational = ms.RationalPart.empty()
    scheme = sch.ClassicalScheme()
    moms = arcsine_moments_exact(12)
    tol = mp.mpf("1e-40")
    family = pade.solve_family(lam, rational, scheme, range(1, 7), tol)
    for n in range(1, 7):
        oracle = gram_schmidt_monic(moms, n)
        got = family.approximants[n].q
        err = max(
            abs(a - b)
            for a, b in zip(
                list(got.coeffs) + [mp.mpc(0)] * 3, list(oracle.coeffs) + [mp.mpc(0)] * 3
            )
        )
        rows.append(_row(f"markov q_{n} vs gram-schmidt", err, mp.mpf("1e-20")))
        cheb = monic_chebyshev(n)
        err = max(abs(a - b) for a, b in zip(got.coeffs, cheb.coeffs))
        rows.append(_row(f"markov q_{n} vs chebyshev", err, mp.mpf("1e-20")))
    a1 = family.approximants[1]
    err1 = max(
        abs(poly_eval(a1.p, z) / poly_eval(a1.q, z) - 1 / z)
        for z in (mp.mpc(2), mp.mpc(0, 3), mp.mpc(-1.5, 0.5))
    )
    rows.append(_row("markov Pi_1 = 1/z", err1, mp.mpf("1e-30")))
    a2 = family.approximants[2]
    err2 = max(
        abs(poly_eval(a2.p, z) / poly_eval(a2.q, z) - z / (z * z - mp.mpf(0.5)))
        for z in (mp.mpc(2), mp.mpc(0, 3), mp.mpc(-1.5, 0.5))
    )
    rows.append(_row("markov Pi_2 = z/(z^2 - 1/2)", err2, mp.mpf("1e-30")))
    with working_precision(512):
        roots = poly_roots(monic_chebyshev(40))
        exact = sorted(mp.cos((2 * k + 1) * mp.pi / 80) for k in range(40))
        err = max(abs(a - b) for a, b in zip(roots, exact))
    rows.append(_row("poly_roots monic Chebyshev deg 40 vs cos((2k+1)pi/80)",
                     err, mp.mpf("1e-120")))
    return rows


def potential_suite():
    rows = []
    S = pt.IntervalSystem([(-1, 1)])
    eq, cap = S.equilibrium()
    rows.append(_row("capacity of [-1,1] = 1/2", abs(cap - mp.mpf(1) / 2), mp.mpf("1e-3")))
    S2 = pt.IntervalSystem([(-2, 2)])
    _, cap2 = S2.equilibrium()
    rows.append(_row("capacity scaling [-2,2]/[-1,1] = 2", abs(cap2 / cap - 2), mp.mpf("1e-9")))
    mu = pt.DiscreteMeasure([mp.mpc(2)], [mp.mpf(1)])
    hat, c = S.balayage_of(mu)
    worst = mp.mpf(0)
    x0 = mp.mpf(2)
    for p, w, ell in zip(hat.points, hat.weights, hat.local_lengths):
        x = p.real
        if abs(x) <= mp.mpf("0.9"):
            dens = mp.sqrt(x0 * x0 - 1) / ((x0 - x) * mp.sqrt(1 - x * x)) / mp.pi
            worst = max(worst, abs(w - dens * ell) / (dens * ell))
    rows.append(_row("balayage of delta_2: harmonic-measure density", worst, mp.mpf("0.02")))
    res = pt.harmonic_transfer_residuals(mu, hat, S, 5)
    rows.append(_row("balayage preserves 5 harmonic integrals", max(res), mp.mpf("1e-2")))
    g = mp.log(1 / cap) - pt.log_potential(eq, mp.mpf(2))
    rows.append(
        _row("green function g(2, inf) on [-1,1]", abs(g - mp.log(2 + mp.sqrt(3))), mp.mpf("5e-3"))
    )
    return rows


def quadrature_suite():
    rows = []
    tol = mp.mpf("1e-35")
    lam = arcsine_measure()
    mass = lam.integrate(lambda t: mp.mpc(1), tol)
    rows.append(_row("arcsine total mass = 1", abs(mass - 1), mp.mpf("1e-30")))
    ct = ms.cauchy_transform(lam, mp.mpc(2), tol)
    rows.append(_row("arcsine transform at 2 = 1/sqrt(3)", abs(ct - 1 / mp.sqrt(3)), mp.mpf("1e-30")))
    leb = ms.ComplexMeasure([ms.MeasureComponent(("0", "1"), "1")])
    ct2 = ms.cauchy_transform(leb, mp.mpc(2), tol)
    rows.append(_row("lebesgue transform at 2 = log 2", abs(ct2 - mp.log(2)), mp.mpf("1e-30")))
    moms = ms.moments(lam, ms.RationalPart.empty(), 8, tol)
    exact = arcsine_moments_exact(8)
    err = max(abs(a - b) for a, b in zip(moms, exact))
    rows.append(_row("arcsine moments 0..8", err, mp.mpf("1e-30")))
    near_tol = mp.mpf("1e-40")
    R = ms.RationalPart.empty()
    for label, got, exact in (
        ("arcsine transform", lambda z: ms.cauchy_transform(lam, z, near_tol),
         arcsine_transform_exact),
        ("arcsine transform derivative",
         lambda z: ms.eval_F_derivative(lam, R, z, 1, near_tol),
         arcsine_transform_derivative_exact),
        ("lebesgue transform", lambda z: ms.cauchy_transform(leb, z, near_tol),
         lebesgue01_transform_exact),
    ):
        err = max(abs(got(z) - exact(z)) / abs(exact(z))
                  for z in near_support_points("0.3", 1))
        rows.append(_row(f"{label} at 1e-1..1e-3 from the support (relative)",
                         err, mp.mpf("1e-35")))
    var = ms.argument_variation(
        ms.ComplexMeasure([ms.MeasureComponent(("-6/7", "-1/8"), "exp(i*t)")]), 4096
    )
    rows.append(_row("argument variation of exp(it)", abs(var - mp.mpf(41) / 56), mp.mpf("1e-6")))
    return rows
