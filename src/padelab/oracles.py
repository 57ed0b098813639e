"""Closed-form oracle suites runnable from the command line.

Each suite returns (name, passed, detail) rows. The constructions here are
deliberately independent of the solver paths they validate: orthogonal
polynomials come from Gram-Schmidt on closed-form moments, capacities,
balayage densities and Green values from textbook formulas for one interval
or two symmetric ones.
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
    "odd_transform_exact",
    "near_support_points",
    "two_scale_measure",
    "moment_pass_errors",
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


def odd_transform_exact(z):
    """Integral of t/(z - t) over [-1, 1], -2 + z*log((z+1)/(z-1)), formed at
    2000 bits: for large z its two terms cancel to about 2/(3z^2)."""
    with mp.workprec(2000):
        z = mp.mpc(z)
        return -2 + z * mp.log((z + 1) / (z - 1))


def near_support_points(interior, endpoint, distances=("1e-1", "1e-2", "1e-3")):
    """Points at each distance above an interior point and right of an endpoint."""
    out = []
    for d in distances:
        d = mp.mpf(d)
        out += [mp.mpc(interior, d), mp.mpc(mp.mpf(endpoint) + d, 0)]
    return out


def two_scale_measure() -> ms.ComplexMeasure:
    """Density 1 on [1e-3, 2e-3] and 1e-30 on [1, 2]: the two components'
    weights and nodes differ by 30 and 3 orders of magnitude."""
    return ms.ComplexMeasure(
        [ms.MeasureComponent(("1e-3", "2e-3"), "1"), ms.MeasureComponent(("1", "2"), "1e-30")],
        waive_floor=True,
    )


def moment_pass_errors(lam, upto: int, tol=None, nodes=()):
    """Error of each moment of ``CompiledMeasure.moments`` against an mpmath
    sum over the same nodes at twice the precision, relative to the L1 mass
    sum |W_k / v(t_k)| |t_k|^j of its terms (v the product of t - zeta over
    ``nodes``), for j = 0..upto."""
    compiled = lam.compiled()
    got = compiled.moments(upto, tol, nodes)
    ts, ws = compiled.nodes(tol, nodes, upto)
    with working_precision(2 * compiled.prec):
        terms = []
        for t, w in zip(ts, ws):
            v = mp.mpc(1)
            for z in nodes:
                v *= t - mp.mpc(z)
            terms.append(w / v)
        errs = []
        for c in got:
            errs.append(abs(c - mp.fsum(terms)) / mp.fsum(abs(a) for a in terms))
            terms = [a * t for a, t in zip(terms, ts)]
    return errs


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
    circle = sch.CircleScheme("0", "3/2")
    a20 = pade.solve_family(lam, rational, circle, [20], tol).approximants[20]
    err = mp.mpf(0)
    for z in (mp.mpc("1.5", "0.5"), mp.mpc("-0.5", "1"), mp.mpc("2.5", "-0.5")):
        direct = arcsine_transform_exact(z) - a20.evaluate(z)
        formula = pade.error_eval(lam, rational, circle, a20, z, tol)
        err = max(err, abs(formula - direct) / abs(direct))
    rows.append(_row("circle r=3/2 n=20: F - p/q vs error formula", err, mp.mpf("1e-44")))
    with working_precision(512):
        roots = poly_roots(monic_chebyshev(40))
        exact = sorted(mp.cos((2 * k + 1) * mp.pi / 80) for k in range(40))
        err = max(abs(a - b) for a, b in zip(roots, exact))
    rows.append(_row("poly_roots monic Chebyshev deg 40 vs cos((2k+1)pi/80)",
                     err, mp.mpf("1e-120")))
    return rows


def _delta2_density_error(hat) -> mp.mpf:
    """Largest relative error on [-0.9, 0.9] of the balayage of delta_2 onto
    [-1, 1] against the harmonic measure density sqrt(3)/(pi (2-x) sqrt(1-x^2))."""
    worst = mp.mpf(0)
    for k in range(181):
        x = mp.mpf("-0.9") + mp.mpf("1.8") * k / 180
        dens = mp.sqrt(3) / ((2 - x) * mp.sqrt(1 - x * x)) / mp.pi
        worst = max(worst, abs(hat.density(float(x)) - dens) / dens)
    return worst


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
    dens_err = _delta2_density_error(hat)
    rows.append(_row("balayage of delta_2: harmonic-measure density", dens_err, mp.mpf("0.02")))
    res = pt.harmonic_transfer_residuals(mu, hat, S, 5)
    rows.append(_row("balayage preserves 5 harmonic integrals", max(res), mp.mpf("1e-2")))
    g = mp.log(1 / cap) - pt.log_potential(eq, mp.mpf(2))
    rows.append(
        _row("green function g(2, inf) on [-1,1]", abs(g - mp.log(2 + mp.sqrt(3))), mp.mpf("5e-3"))
    )
    half = pt.green_potential(sch.ClassicalScheme().sigma(), S, mp.mpf(2)) / 2
    green_err = abs(half - mp.log(2 + mp.sqrt(3)))
    rows.append(
        _row("green_potential(classical sigma, 2)/2 vs log(2+sqrt3)", green_err, mp.mpf("5e-3"))
    )
    # the spectral layer is exact up to float64 rounding: the same closed
    # forms, and a two-interval capacity, at 1e-12
    tight = mp.mpf("1e-12")
    rows.append(_row("capacity of [-1,1] = 1/2 to 1e-12", abs(cap - mp.mpf(1) / 2), tight))
    _, cap_two = pt.IntervalSystem([(-2, -1), (1, 2)]).equilibrium()
    rows.append(_row("capacity of [-2,-1] u [1,2] = sqrt(3)/2",
                     abs(cap_two - mp.sqrt(3) / 2), tight))
    rows.append(_row("green_potential g(2, inf) = log(2+sqrt3) to 1e-12", green_err, tight))
    rows.append(_row("balayage of delta_2: density to 1e-12 (relative)", dens_err, tight))
    rows.append(_row("balayage preserves 5 harmonic integrals to 1e-12", max(res), tight))
    return rows


def quadrature_suite():
    rows = []
    tol = mp.mpf("1e-35")
    lam = arcsine_measure()
    mass = lam.compiled().integrate(lambda t: mp.mpc(1), tol)
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
    xs, ws = ms.gauss_legendre_rule()
    bits = mp.mp.prec
    with working_precision(2 * bits):
        xs2, ws2 = ms.gauss_legendre_rule()
        # an ulp at the working precision is 2^(e - bits) for b = m 2^e, 1/2 <= |m| < 1
        err = max(abs(a - b) / mp.ldexp(1, mp.frexp(b)[1] - bits)
                  for a, b in zip(xs + ws, xs2 + ws2))
    rows.append(_row("Gauss-Legendre rule vs 2x precision (ulp)", err, 1))
    near_tol = mp.mpf("1e-40")
    err = max(moment_pass_errors(two_scale_measure(), 79, near_tol))
    rows.append(_row("two-scale moments vs 2x precision (relative to L1 mass)",
                     err, mp.ldexp(1, -bits)))
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
    tiny = ms.ComplexMeasure(
        [ms.MeasureComponent(("-1", "1"), "1e-60/pi", endpoint_singular=True)],
        waive_floor=True,
    )
    err = mp.mpf(0)
    for z in near_support_points("0.3", 1, ("1e-9", "1e-20", "1e-30")):
        exact = mp.mpf("1e-60") * arcsine_transform_exact(z)
        err = max(err, abs(ms.cauchy_transform(tiny, z, near_tol) - exact) / abs(exact))
    rows.append(_row("arcsine transform, mass 1e-60, 1e-9..1e-30 from the support (relative)",
                     err, mp.mpf("1e-35")))
    odd = ms.ComplexMeasure([ms.MeasureComponent(("-1", "1"), "t")])
    exact = odd_transform_exact("1e30")
    err = abs(ms.cauchy_transform(odd, mp.mpf("1e30"), near_tol) - exact) / abs(exact)
    rows.append(_row("integral of t/(z-t) at z = 1e30 (cancellation)", err, mp.mpf("1e-45")))
    var = ms.argument_variation_f64(
        ms.ComplexMeasure([ms.MeasureComponent(("-6/7", "-1/8"), "exp(i*t)")]), 4096
    )
    rows.append(_row("argument variation of exp(it)", abs(var - mp.mpf(41) / 56), mp.mpf("1e-6")))
    # d/dt arg((t-3/5)/(t-2i)) = -2/(t^2+4) on [2/5, 1/2]
    var = ms.argument_variation_f64(
        ms.ComplexMeasure([ms.MeasureComponent(("2/5", "1/2"), "(t-3/5)/(t-2*i)")]), 4096
    )
    exact = mp.atan(mp.mpf(1) / 4) - mp.atan(mp.mpf(1) / 5)
    rows.append(_row("argument variation of (t-3/5)/(t-2i) = atan(1/4)-atan(1/5)",
                     abs(var - exact), mp.mpf("1e-6")))
    return rows
