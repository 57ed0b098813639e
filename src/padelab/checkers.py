"""Quantitative pass/fail reports on the limit behavior of a solved family.

Limit statements are proxied by finite-n diagnostics: liminf/limsup over n
become min/max over the top third of the solved range, weak-* convergence
becomes a Kolmogorov distance trend, and convergence in capacity becomes the
fraction of a sampling grid where the n-th root error misses its predicted
level. Every checker reports raw numbers alongside its verdict.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_atan2, mpf_neg, mpf_pi, mpf_sub

from . import measure as ms
from .algebra import fixed_abs, support_distance, trend_slope
from .potential import (
    DiscreteMeasure,
    IntervalSystem,
    balayage,
    green_potential,
    weakstar_distance,
)
from .scheme import arg_variation_on_hull

__all__ = [
    "angle",
    "variation_budget",
    "check_pole_distribution",
    "check_pole_attraction",
    "check_capacity_convergence",
    "covering_system",
]

BUDGET_SLACK = mp.mpf("1e-10")
# sampling grid of the density argument variation
VAR_GRID_N = 2048
# share of the solved range whose min/max stand in for liminf/limsup
TOP_FRACTION = mp.mpf(1) / 3
# pole distribution: poles kept near the support, trend inversions allowed,
# and the default bound on the final distance
RESTRICT_RADIUS = mp.mpf(0.1)
MAX_INVERSIONS = 1
DISTRIBUTION_THRESHOLD = 0.15
# capacity convergence: level tolerance, bad-fraction threshold, and the
# clearances of grid points from the support and from approximant poles
EPS_CAP = mp.mpf("0.1")
FRAC_THRESHOLD = mp.mpf("0.1")
SUPPORT_CLEARANCE = mp.mpf("0.15")
SPURIOUS_CLEARANCE = mp.mpf("0.05")
# default capacity grid: the hull padded on both sides, times [-1, 1]
CAPACITY_NX, CAPACITY_NY = 24, 14
CAPACITY_PAD = mp.mpf("0.75")


def angle(xi, system) -> mp.mpf:
    """Total angle under which the interval system is seen from xi.

    Sum over intervals of |Arg(a - xi) - Arg(b - xi)|, with the principal
    argument in (-pi, pi]; equals pi exactly when xi lies in the system
    (endpoint convention through Arg(0) = pi, which makes the argument left
    continuous on the real axis). Evaluated on raw ``_mpf_`` tuples with the
    libmp functions that ``mp.arg`` of ``a - mp.mpc(xi)`` and the sum call.
    """
    intervals = system.intervals if isinstance(system, IntervalSystem) else system
    x, y = mp.mpc(xi)._mpc_
    prec, rnd = mp.mp._prec_rounding
    im = mpf_neg(y, prec, rnd)  # what mpc_sub makes of 0 - y
    total = fzero
    for a, b in intervals:
        res = [mpf_sub(mp.convert(end)._mpf_, x, prec, rnd) for end in (a, b)]
        args = [mpf_pi(prec, rnd) if re == im == fzero else mpf_atan2(im, re, prec, rnd)
                for re in res]
        total = mpf_add(total, mpf_abs(mpf_sub(*args, prec, rnd), prec, rnd), prec, rnd)
    return mp.make_mpf(total)


def covering_system(lam) -> IntervalSystem:
    """Default covering system: the measure's own support intervals."""
    if lam.is_empty():
        raise ValueError("empty measure has no covering system")
    return IntervalSystem(lam.intervals)


def _density_variation(lam) -> mp.mpf:
    """Argument variation of the density in float64, computed once per measure."""
    if lam.is_empty():
        return mp.mpf(0)
    if VAR_GRID_N not in lam.variation_cache:
        lam.variation_cache[VAR_GRID_N] = ms.argument_variation_f64(lam, VAR_GRID_N)
    return lam.variation_cache[VAR_GRID_N]


def _budget_rhs(family, system, upper_variant: bool):
    lam, rational, scheme = family.lam, family.rational, family.scheme
    m = len(system.intervals)
    s = rational.s
    v_phi = _density_variation(lam)
    hull = lam.hull
    v_a = mp.mpf(0)
    for n in family.solved_ns:
        v_a = max(v_a, arg_variation_on_hull(scheme, n, hull))
    theta_sum = mp.fsum(
        p.multiplicity * angle(p.eta, system) for p in rational.poles
    )
    if upper_variant:
        # no support poles in this artifact, so the s' term drops out
        rhs = v_phi + v_a + (m - 1) * mp.pi + 2 * theta_sum
    else:
        rhs = v_phi + v_a + theta_sum + (m + s - 1) * mp.pi
    return rhs, v_phi, v_a


def variation_budget(family, system=None):
    """Angle-count budget: root defect mass versus the variation bound.

    For each solved n the left side adds pi - angle(root) over the roots of
    the denominator plus pi per unit of defect; it must stay below the fixed
    budget built from the density argument variation, the scheme variation,
    the pole angles, and the interval count.
    """
    if system is None:
        system = covering_system(family.lam)
    rhs, v_phi, v_a = _budget_rhs(family, system, False)
    per_n = []
    all_ok = True
    for n in family.solved_ns:
        approx = family.approximants[n]
        lhs = mp.fsum(mp.pi - angle(xi, system) for xi in approx.poles)
        lhs += approx.defect * mp.pi
        ok = lhs <= rhs + BUDGET_SLACK
        all_ok = all_ok and ok
        per_n.append({"n": n, "lhs": lhs, "defect": approx.defect, "ok": ok})
    return {
        "rhs": rhs,
        "v_phi": v_phi,
        "v_scheme": v_a,
        "per_n": per_n,
        "pass": all_ok,
    }


def check_pole_distribution(family, sigma=None, S=None, threshold=DISTRIBUTION_THRESHOLD):
    """Kolmogorov distance of near-support pole counting measures to the
    swept node distribution, with its trend over n.

    Poles beyond ``RESTRICT_RADIUS`` of the support are set aside (their
    number is bounded independently of n) and both measures are renormalized
    to unit mass before comparing.
    """
    if S is None:
        S = covering_system(family.lam)
    if sigma is None:
        sigma = family.scheme.sigma()
    hat = balayage(sigma, S)
    hat_unit = hat.scaled(1 / hat.mass)
    rows = []
    for n in family.solved_ns:
        approx = family.approximants[n]
        near = [p for p in approx.poles if support_distance(p, S.intervals) <= RESTRICT_RADIUS]
        if near:
            nu = DiscreteMeasure(
                [mp.mpc(p.real) for p in near],
                [mp.mpf(1) / len(near)] * len(near),
            )
            dist = weakstar_distance(nu, hat_unit)
        else:
            dist = mp.mpf(1)
        rows.append(
            {
                "n": n,
                "distance": dist,
                "poles_kept": len(near),
                "poles_total": len(approx.poles),
            }
        )
    dists = [r["distance"] for r in rows]
    inversions = sum(
        1 for u, v in zip(dists, dists[1:]) if v > u + mp.mpf("1e-12")
    )
    final = dists[-1] if dists else mp.mpf(1)
    ok = final <= mp.mpf(threshold) and inversions <= MAX_INVERSIONS
    return {
        "per_n": rows,
        "final_distance": final,
        "inversions": inversions,
        "trend_slope": trend_slope([r["n"] for r in rows], dists),
        "threshold": mp.mpf(threshold),
        "pass": ok,
    }


def attraction_radius(eta, family, S=None) -> mp.mpf:
    """Half the separation of a pole from the support and the other poles."""
    if S is None:
        S = covering_system(family.lam)
    eta = mp.mpc(eta)
    d = support_distance(eta, S.intervals)
    for other in family.rational.pole_locations():
        if other != eta:
            d = min(d, abs(eta - other))
    return d / 2


def check_pole_attraction(family, system=None):
    """Counts of approximant poles inside the attraction disk of each pole.

    The liminf proxy (min over the top third of the solved range) must reach
    the multiplicity; the weighted excess over multiplicities is compared
    against the variation budget for the upper characteristic.
    """
    rational = family.rational
    if rational.is_empty():
        return {"poles": [], "pass": True, "excess_bound_ok": True}
    if system is None:
        system = covering_system(family.lam)
    ns = family.solved_ns
    window = ns[-max(1, int(mp.ceil(len(ns) * TOP_FRACTION))):]
    rows = []
    excess_sum = mp.mpf(0)
    lower_ok = True
    for pole in rational.poles:
        eta = pole.eta
        rho = attraction_radius(eta, family, system)
        counts = {}
        nearest = {}
        for n in ns:
            poles_n = family.approximants[n].poles
            counts[n] = sum(1 for p in poles_n if abs(p - eta) <= rho)
            nearest[n] = min((abs(p - eta) for p in poles_n), default=mp.inf)
        liminf_proxy = min(counts[n] for n in window)
        limsup_proxy = max(counts[n] for n in window)
        ok = liminf_proxy >= pole.multiplicity
        lower_ok = lower_ok and ok
        theta = angle(eta, system)
        excess_sum += (limsup_proxy - pole.multiplicity) * (mp.pi - theta)
        rows.append(
            {
                "eta": eta,
                "multiplicity": pole.multiplicity,
                "radius": rho,
                "counts": counts,
                "nearest_distance": nearest,
                "liminf_proxy": liminf_proxy,
                "limsup_proxy": limsup_proxy,
                "lower_ok": ok,
            }
        )
    bound, _, _ = _budget_rhs(family, system, True)
    excess_ok = excess_sum <= bound + BUDGET_SLACK
    return {
        "poles": rows,
        "window": list(window),
        "excess_weighted": excess_sum,
        "excess_bound": bound,
        "excess_bound_ok": excess_ok,
        "pass": lower_ok and excess_ok,
    }


def default_capacity_grid(family):
    a, b = family.lam.hull
    return {
        "re_min": a - CAPACITY_PAD,
        "re_max": b + CAPACITY_PAD,
        "im_min": -mp.mpf(1),
        "im_max": mp.mpf(1),
        "nx": CAPACITY_NX,
        "ny": CAPACITY_NY,
    }


def _clear_of(points, poles, radius) -> list[bool]:
    """For each point, whether no pole p has abs(z - p) < radius.

    Decided in float64, whose distances are off by about 1e-15 (|z| + |p|);
    a pair within 1e-9 of that scale of the radius is decided by the mpmath
    comparison itself, so every answer is the mpmath one.
    """
    if not poles:
        return [True] * len(points)
    z = np.array([complex(x) for x in points])[:, None]
    p = np.array([complex(x) for x in poles])[None, :]
    r = float(radius)
    with np.errstate(all="ignore"):
        d = np.abs(z - p)
        near = np.abs(d - r) <= 1e-9 * (r + np.abs(z) + np.abs(p))
    hit = ((d < r) & ~near).any(axis=1)
    return [
        not (hit[i] or any(abs(x - poles[j]) < radius for j in np.flatnonzero(near[i])))
        for i, x in enumerate(points)
    ]


def _level_missed(squares, n: int, pred) -> bool:
    """Whether the n-th root level err^(1/2n) is more than ``EPS_CAP`` off
    pred, for the error err given as the integers (num, den, e) of
    :meth:`pade.PadeApproximant.error_squares`.

    The level is read in float64 from log2 of the integers, so no error
    underflows, and is good to about 1e-12; an answer within 1e-9 of the
    tolerance is left to the mpmath pow of err rounded once
    (:func:`algebra.fixed_abs`), so every answer is the mpmath one.
    """
    num, den, e = squares
    obs = 0.0
    if num:
        # beyond the float range the level only has to read large
        obs = 2.0 ** min((0.5 * (math.log2(num) - math.log2(den)) + e) / (2 * n), 1000.0)
    gap = abs(obs - float(pred)) - float(EPS_CAP)
    if abs(gap) > 1e-9:
        return gap > 0
    return abs(fixed_abs(squares) ** (mp.mpf(1) / (2 * n)) - pred) > EPS_CAP


def check_capacity_convergence(family, sigma=None, S=None, grid_spec=None, tol=None):
    """n-th root error levels on a grid versus the Green-potential prediction.

    observed(z, n) = |F - Pi_n|^(1/2n) is compared against the Green
    potential of the probability-normalized node distribution, i.e.
    exp(-U/2) for the mass-2 sigma carried by the scheme (for the
    all-at-infinity scheme this is exp(-g(z, inf)), the level the exact
    arcsine solution attains). The fraction of grid points off by more than
    ``EPS_CAP`` stands in for the capacity of the exceptional set and must
    be small at the largest n and shrinking with n.
    """
    if S is None:
        S = covering_system(family.lam)
    if sigma is None:
        sigma = family.scheme.sigma()
    if grid_spec is None:
        grid_spec = default_capacity_grid(family)
    nx, ny = int(grid_spec["nx"]), int(grid_spec["ny"])
    re0, re1 = mp.mpf(grid_spec["re_min"]), mp.mpf(grid_spec["re_max"])
    im0, im1 = mp.mpf(grid_spec["im_min"]), mp.mpf(grid_spec["im_max"])
    pole_clear = {
        pole.eta: attraction_radius(pole.eta, family, S)
        for pole in family.rational.poles
    }
    pts = []
    for iy in range(ny):
        for ix in range(nx):
            z = mp.mpc(
                re0 + (re1 - re0) * ix / (nx - 1),
                im0 + (im1 - im0) * iy / (ny - 1),
            )
            if support_distance(z, S.intervals) < SUPPORT_CLEARANCE:
                continue
            if any(abs(z - eta) < r for eta, r in pole_clear.items()):
                continue
            pts.append(z)
    grid = family.sample_F(pts, tol)
    preds = [mp.exp(-green_potential(sigma, S, z) / 2) for z in pts]
    rows = []
    for n in family.solved_ns:
        approx = family.approximants[n]
        clear = _clear_of(pts, approx.poles, SPURIOUS_CLEARANCE)
        used = 0
        bad = 0
        for ok, (g, f), pred in zip(clear, grid, preds):
            if not ok:
                continue
            used += 1
            if _level_missed(approx.error_squares(g, f), n, pred):
                bad += 1
        frac = mp.mpf(bad) / used if used else mp.mpf(1)
        rows.append({"n": n, "fraction": frac, "points": used})
    fracs = [r["fraction"] for r in rows]
    slope = trend_slope([r["n"] for r in rows], fracs)
    ok = fracs[-1] <= FRAC_THRESHOLD and (
        len(fracs) < 2 or slope <= mp.mpf("1e-9") or fracs[-1] <= fracs[0]
    )
    return {
        "per_n": rows,
        "final_fraction": fracs[-1] if fracs else mp.mpf(1),
        "trend_slope": slope,
        "eps": EPS_CAP,
        "threshold": FRAC_THRESHOLD,
        "pass": ok,
    }
