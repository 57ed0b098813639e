"""Interpolation schemes: node generation, node polynomials, admissibility.

A scheme supplies, for each n, the multiset of 2n interpolation nodes split
into finite nodes and a count at infinity, the monic node polynomial built
from the finite nodes, and a limiting node distribution of total mass 2
(finite discrete part plus an atom at infinity).

The admissibility diagnostics (:func:`arg_variation_on_hull`,
:func:`admissibility_report`) run in float64 on the finite nodes, never on
the coefficient form of v2n: on a float64 hull grid each node contributes
``arg(x - z_j)`` and ``Im 1/(x - z_j)``, and each grid row is summed with
``math.fsum``. Both terms are exactly odd in ``Im z_j`` (the first is formed
as a signed ``atan2`` of ``|Im z_j|``, the second divides ``Im z_j`` by an
even denominator), and fsum is exactly rounded, so a conjugate-symmetric
node set cancels to exactly 0, as the scheme's limit behaviour says it
should. Rounding noise at 1e-16 would not be harmless: it clears the
negligibility floor of the trend test (``2^-(prec/4)``) and can flag a
symmetric scheme as growing.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .algebra import (Poly, parse_complex, per_precision, real_literal, rounded,
                      support_distance, to_mpf, trend_slope)
from .errors import _checked_int, _known_keys, _reading
from .potential import DiscreteMeasure

__all__ = [
    "AsymptoticDistribution",
    "InterpolationScheme",
    "ClassicalScheme",
    "CircleScheme",
    "ExplicitScheme",
    "make_scheme",
    "admissibility_report",
    "arg_variation_on_hull",
]

# float64 hull grids of the scheme argument variation and the admissibility sups
ARG_GRID_POINTS = 1024
ADMISSIBILITY_GRID_POINTS = 512


class AsymptoticDistribution:
    """Limit of the normalized node counting measures; total mass 2."""

    __slots__ = ("finite", "mass_at_infinity")

    def __init__(self, finite: DiscreteMeasure | None, mass_at_infinity):
        self.finite = finite
        self.mass_at_infinity = mp.mpf(mass_at_infinity)
        total = self.mass_at_infinity + (finite.mass if finite is not None else 0)
        if abs(total - 2) > mp.mpf("1e-9"):
            raise ValueError(f"node distribution must have mass 2, got {mp.nstr(total, 10)}")


class InterpolationScheme:
    """Base interface; concrete kinds override nodes() and sigma()."""

    kind = "abstract"

    def nodes(self, n: int):
        """Finite nodes (list) and the count of nodes at infinity, 2n total."""
        raise NotImplementedError

    def v2n(self, n: int) -> Poly:
        return Poly.from_roots(self.nodes(n)[0])

    def sigma(self) -> AsymptoticDistribution:
        raise NotImplementedError


class ClassicalScheme(InterpolationScheme):
    """All interpolation at infinity; the node polynomial is 1."""

    kind = "classical"

    def nodes(self, n: int):
        return [], 2 * n

    def sigma(self) -> AsymptoticDistribution:
        return AsymptoticDistribution(None, 2)


class CircleScheme(InterpolationScheme):
    """2n equally spaced nodes on a circle; conjugate-symmetric for real
    center. The center and radius are kept exact and rounded at each working
    precision on first use there."""

    kind = "circle"

    def __init__(self, center="0", radius="3", sigma_points: int = 1024):
        with _reading("scheme.center"):
            self._exact = [parse_complex(center)]
        with _reading("scheme.radius"):
            self._exact.append(real_literal(radius))
        self.sigma_points = _checked_int(sigma_points, "scheme.sigma_points", 1)
        if self._exact[1] <= 0:
            raise ValueError("circle radius must be positive")
        self._at: dict[int, list] = {}

    @property
    def center(self) -> mp.mpc:
        return per_precision(self._at, lambda: rounded(self._exact))[0]

    @property
    def radius(self) -> mp.mpf:
        return per_precision(self._at, lambda: rounded(self._exact))[1]

    def _ring(self, count: int):
        # the lower half takes the conjugates of the upper offsets from the
        # centre, so every node is on the circle; for a real centre the set
        # is exactly conjugate-symmetric
        center, radius = self.center, self.radius
        ws = [radius * mp.expjpi(2 * mp.mpf(j) / count) for j in range(count // 2 + 1)]
        return [center + w for w in ws] + [
            center + mp.conj(ws[count - j]) for j in range(count // 2 + 1, count)
        ]

    def nodes(self, n: int):
        return self._ring(2 * n), 0

    def sigma(self) -> AsymptoticDistribution:
        m = self.sigma_points
        spacing = 2 * mp.pi * self.radius / m
        finite = DiscreteMeasure(self._ring(m), [mp.mpf(2) / m] * m, [spacing] * m)
        return AsymptoticDistribution(finite, 0)


class ExplicitScheme(InterpolationScheme):
    """Nodes listed per n; missing balance is placed at infinity. The nodes
    are kept exact and rounded at each working precision on first use there."""

    kind = "explicit"

    def __init__(self, nodes_by_n: dict):
        self._exact = {int(k): [] for k in nodes_by_n}
        for k, v in nodes_by_n.items():
            for j, z in enumerate(v):
                with _reading(f"scheme.nodes[{k!r}][{j}]"):
                    self._exact[int(k)].append(parse_complex(z))
        self._at: dict[int, dict] = {}

    @property
    def nodes_by_n(self) -> dict:
        return per_precision(self._at, lambda: rounded(self._exact))

    def nodes(self, n: int):
        finite = self.nodes_by_n.get(n)
        if finite is None:
            raise ValueError(f"no nodes listed for n={n}")
        if len(finite) > 2 * n:
            raise ValueError(f"more than 2n nodes listed for n={n}")
        return list(finite), 2 * n - len(finite)

    def sigma(self) -> AsymptoticDistribution:
        n_ref = max(self.nodes_by_n)
        finite, at_inf = self.nodes(n_ref)
        meas = None
        if finite:
            meas = DiscreteMeasure(finite, [mp.mpf(1) / n_ref] * len(finite))
        return AsymptoticDistribution(meas, mp.mpf(at_inf) / n_ref)


# the keys of a scheme spec besides "kind", per kind
_SCHEME_KEYS = {"classical": (), "circle": ("center", "radius", "sigma_points"),
                "explicit": ("nodes",)}


def make_scheme(spec: dict) -> InterpolationScheme:
    if not isinstance(spec, dict):
        raise ValueError(f"scheme must be an object, got {spec!r}")
    kind = spec.get("kind", "classical")
    if not isinstance(kind, str) or kind not in _SCHEME_KEYS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    _known_keys(spec, ("kind", *_SCHEME_KEYS[kind]), "scheme.")
    if kind == "classical":
        return ClassicalScheme()
    if kind == "circle":
        return CircleScheme(**{k: spec[k] for k in _SCHEME_KEYS[kind] if k in spec})
    if not isinstance(spec["nodes"], dict):
        raise ValueError(f"scheme.nodes must be an object mapping n to its nodes, "
                         f"got {spec['nodes']!r}")
    for n, nodes in spec["nodes"].items():
        # a string would be read character by character
        if not isinstance(nodes, list):
            raise ValueError(f"scheme.nodes[{n!r}] must be a list of complex literals, "
                             f"got {nodes!r}")
    return ExplicitScheme(spec["nodes"])


def _node_rows(finite, hull, grid_points):
    """``x - Re z_j`` on a float64 hull grid (rows) and ``Im z_j`` (one row)."""
    a, b = float(to_mpf(hull[0])), float(to_mpf(hull[1]))
    x = a + (b - a) * np.arange(grid_points) / (grid_points - 1)
    z = np.array([complex(w) for w in finite], dtype=np.complex128)
    return x[:, None] - z.real[None, :], z.imag[None, :]


def _row_fsums(terms) -> np.ndarray:
    return np.array([math.fsum(row) for row in terms.tolist()])


def arg_variation_on_hull(scheme, n, hull) -> mp.mpf:
    """Variation of the unwrapped argument of the node polynomial on the hull.

    ``arg v2n(x)`` is the fsum over the finite nodes of
    ``arg(x - z_j) = atan2(-Im z_j, x - Re z_j)`` on a float64 grid, so
    conjugate pairs cancel exactly.
    """
    finite, _ = scheme.nodes(n)
    if not finite:
        return mp.mpf(0)
    dx, y = _node_rows(finite, hull, ARG_GRID_POINTS)
    # copysign makes the term odd in Im z_j whatever the atan2 implementation
    arg_v = _row_fsums(np.copysign(np.arctan2(np.abs(y), dx), -y))
    step = np.fmod(np.diff(arg_v) + math.pi, 2 * math.pi)
    step = np.where(step <= 0, step + 2 * math.pi, step) - math.pi
    return mp.mpf(math.fsum(np.abs(step)))


def _positive_slope(ns, values) -> bool:
    """Whether the least-squares slope of log value vs log n exceeds 0.1, over
    the entries above 2^-(prec // 4)."""
    floor = mp.mpf(2) ** (-(mp.mp.prec // 4))
    pts = [(mp.log(n), mp.log(v)) for n, v in zip(ns, values) if v > floor]
    if len(pts) < 2:
        return False
    return trend_slope([p[0] for p in pts], [p[1] for p in pts]) > 0.1


def admissibility_report(scheme, n_range, hull, poles=()):
    """Numerical diagnostics for the admissibility of a scheme.

    For each n reports (a) the minimal distance of finite nodes to the hull
    of the support and to the given poles, (b) the sup of |d/dx arg v2n| on
    a hull grid, and (c) the sup over the hull of n times the imaginary part
    of the Cauchy kernel of the node counting measure. A diagnostic whose
    log-log trend against n has slope above 0.1 is flagged, and the scheme
    is ``admissible``, the report's ``pass``, when no flag is raised.

    Since ``v2n'/v2n = sum 1/(x - z_j)``, (b) and (c) are one quantity: the
    sup over a float64 grid of the fsum of ``Im z_j / |x - z_j|^2``, which
    is exactly 0 for a conjugate-symmetric node set. Both keys report it, and
    both flags its one trend.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("n_range must be nonempty")
    a, b = to_mpf(hull[0]), to_mpf(hull[1])
    rows = []
    for n in ns:
        finite, _ = scheme.nodes(n)
        if finite:
            dists = []
            for z in finite:
                d = support_distance(z, [(a, b)])
                for eta in poles:
                    d = min(d, abs(z - mp.mpc(eta)))
                dists.append(d)
            min_dist = min(dists)
            dx, y = _node_rows(finite, hull, ADMISSIBILITY_GRID_POINTS)
            # a real node adds Im 1/(x - z_j) = 0, also where it meets the grid
            im_kernel = np.divide(y, dx * dx + y * y, out=np.zeros_like(dx),
                                  where=y != 0)
            sup = mp.mpf(float(np.max(np.abs(_row_fsums(im_kernel)))))
        else:
            min_dist = mp.inf
            sup = mp.mpf(0)
        rows.append(
            {
                "n": n,
                "min_node_distance": min_dist,
                "sup_darg_v2n": sup,
                "sup_n_im_kernel": sup,
            }
        )
    growing = _positive_slope(ns, [r["sup_darg_v2n"] for r in rows])
    flags = {
        "darg_growing": growing,
        "kernel_growing": growing,
        "nodes_approach_singularities": any(
            r["min_node_distance"] < mp.mpf("1e-6") for r in rows
        ),
    }
    admissible = not any(flags.values())
    return {"rows": rows, "flags": flags, "admissible": admissible, "pass": admissible}
