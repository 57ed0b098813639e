"""Problem ingestion, experiment orchestration, and artifact emission.

Configs are JSON with exact decimal/rational literals for every numeric
input, so a parse at any precision is lossless. A run solves the requested
n values, computes the error curve on the configured circle, executes the
enabled checkers, and writes per-n CSV/JSON artifacts plus a report, the
run's index: a check loads the approximants it lists and rewrites only its
verdicts. Runs at equal precision are byte-identical: nothing time- or
environment-dependent is written to the output files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import mpmath as mp

from . import algebra, checkers, measure as ms, pade, potential, scheme as sch
from .errors import InvalidConfig, PadelabError, _checked_int, _known_keys, _reading

DEFAULT_CIRCLE_POINTS = 256
# the checkers' on/off switches under "checkers", each on unless set to false
CHECKERS = ("admissibility", "variation_budget", "pole_distribution", "pole_attraction",
            "capacity_convergence")
# the keys a config and each of its objects may hold (the scheme's, per kind,
# are in scheme.make_scheme); any other key is rejected as a misspelling
CONFIG_KEYS = ("name", "precision_bits", "measure", "rational", "scheme", "n_range",
               "tolerances", "error_circle", "capacity_grid", "collocation_points",
               "checkers", "output_dir")
SECTION_KEYS = {
    "tolerances": ("quad_rel", "density_floor", "waive_density_floor"),
    "checkers": (*CHECKERS, "distribution_threshold"),
    "error_circle": ("center", "radius", "points"),
    "capacity_grid": ("re_min", "re_max", "im_min", "im_max", "nx", "ny"),
}
COMPONENT_KEYS = ("interval", "density", "endpoint_singular")
POLE_KEYS = ("pole", "multiplicity", "coeffs")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class ProblemConfig:
    """Validated view over a raw config dict; the raw dict round-trips."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
        self.raw = raw
        _known_keys(raw, CONFIG_KEYS, "")
        for key, keys in SECTION_KEYS.items():
            _known_keys(raw.get(key), keys, f"{key}.")
        self.name = raw.get("name", "problem")
        try:
            self.precision_bits = _checked_int(
                raw.get("precision_bits", algebra.DEFAULT_PRECISION_BITS),
                "precision_bits", algebra.MIN_PRECISION_BITS)
            self.n_range = self.requested_ns(raw.get("n_range", []), "n_range")
            for key in ("tolerances", "checkers", "error_circle"):
                if not isinstance(raw.get(key, {}), dict):
                    raise InvalidConfig(f"{key} must be an object")
            self.tolerances = dict(raw.get("tolerances", {}))
            self.error_circle = dict(raw.get("error_circle", {}))
            self.capacity_grid = raw.get("capacity_grid")
            # the cap on the Chebyshev modes per interval of the potential solves
            self.collocation_points = _checked_int(
                raw.get("collocation_points", potential.DEFAULT_MAX_MODES),
                "collocation_points", 1)
            self.output_dir = raw.get("output_dir", f"runs/{self.name}")
            if not isinstance(self.output_dir, str):
                raise InvalidConfig(f"output_dir must be a string, got {self.output_dir!r}")
            self._validate_exact_literals()
            self._validate_switches()
            self._validate_sampling()
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidConfig(str(exc)) from exc
        if not raw.get("measure"):
            raise InvalidConfig("measure must be a nonempty list of components")

    def requested_ns(self, values, field="n override"):
        """n values as ints >= 1, each listed by an explicit scheme (<= 2n nodes)."""
        ns = [_checked_int(n, f"{field} entries", 1) for n in values]
        if not ns:
            raise InvalidConfig(f"{field} must be a nonempty list")
        scheme = self.build_scheme()
        if isinstance(scheme, sch.ExplicitScheme):
            try:
                for n in ns:
                    scheme.nodes(n)
            except ValueError as exc:
                raise InvalidConfig(str(exc)) from exc
        return ns

    def _validate_exact_literals(self):
        """Build each measure component (a < b, a known density, a boolean
        ``endpoint_singular``) and pole."""
        for k, comp in enumerate(self.raw.get("measure", [])):
            _known_keys(comp, COMPONENT_KEYS, f"measure[{k}].")
            with _reading(f"measure[{k}]"):
                ms.MeasureComponent(comp["interval"], comp["density"])
            _checked_bool(comp, "endpoint_singular", f"measure[{k}].")
        for k, pole in enumerate(self.raw.get("rational", [])):
            _known_keys(pole, POLE_KEYS, f"rational[{k}].")
            with _reading(f"rational[{k}]"):
                ms.RationalPart.Pole(pole["pole"], pole["multiplicity"], pole["coeffs"])

    def _validate_switches(self):
        """The boolean switches, the density floor and the pole distribution
        threshold, kept as the run reads them."""
        self.waive_density_floor = _checked_bool(
            self.tolerances, "waive_density_floor", "tolerances.")
        self.density_floor()
        switches = self.raw.get("checkers", {})
        self.enabled_checkers = [name for name in CHECKERS
                                 if _checked_bool(switches, name, "checkers.", True)]
        value = self.distribution_threshold = switches.get(
            "distribution_threshold", checkers.DISTRIBUTION_THRESHOLD)
        try:
            finite = not isinstance(value, bool) and mp.isfinite(mp.mpf(value))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise InvalidConfig(
                f"checkers.distribution_threshold must be a finite number, got {value!r}")

    def _validate_sampling(self):
        """The fields that feed eval_F: the quadrature tolerance, the error
        circle and the capacity grid."""
        tol = self.quad_tol()
        if tol is not None and not (mp.isfinite(tol) and tol > 0):
            raise ValueError("tolerances.quad_rel must be finite and > 0")
        _, radius, _ = self.circle_spec()
        if not radius > 0:
            raise ValueError("error_circle.radius must be > 0")
        grid = self.capacity_grid
        if grid is None:
            return
        with _reading("capacity_grid"):
            for key in ("nx", "ny"):
                _checked_int(grid[key], f"capacity_grid.{key}", 2)
            for lo, hi in (("re_min", "re_max"), ("im_min", "im_max")):
                if not algebra.to_mpf(grid[lo]) < algebra.to_mpf(grid[hi]):
                    raise ValueError(f"{lo} must be below {hi}")

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # -- materialization at the current precision ---------------------------

    def build_measure(self) -> ms.ComplexMeasure:
        comps = [
            ms.MeasureComponent(
                (c["interval"][0], c["interval"][1]),
                c["density"],
                c.get("endpoint_singular", False),
            )
            for c in self.raw.get("measure", [])
        ]
        with _reading("measure"):
            return ms.ComplexMeasure(comps, density_floor=self.density_floor(),
                                     waive_floor=self.waive_density_floor)

    def build_rational(self) -> ms.RationalPart:
        with _reading("rational"):
            return ms.RationalPart([(p["pole"], p["multiplicity"], p["coeffs"])
                                    for p in self.raw.get("rational", [])])

    def build_scheme(self) -> sch.InterpolationScheme:
        try:
            return sch.make_scheme(self.raw.get("scheme", {"kind": "classical"}))
        except (ValueError, KeyError) as exc:
            raise InvalidConfig(str(exc)) from exc

    def density_floor(self):
        """``tolerances.density_floor``; a value that is not finite (a "nan"
        compares false with every density) would waive the floor."""
        value = self.tolerances.get("density_floor", ms.DENSITY_FLOOR)
        floor = mp.mpf(str(value))
        if not mp.isfinite(floor):
            raise InvalidConfig(f"tolerances.density_floor must be finite, got {value!r}")
        return floor

    def quad_tol(self):
        val = self.tolerances.get("quad_rel")
        return mp.mpf(str(val)) if val is not None else None

    def circle_spec(self):
        """Centre, radius and number of points of the error circle."""
        circle = self.error_circle
        with _reading("error_circle.center"):
            center = algebra.to_mpc(circle.get("center", "0"))
        with _reading("error_circle.radius"):
            radius = algebra.to_mpf(circle.get("radius", "1"))
        return center, radius, _checked_int(circle.get("points", DEFAULT_CIRCLE_POINTS),
                                            "error_circle.points", 1)


def _checked_bool(section: dict, key: str, prefix: str, default: bool = False) -> bool:
    """``section[key]``, or ``default`` when it is absent; raise unless it is
    a JSON boolean."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise InvalidConfig(f"{prefix}{key} must be true or false, got {value!r}")
    return value


def bundled_config_path(name: str):
    fname = name if name.endswith(".json") else name + ".json"
    ref = resources.files("padelab").joinpath("configs", fname)
    if not ref.is_file():
        raise InvalidConfig(f"no bundled config named {name!r}")
    return ref


def load_config(spec: str) -> ProblemConfig:
    """Load a config from a path, or by bundled name."""
    p = Path(spec)
    ref = p if p.is_file() else bundled_config_path(spec)
    with _reading(f"cannot parse {ref}"):
        raw = json.loads(ref.read_text(encoding="utf-8"))
    return ProblemConfig(raw)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class RunRecord:
    """Everything a run produced; timings stay in memory, never in files."""

    def __init__(self, config: ProblemConfig):
        self.config = config
        self.family: pade.PadeFamily | None = None
        self.circle_errors: dict[int, list] = {}
        self.checker_reports: dict[str, dict] = {}
        self.assumptions: list[str] = []
        self.timings: dict[str, float] = {}
        self.precision_bits = None

    @property
    def all_solved(self) -> bool:
        return self.family is not None and not self.family.failures

    @property
    def checkers_pass(self) -> bool:
        return all(
            bool(rep.get("pass", True)) for rep in self.checker_reports.values()
        )

    @property
    def passed(self) -> bool:
        """The report's ``pass``: every n solved and every checker passed."""
        return self.all_solved and self.checkers_pass


def _circle_errors(family, center, radius, points, tol):
    """|F - Pi_n| at ``points`` equispaced angles on the circle, per solved n:
    rows (theta, error), each error rounded once from the integers of
    :meth:`pade.PadeApproximant.error_squares`."""
    zs = [center + radius * mp.expjpi(2 * mp.mpf(k) / points) for k in range(points)]
    thetas = [2 * mp.pi * k / points for k in range(points)]
    grid = family.sample_F(zs, tol)
    return {
        n: [(theta, algebra.fixed_abs(family.approximants[n].error_squares(g, f)))
            for theta, (g, f) in zip(thetas, grid)]
        for n in family.solved_ns
    }


def _assumptions(config: ProblemConfig) -> list[str]:
    out = []
    if any("log" in ms.DensityExpr(c["density"]).functions
           for c in config.raw.get("measure", [])):
        out.append(
            "log in densities is the principal complex branch: a negative real x "
            "gives log|x| + pi*i"
        )
    scheme = config.build_scheme()
    if isinstance(scheme, sch.CircleScheme) and scheme.center.imag != 0:
        out.append(
            f"circle scheme centre {mp.nstr(scheme.center, 8)} is not real, so the "
            "nodes and sigma are not conjugate-symmetric, which the paper assumes"
        )
    center, radius, points = config.circle_spec()
    out.append(
        f"error curve sampled at {points} equispaced angles on "
        f"|z - ({mp.nstr(center, 8)})| = {mp.nstr(radius, 8)}"
    )
    out.append("capacity exceptional sets are measured by grid fraction, not true capacity")
    out.append("liminf/limsup over n are proxied by min/max over the top third of n_range")
    return out


def _start_record(config: ProblemConfig, precision_override) -> RunRecord:
    """A fresh record at the run precision, which this sets run-wide."""
    record = RunRecord(config)
    bits = config.precision_bits if precision_override is None else precision_override
    record.precision_bits = _checked_int(bits, "precision override", algebra.MIN_PRECISION_BITS)
    algebra.set_precision(record.precision_bits)
    return record


def run(config: ProblemConfig, out_dir=None, n_override=None,
        precision_override=None) -> RunRecord:
    """Solve every requested n, run the enabled checkers, write artifacts."""
    record = _start_record(config, precision_override)
    record.assumptions = _assumptions(config)
    lam = config.build_measure()
    rational = config.build_rational()
    with _reading("rational"):
        rational.check_clear_of(lam)
    scheme = config.build_scheme()
    ns = config.requested_ns(n_override) if n_override is not None else config.n_range
    tol = config.quad_tol()

    t0 = time.perf_counter()
    record.family = pade.solve_family(lam, rational, scheme, ns, tol)
    record.timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if record.family.solved_ns:
        center, radius, points = config.circle_spec()
        record.circle_errors = _circle_errors(
            record.family, center, radius, points, tol
        )
    record.timings["error_circle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _run_checkers(record, lam, scheme, config)
    record.timings["checkers"] = time.perf_counter() - t0

    emit_outputs(record, out_dir or config.output_dir)
    return record


def _run_checkers(record: RunRecord, lam, scheme, config: ProblemConfig):
    family = record.family
    if not family.solved_ns:
        return
    S = potential.IntervalSystem(lam.intervals, config.collocation_points)
    # one sigma for both checkers, so S sweeps its finite part once
    sigma = scheme.sigma()

    def guarded(name, fn):
        if name not in config.enabled_checkers:
            return
        try:
            record.checker_reports[name] = fn()
        except PadelabError as exc:
            record.checker_reports[name] = {"pass": False, "error": str(exc)}

    guarded(
        "admissibility",
        lambda: sch.admissibility_report(
            scheme, family.solved_ns, lam.hull, family.rational.pole_locations()
        ),
    )
    guarded("variation_budget", lambda: checkers.variation_budget(family, S))
    guarded(
        "pole_distribution",
        lambda: checkers.check_pole_distribution(
            family,
            sigma=sigma,
            S=S,
            threshold=config.distribution_threshold,
        ),
    )
    guarded("pole_attraction", lambda: checkers.check_pole_attraction(family, S))
    guarded(
        "capacity_convergence",
        lambda: checkers.check_capacity_convergence(
            family,
            sigma=sigma,
            S=S,
            grid_spec=config.capacity_grid,
            tol=config.quad_tol(),
        ),
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _num(x):
    """Diagnostic value for the report: float is plenty and reads cleanly."""
    if isinstance(x, (mp.mpf, mp.mpc)):
        if mp.im(x) != 0:
            return [float(mp.re(x)), float(mp.im(x))]
        v = float(mp.re(x))
        # keep the emitted report strict JSON
        return v if math.isfinite(v) else mp.nstr(mp.re(x), 6)
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (mp.mpf, mp.mpc)):
        return _num(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def _singularities(config: ProblemConfig):
    """The config's intervals and poles with their labels, each parsed once."""
    intervals = [
        (f"interval[{a},{b}]", [(algebra.to_mpf(a), algebra.to_mpf(b))])
        for a, b in (c["interval"] for c in config.raw.get("measure", []))
    ]
    poles = [(f"pole[{p['pole']}]", algebra.to_mpc(p["pole"]))
             for p in config.raw.get("rational", [])]
    return intervals, poles


def _nearest_singularity(pole, singularities):
    """Label and distance of the interval or pole of :func:`_singularities`
    nearest ``pole``; the first listed wins a tie."""
    intervals, poles = singularities
    found = [(label, algebra.support_distance(pole, iv)) for label, iv in intervals]
    found += [(label, abs(pole - eta)) for label, eta in poles]
    return min(found, key=lambda item: item[1])


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def emit_outputs(record: RunRecord, out_dir) -> list[str]:
    """Write poles/error CSVs, approximant JSONs, and the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = record.config
    family = record.family
    lam = family.lam
    digits = 20
    singularities = _singularities(config)
    written = []
    # every n is graded at the same angles: each is formed as text once
    angles = {}

    for n in family.solved_ns:
        approx = family.approximants[n]
        path = out / f"poles_n{n}.csv"
        lines = ["re,im,nearest_singularity,distance"]
        for p in approx.poles:
            label, dist = _nearest_singularity(p, singularities)
            lines.append(
                f"{mp.nstr(p.real, digits)},{mp.nstr(p.imag, digits)},"
                f"{label},{mp.nstr(dist, digits)}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(path))

        path = out / f"error_circle_n{n}.csv"
        lines = ["theta,abs_error"]
        for theta, err in record.circle_errors.get(n, []):
            if theta not in angles:
                angles[theta] = mp.nstr(theta, digits)
            lines.append(f"{angles[theta]},{mp.nstr(err, digits)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(path))

        path = out / f"approximant_n{n}.json"
        # full digits of the precision this n was solved at
        with algebra.working_precision(approx.precision_bits):
            doc = {
                "n": n,
                "scheme": approx.scheme_id,
                "defect": approx.defect,
                "residual": algebra.format_real(approx.residual),
                "shifted_residual": algebra.format_real(approx.shifted_residual or 0),
                "p_residual": algebra.format_real(approx.p_residual or 0),
                "nullspace_dimension": approx.nullity,
                "precision_bits": approx.precision_bits,
                "escalated": approx.escalated,
                "quad_tol": algebra.format_real(approx.quad_tol),
                "q": [algebra.format_complex_pair(c) for c in approx.q.coeffs],
                "p": [algebra.format_complex_pair(c) for c in approx.p.coeffs],
                "poles": [algebra.format_complex_pair(p) for p in approx.poles],
            }
        _write_json(path, doc)
        written.append(str(path))

    per_n = {}
    for n in family.solved_ns:
        approx = family.approximants[n]
        entry = {
            "defect": approx.defect,
            "residual": _num(approx.residual),
            "shifted_residual": _num(mp.mpf(approx.shifted_residual or 0)),
            "escalated": approx.escalated,
        }
        errs = sorted(e for _, e in record.circle_errors.get(n, []))
        if errs:
            mid = len(errs) // 2
            med = errs[mid] if len(errs) % 2 else (errs[mid - 1] + errs[mid]) / 2
            entry["circle_error_max"] = _num(errs[-1])
            entry["circle_error_median"] = _num(med)
            entry["circle_error_log10_max"] = _num(mp.log10(errs[-1])) if errs[-1] > 0 else None
            entry["circle_error_log10_median"] = _num(mp.log10(med)) if med > 0 else None
        per_n[str(n)] = entry

    report = {
        "name": config.name,
        "config_hash": config.config_hash(),
        "precision_bits": record.precision_bits,
        "assumptions": record.assumptions,
        "n_solved": family.solved_ns,
        "n_failed": dict(sorted(family.failures.items())),
        "density_floor_observed": _num(lam.floor_observed) if lam.floor_observed is not None else None,
        "per_n": per_n,
        "checkers": _jsonable(record.checker_reports),
        "all_solved": record.all_solved,
        "pass": record.passed,
    }
    path = out / "report.json"
    _write_json(path, report)
    written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# regrading a stored run
# ---------------------------------------------------------------------------


def _complex_from_pairs(pairs):
    return [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in pairs]


def load_family(config: ProblemConfig, out_dir, ns) -> pade.PadeFamily:
    """Rebuild the approximants of ``ns`` from ``approximant_n{n}.json`` of a
    previous run: q, p and the stored poles, each parsed at the precision
    its n was solved at (``precision_bits``). q is not factored again.
    """
    out = Path(out_dir)
    family = pade.PadeFamily(
        config.build_measure(), config.build_rational(), config.build_scheme()
    )
    for n in ns:
        path = out / f"approximant_n{n}.json"
        with _reading(f"cannot parse {path}"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            with algebra.working_precision(doc["precision_bits"]):
                approx = pade.PadeApproximant(
                    n,
                    algebra.Poly(_complex_from_pairs(doc["q"]), trim=False),
                    family.scheme.kind,
                    poles=_complex_from_pairs(doc["poles"]),
                )
                approx.p = algebra.Poly(_complex_from_pairs(doc["p"]), trim=False)
        family.approximants[n] = approx
    return family


def check(config: ProblemConfig, out_dir=None, precision_override=None) -> RunRecord:
    """Regrade the run that ``report.json`` describes: load the approximants
    of its ``n_solved``, keep the rest of what the run recorded (``n_failed``,
    ``per_n``, ``assumptions``), and rewrite only the report's
    ``config_hash``, ``precision_bits``, ``checkers`` and ``pass``. A missing
    or unparsable file raises :class:`InvalidConfig` before anything is written.
    """
    record = _start_record(config, precision_override)
    out = Path(out_dir or config.output_dir)
    path = out / "report.json"
    with _reading(f"cannot parse {path}"):
        report = json.loads(path.read_text(encoding="utf-8"))
        ns = [int(n) for n in report["n_solved"]]
        failures = {int(n): msg for n, msg in dict(report["n_failed"]).items()}
    record.family = load_family(config, out, ns)
    record.family.failures = failures
    _run_checkers(record, record.family.lam, record.family.scheme, config)
    report.update({
        "config_hash": config.config_hash(),
        "precision_bits": record.precision_bits,
        "checkers": _jsonable(record.checker_reports),
        "pass": record.passed,
    })
    _write_json(path, report)
    return record


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------


ORACLE_SUITES = ("markov", "potential", "quadrature")


def run_oracles(name: str) -> list[tuple[str, bool, str]]:
    """Rows of ``oracles.<name>_suite``, or of every suite for ``all``."""
    algebra.set_precision(algebra.DEFAULT_PRECISION_BITS)
    if name != "all" and name not in ORACLE_SUITES:
        raise InvalidConfig(
            f"unknown oracle suite {name!r}; pick from {sorted(ORACLE_SUITES)} or 'all'"
        )
    # imported on demand: runs and checks never load the oracle module
    from . import oracles

    names = ORACLE_SUITES if name == "all" else (name,)
    return [row for key in names for row in getattr(oracles, f"{key}_suite")()]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padelab",
        description="Multipoint Pade approximation lab for Cauchy transforms with polar parts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a problem config and emit artifacts")
    p_run.add_argument("config", help="path to a config JSON or a bundled name")
    p_run.add_argument("--precision", type=int, default=None, help="precision bits override")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--n", default=None, help="comma-separated n list override")

    p_check = sub.add_parser("check", help="regrade a stored run from its report.json")
    p_check.add_argument("config")
    p_check.add_argument("--precision", type=int, default=None)
    p_check.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="run a bundled closed-form oracle suite")
    p_oracle.add_argument("name", help="markov | potential | quadrature | all")

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "check"):
            config = load_config(args.config)
            if args.command == "run":
                n_override = args.n.replace(",", " ").split() if args.n else None
                record = run(config, out_dir=args.out, n_override=n_override,
                             precision_override=args.precision)
                for n in record.family.solved_ns:
                    a = record.family.approximants[n]
                    print(
                        f"n={n}: defect={a.defect} residual={mp.nstr(a.residual, 4)}"
                        + (" [escalated]" if a.escalated else "")
                    )
            else:
                record = check(config, out_dir=args.out, precision_override=args.precision)
            for n, msg in sorted(record.family.failures.items()):
                print(f"n={n}: FAILED ({msg})")
            for name, rep in record.checker_reports.items():
                print(f"checker {name}: {'PASS' if rep.get('pass') else 'FAIL'}")
            print("overall:", "PASS" if record.passed else "FAIL")
            return 0 if record.passed else 1
        if args.command == "oracle":
            rows = run_oracles(args.name)
            ok = True
            for name, passed, detail in rows:
                ok = ok and passed
                print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
            return 0 if ok else 1
    except (InvalidConfig, PadelabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
