"""Problem ingestion, experiment orchestration, and artifact emission.

Configs are JSON with exact decimal/rational literals for every numeric
input, so a parse at any precision is lossless. A run solves the requested
n values, computes the error curve on the configured circle, executes the
enabled checkers, and writes per-n CSV/JSON artifacts plus a report. Runs
at equal precision are byte-identical: nothing time- or environment-
dependent is written to the output files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path

import mpmath as mp

from . import algebra, checkers, measure as ms, pade, potential, scheme as sch
from .errors import InvalidConfig, PadelabError

DEFAULT_CIRCLE_POINTS = 256


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class ProblemConfig:
    """Validated view over a raw config dict; the raw dict round-trips."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
        self.raw = raw
        self.name = raw.get("name", "problem")
        self.precision_bits = int(raw.get("precision_bits", algebra.DEFAULT_PRECISION_BITS))
        self.n_range = [int(n) for n in raw.get("n_range", [])]
        if not self.n_range:
            raise InvalidConfig("n_range must be a nonempty list")
        if any(n < 1 for n in self.n_range):
            raise InvalidConfig("n_range entries must be >= 1")
        self.tolerances = dict(raw.get("tolerances", {}))
        self.checkers = dict(raw.get("checkers", {}))
        self.error_circle = dict(raw.get("error_circle", {}))
        self.capacity_grid = raw.get("capacity_grid")
        # the cap on the Chebyshev modes per interval of the potential solves
        self.collocation_points = int(raw.get("collocation_points", 256))
        if self.collocation_points < 1:
            raise InvalidConfig("collocation_points must be >= 1")
        self.output_dir = raw.get("output_dir", f"runs/{self.name}")
        try:
            self._validate_exact_literals()
            self._validate_sampling()
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidConfig(str(exc)) from exc
        if not raw.get("measure"):
            raise InvalidConfig("measure must be a nonempty list of components")

    def _validate_exact_literals(self):
        for comp in self.raw.get("measure", []):
            algebra.parse_complex(comp["interval"][0])
            algebra.parse_complex(comp["interval"][1])
            ms.DensityExpr(comp["density"])
        for pole in self.raw.get("rational", []):
            algebra.parse_complex(pole["pole"])
            for c in pole["coeffs"]:
                algebra.parse_complex(c)

    def _validate_sampling(self):
        """The fields that feed eval_F: the quadrature tolerance, the error
        circle and the capacity grid."""
        tol = self.quad_tol()
        if tol is not None and not (mp.isfinite(tol) and tol > 0):
            raise ValueError("tolerances.quad_rel must be finite and > 0")
        _, radius, points = self.circle_spec()
        if points < 1:
            raise ValueError("error_circle.points must be >= 1")
        if not radius > 0:
            raise ValueError("error_circle.radius must be > 0")
        grid = self.capacity_grid
        if grid is None:
            return
        for key in ("nx", "ny"):
            if int(grid[key]) < 2:
                raise ValueError(f"capacity_grid.{key} must be >= 2")
        for lo, hi in (("re_min", "re_max"), ("im_min", "im_max")):
            if not algebra.to_mpf(grid[lo]) < algebra.to_mpf(grid[hi]):
                raise ValueError(f"capacity_grid.{lo} must be below {hi}")

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

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
        tol = self.tolerances.get("density_floor", "1e-12")
        waive = bool(self.tolerances.get("waive_density_floor", False))
        try:
            return ms.ComplexMeasure(comps, density_floor=mp.mpf(str(tol)), waive_floor=waive)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc

    def build_rational(self) -> ms.RationalPart:
        try:
            return ms.RationalPart(
                [
                    (p["pole"], p["multiplicity"], p["coeffs"])
                    for p in self.raw.get("rational", [])
                ]
            )
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc

    def build_scheme(self) -> sch.InterpolationScheme:
        try:
            return sch.make_scheme(self.raw.get("scheme", {"kind": "classical"}))
        except (ValueError, KeyError) as exc:
            raise InvalidConfig(str(exc)) from exc

    def quad_tol(self):
        val = self.tolerances.get("quad_rel")
        return mp.mpf(str(val)) if val is not None else None

    def circle_spec(self):
        return (
            algebra.to_mpc(self.error_circle.get("center", "0")),
            algebra.to_mpf(self.error_circle.get("radius", "1")),
            int(self.error_circle.get("points", DEFAULT_CIRCLE_POINTS)),
        )

    def interval_literals(self):
        return [
            (c["interval"][0], c["interval"][1]) for c in self.raw.get("measure", [])
        ]

    def pole_literals(self):
        return [p["pole"] for p in self.raw.get("rational", [])]


def bundled_config_path(name: str):
    fname = name if name.endswith(".json") else name + ".json"
    ref = resources.files("padelab").joinpath("configs", fname)
    if not ref.is_file():
        raise InvalidConfig(f"no bundled config named {name!r}")
    return ref


def load_config(spec: str) -> ProblemConfig:
    """Load a config from a path, or by bundled name."""
    p = Path(spec)
    if p.is_file():
        return ProblemConfig.from_file(p)
    ref = bundled_config_path(spec)
    with ref.open("r", encoding="utf-8") as fh:
        return ProblemConfig(json.load(fh))


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


def _circle_errors(family, center, radius, points, tol):
    zs = [center + radius * mp.expjpi(2 * mp.mpf(k) / points) for k in range(points)]
    fvals = [family.eval_F(z, tol) for z in zs]
    # each point on the integer grid once, shared by every n
    grid = [algebra.GridPoint(z) for z in zs]
    out = {}
    for n in family.solved_ns:
        approx = family.approximants[n]
        rows = []
        for k, (g, fv) in enumerate(zip(grid, fvals)):
            theta = 2 * mp.pi * k / points
            rows.append((theta, abs(fv - approx.evaluate(g))))
        out[n] = rows
    return out


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
    record.precision_bits = precision_override or config.precision_bits
    algebra.set_precision(record.precision_bits)
    record.assumptions = _assumptions(config)
    return record


def run(config: ProblemConfig, out_dir=None, n_override=None,
        precision_override=None, emit=True) -> RunRecord:
    """Solve every requested n, run the enabled checkers, write artifacts."""
    record = _start_record(config, precision_override)
    lam = config.build_measure()
    rational = config.build_rational()
    try:
        rational.check_clear_of(lam)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc
    scheme = config.build_scheme()
    ns = [int(n) for n in (n_override or config.n_range)]
    if not ns:
        raise InvalidConfig("no n values requested")
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

    if emit:
        emit_outputs(record, out_dir or config.output_dir)
    return record


def _run_checkers(record: RunRecord, lam, scheme, config: ProblemConfig):
    family = record.family
    if not family.solved_ns:
        return
    enabled = config.checkers
    S = potential.IntervalSystem(lam.intervals, config.collocation_points)
    # one sigma for both checkers, so S sweeps its finite part once
    sigma = scheme.sigma()

    def guarded(name, fn):
        if not enabled.get(name, True):
            return
        try:
            record.checker_reports[name] = fn()
        except PadelabError as exc:
            record.checker_reports[name] = {"pass": False, "error": str(exc)}

    def admissibility():
        rep = sch.admissibility_report(
            scheme, family.solved_ns, lam.hull, family.rational.pole_locations()
        )
        rep["pass"] = rep["admissible"]
        return rep

    guarded("admissibility", admissibility)
    guarded("variation_budget", lambda: checkers.variation_budget(family, S))
    guarded(
        "pole_distribution",
        lambda: checkers.check_pole_distribution(
            family,
            sigma=sigma,
            S=S,
            threshold=enabled.get("distribution_threshold", 0.15),
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
        return v if -mp.inf < v < mp.inf else mp.nstr(mp.re(x), 6)
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


def _nearest_singularity(pole, config: ProblemConfig):
    best_label, best_dist = "", mp.inf
    for a, b in config.interval_literals():
        d = algebra.segment_distance(pole, algebra.to_mpf(a), algebra.to_mpf(b))
        if d < best_dist:
            best_dist, best_label = d, f"interval[{a},{b}]"
    for lit in config.pole_literals():
        d = abs(pole - algebra.to_mpc(lit))
        if d < best_dist:
            best_dist, best_label = d, f"pole[{lit}]"
    return best_label, best_dist


def emit_outputs(record: RunRecord, out_dir) -> list[str]:
    """Write poles/error CSVs, approximant JSONs, and the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = record.config
    family = record.family
    lam = family.lam
    digits = 20
    written = []

    for n in family.solved_ns:
        approx = family.approximants[n]
        path = out / f"poles_n{n}.csv"
        lines = ["re,im,nearest_singularity,distance"]
        for p in approx.poles:
            label, dist = _nearest_singularity(p, config)
            lines.append(
                f"{mp.nstr(p.real, digits)},{mp.nstr(p.imag, digits)},"
                f"{label},{mp.nstr(dist, digits)}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(path))

        path = out / f"error_circle_n{n}.csv"
        lines = ["theta,abs_error"]
        for theta, err in record.circle_errors.get(n, []):
            lines.append(f"{mp.nstr(theta, digits)},{mp.nstr(err, digits)}")
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
                # absent only when re-emitting artifacts written without it
                **({"quad_tol": algebra.format_real(approx.quad_tol)}
                   if approx.quad_tol is not None else {}),
                "q": [algebra.format_complex_pair(c) for c in approx.q.coeffs],
                "p": [algebra.format_complex_pair(c) for c in approx.p.coeffs],
                "poles": [algebra.format_complex_pair(p) for p in approx.poles],
            }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
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
        "pass": record.all_solved and record.checkers_pass,
    }
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# checker re-runs from stored artifacts
# ---------------------------------------------------------------------------


def _complex_from_pairs(pairs):
    return [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in pairs]


def load_family(config: ProblemConfig, out_dir) -> pade.PadeFamily:
    """Rebuild a family from approximant artifacts of a previous run.

    Values are parsed at the precision each n was solved at, and the stored
    poles are used as they are: q is not factored again.
    """
    out = Path(out_dir)
    lam = config.build_measure()
    rational = config.build_rational()
    scheme = config.build_scheme()
    family = pade.PadeFamily(lam, rational, scheme)
    paths = sorted(out.glob("approximant_n*.json"), key=lambda p: int(p.stem.split("_n")[1]))
    if not paths:
        raise InvalidConfig(f"no run artifacts under {out} (run first)")
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        with algebra.working_precision(doc.get("precision_bits", mp.mp.prec)):
            approx = pade.PadeApproximant(
                doc["n"],
                algebra.Poly(_complex_from_pairs(doc["q"]), trim=False),
                doc.get("scheme", scheme.kind),
                poles=_complex_from_pairs(doc["poles"]),
            )
            approx.p = algebra.Poly(_complex_from_pairs(doc["p"]), trim=False)
            approx.residual = mp.mpf(doc["residual"])
            approx.shifted_residual = mp.mpf(doc["shifted_residual"])
            approx.p_residual = mp.mpf(doc.get("p_residual", "0"))
            if "quad_tol" in doc:
                approx.quad_tol = mp.mpf(doc["quad_tol"])
        approx.nullity = doc.get("nullspace_dimension")
        approx.escalated = bool(doc.get("escalated", False))
        family.approximants[doc["n"]] = approx
    return family


def check(config: ProblemConfig, out_dir=None, precision_override=None) -> RunRecord:
    """Run the checkers against a prior run's artifacts and refresh the report."""
    record = _start_record(config, precision_override)
    out = out_dir or config.output_dir
    record.family = load_family(config, out)
    # reload the stored error curves so the report keeps its per-n statistics
    for n in record.family.solved_ns:
        path = Path(out) / f"error_circle_n{n}.csv"
        if path.is_file():
            rows = []
            for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                theta, err = line.split(",")
                rows.append((mp.mpf(theta), mp.mpf(err)))
            record.circle_errors[n] = rows
    lam = record.family.lam
    _run_checkers(record, lam, record.family.scheme, config)
    emit_outputs(record, out)
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


def _parse_n_list(text):
    return [int(tok) for tok in text.replace(",", " ").split()]


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

    p_check = sub.add_parser("check", help="re-run checkers on stored run artifacts")
    p_check.add_argument("config")
    p_check.add_argument("--precision", type=int, default=None)
    p_check.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="run a bundled closed-form oracle suite")
    p_oracle.add_argument("name", help="markov | potential | quadrature | all")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            n_override = _parse_n_list(args.n) if args.n else None
            record = run(
                config,
                out_dir=args.out,
                n_override=n_override,
                precision_override=args.precision,
            )
            for n in record.family.solved_ns:
                a = record.family.approximants[n]
                print(
                    f"n={n}: defect={a.defect} residual={mp.nstr(a.residual, 4)}"
                    + (" [escalated]" if a.escalated else "")
                )
            for n, msg in sorted(record.family.failures.items()):
                print(f"n={n}: FAILED ({msg})")
            for name, rep in record.checker_reports.items():
                print(f"checker {name}: {'PASS' if rep.get('pass') else 'FAIL'}")
            ok = record.all_solved and record.checkers_pass
            print("overall:", "PASS" if ok else "FAIL")
            return 0 if ok else 1
        if args.command == "check":
            config = load_config(args.config)
            record = check(config, out_dir=args.out, precision_override=args.precision)
            for name, rep in record.checker_reports.items():
                print(f"checker {name}: {'PASS' if rep.get('pass') else 'FAIL'}")
            ok = record.checkers_pass
            print("overall:", "PASS" if ok else "FAIL")
            return 0 if ok else 1
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
