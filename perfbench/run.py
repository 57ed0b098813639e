"""padelab benchmark: ``padelab run`` then ``padelab check``, per workload.

    python3 perfbench/run.py --workload markov_arcsine --seed 0 --seconds 26 --trace 0

Run from the root of a source checkout; padelab is imported from ``./src``.
The load is a closed loop with one client: one repetition at a time, each
operation in a fresh interpreter (``child.py``) with BLAS/OpenMP threads
pinned to 1, because a ``padelab run`` user pays interpreter start, import
and the cold module caches on every invocation.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several fresh set-ups (import padelab, load the config, materialize measure,
rational part and scheme); then repetitions of run + check fill ``--seconds``
and each timing is the median over them. Each timing is first scaled to a
reference machine speed by a calibration loop run in the same child (see
``CAL_REF_S``); the raw seconds are printed beside it. ``--trace 1`` makes
one untraced and one traced repetition and reports the per-layer metrics
(``tracer.py``) in raw seconds, with the calibration of the traced run.

Every repetition is checked: each requested n must solve, the workload's
gates must pass (``workloads.py``, first repetition), the run artifacts must
be byte-identical across repetitions, and after ``check`` the report and the
approximant files must be byte-identical to what ``run`` wrote. Each check is
one attempted operation. ``correct`` is false when any gate on the computed
results fails; the check-path comparison is counted in ``failed`` only,
because a mismatch there is ``padelab check`` rewriting an artifact, not a
wrong result (``cli.load_family`` drops ``p_residual`` today, which shows on
``multipoint_arcsine``).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit code 2 without that line means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
# Timings are reported at a reference machine speed: raw seconds times
# CAL_REF_S over the calibration (child.calibrate) taken in the same child.
# On the 2-core Xeon this benchmark was built on, the host's speed moves
# between two states about 1.7x apart for minutes at a time; the calibration
# reads ~0.18 s in the fast state and ~0.32 s in the slow one.
CAL_REF_S = 0.2
MIN_REPS = 2
DEADLINE_S = 170  # a whole invocation stays under the 180 s a run may take
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "solve_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics the driver adds to those tracer.layer_metrics computes
TRACE_EXTRAS = (
    "pade.escalations",
    "cli.solve_s",
    "cli.error_circle_s",
    "cli.checkers_s",
    "cli.artifact_bytes",
    "trace.run_s",
    "trace.check_s",
    "trace.overhead_frac",
    "trace.calibration_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_evals", "_failures", "escalations")):
        return "count"
    if name.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


class BenchError(RuntimeError):
    pass


class Bench:
    """One benchmark invocation: a work directory and the operations tally."""

    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.config_path = self.work / "config.json"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PERFBENCH_SRC=str(root / "src"),
            PYTHONHASHSEED="0",
            **{v: "1" for v in THREAD_VARS},
        )
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.lines: list[str] = []
        self._n = 0
        self.reference_digests = None
        self.child_env = None
        self.deadline = time.monotonic() + DEADLINE_S

    def op(self, name, ok, detail="", wrong_result=True, quiet=False):
        """Record one checked operation; ok None records a number only."""
        if ok is None:
            self.lines.append(f"recorded {name}: {detail}")
            return
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += int(wrong_result)
        if not (ok and quiet):
            self.lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    def child(self, mode, out=None, trace=False, gates=False) -> dict:
        self._n += 1
        res = self.work / f"{mode}-{self._n}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--config", str(self.config_path), "--result", str(res)]
        if out is not None:
            cmd += ["--out", str(out)]
        spans = self.work / f"{mode}-{self._n}-spans.json"
        if trace:
            cmd += ["--trace", str(spans)]
        if gates:
            cmd += ["--gates", self.workload.name]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(res, encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            with open(spans, encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        self.child_env = result.get("env", self.child_env)
        return result

    def repetition(self, first: bool, trace=False) -> dict:
        """run + check in fresh interpreters on a fresh output directory."""
        out = self.work / f"out-{self._n}"
        r = self.child("run", out, trace=trace, gates=first)
        for n in r["requested_ns"]:
            self.op(f"solve n={n}", n in r["solved_ns"], r["failures"].get(str(n), ""),
                    quiet=True)
        for name, ok, detail in r.get("gates", []):
            self.op(name, ok, detail)
        written = digests(out)
        artifact_bytes = sum((out / f).stat().st_size for f in written)
        if self.reference_digests is None:
            self.reference_digests = written
        else:
            self.op("artifacts identical to first repetition",
                    written == self.reference_digests,
                    f"{len(written)} files compared", quiet=True)
        c = self.child("check", out, trace=trace)
        after = digests(out)
        kept = [f for f in written if f == "report.json" or f.startswith("approximant_n")]
        changed = [f for f in kept if after.get(f) != written[f]]
        self.op("check leaves report and approximants byte-identical", not changed,
                f"rewritten: {changed}" if changed else f"{len(kept)} files compared",
                wrong_result=False)
        return {"run": r, "check": c, "artifact_bytes": artifact_bytes}


def digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def untraced(bench: Bench, seconds: float) -> dict:
    setups = [bench.child("setup") for _ in range(SETUP_REPS)]
    # repeat while another repetition, as long as the last, would end no
    # later than half a repetition past the window; gate checks do not count
    reps = []
    elapsed = 0.0
    while True:
        t = time.perf_counter()
        reps.append(bench.repetition(first=not reps))
        took = time.perf_counter() - t - reps[-1]["run"].get("gates_s", 0.0)
        elapsed += took
        if len(reps) >= MIN_REPS and elapsed + took / 2 > seconds:
            break
    # (raw seconds, calibration seconds of the same child); the solve is the
    # first phase of a run, so it takes the calibration made just before it
    timed = {
        "setup_s": [(s["setup_s"], s["cal_s"]) for s in setups],
        "run_s": [(r["run"]["run_s"], r["run"]["cal_s"]) for r in reps],
        "solve_s": [(r["run"]["timings"]["solve"], r["run"]["cal_before_s"])
                    for r in reps],
        "check_s": [(r["check"]["check_s"], r["check"]["cal_s"]) for r in reps],
    }
    metrics = {}
    for name, pairs in timed.items():
        vals = [raw * CAL_REF_S / cal for raw, cal in pairs]
        metrics[name] = statistics.median(vals)
        bench.lines.append(
            f"metric {name} = {metrics[name]:.4f} s at reference speed "
            f"(median of {len(vals)}: {', '.join(f'{v:.4f}' for v in vals)}; "
            f"raw median {statistics.median(p[0] for p in pairs):.4f} s, "
            f"calibration median {statistics.median(p[1] for p in pairs):.4f} s)"
        )
    rss = [max(r["run"]["peak_rss_mb"], r["check"]["peak_rss_mb"]) for r in reps]
    metrics["peak_rss_mb"] = statistics.median(rss)
    bench.lines.append(
        f"metric peak_rss_mb = {metrics['peak_rss_mb']:.4f} MB (median of {len(rss)})"
    )
    bench.lines.append(
        f"metric failed_frac = {bench.failed / bench.attempted:.4f} ratio "
        f"({bench.failed} of {bench.attempted} operations, {len(reps)} repetitions)"
    )
    return metrics


def traced(bench: Bench) -> dict:
    plain = bench.repetition(first=True)
    rep = bench.repetition(first=False, trace=True)
    run, check = rep["run"], rep["check"]
    metrics = tracer.layer_metrics(run["trace"], check["trace"])
    metrics["pade.escalations"] = run["escalations"]
    metrics["cli.solve_s"] = run["timings"]["solve"]
    metrics["cli.error_circle_s"] = run["timings"]["error_circle"]
    metrics["cli.checkers_s"] = run["timings"]["checkers"]
    metrics["cli.artifact_bytes"] = plain["artifact_bytes"]
    metrics["trace.run_s"] = run["run_s"]
    metrics["trace.check_s"] = check["check_s"]
    # both runs at reference speed, so host drift between them cancels
    metrics["trace.overhead_frac"] = (
        (run["run_s"] / run["cal_s"]) / (plain["run"]["run_s"] / plain["run"]["cal_s"]) - 1
    )
    metrics["trace.calibration_s"] = run["cal_s"]
    for name in sorted(metrics):
        bench.lines.append(f"layer {name} = {metrics[name]:.6g} {layer_unit(name)}")
    return metrics


def environment(bench: Bench, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(bench.child_env or {})
    env.update(
        nproc=os.cpu_count(),
        cpu_affinity=len(os.sched_getaffinity(0)),
        cpu_model=cpu,
        threads={v: bench.env[v] for v in THREAD_VARS},
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        load="closed loop, 1 client, fresh interpreter per operation",
    )
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "padelab" / "cli.py").is_file():
        print(f"no padelab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        config = workload.config(args.seed)
        bench.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        metrics = traced(bench) if args.trace else untraced(bench, args.seconds)
        units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {workload.name}: {workload.why}")
    print("layer shares of run_s when sized: " + json.dumps(workload.predicted))
    print("config " + json.dumps(config, sort_keys=True))
    print("env " + json.dumps(environment(bench, args), sort_keys=True))
    for line in bench.lines:
        print(line)
    print(json.dumps({
        "correct": bench.incorrect == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
