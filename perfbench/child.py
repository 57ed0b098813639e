"""One padelab operation in a fresh interpreter: ``setup``, ``run`` or ``check``.

The driver (``run.py``) starts this script once per operation so that every
repetition pays what a ``padelab`` invocation pays: interpreter start, module
import and cold module caches. The result is one JSON file.

    python3 perfbench/child.py --mode run --config CFG --out DIR --result RES.json
        [--trace SPANS.json] [--gates WORKLOAD]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate(iters: int = 20000) -> float:
    """Seconds for a fixed mpmath loop that no change to padelab can alter.

    The host's speed drifts by up to ~1.7x over minutes; the driver divides
    each timing by the calibration taken in the same process around it.
    """
    import mpmath as mp

    with mp.workprec(384):
        x = mp.mpf(1) / 3
        acc = mp.mpf(0)
        t = time.perf_counter()
        for i in range(iters):
            acc += x * (i + 1) / (i + 2)
        return time.perf_counter() - t


def _environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "check"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None, help="write spans here")
    ap.add_argument("--gates", default=None, help="workload whose gates to evaluate")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import padelab  # noqa: F401 - the import is part of what setup measures
    from padelab import algebra, cli

    src = os.environ.get("PERFBENCH_SRC")
    if src and not os.path.abspath(padelab.__file__).startswith(os.path.abspath(src)):
        print(f"padelab imported from {padelab.__file__}, not {src}", file=sys.stderr)
        return 2
    config = cli.load_config(args.config)
    result: dict = {"mode": args.mode}

    if args.mode == "setup":
        algebra.set_precision(config.precision_bits)
        lam = config.build_measure()
        config.build_rational().check_clear_of(lam)
        config.build_scheme()
        result["setup_s"] = time.perf_counter() - t0
        # after the timed region: calibrating first would pre-import mpmath
        result["cal_s"] = calibrate()
    else:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        cal_before = calibrate()
        if args.mode == "run":
            t1 = time.perf_counter()
            record = cli.run(config, out_dir=args.out)
            result["run_s"] = time.perf_counter() - t1
            result["timings"] = dict(record.timings)
            family = record.family
            result["requested_ns"] = sorted(set(config.n_range))
            result["solved_ns"] = family.solved_ns
            result["failures"] = {str(n): msg for n, msg in family.failures.items()}
            result["escalations"] = sum(
                1 for a in family.approximants.values() if a.escalated
            )
        else:
            t1 = time.perf_counter()
            record = cli.check(config, out_dir=args.out)
            result["check_s"] = time.perf_counter() - t1
        result["peak_rss_mb"] = _peak_rss_mb()
        result["cal_before_s"] = cal_before
        result["cal_s"] = (cal_before + calibrate()) / 2
        if tracer is not None:
            tracer.dump(args.trace)
        if args.gates:
            import workloads

            t2 = time.perf_counter()
            result["gates"] = [
                list(g) for g in workloads.WORKLOADS[args.gates].gates(record)
            ]
            result["gates_s"] = time.perf_counter() - t2

    result["env"] = _environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
