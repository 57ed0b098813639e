"""In-memory span recorder that wraps padelab's public functions from outside.

Nothing under ``src/`` is changed: :func:`install` replaces each traced
function in the namespace its caller looks it up in, so a call made through
that name opens a span ``(name, start, end, parent)``. Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of a traced child.

:func:`layer_metrics` turns a span list into the per-layer metrics; it is
pure Python and needs no padelab import, so the driver and the self-test can
use it on spans from any source.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter

# (module, attribute, span name). The module is the one the caller resolves
# the name in, e.g. pade.py calls ``poly_roots`` through its own globals.
FUNCTION_PATCHES = [
    ("padelab.cli", "emit_outputs", "cli.emit"),
    ("padelab.cli", "load_family", "cli.load_family"),
    ("padelab.pade", "solve_qn", "pade.solve_qn"),
    ("padelab.pade", "recover_p", "pade.recover_p"),
    ("padelab.pade", "poly_roots", "algebra.poly_roots"),
    ("padelab.pade", "kernel_vector", "algebra.kernel_vector"),
    ("padelab.pade", "solve_linear", "algebra.solve_linear"),
    ("padelab.measure", "quad_integrate", "measure.quad"),
    ("padelab.measure", "eval_F", "measure.eval_F"),
    ("padelab.measure", "eval_F_derivative", "measure.eval_F_derivative"),
    ("padelab.measure", "argument_variation", "measure.argument_variation"),
    ("padelab.checkers", "green_potential", "potential.green_potential"),
    ("padelab.checkers", "balayage", "potential.balayage"),
    ("padelab.checkers", "arg_variation_on_hull", "scheme.arg_variation_on_hull"),
    ("padelab.scheme", "admissibility_report", "scheme.admissibility_report"),
    ("padelab.checkers", "variation_budget", "checkers.variation_budget"),
    ("padelab.checkers", "check_pole_distribution", "checkers.pole_distribution"),
    ("padelab.checkers", "check_pole_attraction", "checkers.pole_attraction"),
    ("padelab.checkers", "check_capacity_convergence", "checkers.capacity_convergence"),
]

# (module, class, method, span name)
METHOD_PATCHES = [
    ("padelab.pade", "MomentCache", "measure_moments", "pade.moments"),
    ("padelab.pade", "MomentCache", "generalized_moments", "pade.generalized_moments"),
]

# (module, class, method, counter name): counted only, too hot for spans
COUNTER_PATCHES = [
    ("padelab.measure", "DensityExpr", "__call__", "measure.density_evals"),
]


class Tracer:
    """Span stack plus counters for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = self.clock()
                self._stack.pop()

        return traced

    def counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer) -> None:
    """Patch every traced name; lasts for the life of the (child) process."""
    for modname, attr, name in FUNCTION_PATCHES:
        mod = importlib.import_module(modname)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    for modname, clsname, meth, name in METHOD_PATCHES:
        cls = getattr(importlib.import_module(modname), clsname)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
    for modname, clsname, meth, name in COUNTER_PATCHES:
        cls = getattr(importlib.import_module(modname), clsname)
        setattr(cls, meth, tracer.counting(name, getattr(cls, meth)))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (no double counting)."""
    out = []
    for name, _s, _e, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        out.append(p < 0)
    return out


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def span_totals(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost), self seconds."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    totals: dict[str, dict] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        t["durations"].append(end - start)
        if outer[i]:
            t["s"] += end - start
    return totals


def layer_metrics(run_trace: dict, check_trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced ``run`` plus the ``check`` after it.

    Layer times are those of the run (what ``run_s`` measures); the
    ``check.*`` and ``cli.load_family*`` entries come from the check.
    """
    run = span_totals(run_trace["spans"])
    chk = span_totals(check_trace["spans"])
    counts = Counter(run_trace["counts"])

    def calls(tot, name):
        return tot.get(name, {}).get("calls", 0)

    def secs(tot, name):
        return tot.get(name, {}).get("s", 0.0)

    m: dict[str, float] = {}
    timed = [
        "measure.eval_F",
        "measure.eval_F_derivative",
        "measure.argument_variation",
        "pade.solve_qn",
        "pade.moments",
        "pade.generalized_moments",
        "pade.recover_p",
        "algebra.poly_roots",
        "algebra.kernel_vector",
        "algebra.solve_linear",
        "potential.green_potential",
        "potential.balayage",
        "scheme.admissibility_report",
        "scheme.arg_variation_on_hull",
        "checkers.variation_budget",
        "checkers.pole_distribution",
        "checkers.pole_attraction",
        "checkers.capacity_convergence",
        "cli.emit",
    ]
    for name in timed:
        m[f"{name}_calls"] = calls(run, name)
        m[f"{name}_s"] = secs(run, name)
    durs = sorted(run.get("measure.eval_F", {}).get("durations", []))
    m["measure.eval_F_ms_p50"] = 1e3 * _percentile(durs, 0.50)
    m["measure.eval_F_ms_p90"] = 1e3 * _percentile(durs, 0.90)
    m["measure.quad_calls"] = calls(run, "measure.quad")
    m["measure.quad_s"] = run.get("measure.quad", {}).get("self_s", 0.0)
    m["measure.quad_failures"] = counts.get("measure.quad.raised.QuadFailure", 0)
    m["measure.density_evals"] = counts.get("measure.density_evals", 0)
    m["cli.load_family_calls"] = calls(chk, "cli.load_family")
    m["cli.load_family_s"] = secs(chk, "cli.load_family")
    for name in ("measure.eval_F", "algebra.poly_roots", "potential.green_potential",
                 "measure.argument_variation"):
        m[f"check.{name.split('.')[1]}_calls"] = calls(chk, name)
        m[f"check.{name.split('.')[1]}_s"] = secs(chk, name)
    return m
