"""Self-test of the benchmark driver; needs no padelab import.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with what the driver emits (names
well-formed, units present), that self time is computed correctly on a
synthetic span tree, and that seeds perturb only the sampling points.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _synthetic_trace():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [6, 7];
    # [6, 7] has a child [6.5, 6.75]; a recursive eval_F sits inside [1, 3]
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["measure.eval_F", 1.0, 3.0, 0],
        ["measure.eval_F", 1.5, 2.5, 1],
        ["algebra.poly_roots", 2.0, 5.0, 0],
        ["pade.moments", 6.0, 7.0, 0],
        ["measure.quad", 6.5, 6.75, 4],
    ]
    return {"spans": spans, "counts": {"measure.density_evals": 42}}


class MetricNames(unittest.TestCase):
    def test_spec_names_and_units(self):
        for group in ("end_to_end", "per_layer"):
            names = [m["name"] for m in SPEC[group]]
            self.assertEqual(len(names), len(set(names)), group)
            for m in SPEC[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(m["better"], "lower")
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])

    def test_end_to_end_matches_driver(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)

    def test_per_layer_matches_driver(self):
        emitted = set(tracer.layer_metrics(_synthetic_trace(), _synthetic_trace()))
        emitted |= set(run.TRACE_EXTRAS)
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(set(spec), emitted)
        for name, unit in spec.items():
            self.assertEqual(unit, run.layer_unit(name), name)

    def test_workloads_match_driver(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
            self.assertLessEqual(len(w["why"]), 200)


class SelfTime(unittest.TestCase):
    def test_self_times(self):
        selfs = tracer.self_times(_synthetic_trace()["spans"])
        # root: children cover [1, 5] and [6, 7] -> 10 - 4 - 1
        expected = [5.0, 1.0, 1.0, 3.0, 0.75, 0.25]
        for got, want in zip(selfs, expected):
            self.assertAlmostEqual(got, want)

    def test_totals_skip_nested_same_name(self):
        tot = tracer.span_totals(_synthetic_trace()["spans"])
        self.assertEqual(tot["measure.eval_F"]["calls"], 2)
        self.assertAlmostEqual(tot["measure.eval_F"]["s"], 2.0)
        self.assertAlmostEqual(tot["measure.eval_F"]["self_s"], 2.0)

    def test_layer_metrics(self):
        m = tracer.layer_metrics(_synthetic_trace(), {"spans": [], "counts": {}})
        self.assertEqual(m["measure.eval_F_calls"], 2)
        self.assertAlmostEqual(m["measure.quad_s"], 0.25)
        self.assertAlmostEqual(m["pade.moments_s"], 1.0)
        self.assertEqual(m["measure.density_evals"], 42)
        self.assertEqual(m["cli.load_family_calls"], 0)

    def test_tracer_records_parents(self):
        t = tracer.Tracer(clock=iter(range(100)).__next__)
        inner = t.wrap("b", lambda: None)
        t.wrap("a", inner)()
        self.assertEqual(t.spans, [["a", 0, 3, -1], ["b", 1, 2, 0]])


class Seeds(unittest.TestCase):
    SAMPLING = ("error_circle", "capacity_grid")

    def test_seed_zero_is_verbatim_and_seeds_repeat(self):
        for w in WORKLOADS.values():
            self.assertEqual(w.config(0), dict(w.base, name=w.name))
            self.assertEqual(w.config(7), w.config(7))

    def test_seeds_move_sampling_only(self):
        for w in WORKLOADS.values():
            base = w.config(0)
            for seed in (1, 2, 12345):
                cfg = w.config(seed)
                for key in base:
                    if key not in self.SAMPLING:
                        self.assertEqual(cfg[key], base[key], (w.name, key))
                self.assertEqual(cfg["error_circle"]["points"], base["error_circle"]["points"])
                ratio = float(cfg["error_circle"]["radius"]) / float(base["error_circle"]["radius"])
                self.assertLessEqual(abs(ratio - 1), 0.005)


if __name__ == "__main__":
    unittest.main()
