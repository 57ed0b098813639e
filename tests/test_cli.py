import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from padelab import algebra, cli, measure as ms, pade
from padelab.cli import ProblemConfig, load_config, main
from padelab.errors import InvalidConfig


def tiny_config(out_dir):
    return ProblemConfig(
        {
            "name": "tiny",
            "precision_bits": 256,
            "measure": [
                {"interval": ["-1", "1"], "density": "1/pi", "endpoint_singular": True}
            ],
            "rational": [],
            "scheme": {"kind": "classical"},
            "n_range": [1, 2],
            "tolerances": {"quad_rel": "1e-35"},
            "error_circle": {"center": "0", "radius": "2", "points": 64},
            "capacity_grid": {
                "re_min": "-2", "re_max": "2", "im_min": "-1", "im_max": "1",
                "nx": 9, "ny": 5,
            },
            "collocation_points": 128,
            "checkers": {"distribution_threshold": 0.3},
            "output_dir": str(out_dir),
        }
    )


def test_config_round_trip(tmp_path):
    config = load_config("paper_section4")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(config.raw, indent=2))
    again = load_config(str(path))
    assert again.raw == config.raw
    assert again.config_hash() == config.config_hash()


def test_bundled_names_resolve():
    assert load_config("markov_arcsine").name == "markov_arcsine"
    assert load_config("paper_section4.json").name == "paper_section4"
    with pytest.raises(InvalidConfig):
        load_config("no_such_bundle")


def test_invalid_configs(tmp_path):
    with pytest.raises(InvalidConfig):
        ProblemConfig({"n_range": []})
    with pytest.raises(InvalidConfig):
        ProblemConfig({"n_range": [0]})
    with pytest.raises(InvalidConfig, match="collocation_points"):
        ProblemConfig({"n_range": [2], "collocation_points": 0})
    with pytest.raises(InvalidConfig):
        ProblemConfig(
            {"n_range": [2], "measure": [{"interval": ["0", "1"], "density": "sin(t)"}]}
        )
    # an unknown name fails when the config is loaded, not when it is run
    with pytest.raises(InvalidConfig):
        ProblemConfig(
            {"n_range": [2], "measure": [{"interval": ["0", "1"], "density": "foo*t"}]}
        )
    # the scheme is built when the config is read
    with pytest.raises(InvalidConfig):
        ProblemConfig({**tiny_config(tmp_path).raw, "scheme": {"kind": "parabola"}})


@pytest.mark.parametrize("section, field, value", [
    ("tolerances", "quad_rel", "0"),
    ("tolerances", "quad_rel", "-1e-40"),
    ("tolerances", "quad_rel", "nan"),
    ("tolerances", "quad_rel", "inf"),
    ("error_circle", "points", 0),
    ("error_circle", "radius", "0"),
    ("error_circle", "radius", "-2"),
    ("capacity_grid", "nx", 1),
    ("capacity_grid", "ny", 1),
    ("capacity_grid", "re_min", "2"),
    ("capacity_grid", "im_max", "-1"),
])
def test_eval_f_sampling_fields_fail_at_load(tmp_path, section, field, value):
    raw = tiny_config(tmp_path).raw
    raw[section][field] = value
    with pytest.raises(InvalidConfig, match=field):
        ProblemConfig(raw)



@pytest.mark.parametrize("measure", [None, []], ids=["absent", "empty"])
def test_config_without_measure_fails_before_solving(tmp_path, measure):
    raw = dict(tiny_config(tmp_path / "run").raw)
    if measure is None:
        del raw["measure"]
    else:
        raw["measure"] = measure
    with pytest.raises(InvalidConfig, match="measure"):
        ProblemConfig(raw)
    cfg_path = tmp_path / "no_measure.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


ARCSINE_REVERSED = [{"interval": ["1", "-1"], "density": "1/pi", "endpoint_singular": True}]


@pytest.mark.parametrize("edit, args, field", [
    pytest.param({"precision_bits": 64}, [], "precision_bits", id="precision_bits-64"),
    pytest.param({"precision_bits": "abc"}, [], "precision_bits", id="precision_bits-abc"),
    pytest.param({"collocation_points": "x"}, [], "collocation_points",
                 id="collocation_points-x"),
    pytest.param({"measure": ARCSINE_REVERSED}, [], "interval", id="interval-reversed"),
    pytest.param({"tolerances": ["1e-35"]}, [], "tolerances", id="tolerances-list"),
    pytest.param({}, ["--precision", "64"], "precision", id="precision-override-64"),
    pytest.param({}, ["--n", "2,x"], "n override", id="n-override-x"),
    pytest.param({}, ["--n", "0"], "n override", id="n-override-0"),
    pytest.param({"scheme": {"kind": "circle", "sigma_points": 0}}, [], "sigma_points",
                 id="sigma_points-0"),
    # a switch that is not a JSON boolean: the string "false" is truthy
    pytest.param({"measure": [{"interval": ["-1", "1"], "density": "1/pi",
                               "endpoint_singular": "false"}]}, [],
                 "measure[0].endpoint_singular", id="endpoint_singular-string"),
    pytest.param({"tolerances": {"quad_rel": "1e-35", "waive_density_floor": "false"}}, [],
                 "tolerances.waive_density_floor", id="waive_density_floor-string"),
    pytest.param({"checkers": {"capacity_convergence": "no"}}, [],
                 "checkers.capacity_convergence", id="capacity_convergence-string"),
    pytest.param({"checkers": {"pole_attraction": None}}, [],
                 "checkers.pole_attraction", id="pole_attraction-null"),
    # fields that used to pass the load and fail after the solve, or at the
    # load with a traceback
    pytest.param({"checkers": {"distribution_threshold": "abc"}}, [],
                 "checkers.distribution_threshold", id="distribution_threshold-abc"),
    pytest.param({"checkers": {"distribution_threshold": True}}, [],
                 "checkers.distribution_threshold", id="distribution_threshold-true"),
    pytest.param({"output_dir": 5}, [], "output_dir", id="output_dir-number"),
    pytest.param({"scheme": "circle"}, [], "scheme", id="scheme-string"),
    pytest.param({"scheme": {"kind": "explicit", "nodes": [["3", "-3"]]}}, [],
                 "scheme.nodes", id="explicit-nodes-list"),
    # a string in place of a node list used to be read character by character
    pytest.param({"scheme": {"kind": "explicit", "nodes": {"2": "3-3i"}}}, [],
                 "scheme.nodes['2'] must be a list", id="explicit-nodes-string"),
    # a floor that is not finite used to waive the density floor
    pytest.param({"tolerances": {"quad_rel": "1e-35", "density_floor": "nan"}}, [],
                 "tolerances.density_floor", id="density_floor-nan"),
    pytest.param({"tolerances": {"quad_rel": "1e-35", "density_floor": "inf"}}, [],
                 "tolerances.density_floor", id="density_floor-inf"),
    # integers that used to be truncated
    pytest.param({"n_range": [1.7]}, [], "n_range", id="n_range-fraction"),
    pytest.param({"n_range": [True]}, [], "n_range", id="n_range-true"),
    pytest.param({"collocation_points": 64.9}, [], "collocation_points",
                 id="collocation_points-fraction"),
    pytest.param({"scheme": {"kind": "circle", "sigma_points": 64.9}}, [],
                 "scheme.sigma_points", id="sigma_points-fraction"),
    pytest.param({"scheme": {"kind": "circle", "sigma_points": True}}, [],
                 "scheme.sigma_points", id="sigma_points-true"),
    # literals that escaped as ZeroDivisionError tracebacks
    pytest.param({"rational": [{"pole": "3/0", "multiplicity": 1, "coeffs": ["1"]}]}, [],
                 "rational[0]: malformed complex literal '3/0'", id="pole-zero-denominator"),
    pytest.param({"error_circle": {"center": "0", "radius": "2/0", "points": 8}}, [],
                 "error_circle.radius: malformed complex literal '2/0'",
                 id="circle-radius-zero-denominator"),
    # literals that used to be read as another number: 4 and 3/2
    pytest.param({"rational": [{"pole": "3+", "multiplicity": 1, "coeffs": ["1"]}]}, [],
                 "rational[0]: malformed complex literal '3+'", id="pole-dangling-sign"),
    pytest.param({"measure": [{"interval": ["-1", "1/2/3"], "density": "1/pi",
                               "endpoint_singular": True}]}, [],
                 "measure[0]: malformed complex literal '1/2/3'", id="interval-two-slashes"),
    # scheme literals, each named once by its field
    pytest.param({"scheme": {"kind": "circle", "center": "0", "radius": "3+"}}, [],
                 "error: scheme.radius: malformed complex literal '3+'",
                 id="scheme-radius-dangling-sign"),
    pytest.param({"scheme": {"kind": "circle", "center": "1/0", "radius": "3"}}, [],
                 "error: scheme.center: malformed complex literal '1/0'",
                 id="scheme-center-zero-denominator"),
    pytest.param({"scheme": {"kind": "explicit", "nodes": {"1": ["3"], "2": ["1/0", "3"]}}}, [],
                 "error: scheme.nodes['2'][0]: malformed complex literal '1/0'",
                 id="explicit-node-zero-denominator"),
    # fields that used to be misread: an interval "12" as [1, 2], coefficients
    # "01" as [0, 1], a multiplicity 2.5 as 2 and true as 1
    pytest.param({"measure": [{"interval": "12", "density": "1/pi",
                               "endpoint_singular": True}]}, [],
                 "measure[0]: interval must be a list of two literals", id="interval-string"),
    pytest.param({"rational": [{"pole": "3", "multiplicity": 2, "coeffs": "01"}]}, [],
                 "rational[0]: coeffs must be a list", id="coeffs-string"),
    pytest.param({"rational": [{"pole": "3", "multiplicity": 2.5, "coeffs": ["0", "1"]}]}, [],
                 "rational[0].multiplicity must be an integer", id="multiplicity-fraction"),
    pytest.param({"rational": [{"pole": "3", "multiplicity": True, "coeffs": ["1"]}]}, [],
                 "rational[0].multiplicity must be an integer", id="multiplicity-true"),
    # misspelled keys that used to be ignored, in every object the loader reads
    pytest.param({"error_circle": {"center": "0", "radius": "2", "pionts": 8}}, [],
                 "unknown key error_circle.pionts", id="error_circle-misspelled"),
    pytest.param({"capacity_grid": {"re_min": "-2", "re_max": "2", "im_min": "-1",
                                    "im_max": "1", "nx": 9, "nyy": 5}}, [],
                 "unknown key capacity_grid.nyy", id="capacity_grid-misspelled"),
    pytest.param({"scheme": {"kind": "classical", "radius": "3"}}, [],
                 "unknown key scheme.radius", id="classical-scheme-with-radius"),
    pytest.param({"scheme": {"kind": "circle", "radius": "3", "sigma_point": 64}}, [],
                 "unknown key scheme.sigma_point", id="circle-scheme-misspelled"),
    pytest.param({"scheme": {"kind": "explicit", "node": {"1": ["3"]}}}, [],
                 "unknown key scheme.node", id="explicit-scheme-misspelled"),
    pytest.param({"measure": [{"interval": ["-1", "1"], "density": "1/pi",
                               "endpoint_singlar": True}]}, [],
                 "unknown key measure[0].endpoint_singlar", id="component-misspelled"),
    pytest.param({"rational": [{"pole": "3", "multiplicity": 1, "coeff": ["1"]}]}, [],
                 "unknown key rational[0].coeff", id="pole-misspelled"),
    # a JSON true in a literal field used to read as the number 1
    pytest.param({"measure": [{"interval": [True, "3/2"], "density": "1"}]}, [],
                 "measure[0]: expected a number or a literal, got True", id="interval-true"),
    pytest.param({"rational": [{"pole": True, "multiplicity": 1, "coeffs": ["1"]}]}, [],
                 "rational[0]: expected a number or a literal, got True", id="pole-true"),
    pytest.param({"rational": [{"pole": "3", "multiplicity": 1, "coeffs": [True]}]}, [],
                 "rational[0]: expected a number or a literal, got True", id="coeff-true"),
    pytest.param({"error_circle": {"radius": True}}, [],
                 "error_circle.radius: expected a number", id="circle-radius-true"),
    pytest.param({"scheme": {"kind": "circle", "center": True}}, [],
                 "scheme.center: expected a number", id="scheme-center-true"),
    pytest.param({"scheme": {"kind": "circle", "radius": True}}, [],
                 "scheme.radius: expected a number", id="scheme-radius-true"),
    pytest.param({"scheme": {"kind": "explicit", "nodes": {"1": ["3"], "2": ["3", True]}}}, [],
                 "scheme.nodes['2'][1]: expected a number", id="explicit-node-true"),
    pytest.param({"capacity_grid": {"re_min": "-2", "re_max": True, "im_min": "-1",
                                    "im_max": "1", "nx": 9, "ny": 5}}, [],
                 "capacity_grid.re_max: expected a number", id="capacity-grid-bound-true"),
    pytest.param({"tolerances": {"quad_rel": True}}, [],
                 "tolerances.quad_rel: expected a number", id="quad_rel-true"),
    pytest.param({"tolerances": {"quad_rel": "1e-35", "density_floor": True}}, [],
                 "tolerances.density_floor: expected a number", id="density_floor-true"),
    # the tolerances and the threshold take the literal grammar: these escaped
    # as ZeroDivisionError, were reported without the field, or were accepted
    pytest.param({"tolerances": {"quad_rel": "1/0"}}, [],
                 "tolerances.quad_rel: malformed complex literal '1/0'", id="quad_rel-1/0"),
    pytest.param({"tolerances": {"quad_rel": "1e-35", "density_floor": "1/0"}}, [],
                 "tolerances.density_floor: malformed complex literal '1/0'",
                 id="density_floor-1/0"),
    pytest.param({"checkers": {"distribution_threshold": "1/0"}}, [],
                 "checkers.distribution_threshold: malformed complex literal '1/0'",
                 id="distribution_threshold-1/0"),
    pytest.param({"tolerances": {"quad_rel": "abc"}}, [],
                 "tolerances.quad_rel: malformed complex literal 'abc'", id="quad_rel-abc"),
    pytest.param({"tolerances": {"quad_rel": "1_0e-40"}}, [],
                 "tolerances.quad_rel: malformed complex literal '1_0e-40'",
                 id="quad_rel-underscore"),
])
def test_malformed_input_exits_2_without_artifacts(tmp_path, capsys, edit, args, field):
    out = tmp_path / "run"
    raw = {**tiny_config(out).raw, **edit}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert not out.exists()


@pytest.mark.parametrize("section, key, misspelled", [
    ("tolerances", "quad_rel", "quad_rell"),
    (None, "n_range", "n_rnage"),
    ("checkers", "pole_distribution", "pole_distributon"),
])
def test_misspelled_config_key_exits_2_naming_it(tmp_path, capsys, section, key, misspelled):
    # each of these ran with the defaults and exited 0
    raw = load_config("markov_arcsine").raw
    raw["output_dir"] = str(tmp_path / "run")
    held = raw[section] if section else raw
    held[misspelled] = held.pop(key)
    cfg_path = tmp_path / "misspelled.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key "), err
    assert f"{section + '.' if section else ''}{misspelled} " in err, err
    assert not (tmp_path / "run").exists()


def _workloads():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    # workloads.py imports only the standard library, so loading it is harmless
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def test_bundled_and_benchmark_configs_hold_only_known_keys():
    for name in ("markov_arcsine", "paper_section4"):
        load_config(name)
    for workload in _workloads().values():
        # the benchmark adds "name", and other seeds move the sampling
        for seed in (0, 1):
            assert ProblemConfig(workload.config(seed)).name == workload.name


def test_integral_numbers_and_digit_strings_are_integers(tmp_path):
    raw = tiny_config(tmp_path).raw
    raw.update({"n_range": [1.0, "2"], "collocation_points": 64.0})
    config = ProblemConfig(raw)
    assert config.n_range == [1, 2] and config.collocation_points == 64
    assert config.requested_ns(["2", " 1"]) == [2, 1]


def test_explicit_scheme_must_list_nodes_for_every_requested_n(tmp_path):
    out = tmp_path / "run"
    raw = tiny_config(out).raw
    raw["scheme"] = {"kind": "explicit", "nodes": {"2": ["3", "-3"]}}
    raw["n_range"] = [2, 3]
    with pytest.raises(InvalidConfig, match="n=3"):
        ProblemConfig(raw)
    raw["scheme"]["nodes"]["2"] = ["3", "-3", "3i", "-3i", "4"]
    raw["n_range"] = [2]
    with pytest.raises(InvalidConfig, match="more than 2n"):
        ProblemConfig(raw)
    raw["scheme"]["nodes"]["2"] = ["3", "-3"]
    ProblemConfig(raw)
    cfg_path = tmp_path / "explicit.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--n", "2,3"]) == 2
    assert not out.exists()


def test_density_floor_must_be_finite(tmp_path):
    # t - 1/63 comes within 2e-78 of zero on the validation samples of [-1, 1]
    raw = tiny_config(tmp_path).raw
    raw["measure"] = [{"interval": ["-1", "1"], "density": "t-1/63"}]
    with pytest.raises(InvalidConfig, match="below floor"):
        ProblemConfig(raw).build_measure()
    # the literal grammar has no "nan", and a JSON number must be finite
    for floor, reason in (("nan", "malformed complex literal 'nan'"),
                          (float("inf"), "expected a finite number"),
                          (float("nan"), "cannot convert NaN")):
        raw["tolerances"]["density_floor"] = floor
        with pytest.raises(InvalidConfig, match=f"tolerances.density_floor: {reason}"):
            ProblemConfig(raw)
    raw["tolerances"]["waive_density_floor"] = True
    raw["tolerances"]["density_floor"] = "1e-12"
    assert ProblemConfig(raw).build_measure().floor_observed < mp.mpf("1e-70")


def test_section4_density_evaluations_at_the_working_precision(tmp_path, monkeypatch):
    # the benchmark's paper_section4: its 3 x 64 validation samples pass the
    # float64 screen, so building the measure evaluates no density at the
    # working precision, and check evaluates 352 where it evaluated 544
    config = ProblemConfig(_workloads()["paper_section4"].config(0))
    cli.run(config, out_dir=str(tmp_path))
    calls, real = [0], ms.DensityExpr.__call__

    def counting(self, t):
        calls[0] += 1
        return real(self, t)

    monkeypatch.setattr(ms.DensityExpr, "__call__", counting)
    config.build_measure()
    assert calls == [0]
    cli.check(config, out_dir=str(tmp_path))
    assert calls == [352]


def test_report_residuals_are_json_floats(tmp_path):
    record = cli.run(tiny_config(tmp_path / "run"))
    # an exact zero, as the shifted residual of markov n2 is at 256 bits
    record.family.approximants[2].shifted_residual = mp.mpf(0)
    cli.emit_outputs(record, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for n in ("1", "2"):
        entry = report["per_n"][n]
        for key in ("residual", "shifted_residual"):
            assert type(entry[key]) is float, (n, key, entry[key])
    assert report["per_n"]["2"]["shifted_residual"] == 0.0


def test_nearest_singularity_label_with_unsorted_intervals():
    # ComplexMeasure sorts its components; each label must name its own interval
    config = ProblemConfig({
        "measure": [{"interval": ["2", "3"], "density": "1"},
                    {"interval": ["-1", "0"], "density": "1"}],
        "n_range": [1],
    })
    singularities = cli._singularities(config)
    label, dist = cli._nearest_singularity(mp.mpc("-0.5", "0.1"), singularities)
    assert label == "interval[-1,0]"
    assert abs(dist - mp.mpf("0.1")) < mp.mpf("1e-70")
    label, _ = cli._nearest_singularity(mp.mpc("2.5", "0.1"), singularities)
    assert label == "interval[2,3]"

def test_pole_on_support_rejected(tmp_path):
    config = tiny_config(tmp_path / "x")
    config.raw["rational"] = [
        {"pole": "1/2", "multiplicity": 1, "coeffs": ["1"]}
    ]
    with pytest.raises(InvalidConfig):
        cli.run(ProblemConfig(config.raw))
    assert not (tmp_path / "x").exists()


def test_run_emits_expected_files(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    record = cli.run(config)
    assert record.all_solved
    for n in (1, 2):
        assert (out / f"poles_n{n}.csv").is_file()
        assert (out / f"error_circle_n{n}.csv").is_file()
        assert (out / f"approximant_n{n}.json").is_file()
    assert (out / "report.json").is_file()
    poles = (out / "poles_n2.csv").read_text().splitlines()
    assert poles[0] == "re,im,nearest_singularity,distance"
    assert len(poles) == 3  # header + two poles
    errors = (out / "error_circle_n2.csv").read_text().splitlines()
    assert errors[0] == "theta,abs_error"
    assert len(errors) == 65
    report = json.loads((out / "report.json").read_text())
    assert report["name"] == "tiny"
    assert report["n_solved"] == [1, 2]
    assert set(report["checkers"]) == {
        "admissibility",
        "variation_budget",
        "pole_distribution",
        "pole_attraction",
        "capacity_convergence",
    }
    assert report["all_solved"] is True
    assert any("equispaced angles" in a for a in report["assumptions"])
    doc = json.loads((out / "approximant_n2.json").read_text())
    q2 = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in doc["q"]]
    assert abs(q2[0] + mp.mpf(1) / 2) < mp.mpf("1e-30")
    assert doc["defect"] == 0


def test_assumptions_flag_complex_circle_centre(tmp_path):
    def assumptions(scheme):
        return cli._assumptions(ProblemConfig({**tiny_config(tmp_path).raw, "scheme": scheme}))

    flagged = [a for a in assumptions({"kind": "circle", "center": "1/4+1/2i"})
               if "not conjugate-symmetric" in a]
    assert len(flagged) == 1 and "paper assumes" in flagged[0]
    for scheme in ({"kind": "circle", "center": "1/4", "radius": "3"},
                   {"kind": "circle"}, {"kind": "classical"}):
        assert not any("conjugate" in a for a in assumptions(scheme))


@pytest.mark.parametrize("density, flagged", [
    ("(2-4*i)*log(t)", True),
    ("(2-4*i)*ln(t)", True),
    ("1/pi", False),
])
def test_assumptions_state_the_complex_log_branch(tmp_path, density, flagged):
    raw = tiny_config(tmp_path).raw
    raw["measure"][0]["density"] = density
    lines = [a for a in cli._assumptions(ProblemConfig(raw)) if a.startswith("log in densities")]
    if flagged:
        assert lines == [
            "log in densities is the principal complex branch: a negative real x "
            "gives log|x| + pi*i"
        ]
    else:
        assert not lines


def test_check_leaves_circle_scheme_artifacts_byte_identical(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    config.raw["scheme"] = {"kind": "circle", "center": "0", "radius": "3",
                            "sigma_points": 64}
    config.raw["n_range"] = [2, 3]
    config.raw["error_circle"]["points"] = 16
    record = cli.run(ProblemConfig(config.raw))
    assert record.all_solved
    before = _stamps(out)
    assert any(p.startswith("approximant_n") for p in before)
    cli.check(ProblemConfig(config.raw))
    after = _stamps(out)
    # the report is rewritten with the same bytes; no per-n file is written
    assert after.pop("report.json")[0] == before.pop("report.json")[0]
    assert after == before


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_check_leaves_workload_artifacts_byte_identical(tmp_path, name):
    # each benchmark workload (seed 0): check rebuilds the problem from the
    # config and rewrites the report with the same bytes, and no other file
    config = ProblemConfig(_workloads()[name].config(0))
    cli.run(config, out_dir=tmp_path)
    before = _stamps(tmp_path)
    cli.check(config, out_dir=tmp_path)
    after = _stamps(tmp_path)
    assert after.pop("report.json")[0] == before.pop("report.json")[0]
    assert after == before


def _stamps(out):
    """Bytes and modification time of every file under ``out``."""
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in sorted(out.iterdir())}


def test_run_builds_and_sweeps_sigma_once(tmp_path, monkeypatch):
    from padelab import potential, scheme as sch

    config = tiny_config(tmp_path)
    config.raw["scheme"] = {"kind": "circle", "center": "0", "radius": "3",
                            "sigma_points": 64}
    config.raw["n_range"] = [2, 3]
    config.raw["error_circle"]["points"] = 16
    calls = {"sigma": 0, "sweep": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(sch.CircleScheme, "sigma", counted("sigma", sch.CircleScheme.sigma))
    monkeypatch.setattr(potential, "_balayage_finite",
                        counted("sweep", potential._balayage_finite))
    record = cli.run(ProblemConfig(config.raw), out_dir=tmp_path / "run")
    assert {"pole_distribution", "capacity_convergence"} <= set(record.checker_reports)
    assert calls == {"sigma": 1, "sweep": 1}


@pytest.mark.parametrize("escalate", [False, True])
def test_check_reuses_stored_poles(tmp_path, monkeypatch, miss_kernel_at, escalate):
    out = tmp_path / "run"
    config = tiny_config(out)
    config.raw["n_range"] = [2, 5]
    if escalate:
        # every kernel misses its bound at 256 bits, so each n is solved at 512
        miss_kernel_at(256)
    assert cli.run(ProblemConfig(config.raw)).all_solved
    doc = json.loads((out / "approximant_n5.json").read_text())
    assert doc["escalated"] is escalate
    assert doc["precision_bits"] == (512 if escalate else 256)
    # the quadrature tolerance n5 was solved with: quad_rel * 2^-256 if escalated
    with algebra.working_precision(512):
        tol = mp.mpf("1e-35") * (mp.mpf(2) ** -256 if escalate else 1)
        assert abs(mp.mpf(doc["quad_tol"]) / tol - 1) < mp.mpf("1e-60")
    names = ["report.json"] + [
        f"{kind}_n{n}.{ext}" for n in (2, 5)
        for kind, ext in (("poles", "csv"), ("approximant", "json"))
    ]
    before = {name: (out / name).read_bytes() for name in names}

    def no_roots(q):
        raise AssertionError("check must not factor q again")

    monkeypatch.setattr(pade, "poly_roots", no_roots)
    record = cli.check(ProblemConfig(config.raw))
    assert record.checkers_pass
    assert {name: (out / name).read_bytes() for name in names} == before


@pytest.mark.parametrize("problem", ["markov", "multipoint", "section4"])
def test_circle_errors_match_twice_the_precision(arcsine_family, request, problem):
    # each error is rounded once from exact integers: it agrees with
    # |F - p/q| formed at twice the precision from the same F to 2^(16-prec) |F|
    from padelab import measure as ms, scheme as sch

    tol, center, radius, points = mp.mpf("1e-40"), mp.mpc(0), mp.mpf(2), 32
    if problem == "markov":
        family = arcsine_family
    elif problem == "multipoint":
        family = pade.solve_family(arcsine_family.lam, ms.RationalPart.empty(),
                                   sch.CircleScheme("0", "3"), [4, 8], tol)
    else:
        record = request.getfixturevalue("section4_record")
        family, tol = record.family, record.config.quad_tol()
        center, radius, _ = record.config.circle_spec()
    rows = cli._circle_errors(family, center, radius, points, tol)
    zs = [center + radius * mp.expjpi(2 * mp.mpf(k) / points) for k in range(points)]
    fvals = [family.eval_F(z, tol) for z in zs]
    prec = mp.mp.prec
    for n in family.solved_ns:
        approx = family.approximants[n]
        for (theta, err), z, fv in zip(rows[n], zs, fvals):
            with algebra.working_precision(2 * prec):
                want = abs(fv - algebra.poly_eval(approx.p, z) / algebra.poly_eval(approx.q, z))
            assert abs(err - want) <= mp.ldexp(abs(fv), 16 - prec), (n, theta)


def test_run_timings_not_in_report(tmp_path):
    out = tmp_path / "run"
    cli.run(tiny_config(out))
    text = (out / "report.json").read_text()
    assert "timing" not in text and "seconds" not in text


def test_main_run_and_n_override(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config(out).raw))
    code = main(["run", str(cfg_path), "--n", "2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "n=2" in captured and "overall: PASS" in captured
    assert not (out / "approximant_n1.json").exists()
    assert (out / "approximant_n2.json").is_file()


def test_main_check_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config(out).raw))
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(cfg_path)]) == 0
    captured = capsys.readouterr().out
    assert "checker pole_distribution: PASS" in captured


def test_config_that_is_not_json_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cut.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "run").raw)[:40])
    with pytest.raises(InvalidConfig, match="cut.json"):
        load_config(str(cfg_path))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {cfg_path}")
    assert not (tmp_path / "run").exists()


def test_main_check_requires_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "empty").raw))
    assert main(["check", str(cfg_path)]) == 2
    report = tmp_path / "empty" / "report.json"
    assert capsys.readouterr().err.startswith(f"error: cannot parse {report}")
    assert not (tmp_path / "empty").exists()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The artifacts of one tiny run, to be copied and spoiled."""
    out = tmp_path_factory.mktemp("tiny") / "run"
    cli.run(tiny_config(out))
    return out


def _truncate(path):
    path.write_text(path.read_text()[:100])


def _drop_q(path):
    doc = json.loads(path.read_text())
    del doc["q"]
    path.write_text(json.dumps(doc))


def _rename_n(path):
    path.rename(path.with_name("approximant_nX.json"))


def _bad_n_solved(path):
    doc = json.loads(path.read_text())
    doc["n_solved"] = ["x"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name, spoil", [
    pytest.param("approximant_n2.json", _truncate, id="truncated-json"),
    pytest.param("approximant_n2.json", _drop_q, id="no-q"),
    pytest.param("report.json", _truncate, id="truncated-report"),
    pytest.param("approximant_n2.json", _rename_n, id="bad-n-in-name"),
    pytest.param("report.json", _bad_n_solved, id="bad-n-in-report"),
])
def test_check_on_a_corrupt_run_exits_2_naming_the_file(tiny_run, tmp_path, capsys, name,
                                                         spoil):
    import shutil

    out = tmp_path / "run"
    shutil.copytree(tiny_run, out)
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config(out).raw))
    spoil(out / name)
    report = out / "report.json"
    before = report.read_bytes(), report.stat().st_mtime_ns
    assert main(["check", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {out}")
    with pytest.raises(InvalidConfig):
        cli.check(tiny_config(out))
    # nothing was rewritten
    assert (report.read_bytes(), report.stat().st_mtime_ns) == before


ADMISSIBILITY_ONLY = {name: False for name in (
    "variation_budget", "pole_distribution", "pole_attraction", "capacity_convergence")}


def test_check_keeps_the_failed_n_of_the_run(tmp_path, capsys):
    out = tmp_path / "run"
    raw = tiny_config(out).raw
    # a double pole: n = 2 is not above s = 2, so it fails and n = 3 solves
    raw["rational"] = [{"pole": "3i", "multiplicity": 2, "coeffs": ["0", "1"]}]
    raw["n_range"] = [2, 3]
    raw["checkers"] = ADMISSIBILITY_ONLY
    cfg_path = tmp_path / "failing.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["n_solved"] == [3]
    assert list(report["n_failed"]) == ["2"]
    assert report["n_failed"]["2"].startswith("DegenerateChoice")
    assert report["checkers"]["admissibility"]["pass"] is True
    assert report["all_solved"] is False and report["pass"] is False
    before = (out / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["check", str(cfg_path)]) == 1
    printed = capsys.readouterr().out
    assert "n=2: FAILED (DegenerateChoice" in printed and "overall: FAIL" in printed
    assert (out / "report.json").read_bytes() == before


def test_check_grades_only_the_ns_of_the_last_run(tmp_path):
    out = tmp_path / "run"
    raw = tiny_config(out).raw
    raw["error_circle"]["points"] = 16
    config = ProblemConfig(raw)
    cli.run(config, n_override=[1, 2, 3, 4, 5, 6])
    cli.run(config, n_override=[1, 2, 3])
    before = (out / "report.json").read_bytes()
    assert json.loads(before)["n_solved"] == [1, 2, 3]
    # the longer run's files stay behind; check must not read them
    assert (out / "approximant_n6.json").is_file()
    _truncate(out / "approximant_n5.json")
    record = cli.check(config)
    assert record.family.solved_ns == [1, 2, 3]
    assert (out / "report.json").read_bytes() == before


def test_main_oracle_subcommand(capsys):
    assert main(["oracle", "quadrature"]) == 0
    out = capsys.readouterr().out
    assert "PASS arcsine total mass" in out
    # the 1e-12 closed-form rows of the potential layer gate the exit code
    assert main(["oracle", "potential"]) == 0
    out = capsys.readouterr().out
    assert "PASS capacity of [-2,-1] u [1,2] = sqrt(3)/2" in out
    assert "FAIL" not in out
    # the one suite no other test runs; its circle row goes through the residue sum
    assert main(["oracle", "markov"]) == 0
    assert main(["oracle", "bogus"]) == 2


def test_module_entry_point_runs_without_install():
    # python -m padelab with only src on the path; -W error turns the
    # runpy double-import warning of `python -m padelab.cli` into a failure
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "padelab", "oracle", "potential"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS ")


def test_run_and_check_never_import_the_oracles(tmp_path):
    # the closed-form oracles serve `padelab oracle` and the tests only; a
    # process compiles each module it imports unless bytecode is cached, so
    # an eager import of them would add to the set-up time of every run
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config(tmp_path / "run").raw))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = ("import sys\nfrom padelab.cli import main\n"
              f"codes = [main(['run', {str(cfg)!r}]), main(['check', {str(cfg)!r}])]\n"
              "print(codes, 'padelab.oracles' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stdout
