import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from padelab import algebra, cli, pade
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
    again = ProblemConfig.from_file(path)
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
    bad_scheme = tiny_config(tmp_path)
    bad_scheme.raw["scheme"] = {"kind": "parabola"}
    with pytest.raises(InvalidConfig):
        bad_scheme.build_scheme()


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


@pytest.mark.parametrize("edit, args", [
    pytest.param({"precision_bits": 64}, [], id="precision_bits-64"),
    pytest.param({"precision_bits": "abc"}, [], id="precision_bits-abc"),
    pytest.param({"collocation_points": "x"}, [], id="collocation_points-x"),
    pytest.param({"measure": ARCSINE_REVERSED}, [], id="interval-reversed"),
    pytest.param({"tolerances": ["1e-35"]}, [], id="tolerances-list"),
    pytest.param({}, ["--precision", "64"], id="precision-override-64"),
    pytest.param({}, ["--n", "2,x"], id="n-override-x"),
    pytest.param({}, ["--n", "0"], id="n-override-0"),
    pytest.param({"scheme": {"kind": "circle", "sigma_points": 0}}, [],
                 id="sigma_points-0"),
])
def test_malformed_input_exits_2_without_artifacts(tmp_path, capsys, edit, args):
    out = tmp_path / "run"
    raw = {**tiny_config(out).raw, **edit}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), *args]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


def test_report_residuals_are_json_floats(tmp_path):
    record = cli.run(tiny_config(tmp_path / "run"), emit=False)
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
    label, dist = cli._nearest_singularity(mp.mpc("-0.5", "0.1"), config)
    assert label == "interval[-1,0]"
    assert abs(dist - mp.mpf("0.1")) < mp.mpf("1e-70")
    label, _ = cli._nearest_singularity(mp.mpc("2.5", "0.1"), config)
    assert label == "interval[2,3]"

def test_pole_on_support_rejected(tmp_path):
    config = tiny_config(tmp_path / "x")
    config.raw["rational"] = [
        {"pole": "1/2", "multiplicity": 1, "coeffs": ["1"]}
    ]
    with pytest.raises(InvalidConfig):
        cli.run(ProblemConfig(config.raw), emit=False)


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
        config = tiny_config(tmp_path)
        config.raw["scheme"] = scheme
        return cli._assumptions(config)

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
    config = tiny_config(tmp_path)
    config.raw["measure"][0]["density"] = density
    lines = [a for a in cli._assumptions(config) if a.startswith("log in densities")]
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
    before = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert any(p.startswith("approximant_n") for p in before)
    cli.check(ProblemConfig(config.raw))
    after = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert after == before


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
    record = cli.run(ProblemConfig(config.raw), emit=False)
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


def test_main_check_requires_artifacts(tmp_path):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "empty").raw))
    assert main(["check", str(cfg_path)]) == 2


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
