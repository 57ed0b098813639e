import json

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
    config.save(path)
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
    with pytest.raises(InvalidConfig):
        ProblemConfig(
            {"n_range": [2], "measure": [{"interval": ["0", "1"], "density": "sin(t)"}]}
        )
    bad_scheme = tiny_config(tmp_path)
    bad_scheme.raw["scheme"] = {"kind": "parabola"}
    with pytest.raises(InvalidConfig):
        bad_scheme.build_scheme()


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


@pytest.mark.parametrize("escalate", [False, True])
def test_check_reuses_stored_poles(tmp_path, monkeypatch, escalate):
    out = tmp_path / "run"
    config = tiny_config(out)
    config.raw["n_range"] = [2, 5]
    if escalate:
        # every kernel misses this bound at 256 bits and meets it at 512
        monkeypatch.setattr(algebra, "solve_tolerance", lambda: mp.mpf(2) ** -280)
    assert cli.run(ProblemConfig(config.raw)).all_solved
    doc = json.loads((out / "approximant_n5.json").read_text())
    assert doc["escalated"] is escalate
    assert doc["precision_bits"] == (512 if escalate else 256)
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
    tiny_config(out).save(cfg_path)
    code = main(["run", str(cfg_path), "--n", "2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "n=2" in captured and "overall: PASS" in captured
    assert not (out / "approximant_n1.json").exists()
    assert (out / "approximant_n2.json").is_file()


def test_main_check_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "tiny.json"
    tiny_config(out).save(cfg_path)
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(cfg_path)]) == 0
    captured = capsys.readouterr().out
    assert "checker pole_distribution: PASS" in captured


def test_main_check_requires_artifacts(tmp_path):
    cfg_path = tmp_path / "tiny.json"
    tiny_config(tmp_path / "empty").save(cfg_path)
    assert main(["check", str(cfg_path)]) == 2


def test_main_oracle_subcommand(capsys):
    assert main(["oracle", "quadrature"]) == 0
    out = capsys.readouterr().out
    assert "PASS arcsine total mass" in out
    assert main(["oracle", "bogus"]) == 2
