"""Command-line surface: exit codes, outputs, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import ivdtr.nuisance
from ivdtr.cli import run
from ivdtr.data import save_csv
from ivdtr.dtr_core import dtr_from_json
from ivdtr.nuisance import NumericalError
from ivdtr.sim import SimConfig, generate


@pytest.fixture()
def sim_csv(tmp_path):
    cfg = SimConfig(c1=4.0, xi=1.0)
    ds, _ = generate(cfg, 400, np.random.default_rng(0))
    path = tmp_path / "train.csv"
    save_csv(ds, path)
    return path


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_error(capsys):
    err = capsys.readouterr().err.strip()
    return json.loads(err)


BOUNDS_DOC = [[0.0, 1.0], [0.0, 1.0]]


class TestFit:
    def test_writes_depth_limited_trees(self, tmp_path, sim_csv):
        out = tmp_path / "policy.json"
        report = tmp_path / "report.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
            "lambda": "m", "depth": 2,
            "out": str(out), "report": str(report),
        })
        assert run(["fit", "--config", str(config)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "iv_optimal"
        assert len(doc["stages"]) == 2
        policy = dtr_from_json(doc)
        for stage in policy.stages:
            assert stage.depth() <= 2
        rep = json.loads(report.read_text())
        assert {s["stage"] for s in rep["stages"]} == {1, 2}
        assert all("interval_width_quantiles" in s for s in rep["stages"])

    def test_lambda_out_of_range_exits_2(self, tmp_path, sim_csv, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "lambda": 1.5,
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert "lambda out of range" in read_error(capsys)["error"]

    def test_rewards_outside_bounds_names_row(self, tmp_path, sim_csv, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": [[0.0, 1.0], [0.2, 1.0]],
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert "at row" in read_error(capsys)["error"]

    def test_unknown_config_key_rejected(self, tmp_path, sim_csv, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "bogus": 1,
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert "unknown config keys" in read_error(capsys)["error"]

    def test_flag_overrides_config(self, tmp_path, sim_csv):
        out = tmp_path / "p.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "depth": 2,
        })
        assert run(["fit", "--config", str(config), "--depth", "1",
                    "--out", str(out)]) == 0
        policy = dtr_from_json(json.loads(out.read_text()))
        for stage in policy.stages:
            assert stage.depth() <= 1

    def test_deterministic_output(self, tmp_path, sim_csv):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "seed": 9,
        })
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert run(["fit", "--config", str(config), "--out", str(out1)]) == 0
        assert run(["fit", "--config", str(config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_crossfit_flag(self, tmp_path, sim_csv):
        out = tmp_path / "p.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "seed": 1,
        })
        assert run(["fit", "--config", str(config), "--crossfit", "2",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "iv_optimal"


class TestImprove:
    def test_improve_from_std(self, tmp_path, sim_csv):
        out = tmp_path / "up.json"
        report = tmp_path / "rep.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
            "baseline": "std", "out": str(out), "report": str(report),
        })
        assert run(["improve", "--config", str(config)]) == 0
        rep = json.loads(report.read_text())
        assert rep["baseline"] == "std"
        for stage in rep["stages"]:
            assert 0.0 <= stage["deviation_fraction"] <= 1.0

    def test_baseline_fixed_point(self, tmp_path, sim_csv):
        # improving the freshly fit sign rule deviates (almost) nowhere
        fitted = tmp_path / "fit.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config), "--out", str(fitted)]) == 0
        report = tmp_path / "rep.json"
        improve_cfg = write_config(tmp_path, "icfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
            "baseline": str(fitted), "report": str(report),
            "out": str(tmp_path / "up.json"),
        })
        assert run(["improve", "--config", str(improve_cfg)]) == 0
        rep = json.loads(report.read_text())
        assert rep["stages"][1]["pointwise_flip_fraction"] <= 0.05

    def test_missing_baseline_file(self, tmp_path, sim_csv, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
            "baseline": str(tmp_path / "nope.json"),
        })
        assert run(["improve", "--config", str(config)]) == 2
        assert "not found" in read_error(capsys)["error"]

    def test_baseline_stage_mismatch(self, tmp_path, sim_csv, capsys):
        one_stage = tmp_path / "one.json"
        one_stage.write_text(json.dumps(
            {"kind": "std", "lambda": None,
             "stages": [{"type": "constant", "label": -1}]}))
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
            "baseline": str(one_stage),
        })
        assert run(["improve", "--config", str(config)]) == 2
        assert "stages" in read_error(capsys)["error"]


class TestSimulate:
    def test_grid_shapes_and_determinism(self, tmp_path):
        out_csv = tmp_path / "values.csv"
        out_json = tmp_path / "summary.json"
        config = write_config(tmp_path, "cfg.json", {
            "c1": [3.0, 4.0], "xi": [1.0], "n_train": 200,
            "replications": 1, "n_eval": 2000, "seed": 4,
            "out_csv": str(out_csv), "out_json": str(out_json),
        })
        assert run(["simulate", "--config", str(config)]) == 0
        doc = json.loads(out_json.read_text())
        assert len(doc["cells"]) == 2
        first = out_csv.read_bytes()
        assert run(["simulate", "--config", str(config)]) == 0
        assert out_csv.read_bytes() == first
        lines = first.decode().strip().splitlines()
        assert lines[0] == "c1,xi,rep,regime,value"
        assert len(lines) == 1 + 2 * 9

    def test_zero_replications_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {"replications": 0})
        assert run(["simulate", "--config", str(config)]) == 2
        assert "replications" in read_error(capsys)["error"]


class TestEvaluate:
    def test_builtin_std_is_exactly_one(self, tmp_path):
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--policy", "std", "--out", str(out),
                    "--seed", "3"]) == 0
        doc = json.loads(out.read_text())
        assert doc["normalized_value"] == 1.0
        assert doc["monte_carlo_se"] == 0.0

    def test_fitted_policy_roundtrip(self, tmp_path, sim_csv):
        fitted = tmp_path / "fit.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config), "--out", str(fitted)]) == 0
        out = tmp_path / "eval.json"
        eval_cfg = write_config(tmp_path, "ecfg.json", {
            "policy": str(fitted), "c1": 4.0, "xi": 1.0, "n_eval": 5000,
            "out": str(out), "seed": 0,
        })
        assert run(["evaluate", "--config", str(eval_cfg)]) == 0
        doc = json.loads(out.read_text())
        assert 0.5 < doc["normalized_value"] < 1.5

    def test_truncated_policy_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "std", "stages": [')
        assert run(["evaluate", "--policy", str(bad)]) == 2
        assert "not valid JSON" in read_error(capsys)["error"]

    def test_missing_policy_key(self, capsys):
        assert run(["evaluate"]) == 2
        assert "policy" in read_error(capsys)["error"]


class TestConfigSurface:
    @pytest.mark.parametrize("argv", [["fit", "--threads", "2"],
                                      ["improve", "--crossfit", "5"]])
    def test_flag_of_another_command_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_readme_fit_config_runs_fit_and_improve(self, tmp_path, sim_csv):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"Example `fit.json`[^\n]*\s*```json\n(.*?)```", readme, re.S)
        doc = json.loads(block.group(1))
        doc.update(data=str(sim_csv), out=str(tmp_path / "p.json"),
                   report=str(tmp_path / "r.json"))
        config = write_config(tmp_path, "fit.json", doc)
        assert run(["fit", "--config", str(config)]) == 0
        assert run(["improve", "--config", str(config), "--baseline", "std"]) == 0

    @pytest.mark.parametrize("command", ["fit", "improve"])
    def test_strict_nonconvergence_exits_3(self, tmp_path, sim_csv, capsys,
                                           monkeypatch, command):
        monkeypatch.setattr(ivdtr.nuisance, "MAX_ITER", 1)
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "strict": True,
            "out": str(tmp_path / "p.json"),
        })
        extra = ["--baseline", "std"] if command == "improve" else []
        assert run([command, "--config", str(config), *extra]) == 3
        assert "did not converge" in read_error(capsys)["error"]
        assert not (tmp_path / "p.json").exists()


class TestExitCodes:
    def test_numerical_error_maps_to_3(self, tmp_path, capsys, monkeypatch):
        import ivdtr.cli as cli

        def boom(config):
            raise NumericalError("fit did not converge within limits")

        monkeypatch.setitem(cli._COMMANDS, "fit", boom)
        assert run(["fit"]) == 3
        assert read_error(capsys)["code"] == 3

    def test_missing_data_file(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(tmp_path / "nope.csv"), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert "not found" in read_error(capsys)["error"]
