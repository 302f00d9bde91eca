"""Command-line surface: exit codes, outputs, determinism."""

import builtins
import dataclasses
import errno
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ivdtr.cli
import ivdtr.crossfit
import ivdtr.nuisance
import ivdtr.sim
from ivdtr.cli import run
from ivdtr.data import dataset_from_arrays, save_csv
from ivdtr.dtr_core import dtr_from_json, dtr_to_json
from ivdtr.nuisance import NumericalError
from ivdtr.sim import SimConfig, generate


@pytest.fixture()
def sim_csv(tmp_path):
    cfg = SimConfig(c1=4.0, xi=1.0)
    ds, _ = generate(cfg, 400, np.random.default_rng(0))
    path = tmp_path / "train.csv"
    save_csv(ds, path)
    return path


def random_three_stage_dataset(rng, n):
    """Three stages, one covariate at stage 1, binary instruments, actions and rewards."""
    return dataset_from_arrays(
        covariates=[rng.uniform(-1, 1, size=(n, 1)), np.empty((n, 0)), np.empty((n, 0))],
        instruments=[rng.choice([-1.0, 1.0], size=n) for _ in range(3)],
        actions=[rng.choice([-1.0, 1.0], size=n) for _ in range(3)],
        rewards=[rng.integers(0, 2, size=n).astype(float) for _ in range(3)],
    )


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_error(capsys):
    err = capsys.readouterr().err.strip()
    return json.loads(err)


BOUNDS_DOC = [[0.0, 1.0], [0.0, 1.0]]
REPO = Path(__file__).resolve().parent.parent


def make_example_data(monkeypatch, n):
    """Write train.csv and fit_config.json into the working directory."""
    monkeypatch.setattr(sys, "argv", ["make_example_data.py", "--n", str(n),
                                      "--out", "train.csv"])
    runpy.run_path(str(REPO / "scripts" / "make_example_data.py"))["main"]()


def write_contrast_sign_policy(path):
    """A two-stage policy file whose stages are sign-of-contrast rules with
    their conditional models written out; policy files hold trees and
    constants only, so this format is no longer read."""
    const = {"kind": "constant", "value": 0.5}
    stage = {"type": "contrast_sign", "lambda": 0.5, "tail": [0.0, 1.0], "tie_sign": 1,
             "nuisance": {"pz": const, "pa": {"-1": const, "1": const},
                          "mu": {f"{z},{a}": const for z in (-1, 1) for a in (-1, 1)},
                          "outcome_range": [0.0, 1.0], "binary_outcome": False,
                          "clip": 0.001, "empty_cells": []}}
    path.write_text(json.dumps({"kind": "iv_optimal", "lambda": 0.5, "stages": [stage, stage]}))
    return path


def split_policy(feature=0, threshold=0.0, leaf=1, root=0, left=None, **tree_keys):
    """A two-stage policy document whose stage 1 is one split and stage 2 a
    constant +1; root is the split's node index and left its left child, a -1
    leaf unless given; tree_keys override or add stage 1's other keys."""
    tree = {"type": "tree", "max_depth": 1, "root": {"node": root},
            "nodes": [{"feature": feature, "threshold": threshold,
                       "left": left or {"leaf": -1}, "right": {"leaf": leaf}}], **tree_keys}
    return {"kind": "iv_optimal", "stages": [tree, {"type": "constant", "label": 1}]}


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

    @pytest.mark.parametrize("text, message", [
        ("1.5", "lambda out of range [0, 1]: 1.5"),
        ("abc", "cannot parse lambda spec 'abc'"),
        ("const:3:0.2", "lambda spec stage 3 out of range 1..2"),
    ])
    def test_lambda_flag_errors_exit_2(self, tmp_path, sim_csv, capsys, text, message):
        # a bare number out of range is a range error, as in a config, not a parse error
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config), "--lambda", text]) == 2
        assert read_error(capsys)["error"] == message

    def test_without_out_prints_the_policy(self, tmp_path, sim_csv, capsys):
        out = tmp_path / "policy.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config), "--out", str(out)]) == 0
        assert run(["fit", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())

    def test_rewards_outside_bounds_names_row(self, tmp_path, sim_csv, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": [[0.0, 1.0], [0.2, 1.0]],
        })
        assert run(["fit", "--config", str(config)]) == 2
        error = read_error(capsys)["error"]
        assert re.fullmatch(r"row [1-9]\d*: stage 2 reward outside declared bounds \[0.2, 1.0\]",
                            error)

    @pytest.mark.parametrize("argv", [["fit"], ["improve", "--baseline", "std"]],
                             ids=["fit", "improve"])
    def test_reward_outside_bounds_names_its_csv_row(self, tmp_path, capsys, argv):
        # the blank line counts, as it does for a malformed cell
        data = tmp_path / "data.csv"
        data.write_text("x1_1,z1,a1,r1\n0.1,1,1,1\n\n0.1,1,-1,5\n0.2,-1,1,0\n")
        config = write_config(tmp_path, "cfg.json", {"data": str(data),
                                                     "reward_bounds": [[0, 1]]})
        assert run([*argv, "--config", str(config)]) == 2
        assert read_error(capsys)["error"] == \
            "row 3: stage 1 reward outside declared bounds [0.0, 1.0]"

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

    def test_crossfit_report_pools_complement_widths(self, tmp_path, sim_csv, monkeypatch):
        # each stage's width quantiles are taken over the intervals of both
        # arms in every batch-complement induction, recomputed from its estimates
        original = ivdtr.crossfit.backward_induct
        fits = []

        def recorded(models, *args, **kwargs):
            estimates = original(models, *args, **kwargs)
            fits.extend((models[est.stage - 1].H, est) for est in estimates)
            return estimates

        monkeypatch.setattr(ivdtr.crossfit, "backward_induct", recorded)
        report = tmp_path / "r.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "crossfit": 2,
            "out": str(tmp_path / "p.json"), "report": str(report),
        })
        assert run(["fit", "--config", str(config)]) == 0
        assert [est.stage for _, est in fits] == [1, 2, 1, 2]
        for entry in json.loads(report.read_text())["stages"]:
            widths = []
            for H, est in fits:
                if est.stage == entry["stage"]:
                    plus, minus, _ = est.nuisance.intervals_at(H)
                    widths += [plus.upper - plus.lower, minus.upper - minus.lower]
            widths = np.concatenate(widths)
            assert entry["interval_width_quantiles"] == {
                f"q{round(100 * q)}": float(np.quantile(widths, q)) for q in (0.1, 0.5, 0.9)}


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
        # improving the freshly fit policy deviates (almost) nowhere
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

    @pytest.mark.parametrize("shape", ["three_stages", "continuous_rewards", "rewards_0_10"])
    def test_sra_baseline_takes_any_stage_count_and_reward_scale(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        ds, _ = generate(SimConfig(c1=4.0, xi=1.0), 400, rng)
        if shape == "three_stages":
            ds, bounds = random_three_stage_dataset(rng, 400), [[0.0, 1.0]] * 3
        elif shape == "continuous_rewards":
            ds, bounds = dataclasses.replace(ds, r=rng.uniform(0.0, 1.0, ds.r.shape)), BOUNDS_DOC
        else:
            ds, bounds = dataclasses.replace(ds, r=10.0 * ds.r), [[0.0, 10.0], [0.0, 10.0]]
        data, out = tmp_path / "train.csv", tmp_path / "up.json"
        save_csv(ds, data)
        config = write_config(tmp_path, "cfg.json", {
            "data": str(data), "reward_bounds": bounds, "baseline": "sra", "out": str(out),
        })
        assert run(["improve", "--config", str(config)]) == 0
        assert dtr_from_json(json.loads(out.read_text())).num_stages == ds.num_stages

    def test_missing_baseline_file(self, tmp_path, sim_csv, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
            "baseline": str(tmp_path / "nope.json"),
        })
        assert run(["improve", "--config", str(config)]) == 2
        assert "not found" in read_error(capsys)["error"]

    def test_baseline_stage_mismatch(self, tmp_path, sim_csv, capsys):
        for num_stages in (1, 3):
            path = tmp_path / f"{num_stages}.json"
            path.write_text(json.dumps(
                {"kind": "std", "lambda": None,
                 "stages": [{"type": "constant", "label": -1}] * num_stages}))
            out = tmp_path / "up.json"
            config = write_config(tmp_path, "cfg.json", {
                "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
                "baseline": str(path), "out": str(out),
            })
            assert run(["improve", "--config", str(config)]) == 2
            assert (f"baseline policy has {num_stages} stages, expected 2"
                    in read_error(capsys)["error"])
            assert not out.exists()


class TestSimulate:
    def test_grid_shapes_and_determinism(self, tmp_path):
        out_csv = tmp_path / "values.csv"
        out = tmp_path / "summary.json"
        config = write_config(tmp_path, "cfg.json", {
            "c1": [3.0, 4.0], "xi": [1.0], "n_train": 200,
            "replications": 1, "seed": 4,
            "out_csv": str(out_csv), "out": str(out),
        })
        assert run(["simulate", "--config", str(config)]) == 0
        doc = json.loads(out.read_text())
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

    @pytest.mark.parametrize("doc", [{"c1": []}, {"xi": [], "replications": 0}])
    def test_empty_grid_rejected(self, tmp_path, capsys, doc):
        config = write_config(tmp_path, "cfg.json", doc)
        assert run(["simulate", "--config", str(config)]) == 2
        assert "c1 and xi need at least one value" in read_error(capsys)["error"]

    @pytest.mark.parametrize("n_train, error", [(0, "n_train must be >= 1"),
                                                 (-1, "n_train must be >= 0, got -1")])
    def test_n_train_below_one_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                      n_train, error):
        def unreachable(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(ivdtr.cli, "run_cell", unreachable)
        config = write_config(tmp_path, "cfg.json", {"replications": 1, "n_train": n_train})
        assert run(["simulate", "--config", str(config)]) == 2
        assert error in read_error(capsys)["error"]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "cfg.json", {"replications": 1, "n_train": 200,
                                                     "out": str(out)})
        assert run(["simulate", "--config", str(config), "--threads", str(threads)]) == 2
        assert "threads must be >= 1" in read_error(capsys)["error"]
        assert not out.exists()


class TestEvaluate:
    def test_builtin_std_is_exactly_one(self, tmp_path):
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--policy", "std", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"raw_value", "n_eval"}
        assert doc["raw_value"] == 1.0

    def test_fitted_policy_roundtrip(self, tmp_path, sim_csv):
        fitted = tmp_path / "fit.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config), "--out", str(fitted)]) == 0
        out = tmp_path / "eval.json"
        eval_cfg = write_config(tmp_path, "ecfg.json", {
            "policy": str(fitted), "c1": 4.0, "xi": 1.0, "out": str(out),
        })
        assert run(["evaluate", "--config", str(eval_cfg)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"raw_value", "n_eval"}
        assert 0.5 < doc["raw_value"] < 1.5

    def test_three_stage_policy_exits_2_before_evaluation(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the evaluator ran")

        monkeypatch.setattr(ivdtr.cli, "true_value", unreachable)
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"kind": "std", "lambda": None,
                                    "stages": [{"type": "constant", "label": -1}] * 3}))
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--policy", str(path), "--out", str(out)]) == 2
        assert "policy has 3 stages, expected 2" in read_error(capsys)["error"]
        assert not out.exists()

    def test_integer_lambda_is_a_scalar_weight(self, tmp_path):
        doc = {**split_policy(), "lambda": 1}
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        assert run(["evaluate", "--policy", str(path), "--out", str(tmp_path / "eval.json")]) == 0
        assert dtr_to_json(dtr_from_json(doc))["lambda"] == 1.0

    def test_truncated_policy_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "std", "stages": [')
        assert run(["evaluate", "--policy", str(bad)]) == 2
        assert "not valid JSON" in read_error(capsys)["error"]

    def test_deeply_nested_policy_json(self, tmp_path, capsys):
        # the JSON decoder recurses once per level of nesting
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["evaluate", "--policy", str(bad)]) == 2
        assert "policy is not valid JSON" in read_error(capsys)["error"]

    def test_missing_policy_key(self, capsys):
        assert run(["evaluate"]) == 2
        assert "policy" in read_error(capsys)["error"]


class TestConfigSurface:
    @pytest.mark.parametrize("argv", [["fit", "--threads", "2"],
                                      ["improve", "--crossfit", "5"],
                                      ["simulate", "--lambda", "w"],
                                      ["evaluate", "--policy", "std", "--seed", "3"]])
    def test_flag_of_another_command_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_readme_fit_config_runs_fit_and_improve(self, tmp_path, sim_csv):
        readme = (REPO / "README.md").read_text()
        block = re.search(r"Example `fit.json`[^\n]*\s*```json\n(.*?)```", readme, re.S)
        doc = json.loads(block.group(1))
        doc.update(data=str(sim_csv), out=str(tmp_path / "p.json"),
                   report=str(tmp_path / "r.json"))
        config = write_config(tmp_path, "fit.json", doc)
        assert run(["fit", "--config", str(config)]) == 0
        assert run(["improve", "--config", str(config), "--baseline", "std"]) == 0

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {"strict": True}),
        ("evaluate", {"report": "x.json"}),
        ("improve", {"seed": 1}),
        ("fit", {"schema": {"num_stages": 2, "covariate_dims": [2, 0]}}),
        ("simulate", {"lambda": "w"}),
        ("simulate", {"n_eval": 100}),
        ("evaluate", {"n_eval": 0}),
        ("evaluate", {"seed": 3}),
    ])
    def test_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, doc):
        config = write_config(tmp_path, "cfg.json", doc)
        assert run([command, "--config", str(config)]) == 2
        assert "unknown config keys" in read_error(capsys)["error"]

    def test_readme_config_keys_match_the_table(self):
        readme = (REPO / "README.md").read_text()
        table = re.search(r"### Config keys\s*\| key \|.*?\n\n", readme, re.S).group(0)
        documented = {}
        for key, kinds, default, commands, flag in re.findall(
                r"^\| `(\w+)` \| (.*?) \| (.*?) \| (.*?) \| (.*?) \|$", table, re.M):
            default = default[1:-1] if default.startswith("`") else None
            documented[key] = (kinds, default, commands.split(", "), flag)
        assert documented == {
            key: (kinds, None if default is None else json.dumps(default), commands.split(),
                  f"`--{key}`" if flag else "—")
            for key, (kinds, default, commands, flag) in ivdtr.cli._KEYS.items()
        }

    @pytest.mark.parametrize("name", ["sim.json", "eval.json", "fit_config.json"])
    def test_shipped_config_documents_run(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        readme = (REPO / "README.md").read_text()
        if name == "fit_config.json":
            make_example_data(monkeypatch, 400)
            argv, outputs = ["fit"], ["policy.json", "report.json"]
        elif name == "sim.json":
            block = re.search(r"simulate --config sim.json\n```\s*with\s*```json\n(.*?)```",
                              readme, re.S)
            doc = json.loads(block.group(1))
            doc.update(c1=doc["c1"][:1], xi=doc["xi"][:1], replications=1, n_train=200)
            write_config(tmp_path, name, doc)
            argv, outputs = ["simulate"], [doc["out"], doc["out_csv"]]
        else:
            block = re.search(r"Example `eval.json`[^\n]*\s*```json\n(.*?)```", readme, re.S)
            write_config(tmp_path, name, json.loads(block.group(1)))
            argv = ["evaluate", "--policy", "std", "--out", "value.json"]
            outputs = ["value.json"]
        assert run([*argv, "--config", name]) == 0
        assert all((tmp_path / out).stat().st_size > 0 for out in outputs)

    def test_readme_library_example_runs_on_example_data(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        make_example_data(monkeypatch, 500)
        readme = (REPO / "README.md").read_text()
        library = readme[readme.index("## Library"):]
        blocks = re.findall(r"```python\n(.*?)```", library, re.S)
        namespace: dict = {}
        exec(blocks[0], namespace)
        assert namespace["data"].n == 500
        assert namespace["action"] in (-1, 1)
        # the interval recipe, on the estimates the first block fitted
        exec(blocks[1], namespace)
        got = (namespace["plus"], namespace["minus"], namespace["n_repaired"])
        expected = namespace["models"][1].intervals(namespace["estimates"][1].nuisance)
        assert got[2] == expected[2]
        for a, b in zip(got[:2], expected[:2]):
            assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)

    def test_readme_report_keys_match_reports(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        make_example_data(monkeypatch, 500)
        readme = (REPO / "README.md").read_text()
        for command, extra in (("fit", ["--crossfit", "2"]), ("improve", ["--baseline", "std"])):
            row = re.search(rf"^\| `{command}` \|(.*)\|(.*)\|$", readme, re.M)
            top, per_stage = (re.findall(r"`(\w+)`", cell) for cell in row.groups())
            config = write_config(tmp_path, f"{command}.json", {
                "data": "train.csv", "reward_bounds": BOUNDS_DOC,
                "out": f"{command}-policy.json", "report": f"{command}-report.json",
            })
            assert run([command, "--config", str(config), *extra]) == 0
            report = json.loads((tmp_path / f"{command}-report.json").read_text())
            assert sorted(report) == sorted(top)
            assert [sorted(stage) for stage in report["stages"]] == [sorted(per_stage)] * 2

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
        if command == "improve":
            config = write_config(tmp_path, "cfg.json", {
                "data": str(sim_csv), "reward_bounds": BOUNDS_DOC,
                "out": str(tmp_path / "p.json"), "report": str(tmp_path / "r.json"),
            })
            assert run([command, "--config", str(config), *extra]) == 0
            report = json.loads((tmp_path / "r.json").read_text())
            assert [stage["converged"] for stage in report["stages"]] == [False, False]

    @pytest.mark.parametrize("strict, code", [(True, 3), (False, 0)])
    def test_strict_covers_the_sra_baseline(self, tmp_path, sim_csv, capsys, monkeypatch,
                                            strict, code):
        # only the SRA baseline's logistic fits report non-convergence
        original = ivdtr.sim.fit_logistic

        def unconverged(*args, **kwargs):
            return dataclasses.replace(original(*args, **kwargs), converged=False)

        monkeypatch.setattr(ivdtr.sim, "fit_logistic", unconverged)
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "strict": strict,
            "baseline": "sra", "out": str(tmp_path / "p.json"),
        })
        assert run(["improve", "--config", str(config)]) == code
        if strict:
            assert "SRA baseline nuisance fit did not converge" in read_error(capsys)["error"]
        assert (tmp_path / "p.json").exists() == (not strict)

    def test_report_shows_whether_the_baseline_converged(self, tmp_path, sim_csv, monkeypatch):
        # without strict a non-converged SRA baseline exits 0 and shows in the
        # report; a given baseline involves no fit
        original = ivdtr.cli.fit_sra_baseline
        monkeypatch.setattr(ivdtr.cli, "fit_sra_baseline",
                            lambda *args: (original(*args)[0], False))
        report = tmp_path / "r.json"
        for tag, converged in (("sra", False), ("std", True), ("prosp", True)):
            config = write_config(tmp_path, "cfg.json", {
                "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "baseline": tag,
                "out": str(tmp_path / "p.json"), "report": str(report),
            })
            assert run(["improve", "--config", str(config)]) == 0
            assert json.loads(report.read_text())["baseline_converged"] is converged

    @pytest.mark.parametrize("strict", [True, False])
    def test_strict_and_report_see_each_crossfit_complement(self, tmp_path, sim_csv, capsys,
                                                            monkeypatch, strict):
        # one of the two batch-complement inductions reports a non-converged
        # stage-2 fit; the full data are never fitted under crossfit
        original = ivdtr.crossfit.backward_induct
        calls = []

        def first_unconverged(models, *args, **kwargs):
            estimates = original(models, *args, **kwargs)
            calls.append(len(models[0].r))
            if len(calls) == 1:
                est = estimates[1]
                estimates[1] = dataclasses.replace(
                    est, nuisance=dataclasses.replace(est.nuisance, converged=False))
            return estimates

        monkeypatch.setattr(ivdtr.crossfit, "backward_induct", first_unconverged)
        report = tmp_path / "r.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "strict": strict,
            "crossfit": 2, "out": str(tmp_path / "p.json"), "report": str(report),
        })
        assert run(["fit", "--config", str(config)]) == (3 if strict else 0)
        assert calls == [200, 200]
        if strict:
            assert "stage 2 nuisance fit did not converge" in read_error(capsys)["error"]
            assert not report.exists()
        else:
            stages = json.loads(report.read_text())["stages"]
            assert [s["converged"] for s in stages] == [True, False]

    def test_strict_passes_fits_that_stall_at_their_optimum(self, tmp_path, capsys):
        # two of this CSV's 50 logistic fits stall at their optimum: the full
        # Newton step's gain is below the log-likelihood's rounding while the
        # gradient norm is above 1e-8; they converge, so strict passes
        ds, _ = generate(SimConfig(c1=4.0, xi=1.0), 1_000,
                         np.random.default_rng([210407822, 7]))
        data = tmp_path / "train.csv"
        save_csv(ds, data)
        report = tmp_path / "r.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(data), "reward_bounds": BOUNDS_DOC, "lambda": "m", "crossfit": 5,
            "seed": 0, "strict": True, "out": str(tmp_path / "p.json"), "report": str(report),
        })
        assert run(["fit", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""
        assert [s["converged"] for s in json.loads(report.read_text())["stages"]] == [True, True]


class TestExitCodes:
    def test_numerical_error_maps_to_3(self, tmp_path, capsys, monkeypatch):
        import ivdtr.cli as cli

        def boom(config):
            raise NumericalError("fit did not converge within limits")

        monkeypatch.setitem(cli._COMMANDS, "fit", boom)
        assert run(["fit"]) == 3
        assert read_error(capsys)["code"] == 3

    @pytest.mark.parametrize("policy, error", [
        ("contrast_sign", "malformed {what} JSON"),
        (split_policy(feature=-1), "malformed {what} JSON: feature"),
        (split_policy(feature=1.5), "malformed {what} JSON: feature"),
        (split_policy(threshold=float("nan")), "malformed {what} JSON: threshold"),
        (split_policy(threshold=float("inf")), "malformed {what} JSON: threshold"),
        (split_policy(leaf=0), "malformed {what} JSON: label"),
        ({"kind": "constant", "stages": [{"type": "constant", "label": 4}] * 2},
         "malformed {what} JSON: label"),
        (split_policy(feature=7), "feature 7 is past a 2-column history"),
        ({"kind": "iv_optimal", "stages": [{"type": "tree", "max_depth": 1, "root": {"node": 3},
                                            "nodes": []}, {"type": "constant", "label": 1}]},
         "malformed {what} JSON: node"),
        (split_policy(root=-1), "malformed {what} JSON: node"),
        (split_policy(left={"node": 0}), "malformed {what} JSON: node"),
        ({**split_policy(), "lambda": True}, "malformed {what} JSON"),
        (split_policy(max_depth=0), "malformed {what} JSON: max_depth"),
        (split_policy(max_depth=-3), "malformed {what} JSON: max_depth"),
        (split_policy(max_depth="2"), "malformed {what} JSON: max_depth"),
        (split_policy(max_depth=1.7), "malformed {what} JSON: max_depth"),
        ({**split_policy(), "lambda": [True, False]}, "malformed {what} JSON: lambda"),
        ({**split_policy(), "lambda": ["0.5", "0.5"]}, "malformed {what} JSON: lambda"),
        ({**split_policy(), "lambda": [0.5]}, "malformed {what} JSON: lambda"),
        (split_policy(leaf=True), "malformed {what} JSON: label"),
        ({"kind": "constant", "stages": [{"type": "constant", "label": True}] * 2},
         "malformed {what} JSON: label"),
        (split_policy(threshold="0.25"), "malformed {what} JSON: threshold"),
        (split_policy(threshold=True), "malformed {what} JSON: threshold"),
        (split_policy(threshold=10 ** 400), "malformed {what} JSON"),
        (split_policy(degenerate="no"), "malformed {what} JSON: degenerate"),
        ({**split_policy(), "kind": 5}, "malformed {what} JSON: kind"),
    ], ids=["contrast_sign", "negative_feature", "fractional_feature", "nan_threshold",
            "inf_threshold", "leaf_label_0", "constant_label_4", "feature_past_history",
            "node_out_of_range", "negative_node", "cyclic_node", "bool_lambda",
            "max_depth_0", "negative_max_depth", "string_max_depth", "fractional_max_depth",
            "bool_lambda_array", "string_lambda_array", "short_lambda_array",
            "bool_leaf_label", "bool_constant_label", "string_threshold", "bool_threshold",
            "huge_int_threshold", "string_degenerate", "number_kind"])
    def test_malformed_policy_file_exits_2(self, tmp_path, sim_csv, capsys, policy, error):
        path = tmp_path / "policy.json"
        if policy == "contrast_sign":
            write_contrast_sign_policy(path)
        else:
            path.write_text(json.dumps(policy))
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "out": str(out),
        })
        assert run(["improve", "--config", str(config), "--baseline", str(path)]) == 2
        assert error.format(what="baseline policy") in read_error(capsys)["error"]
        assert run(["evaluate", "--policy", str(path), "--out", str(out)]) == 2
        assert error.format(what="policy") in read_error(capsys)["error"]
        assert not out.exists()

    def test_deep_and_shared_reference_trees_evaluate(self, tmp_path):
        # a 1,500-node chain, and 40 nodes whose two children are both the next
        # node: 2**40 root-to-leaf paths that only the last split decides
        def tree_policy(nodes):
            tree = {"type": "tree", "nodes": nodes, "root": {"node": 0},
                    "max_depth": len(nodes), "degenerate": False}
            leaf = {"type": "tree", "nodes": [], "root": {"leaf": 1}, "max_depth": 0,
                    "degenerate": False}
            return {"kind": "iv_optimal", "lambda": 0.5, "stages": [tree, leaf]}

        def evaluate(doc):
            path, out = tmp_path / "policy.json", tmp_path / "value.json"
            path.write_text(json.dumps(doc))
            assert run(["evaluate", "--policy", str(path), "--out", str(out)]) == 0
            return json.loads(out.read_text())["raw_value"]

        def split(i, left, right):
            return {"feature": 0, "threshold": -0.9 + 1.8 * i / 1500, "left": left,
                    "right": right}

        chain = [split(i, {"leaf": -1}, {"node": i + 1}) for i in range(1499)]
        evaluate(tree_policy(chain + [split(1499, {"leaf": -1}, {"leaf": 1})]))
        shared = tree_policy([split(i, {"node": i + 1}, {"node": i + 1}) for i in range(39)]
                             + [split(39, {"leaf": -1}, {"leaf": 1})])
        assert dtr_to_json(dtr_from_json(shared)) == shared
        last = tree_policy([split(39, {"leaf": -1}, {"leaf": 1})])
        assert evaluate(shared) == pytest.approx(evaluate(last), abs=1e-12)

    def test_sra_baseline_without_treatment_variation_exits_2(self, tmp_path, capsys):
        ds, _ = generate(SimConfig(c1=4.0, xi=1.0), 400, np.random.default_rng(0))
        a = ds.a.copy()
        a[:, 0] = 1.0
        data = tmp_path / "treated.csv"
        save_csv(dataclasses.replace(ds, a=a), data)
        out = tmp_path / "up.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(data), "reward_bounds": BOUNDS_DOC, "baseline": "sra",
            "out": str(out),
        })
        assert run(["improve", "--config", str(config)]) == 2
        assert "no treatment variation at stage 1" in read_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_negative_crossfit_exits_2(self, tmp_path, sim_csv, capsys, command):
        doc = {"fit": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
               "simulate": {"replications": 1, "n_train": 200}}[command]
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "cfg.json", {**doc, "out": str(out), "crossfit": -1})
        assert run([command, "--config", str(config)]) == 2
        assert "crossfit must be >= 0" in read_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize("key, value", [("c1", float("nan")), ("c1", float("inf")),
                                            ("xi", float("nan")), ("xi", float("inf"))])
    def test_non_finite_c1_or_xi_exits_2(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "out.json"
        doc = {"evaluate": {"policy": "std"},
               "simulate": {"replications": 1, "n_train": 200}}[command]
        config = write_config(tmp_path, "cfg.json", {**doc, "out": str(out), key: value})
        assert run([command, "--config", str(config)]) == 2
        assert f"{key} must be positive and finite" in read_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_negative_seed_exits_2(self, tmp_path, sim_csv, capsys, command):
        # without cross-fitting nothing draws from the seed, so only the
        # config check can reject it
        doc = {"fit": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
               "simulate": {"replications": 1, "n_train": 200}}[command]
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "cfg.json", {**doc, "out": str(out), "seed": -1})
        assert run([command, "--config", str(config)]) == 2
        assert "seed must be >= 0" in read_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("doc, error", [
        ({"depth": -1}, "depth must be >= 0"),
        ({"crossfit": 50}, "cross-fitting with m=50 leaves batches below 10 samples"),
        ({"crossfit": 5, "seed": -1}, "seed must be >= 0"),
        ({"lambda": [0.5]}, "lambda gives 1 weights for 2 stages"),
        ({"lambda": "const:1:0.2,const:1:0.9"}, "lambda spec names stage 1 twice"),
        ({"reward_bounds": [[float("nan"), 1.0], [0.0, 1.0]]}, "[nan, 1.0] is not finite"),
        ({"depth": "two"}, "config key 'depth' must be"),
        ({"reward_bounds": [[0.0, 1.0]]},
         "reward_bounds must declare one [low, high] pair per stage"),
    ], ids=["negative_depth", "batches_below_10_rows", "negative_seed", "short_lambda_array",
            "repeated_lambda_stage", "nan_reward_bound", "string_depth", "one_reward_bound_pair"])
    def test_bad_fit_setting_exits_2(self, tmp_path, sim_csv, capsys, doc, error):
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "out": str(out), **doc,
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert error in read_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("fit", "config"), ("fit", "data"), ("improve", "baseline"), ("evaluate", "policy"),
    ])
    def test_undecodable_file_exits_2(self, tmp_path, sim_csv, capsys, command, key):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "out.json"
        doc = {"fit": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
               "improve": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
               "evaluate": {}}[command]
        config = bad if key == "config" else write_config(
            tmp_path, "cfg.json", {**doc, "out": str(out), key: str(bad)})
        assert run([command, "--config", str(config)]) == 2
        assert "codec can't decode" in read_error(capsys)["error"]
        assert not out.exists()

    def test_internal_value_error_exits_1_with_a_traceback(self, tmp_path, sim_csv):
        # exit 2 is for typed config and data errors; any other error is a bug
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "out": str(tmp_path / "p.json"),
        })
        code = ("import ivdtr.cli\n"
                "def boom(*args, **kwargs):\n"
                "    raise ValueError('an internal fault')\n"
                "ivdtr.cli.fit_ivoptimal_crossfit = boom\n"
                "ivdtr.cli.main()\n")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code, "fit", "--config", str(config)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr
        assert proc.stderr.rstrip().endswith("ValueError: an internal fault")

    @pytest.mark.parametrize("command, text, error", [
        ("fit", "[1, 2]", "config must be a JSON object"),
        ("evaluate", '{"c1": [3, 4]}', "evaluate takes one number for each of 'c1' and 'xi'"),
    ], ids=["config_not_an_object", "evaluate_c1_list"])
    def test_config_document_errors_exit_2(self, tmp_path, capsys, command, text, error):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run([command, "--config", str(config)]) == 2
        assert read_error(capsys)["error"] == error

    @pytest.mark.parametrize("text, error", [
        ("", "empty dataset"),
        ("\n", "malformed header: no stage columns found"),
    ], ids=["empty_file", "blank_header"])
    def test_unusable_csv_exits_2(self, tmp_path, capsys, text, error):
        data = tmp_path / "train.csv"
        data.write_text(text)
        config = write_config(tmp_path, "cfg.json", {
            "data": str(data), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert read_error(capsys)["error"] == error

    @pytest.mark.parametrize("command, key", [("fit", "out"), ("simulate", "out_csv")])
    def test_failed_output_write_exits_2(self, tmp_path, sim_csv, capsys, monkeypatch, command,
                                         key):
        # the path passes the check before any fit, and the write itself fails
        def full_disk_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(ivdtr.cli, "open", full_disk_open, raising=False)
        path = tmp_path / "written"
        doc = {"fit": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
               "simulate": {"replications": 1, "n_train": 200}}[command]
        config = write_config(tmp_path, "cfg.json", {**doc, key: str(path)})
        assert run([command, "--config", str(config)]) == 2
        assert read_error(capsys)["error"] == f"cannot write {path}: {os.strerror(errno.ENOSPC)}"
        assert not path.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "data": str(tmp_path / "nope.csv"), "reward_bounds": BOUNDS_DOC,
        })
        assert run(["fit", "--config", str(config)]) == 2
        assert "not found" in read_error(capsys)["error"]

    @pytest.mark.parametrize("command, key", [
        ("fit", "config"), ("fit", "data"), ("improve", "baseline"), ("evaluate", "policy"),
        ("fit", "report"), ("improve", "out"), ("simulate", "out_csv"),
    ])
    def test_unopenable_path_exits_2(self, tmp_path, sim_csv, capsys, command, key):
        """A directory where a file is read, or a missing directory where one is written."""
        written = key in ("report", "out", "out_csv")
        bad = tmp_path / "missing" / "out" if written else tmp_path
        policy = tmp_path / "policy.json"
        doc = {"fit": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
               "improve": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "baseline": "std"},
               "evaluate": {"policy": "std"},
               "simulate": {"replications": 1, "n_train": 200}}[command]
        config = bad if key == "config" else write_config(
            tmp_path, "cfg.json", {**doc, "out": str(policy), key: str(bad)})
        assert run([command, "--config", str(config)]) == 2
        error = read_error(capsys)["error"]
        assert str(bad) in error
        assert error.startswith("cannot write" if written else "cannot read")
        assert not policy.exists()

    def test_output_directory_exits_2_before_any_fit(self, tmp_path, sim_csv, capsys,
                                                     monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_stage_models ran")

        monkeypatch.setattr(ivdtr.cli, "fit_stage_models", no_fit)
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": BOUNDS_DOC, "baseline": "std",
            "out": str(tmp_path),
        })
        assert run(["improve", "--config", str(config)]) == 2
        assert "'out'" in read_error(capsys)["error"]

    @pytest.mark.parametrize("command, doc, key", [
        ("fit", {"data": 0}, "data"),
        ("evaluate", {"out": 1}, "out"),
        ("fit", {"report": True}, "report"),
        ("fit", {"depth": True}, "depth"),
        ("fit", {"depth": 2.7}, "depth"),
        ("fit", {"depth": [2]}, "depth"),
        ("fit", {"strict": "no"}, "strict"),
        ("fit", {"lambda": True}, "lambda"),
        ("fit", {"out": ["a"]}, "out"),
        ("fit", {"report": "nodir/r.json"}, "report"),
        ("fit", {"report": ""}, "report"),
        ("evaluate", {"out": ""}, "out"),
        ("evaluate", {"c1": [3, 4]}, "c1"),
        ("simulate", {"c1": [4.0, None]}, "c1"),
        ("evaluate", {"c1": 10 ** 400}, "c1"),
        ("simulate", {"xi": [1, -10 ** 400]}, "xi"),
        ("fit", {"lambda": [0.5, 10 ** 400]}, "lambda"),
    ])
    def test_malformed_value_exits_2_naming_the_key(self, tmp_path, sim_csv, command, doc, key):
        # a separate interpreter: at fault, an integer path opens the test's own fds;
        # stdin holds the CSV, so a config that reads fd 0 fits it
        base = {"fit": {"data": sim_csv.name, "reward_bounds": BOUNDS_DOC,
                        "out": "policy.json"},
                "evaluate": {"policy": "std", "out": "eval.json"},
                "simulate": {"replications": 1, "n_train": 200, "out": "summary.json"}}[command]
        write_config(tmp_path, "cfg.json", {**base, **doc})
        before = sorted(tmp_path.iterdir())
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "ivdtr.cli", command, "--config", "cfg.json"],
                              cwd=tmp_path, input=sim_csv.read_bytes(), capture_output=True,
                              env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stderr)
        assert error["code"] == 2
        assert f"'{key}'" in error["error"]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["fit", "improve"])
    @pytest.mark.parametrize("bounds", [
        [[False, True], [0, True]],
        [["0", "1"], [0, 1]],
        [[0, 1, 7], [0, 1]],
        [[0], [0, 1]],
        [[0, 10 ** 400], [0, 1]],
        [0, 1],
        [{"low": 0, "high": 1}, [0, 1]],
    ], ids=["bools", "strings", "three_ends", "one_end", "past_largest_float", "flat",
            "object"])
    def test_malformed_reward_bounds_exit_2_before_any_fit(self, tmp_path, sim_csv, capsys,
                                                           monkeypatch, command, bounds):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_stage_models ran")

        monkeypatch.setattr(ivdtr.cli, "fit_stage_models", no_fit)
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "cfg.json", {
            "data": str(sim_csv), "reward_bounds": bounds, "out": str(out),
            **({"baseline": "std"} if command == "improve" else {}),
        })
        assert run([command, "--config", str(config)]) == 2
        assert "reward_bounds must be [low, high] number pairs" in read_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("fit", "depth"), ("fit", "crossfit"), ("fit", "lambda"),
        ("evaluate", "c1"), ("simulate", "c1"), ("simulate", "n_train"),
    ])
    def test_null_takes_the_default(self, tmp_path, sim_csv, command, key):
        out = tmp_path / "out.json"
        base = {"fit": {"data": str(sim_csv), "reward_bounds": BOUNDS_DOC},
                "evaluate": {"policy": "std"},
                "simulate": {"replications": 1, "n_train": 200}}[command]
        outputs = []
        for doc in ({**base, key: None}, {k: v for k, v in base.items() if k != key}):
            config = write_config(tmp_path, "cfg.json", {**doc, "out": str(out)})
            assert run([command, "--config", str(config)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
