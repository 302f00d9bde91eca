"""Command-line surface: fit / improve / simulate / evaluate.

Configuration comes from a JSON document (--config) overridden by flags;
flags win. Exit codes: 0 success, 2 a ConfigError or DataError, 3 a
NumericalError (non-convergence under strict mode), each with a JSON object
on stderr; any other exception is a bug and exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from .bounds import RewardBounds, WeightSpec, parse_weight_spec
from .crossfit import fit_ivoptimal_crossfit
from .data import DataError, Dataset, load_csv
from .dtr_core import Dtr, constant_dtr, dtr_from_json, dtr_to_json
from .improve import fit_ivimproved
from .nuisance import NumericalError, fit_stage_models
from .sim import SimConfig, fit_sra_baseline, run_cell, true_value


class ConfigError(ValueError):
    """Raised on invalid run configuration."""


# key -> (accepted JSON types, default, commands that read it, flag help or
# None for a config-only key); null in a config document means unset
_KEYS = {
    "data": ("string", None, "fit improve", "trajectory CSV path"),
    "reward_bounds": ("array", None, "fit improve", None),
    "baseline": ("string", None, "improve", "baseline policy: std|prosp|sra|path"),
    "policy": ("string", None, "evaluate", "policy JSON path or std|prosp"),
    "lambda": ("string or number or number array", "m", "fit",
               "weight spec: w|b|m|float|const:stage:value"),
    "depth": ("integer", 2, "fit improve simulate", "tree depth"),
    "crossfit": ("integer", 0, "fit simulate", "number of cross-fitting batches (0/1 off)"),
    "seed": ("integer", 0, "fit simulate", "random seed"),
    "out": ("string", None, "fit improve simulate evaluate",
            "output path for the policy/summary JSON"),
    "threads": ("integer", 1, "simulate", "worker process cap"),
    "report": ("string", None, "fit improve", None),
    "strict": ("boolean", False, "fit improve", None),
    "c1": ("number or number array", 4.0, "simulate evaluate", None),
    "xi": ("number or number array", 1.0, "simulate evaluate", None),
    "n_train": ("integer", 1000, "simulate", None),
    "replications": ("integer", 100, "simulate", None),
    "out_csv": ("string", None, "simulate", None),
}
_FLOORS = {"threads": 1}  # the least value of an integer key, 0 if not listed
_JSON_TYPES = {"string": str, "boolean": bool, "integer": int, "number": (int, float),
               "array": list, "number array": list}


def _valid(value, kinds: str) -> bool:
    """Whether a JSON value is of one of the kinds; a bool is no number, nor is
    an integer past the largest float."""
    if isinstance(value, bool):
        return "boolean" in kinds
    if isinstance(value, list) and "number array" in kinds:
        return all(_valid(v, "number") for v in value)
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "integer" in kinds
    return any(isinstance(value, _JSON_TYPES[kind]) for kind in kinds.split(" or "))


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deeply nested
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _load_config(args: argparse.Namespace) -> dict:
    """The command's config: every key it reads, from its flag, else the
    config document, else the default; each value of an accepted type, each
    integer at least its floor, and each output path writable as far as can
    be told before any fit."""
    doc = {} if args.config is None else _read_json(args.config, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    keys = {key: row for key, row in _KEYS.items() if args.command in row[2].split()}
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    config = {}
    for key, (kinds, default, _, _) in keys.items():
        value = getattr(args, key, None)
        if value is None:
            value = doc.get(key)
        if value is None:
            value = default
        elif not _valid(value, kinds):
            raise ConfigError(f"config key '{key}' must be {kinds}, got {json.dumps(value)}")
        if kinds == "integer" and value < _FLOORS.get(key, 0):
            raise ConfigError(f"{key} must be >= {_FLOORS.get(key, 0)}, got {value}")
        config[key] = value
    for key in ("out", "report", "out_csv"):
        path = config.get(key)
        if path is None:
            continue
        if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: '{key}' must name a file "
                              "in an existing directory")
    return config


def _require(config: dict, key: str):
    if config[key] is None:
        raise ConfigError(f"missing required config key '{key}'")
    return config[key]


def _reward_bounds(config: dict) -> RewardBounds:
    pairs = _require(config, "reward_bounds")
    if not all(_valid(p, "number array") and len(p) == 2 for p in pairs):
        raise ConfigError(f"reward_bounds must be [low, high] number pairs: {json.dumps(pairs)}")
    try:
        return RewardBounds.from_pairs(pairs)
    except ValueError as exc:
        raise ConfigError(f"bad reward_bounds: {exc}") from None


def _weight_spec(raw, num_stages: int) -> WeightSpec:
    if isinstance(raw, list) and len(raw) != num_stages:
        raise ConfigError(f"lambda gives {len(raw)} weights for {num_stages} stages")
    try:
        return parse_weight_spec(raw, num_stages) if isinstance(raw, str) else WeightSpec(raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_dataset(config: dict) -> Dataset:
    path = _require(config, "data")
    try:
        return load_csv(path)
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"data file {path} is not UTF-8 text: {exc}") from None


def _check_converged(config: dict, fits) -> None:
    """Under strict, raise on the first (name, converged) pair that did not converge."""
    if not config["strict"]:
        return
    for name, converged in fits:
        if not converged:
            raise NumericalError(f"{name} nuisance fit did not converge within limits")


def _dump_json(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path is None:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _write_outputs(config: dict, policy: Dtr, report: dict, stages: list[dict]) -> int:
    """Under strict, fail on the first stage that did not converge; then write
    the policy, and the report with each stage's tree as written."""
    _check_converged(config, ((f"stage {s['stage']}", s["converged"]) for s in stages))
    policy_doc = dtr_to_json(policy)
    _dump_json(policy_doc, config["out"])
    for s in stages:
        s["tree"] = policy_doc["stages"][s["stage"] - 1]
    if config["report"]:
        _dump_json({**report, "stages": stages}, config["report"])
    return 0


def _pooled_fit_stages(estimates) -> list[dict]:
    """Report entries per stage, pooled over every backward induction behind
    the policy: interval widths concatenated, empty cells united, repairs
    summed, converged only if every fit converged."""
    stages = []
    for k in sorted({est.stage for est in estimates}):
        fits = [est for est in estimates if est.stage == k]
        widths = np.concatenate([est.widths for est in fits])
        q10, q50, q90 = np.quantile(widths, [0.10, 0.50, 0.90])
        empty = dict.fromkeys(cell for est in fits for cell in est.nuisance.empty_cells)
        stages.append({
            "stage": k,
            "interval_width_quantiles": {"q10": float(q10), "q50": float(q50),
                                         "q90": float(q90)},
            "empty_cells": [list(map(str, cell)) for cell in empty],
            "n_repaired": sum(est.n_repaired for est in fits),
            "converged": all(est.converged for est in fits),
        })
    return stages


def cmd_fit(config: dict) -> int:
    dataset = _load_dataset(config)
    bounds = _reward_bounds(config)
    lam = _weight_spec(config["lambda"], dataset.num_stages)
    m = config["crossfit"]

    try:
        models = fit_stage_models(dataset, bounds)
    except DataError as exc:  # a reward outside its bounds, named by its CSV row
        raise exc.in_csv(config["data"]) from None
    policy, estimates = fit_ivoptimal_crossfit(models, lam, config["depth"], m=m,
                                               seed=config["seed"])
    report = {"command": "fit", "n": dataset.n, "num_stages": dataset.num_stages, "crossfit": m}
    return _write_outputs(config, policy, report, _pooled_fit_stages(estimates))


def _load_policy(spec: str, num_stages: int, what: str) -> Dtr:
    """The constant policy std (-1) or prosp (+1), or a policy JSON file."""
    if spec == "std":
        return constant_dtr(-1, num_stages, kind="std")
    if spec == "prosp":
        return constant_dtr(1, num_stages, kind="prosp")
    doc = _read_json(spec, what)
    try:
        policy = dtr_from_json(doc)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from None
    if policy.num_stages != num_stages:
        raise ConfigError(f"{what} has {policy.num_stages} stages, expected {num_stages}")
    return policy


def cmd_improve(config: dict) -> int:
    dataset = _load_dataset(config)
    bounds = _reward_bounds(config)
    depth = config["depth"]
    tag = _require(config, "baseline")
    try:
        models = fit_stage_models(dataset, bounds)
    except DataError as exc:  # a reward outside its bounds, named by its CSV row
        raise exc.in_csv(config["data"]) from None
    baseline_converged = True   # a given baseline involves no fit
    if tag == "sra":
        baseline, baseline_converged = fit_sra_baseline(dataset, depth)
        _check_converged(config, [("SRA baseline", baseline_converged)])
    else:
        baseline = _load_policy(tag, dataset.num_stages, "baseline policy")
    policy, estimates = fit_ivimproved(models, baseline, depth, baseline_id=tag)
    stages = [{
        "stage": est.stage,
        "deviation_fraction": float(np.mean(
            policy.action_matrix(est.stage, models[est.stage - 1].H) != est.baseline_action)),
        "pointwise_flip_fraction": float(np.mean(est.improved_action != est.baseline_action)),
        "n_repaired": est.n_repaired,
        "converged": est.converged,
    } for est in estimates]
    report = {"command": "improve", "baseline": tag, "baseline_converged": baseline_converged,
              "n": dataset.n}
    return _write_outputs(config, policy, report, stages)


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def cmd_simulate(config: dict) -> int:
    try:
        cells = [
            SimConfig(c1=float(c1), xi=float(xi), n_train=config["n_train"], seed=config["seed"],
                      depth=config["depth"], replications=config["replications"],
                      crossfit_m=config["crossfit"], threads=config["threads"])
            for xi in _as_list(config["xi"])
            for c1 in _as_list(config["c1"])
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not cells:
        raise ConfigError("c1 and xi need at least one value each")

    results = [run_cell(cell) for cell in cells]

    if config["out_csv"]:
        try:
            with open(config["out_csv"], "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["c1", "xi", "rep", "regime", "value"])
                for cell, result in zip(cells, results):
                    for rep, regime, value in result.rows:
                        writer.writerow([cell.c1, cell.xi, rep, regime, f"{value:.10f}"])
        except OSError as exc:
            raise ConfigError(f"cannot write {config['out_csv']}: {exc.strerror}") from None
    summary_doc = {
        "cells": [
            {"c1": cell.c1, "xi": cell.xi, "n_train": cell.n_train,
             "replications": cell.replications, "summary": result.summary}
            for cell, result in zip(cells, results)
        ]
    }
    _dump_json(summary_doc, config["out"])
    return 0


def cmd_evaluate(config: dict) -> int:
    if isinstance(config["c1"], list) or isinstance(config["xi"], list):
        raise ConfigError("evaluate takes one number for each of 'c1' and 'xi'")
    policy = _load_policy(_require(config, "policy"), 2, "policy")
    try:
        sim_config = SimConfig(c1=float(config["c1"]), xi=float(config["xi"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = true_value(policy, sim_config)
    _dump_json({"raw_value": report.raw_value, "n_eval": report.n_eval}, config["out"])
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "improve": cmd_improve,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivdtr",
        description="Estimate, improve, and evaluate instrument-informed treatment regimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document")
        for key, (kinds, _, commands, flag) in _KEYS.items():
            if flag and name in commands.split():
                p.add_argument(f"--{key}", type=int if kinds == "integer" else str, help=flag)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_load_config(args))
    except (ConfigError, DataError) as exc:
        json.dump({"error": str(exc), "code": 2}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericalError as exc:
        json.dump({"error": str(exc), "code": 3}, sys.stderr)
        sys.stderr.write("\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
