"""Command-line surface: fit / improve / simulate / evaluate.

Configuration comes from a JSON document (--config) overridden by flags;
flags win. Exit codes: 0 success, 2 validation or configuration error,
3 numerical failure (non-convergence under strict mode). Failures emit a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
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


# each command accepts only the config keys it reads
_DATA_KEYS = {"data", "reward_bounds", "depth", "out", "report", "strict"}
_ALLOWED_KEYS = {
    "fit": _DATA_KEYS | {"lambda", "crossfit", "seed"},
    "improve": _DATA_KEYS | {"baseline"},
    "simulate": {
        "c1", "xi", "n_train", "replications", "depth", "crossfit", "seed", "out",
        "out_csv", "threads",
    },
    "evaluate": {"policy", "c1", "xi", "out"},
}

# flag -> (type, help); each flag overrides the config key of the same name
_FLAG_SPECS = {
    "data": (str, "trajectory CSV path"),
    "lambda": (str, "weight spec: w|b|m|float|const:stage:value"),
    "depth": (int, "tree depth"),
    "crossfit": (int, "number of cross-fitting batches (0/1 off)"),
    "baseline": (str, "baseline policy: std|prosp|sra|path"),
    "policy": (str, "policy JSON path or std|prosp"),
    "seed": (int, "random seed"),
    "out": (str, "output path for the policy/summary JSON"),
    "threads": (int, "worker process cap"),
}
_FLAGS = {
    "fit": ("data", "lambda", "depth", "crossfit", "seed", "out"),
    "improve": ("data", "baseline", "depth", "out"),
    "simulate": ("depth", "crossfit", "seed", "out", "threads"),
    "evaluate": ("policy", "out"),
}


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _load_config(path: Optional[str], command: str) -> dict:
    config = {} if path is None else _read_json(path, "config")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _ALLOWED_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    return config


def _apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    merged = dict(config)
    for key in _FLAGS[args.command]:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _require(config: dict, key: str):
    if key not in config or config[key] is None:
        raise ConfigError(f"missing required config key '{key}'")
    return config[key]


def _reward_bounds(config: dict) -> RewardBounds:
    pairs = _require(config, "reward_bounds")
    try:
        return RewardBounds.from_pairs(pairs)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad reward_bounds: {exc}") from None


def _weight_spec(config: dict, num_stages: int) -> WeightSpec:
    raw = config.get("lambda", "m")
    try:
        if isinstance(raw, str):
            return parse_weight_spec(raw, num_stages)
        if isinstance(raw, (int, float)):
            return WeightSpec(float(raw))
        return WeightSpec(tuple(float(v) for v in raw))
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


def _check_converged(config: dict, fits) -> None:
    """Under strict, raise on the first (name, converged) pair that did not converge."""
    if not config.get("strict", False):
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


def _pooled_fit_stages(estimates) -> list[dict]:
    """Report entries per stage, pooled over every backward induction behind
    the policy: interval widths concatenated, empty cells united, repairs
    summed, converged only if every fit converged."""
    stages = []
    for k in sorted({est.stage for est in estimates}):
        fits = [est for est in estimates if est.stage == k]
        widths = np.concatenate([arm.upper - arm.lower
                                 for est in fits for arm in (est.plus, est.minus)])
        empty = dict.fromkeys(cell for est in fits for cell in est.nuisance.empty_cells)
        stages.append({
            "stage": k,
            "interval_width_quantiles": {
                "q10": float(np.quantile(widths, 0.10)),
                "q50": float(np.quantile(widths, 0.50)),
                "q90": float(np.quantile(widths, 0.90)),
            },
            "empty_cells": [list(map(str, cell)) for cell in empty],
            "n_repaired": sum(est.n_repaired for est in fits),
            "converged": all(est.converged for est in fits),
        })
    return stages


def cmd_fit(config: dict) -> int:
    dataset = _load_dataset(config)
    bounds = _reward_bounds(config)
    lam = _weight_spec(config, dataset.num_stages)
    depth = int(config.get("depth", 2))
    m = int(config.get("crossfit", 0))
    seed = int(config.get("seed", 0))

    models = fit_stage_models(dataset, bounds)
    policy, estimates = fit_ivoptimal_crossfit(models, lam, depth, m=m, seed=seed)
    stages = _pooled_fit_stages(estimates)
    _check_converged(config, ((f"stage {s['stage']}", s["converged"]) for s in stages))

    policy_doc = dtr_to_json(policy)
    _dump_json(policy_doc, config.get("out"))
    for s in stages:
        s["tree"] = policy_doc["stages"][s["stage"] - 1]
    report = {
        "command": "fit",
        "n": dataset.n,
        "num_stages": dataset.num_stages,
        "crossfit": m,
        "stages": stages,
    }
    if config.get("report"):
        _dump_json(report, config["report"])
    return 0


def _load_policy(spec: str, num_stages: int, what: str) -> Dtr:
    """The constant policy std (-1) or prosp (+1), or a policy JSON file."""
    if spec == "std":
        return constant_dtr(-1, num_stages, kind="std")
    if spec == "prosp":
        return constant_dtr(1, num_stages, kind="prosp")
    doc = _read_json(spec, what)
    try:
        return dtr_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from None


def cmd_improve(config: dict) -> int:
    dataset = _load_dataset(config)
    bounds = _reward_bounds(config)
    depth = int(config.get("depth", 2))
    tag = str(_require(config, "baseline"))
    if tag == "sra":
        baseline, converged = fit_sra_baseline(dataset, depth)
        _check_converged(config, [("SRA baseline", converged)])
    else:
        baseline = _load_policy(tag, dataset.num_stages, "baseline policy")
    if baseline.num_stages != dataset.num_stages:
        raise ConfigError(
            f"baseline has {baseline.num_stages} stages, data has {dataset.num_stages}"
        )

    models = fit_stage_models(dataset, bounds)
    policy, estimates = fit_ivimproved(models, baseline, depth, baseline_id=tag)
    _check_converged(config, ((f"stage {est.stage}", est.converged) for est in estimates))
    policy_doc = dtr_to_json(policy)
    _dump_json(policy_doc, config.get("out"))
    report = {
        "command": "improve",
        "baseline": tag,
        "n": dataset.n,
        "stages": [],
    }
    for est in estimates:
        projected = policy.action_matrix(est.stage, models[est.stage - 1].H)
        report["stages"].append(
            {
                "stage": est.stage,
                "deviation_fraction": float(np.mean(projected != est.baseline_action)),
                "pointwise_flip_fraction": float(
                    np.mean(est.improved_action != est.baseline_action)
                ),
                "n_repaired": est.n_repaired,
                "converged": est.converged,
                "tree": policy_doc["stages"][est.stage - 1],
            }
        )
    if config.get("report"):
        _dump_json(report, config["report"])
    return 0


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def cmd_simulate(config: dict) -> int:
    try:
        cells = [
            SimConfig(
                c1=float(c1),
                xi=float(xi),
                n_train=int(config.get("n_train", 1000)),
                seed=int(config.get("seed", 0)),
                depth=int(config.get("depth", 2)),
                replications=int(config.get("replications", 100)),
                crossfit_m=int(config.get("crossfit", 0)),
                threads=int(config.get("threads", 1)),
            )
            for xi in _as_list(config.get("xi", 1.0))
            for c1 in _as_list(config.get("c1", 4.0))
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not cells:
        raise ConfigError("c1 and xi need at least one value each")

    results = [run_cell(cell) for cell in cells]

    if config.get("out_csv"):
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
    _dump_json(summary_doc, config.get("out"))
    return 0


def cmd_evaluate(config: dict) -> int:
    policy = _load_policy(str(_require(config, "policy")), 2, "policy")
    try:
        sim_config = SimConfig(c1=float(config.get("c1", 4.0)), xi=float(config.get("xi", 1.0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = true_value(policy, sim_config, sim_config.n_eval)
    _dump_json(
        {
            "raw_value": report.raw_value,
            "normalized_value": report.normalized_value,
            "monte_carlo_se": report.monte_carlo_se,
            "n_eval": report.n_eval,
        },
        config.get("out"),
    )
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
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document")
        for flag in flags:
            kind, text = _FLAG_SPECS[flag]
            p.add_argument(f"--{flag}", type=kind, help=text)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.command)
        config = _apply_overrides(config, args)
        return _COMMANDS[args.command](config)
    except (ConfigError, DataError, ValueError) as exc:
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
