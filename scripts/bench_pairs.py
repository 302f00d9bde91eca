#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload cli_fit_10k --pairs 10 --seconds 25 --seed0 1

Pair i runs ``python3 ivbench/run.py --workload W --seed SEED0+i --seconds S``
in each checkout, one process at a time; even pairs run the parent first, odd
pairs the change first. Each run's result line is printed as it arrives, then
one line per end-to-end metric of BENCHMARK.json: the parent's median
[Q1-Q3], the change's median and the number of pairs the change won (ties
count for neither side). Then one verdict line per metric, on its relative
``bound``: ``worse`` when the change's median is worse than the parent's by
more than bound x the parent's median; else ``unresolved`` when the parent's
IQR is wider than that, unless every change run beats every parent run; else
``within bound``. Exits 1 if any run reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600


def result_of(stdout: str) -> dict:
    """The result record: the last line run.py prints."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "ivbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return result_of(proc.stdout)


def _metrics(parent: list[dict], change: list[dict], end_to_end: list[dict]):
    """(spec, sign, parent values, change values) per end-to-end metric that
    every run reports; sign is +1 where higher is better, else -1."""
    for spec in end_to_end:
        name = spec["name"]
        if all(name in r["metrics"] for r in parent + change):
            yield (spec, 1.0 if spec["better"] == "higher" else -1.0,
                   *(np.array([r["metrics"][name]["value"] for r in side], dtype=float)
                     for side in (parent, change)))


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric that every run reports; parent[i] and
    change[i] are the result records of pair i."""
    lines = []
    for spec, sign, old, new in _metrics(parent, change, end_to_end):
        name = spec["name"]
        q1, med, q3 = np.quantile(old, [0.25, 0.5, 0.75])
        wins = int(np.sum(sign * (new - old) > 0))
        lines.append(f"{name} ({spec['unit']}, {spec['better']} is better): "
                     f"parent {med:.4g} [{q1:.4g}-{q3:.4g}], change {np.median(new):.4g}, "
                     f"change wins {wins}/{len(old)}")
    return lines


def verdicts(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """One verdict line per end-to-end metric that every run reports (see the
    module docstring)."""
    lines = []
    for spec, sign, old, new in _metrics(parent, change, end_to_end):
        q1, med, q3 = np.quantile(old, [0.25, 0.5, 0.75])
        allowed = spec["bound"] * abs(med)
        if sign * (np.median(new) - med) < -allowed:
            verdict = "worse"
        elif q3 - q1 > allowed and not np.min(sign * new) > np.max(sign * old):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        lines.append(f"{spec['name']}: {verdict} (bound {spec['bound']:g} of the parent's median)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(getattr(args, side), args.workload, seed, args.seconds)
            results[side].append(result)
            print(f"pair {i} seed {seed} {side}: {json.dumps(result)}", flush=True)
    for line in (summarize(results["parent"], results["change"], end_to_end)
                 + verdicts(results["parent"], results["change"], end_to_end)):
        print(line)
    failed = sum(r["failed"] for side in results.values() for r in side)
    if failed:
        print(f"{failed} failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
