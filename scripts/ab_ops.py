#!/usr/bin/env python3
"""Time one workload's operations on two checkouts in one process, interleaved.

Usage:

    python3 scripts/ab_ops.py --parent DIR --change DIR \\
        --workload cli_improve_10k --ops 96 --seed 1

Each checkout's ``src/ivdtr`` is imported as ``ivdtr_parent`` or
``ivdtr_change``, and both run this checkout's ``ivbench/workloads.py`` corpus
in the order ``--seed`` draws: operation i runs its entry on both sides, the
parent first when i is even, after one untimed operation per side. Two runs a
few milliseconds apart share the host's load, where sequential runs drift.
Prints one line: the median [Q1-Q3] of the per-operation change/parent time
ratio, the operations each side ran faster, each side's median time, and on
how many operations the outputs (the workload's fingerprints) differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "ivbench"), str(ROOT / "src")]

from workloads import WORKLOADS, SimReplication  # noqa: E402


def operation(workload, checkout: Path, name: str):
    """The workload's operation on corpus entry k, run by checkout's src/ivdtr
    imported as the package name."""
    package = checkout / "src" / "ivdtr"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    if isinstance(workload, SimReplication):
        sim = importlib.import_module(f"{name}.sim")
        config = sim.SimConfig(**dataclasses.asdict(workload.config))
        return lambda k: sim.run_replication(config, k)
    cli = importlib.import_module(f"{name}.cli")
    return lambda k: cli.run([workload.command, "--config", str(workload.config(k))])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ops", type=int, required=True, help="timed operations per side")
    parser.add_argument("--seed", type=int, required=True, help="sets the corpus order")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        sides = {side: operation(workload, getattr(args, side), f"ivdtr_{side}")
                 for side in ("parent", "change")}
        for run in sides.values():
            run(workload.entry(0))
        times = {side: [] for side in sides}
        differ = 0
        for i in range(args.ops):
            k = workload.entry(i)
            workload.prepare(k)
            prints = set()
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                start = time.perf_counter()
                result = sides[side](k)
                times[side].append(time.perf_counter() - start)
                prints.add(workload.fingerprint(result))
            differ += len(prints) > 1
    parent, change = (np.array(times[side]) for side in ("parent", "change"))
    q1, med, q3 = np.quantile(change / parent, [0.25, 0.5, 0.75])
    print(f"{args.workload}: change/parent per operation {med:.3f} [{q1:.3f}-{q3:.3f}] "
          f"over {args.ops} operations; change faster {int(np.sum(change < parent))}, "
          f"parent faster {int(np.sum(parent < change))}; median "
          f"{1e3 * np.median(parent):.1f} -> {1e3 * np.median(change):.1f} ms; "
          f"outputs differ on {differ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
