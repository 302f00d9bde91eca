"""The benchmark's three workloads: inputs, one operation, and its checks.

Importing this module imports ivdtr, so the worker imports it inside the
timed set-up. Every workload is a closed loop with one client in one process:
operation i starts when operation i-1 has returned.

Each workload runs a fixed corpus of ``size`` inputs, drawn once from
CORPUS_SEED; the benchmark's ``--seed`` sets the order in which a run visits
them. Operation time depends strongly on the input (an input whose logistic
fits stop converging runs up to 100 Newton steps and can take four times as
long), so runs that drew different inputs would differ by the luck of the
draw, not by the program; with one corpus every run times the same inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import ivdtr.cli
from ivdtr.data import save_csv
from ivdtr.dtr_core import dtr_from_json, dtr_to_json
from ivdtr.sim import REGIMES, SimConfig, generate, run_replication

CORPUS_SEED = 210407822
CSV_ROWS = 10_000
REWARD_BOUNDS = [[0.0, 1.0], [0.0, 1.0]]


class _Corpus:
    """Corpus entries 0 .. size-1, visited in the order drawn from the seed."""

    size = 0

    def __init__(self, seed: int) -> None:
        self.order = np.random.default_rng(seed).permutation(self.size)

    def entry(self, i: int) -> int:
        """Corpus entry of operation i: passes repeat the same order."""
        return int(self.order[i % self.size])


class SimReplication(_Corpus):
    """One replication of the paper's simulation cell (c1=4, xi=1):
    generate 1000 trajectories, fit nine regimes, evaluate each on 100k points.
    Corpus entry k is replication k."""

    size = 40

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.config = SimConfig(c1=4.0, xi=1.0, n_train=1000, n_eval=100_000,
                                seed=CORPUS_SEED)

    def prepare(self, k: int) -> None:
        pass

    def run(self, k: int):
        return run_replication(self.config, k)

    def check(self, values) -> list[str]:
        errors = []
        if set(values) != set(REGIMES):
            errors.append(f"regimes {sorted(values)} != {sorted(REGIMES)}")
        for name, value in values.items():
            if not math.isfinite(value) or not 0.0 <= value <= 2.0:
                errors.append(f"{name} = {value!r} outside [0, 2]")
        if abs(values.get("pi_b_std", math.nan) - 1.0) > 1e-12:
            errors.append(f"pi_b_std = {values.get('pi_b_std')!r} != 1.0")
        return errors

    def fingerprint(self, values) -> bytes:
        return "".join(f"{name}={values[name]!r}\n" for name in sorted(values)).encode()


class _CliWorkload(_Corpus):
    """``ivdtr.cli.run`` on a 10k-row CSV drawn from the simulator (c1=4, xi=1).

    Corpus entry k is the CSV drawn from ``default_rng([CORPUS_SEED, k])`` and
    its JSON config. Set-up writes the first entry of the run's order;
    prepare() writes each later one once, between operations, outside the
    timed region.
    """

    command = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.policy = workdir / "policy.json"
        self.report = workdir / "report.json"
        self.prepare(self.entry(0))

    def options(self, k: int) -> dict:
        raise NotImplementedError

    def config(self, k: int) -> Path:
        return self.workdir / f"{self.command}{k}.json"

    def prepare(self, k: int) -> None:
        if self.config(k).exists():
            return
        data = self.workdir / f"train{k}.csv"
        dataset, _ = generate(SimConfig(c1=4.0, xi=1.0), CSV_ROWS,
                              np.random.default_rng([CORPUS_SEED, k]))
        save_csv(dataset, data)
        doc = {"data": str(data), "reward_bounds": REWARD_BOUNDS, "depth": 2,
               "out": str(self.policy), "report": str(self.report), **self.options(k)}
        self.config(k).write_text(json.dumps(doc), encoding="utf-8")

    def run(self, k: int):
        return ivdtr.cli.run([self.command, "--config", str(self.config(k))])

    def check(self, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        policy = json.loads(self.policy.read_text(encoding="utf-8"))
        errors = []
        if dtr_to_json(dtr_from_json(policy)) != policy:
            errors.append("policy JSON does not round-trip")
        report = json.loads(self.report.read_text(encoding="utf-8"))
        return errors + self.check_report(policy, report)

    def check_report(self, policy: dict, report: dict) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, code) -> bytes:
        return self.policy.read_bytes()


class CliFit10k(_CliWorkload):
    command = "fit"
    size = 20

    def options(self, k: int) -> dict:
        # the fold split is part of the input: it alone can triple fit time
        return {"lambda": "m", "crossfit": 5, "seed": k}

    def check_report(self, policy: dict, report: dict) -> list[str]:
        errors = []
        stages = dtr_from_json(policy).stages
        if len(stages) != 2 or any(s["type"] != "tree" for s in policy["stages"]):
            errors.append("policy does not hold 2 tree stages")
        elif any(stage.depth() > 2 for stage in stages):
            errors.append("tree deeper than 2")
        for stage in report["stages"]:
            q = stage["interval_width_quantiles"]
            qs = [q["q10"], q["q50"], q["q90"]]
            if not all(math.isfinite(v) for v in qs) or not qs[0] <= qs[1] <= qs[2]:
                errors.append(f"stage {stage['stage']} interval quantiles {qs} not ordered")
        return errors


class CliImprove10k(_CliWorkload):
    command = "improve"
    size = 24

    def options(self, k: int) -> dict:
        return {"baseline": "sra"}

    def check_report(self, policy: dict, report: dict) -> list[str]:
        errors = []
        for stage in report["stages"]:
            for key in ("deviation_fraction", "pointwise_flip_fraction"):
                if not 0.0 <= stage[key] <= 1.0:
                    errors.append(f"stage {stage['stage']} {key} = {stage[key]!r}")
        return errors


WORKLOADS = {
    "sim_replication": SimReplication,
    "cli_fit_10k": CliFit10k,
    "cli_improve_10k": CliImprove10k,
}
