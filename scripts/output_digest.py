#!/usr/bin/env python3
"""Print one sha256 line per benchmark corpus entry, to compare two checkouts.

Usage (from the root of a checkout that holds ``src/ivdtr`` and ``ivbench``):

    python3 scripts/output_digest.py > digest.txt

sim_replication entries hash the nine values of ``run_replication`` and the
nine policy JSONs of ``fit_all_regimes``; cli_fit_10k and cli_improve_10k
entries hash the exit code, the policy JSON and the report JSON. The CSVs are
written to a temporary directory. Equal output on two checkouts means their
policies, simulated values and reports are bit-identical on the corpus.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from ivbench.workloads import WORKLOADS  # noqa: E402
from ivdtr.dtr_core import dtr_to_json  # noqa: E402
from ivdtr.sim import REGIMES, fit_all_regimes, generate, run_replication  # noqa: E402


def sim_entry(workload, k: int) -> bytes:
    config = workload.config
    train_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(k,)).spawn(2)[0]
    dataset, _ = generate(config, config.n_train, np.random.default_rng(train_seed))
    regimes = fit_all_regimes(dataset, config)
    values = run_replication(config, k)
    return "".join(f"{name}={values[name]!r} {dtr_to_json(regimes[name])!r}\n"
                   for name in REGIMES).encode()


def cli_entry(workload, k: int) -> bytes:
    workload.prepare(k)
    code = workload.run(k)
    return b"%d\n" % code + workload.policy.read_bytes() + workload.report.read_bytes()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = cls(0, workdir)
            entry = sim_entry if name == "sim_replication" else cli_entry
            for k in range(cls.size):
                print(name, k, hashlib.sha256(entry(workload, k)).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
