#!/usr/bin/env python3
"""Print one sha256 line per benchmark corpus entry, to compare two checkouts.

Usage (from the root of a checkout that holds ``src/ivdtr`` and ``ivbench``):

    python3 scripts/output_digest.py > digest.txt
    python3 scripts/output_digest.py --dump outputs.json > digest.txt

sim_replication entries hash the nine values of ``run_replication`` and the
nine policy JSONs of ``fit_all_regimes``; cli_fit_10k and cli_improve_10k
entries hash the exit code, the policy JSON and the report JSON. The CSVs are
written to a temporary directory. Equal output on two checkouts means their
policies, simulated values and reports are bit-identical on the corpus.

``--dump FILE`` also writes those outputs themselves as one JSON document,
workload name -> list of entries; ``scripts/output_diff.py`` compares two
such files and says what moved.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from ivbench.workloads import CORPUS_SEED, CSV_ROWS, WORKLOADS  # noqa: E402
from ivdtr.dtr_core import dtr_to_json  # noqa: E402
from ivdtr.sim import REGIMES, SimConfig, fit_all_regimes, generate, run_replication  # noqa: E402


def training_set(name: str, k: int):
    """The dataset that corpus entry k of workload name trains on."""
    if name == "sim_replication":
        config = WORKLOADS[name](0, None).config
        train_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(k,)).spawn(2)[0]
        return generate(config, config.n_train, np.random.default_rng(train_seed))[0]
    return generate(SimConfig(c1=4.0, xi=1.0), CSV_ROWS,
                    np.random.default_rng([CORPUS_SEED, k]))[0]


def sim_entry(workload, k: int) -> tuple[bytes, dict]:
    regimes = fit_all_regimes(training_set("sim_replication", k), workload.config)
    values = run_replication(workload.config, k)
    policies = {name: dtr_to_json(regimes[name]) for name in REGIMES}
    digest = "".join(f"{name}={values[name]!r} {policies[name]!r}\n" for name in REGIMES)
    return digest.encode(), {"values": values, "policies": policies}


def cli_entry(workload, k: int) -> tuple[bytes, dict]:
    workload.prepare(k)
    code = workload.run(k)
    policy, report = workload.policy.read_bytes(), workload.report.read_bytes()
    return (b"%d\n" % code + policy + report,
            {"code": code, "policy": json.loads(policy), "report": json.loads(report)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE",
                        help="also write every entry's values, policies and reports as JSON")
    args = parser.parse_args()
    dump = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = cls(0, workdir)
            entry = sim_entry if name == "sim_replication" else cli_entry
            dump[name] = []
            for k in range(cls.size):
                digest, outputs = entry(workload, k)
                print(name, k, hashlib.sha256(digest).hexdigest(), flush=True)
                dump[name].append(outputs)
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump), encoding="utf-8")


if __name__ == "__main__":
    main()
