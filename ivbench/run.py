"""ivdtr benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout that holds ``src/ivdtr``):

    python3 ivbench/run.py --workload sim_replication --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each is in the benchmark):
  sim_replication  ``sim.run_replication`` of the paper's c1=4, xi=1 cell
  cli_fit_10k      ``ivdtr fit`` (lambda=m, depth 2, 5-fold cross-fit), 10k rows
  cli_improve_10k  ``ivdtr improve`` (baseline=sra, depth 2), 10k rows

Each workload runs a fixed corpus of inputs (see workloads.py); ``--seed``
sets the order in which a run visits it. An untraced run starts SETUP_RUNS
fresh worker processes one after another. All but the last only set up
(``import ivdtr`` and, for the CLI workloads, writing the first 10k-row CSV and
its config); the last then runs one client in a closed loop over whole passes
of the corpus for about ``--seconds`` (at least one pass), checking every
operation's output. ``setup_s`` is the median set-up time of the workers;
``op_s_p50`` and ``op_s_tail`` are Harrell-Davis quantile estimates (see
worker.quantile). With ``--trace 1`` the loop runs pairs of the same
operation, untraced and traced by the outside-in tracer, for ``--seconds``,
and reports per-layer metrics instead; their ratio gives
``trace.overhead_frac``.

Standard output ends with two JSON lines: a detail record (environment,
output fingerprint, sample counts, counters with their bases, failures) and
the result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 30      # per set-up worker
DEADLINE_S = 170          # the loop worker is stopped this long after the start
WORKLOADS = ("sim_replication", "cli_fit_10k", "cli_improve_10k")


def run_worker(args: argparse.Namespace, workdir: Path, extra: list[str],
               timeout: float) -> dict:
    workdir.mkdir()
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(command + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ivdtr").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ivdtr" / "__init__.py").is_file():
        raise SystemExit(f"no ivdtr sources under {ROOT / 'src'}; run from a full checkout")

    deadline = time.monotonic() + DEADLINE_S
    spans = ROOT / ".ivbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with tempfile.TemporaryDirectory(prefix=".ivbench-", dir=ROOT) as tmp:
        probes = 0 if args.trace else SETUP_RUNS - 1
        setups = [run_worker(args, Path(tmp) / f"setup{j}", ["--setup-only"],
                             SETUP_TIMEOUT_S)["setup_s"]
                  for j in range(probes)]
        main_run = run_worker(args, Path(tmp) / "main",
                              ["--spans", str(spans)] if args.trace else [],
                              deadline - time.monotonic())
    setups.append(main_run["setup_s"])

    metrics = main_run["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    failed = len(main_run["failures"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "env": main_run["env"],
        "setup_s_samples": setups,
        "fingerprint_sha256": main_run["fingerprint"],
        **main_run["detail"],
        "failures": main_run["failures"][:5],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": main_run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
