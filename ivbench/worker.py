"""The workload process: set up, run a closed loop of operations, report.

Started by run.py. ``--t0`` is the parent's ``time.monotonic()`` just before
the process was started (a system-wide clock on Linux), so set-up time covers
interpreter start, ``import ivdtr`` and input generation. With
``--setup-only`` the process stops after set-up. Prints one JSON object as
its last line of standard output.

Only the call into ivdtr is timed: preparing an operation's input and
checking its output happen between timed regions. An untraced run times
whole passes over the workload's corpus: the first always, and another while
it would still end within ``--seconds`` at the last pass's pace, so every run
of a workload times each corpus entry equally often.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

from tracer import ROOT_SPAN, Tracer, installed, self_time_by_op

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_OPS = 2 * TAIL_BEYOND   # the smallest corpus: the median has TAIL_BEYOND beyond it
# Per-layer counts and the output digest cover the first FIRST_OPS operations,
# so they repeat exactly for a seed however many operations a run completes.
FIRST_OPS = 4

# Per-layer metrics of the traced run, with units, in BENCHMARK.json's order.
SELF_SPANS = (
    "sim.true_value", "dtr_core.decide", "data.histories", "data.load_csv",
    "data.dataset_from_arrays", "sim.generate", "data.subset",
    "crossfit.fit_ivoptimal_crossfit", "nuisance.fit_logistic", "nuisance.fit_linear",
    "nuisance.loglik", "nuisance.fit_stage_nuisance", "nuisance.fit_mu_cells",
    "bounds.mp_bounds_matrix", "dtr_core.fit_weighted_tree", "dtr_core.fit_stage",
    "dtr_core.backward_induct", "improve.relative_stage_estimates",
    "sim.fit_sra_baseline", "dtr_core.dtr_to_json", "cli.cmd",
)
COUNTS = (
    "sim.true_value.points", "dtr_core.decide.rows", "data.histories.calls",
    "data.subset.calls", "nuisance.fit_logistic.calls", "nuisance.fit_linear.calls",
    "nuisance.newton_iters", "nuisance.loglik_evals", "bounds.mp_bounds_matrix.calls",
    "bounds.mp_bounds_matrix.rows", "bounds.n_repaired", "dtr_core.fit_weighted_tree.calls",
    "dtr_core.backward_induct.calls",
)
# ratio metric -> (numerator counter, base counter)
RATIOS = {
    "nuisance.fit_logistic.repeat_frac":
        ("nuisance.fit_logistic.repeats", "nuisance.fit_logistic.calls"),
    "nuisance.fit_logistic.converged_frac":
        ("nuisance.fit_logistic.converged", "nuisance.fit_logistic.calls"),
    "nuisance.fit_linear.repeat_frac":
        ("nuisance.fit_linear.repeats", "nuisance.fit_linear.calls"),
    "improve.flip_frac": ("improve.flips", "improve.rows"),
}
BASES = {
    "nuisance.newton_iters": "nuisance.fit_logistic.calls",
    "nuisance.loglik_evals": "nuisance.fit_logistic.calls",
    "bounds.n_repaired": "bounds.mp_bounds_matrix.rows",
}
PER_LAYER = (
    [(f"{span}.self_s", "s") for span in SELF_SPANS]
    + [(name, "count") for name in COUNTS]
    + [(name, "frac") for name in RATIOS]
    + [("data.load_csv.rows_per_s", "1/s"), ("op.unattributed_s", "s"),
       ("op.traced_s", "s"), ("trace.overhead_frac", "frac")]
)


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.

    Operation times are bimodal (operations whose logistic fits stop
    converging are up to three times slower), and with 20-70 operations a
    run's single middle order statistic lands in one mode or the other from
    run to run; the weighted mean moves smoothly with the share of slow ones.
    """
    ordered = np.sort(samples)
    n = len(ordered)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES with at least TAIL_BEYOND samples beyond
    its rank, and its estimate: returns (value, percentile).

    The percentile comes from a fixed ladder so that runs with slightly
    different sample counts report the same percentile.
    """
    n = len(samples)
    for percentile in TAIL_PERCENTILES:
        if n - math.ceil(percentile / 100.0 * n) >= TAIL_BEYOND:
            return quantile(samples, percentile / 100.0), percentile
    raise ValueError(f"need at least {2 * TAIL_BEYOND} samples, got {n}")


class Loop:
    """Closed loop with one client: run, time and check operations in turn."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.fingerprinted = 0

    def step(self, i: int, call) -> float:
        """Run operation i through ``call(run)`` and check it; returns its time."""
        self.attempted += 1
        k = self.workload.entry(i)
        self.workload.prepare(k)
        start = time.perf_counter()
        try:
            result = call(lambda: self.workload.run(k))
            elapsed = time.perf_counter() - start
            errors = self.workload.check(result)
        except Exception:
            elapsed = time.perf_counter() - start
            errors = [traceback.format_exc(limit=3)]
        if errors:
            self.failures.append(f"op {i}: {'; '.join(errors)}")
        else:
            self.times.append(elapsed)
            if i == self.fingerprinted and i < FIRST_OPS:
                self.digest.update(self.workload.fingerprint(result))
                self.fingerprinted += 1
        return elapsed


def _direct(run):
    return run()


def end_to_end(loop: Loop) -> tuple[dict, dict]:
    tail_s, tail_pct = tail(loop.times)
    failed = len(loop.failures)
    metrics = {
        "op_s_p50": (quantile(loop.times, 0.5), "s"),
        "op_s_tail": (tail_s, "s"),
        "ops_per_s": (len(loop.times) / sum(loop.times), "1/s"),
        "ok_ops_frac": ((loop.attempted - failed) / loop.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"op_samples": len(loop.times), "op_s_tail_percentile": tail_pct,
              "failed_ops_frac": failed / loop.attempted}
    return metrics, detail


def per_layer(tracer, untraced: list[float]) -> tuple[dict, dict]:
    by_op = self_time_by_op(tracer.spans)
    roots = [end - start for name, start, end, parent, _ in tracer.spans if parent < 0]

    def median_of(value):
        return statistics.median(value(op) for op in range(len(by_op)))

    metrics = {f"{span}.self_s": (median_of(lambda op: by_op[op].get(span, 0.0)), "s")
               for span in SELF_SPANS}
    counts = tracer.counters[:FIRST_OPS]

    def mean(name):
        return sum(c.get(name, 0.0) for c in counts) / len(counts)

    detail = {}
    for name in COUNTS:
        metrics[name] = (mean(name), "count")
    for name, base in BASES.items():
        detail[name] = {"value": mean(name), "base": mean(base), "base_of": base}
    for name, (num, base) in RATIOS.items():
        total = mean(base)
        metrics[name] = (mean(num) / total if total else 0.0, "frac")
        detail[name] = {"value": metrics[name][0], "base": total, "base_of": base}

    def rows_per_s(op):
        self_s = by_op[op].get("data.load_csv", 0.0)
        return tracer.counters[op].get("data.load_csv.rows", 0.0) / self_s if self_s else 0.0

    metrics["data.load_csv.rows_per_s"] = (median_of(rows_per_s), "1/s")
    metrics["op.unattributed_s"] = (median_of(lambda op: by_op[op][ROOT_SPAN]), "s")
    metrics["op.traced_s"] = (statistics.median(roots), "s")
    ratios = [t / u for t, u in zip(roots, untraced)]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    detail["count_ops"] = len(counts)
    detail["traced_ops"] = len(roots)
    return metrics, detail


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CORPUS_SEED, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    loop = Loop(workload)
    start = time.perf_counter()
    if not args.trace:
        passes = 0
        while True:
            pass_start = time.perf_counter()
            for j in range(workload.size):
                loop.step(passes * workload.size + j, _direct)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > args.seconds:
                break
    else:
        tracer = Tracer()

        def traced(run):
            with installed(tracer), tracer.operation():
                return run()

        untraced = []
        i = 0
        while i < FIRST_OPS or time.perf_counter() - start < args.seconds:
            # alternate the order within a pair so drift cancels
            for call in ((_direct, traced) if i % 2 == 0 else (traced, _direct)):
                elapsed = loop.step(i, call)
                if call is _direct:
                    untraced.append(elapsed)
            i += 1
    for failure in loop.failures[:5]:
        print(failure, file=sys.stderr)

    if not args.trace:
        metrics, detail = end_to_end(loop)
        detail["passes"] = passes
    else:
        metrics, detail = per_layer(tracer, untraced)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans)
            detail["spans_file"] = str(args.spans.relative_to(ROOT))
    detail["corpus"] = {"seed": CORPUS_SEED, "size": workload.size,
                        "order": workload.order[:FIRST_OPS].tolist()}
    out.update(
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        detail=detail,
        attempted=loop.attempted,
        failures=loop.failures,
        fingerprint=loop.digest.hexdigest(),
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
