"""Benchmark self-tests: self-time arithmetic, tail selection, tracer patching."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import ivdtr
import ivdtr.cli
import ivdtr.nuisance
import ivdtr.sim
from ivdtr.data import Dataset
from ivdtr.dtr_core import TreeRule
from ivdtr.sim import SimConfig, generate

import tracer
import worker
import workloads
from tracer import Tracer, installed, self_time_by_op, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(name, start, end, parent, op=0):
    return [name, float(start), float(end), parent, op]


class TestSelfTime:
    def test_subtracts_the_union_of_children_clipped_to_the_parent(self):
        spans = [
            span("op", 0, 10, -1),
            span("a", 1, 4, 0),
            span("b", 3, 6, 0),    # overlaps a: [1, 6] is covered once
            span("c", 9, 12, 0),   # runs past the parent: only [9, 10] counts
            span("d", 2, 3, 1),
        ]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])

    def test_sums_by_name_within_each_operation(self):
        spans = [
            span("op", 0, 10, -1, 0),
            span("x", 1, 3, 0, 0),
            span("x", 4, 5, 0, 0),
            span("op", 20, 24, -1, 1),
            span("x", 21, 22, 3, 1),
        ]
        by_op = self_time_by_op(spans)
        assert by_op[0]["x"] == pytest.approx(3.0)
        assert by_op[0]["op"] == pytest.approx(7.0)
        assert by_op[1]["x"] == pytest.approx(1.0)
        assert by_op[1]["op"] == pytest.approx(3.0)


class TestQuantiles:
    def test_harrell_davis_median_of_a_symmetric_sample_is_its_centre(self):
        samples = list(np.random.default_rng(0).permutation(np.arange(1.0, 22.0)))
        assert worker.quantile(samples, 0.5) == pytest.approx(11.0)
        assert worker.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)

    def test_harrell_davis_moves_smoothly_between_modes(self):
        fast, slow = [1.0] * 10, [3.0] * 10
        lower = worker.quantile(fast + [1.0] + slow, 0.5)
        upper = worker.quantile(fast + [3.0] + slow, 0.5)
        assert 1.0 < lower < 2.0 < upper < 3.0

    @pytest.mark.parametrize("n, percentile", [
        (20, 50.0),     # p75 would leave 5 samples beyond its rank
        (65, 75.0),     # rank 49 leaves 16 beyond; p90 (rank 59) leaves 6
        (100, 90.0),
        (1000, 99.0),
    ])
    def test_tail_is_the_highest_ladder_percentile_with_ten_beyond(self, n, percentile):
        samples = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
        value, got = worker.tail(samples)
        assert got == percentile
        assert value == pytest.approx(percentile / 100 * n + 0.5, abs=0.5)

    def test_tail_needs_twenty_samples(self):
        with pytest.raises(ValueError):
            worker.tail([1.0] * 19)


def _bindings():
    """Every ivdtr module attribute, module-level dict entry and patched method."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ivdtr" or name.startswith("ivdtr."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, dict) and not key.startswith("__"):
                    for entry, item in value.items():
                        out[(name, key, entry)] = item
    for cls, attr in ((Dataset, "histories"), (Dataset, "subset"), (TreeRule, "decide")):
        out[(cls.__name__, attr)] = cls.__dict__[attr]
    return out


class TestPatching:
    def test_rebinds_in_every_module_and_restores(self):
        original = ivdtr.nuisance.fit_logistic
        before = _bindings()
        with installed(Tracer()):
            wrapped = ivdtr.nuisance.fit_logistic
            assert wrapped is not original
            assert ivdtr.sim.fit_logistic is wrapped
            assert ivdtr.fit_logistic is wrapped
            assert ivdtr.cli._COMMANDS["fit"] is ivdtr.cli.cmd_fit
            assert Dataset.__dict__["histories"] is not before[("Dataset", "histories")]
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_restores_when_the_operation_raises(self):
        before = _bindings()
        t = Tracer()
        with pytest.raises(ValueError):
            with installed(t), t.operation():
                ivdtr.nuisance.fit_logistic(np.zeros((2, 1)), np.array([0.0, 2.0]))
        assert all(_bindings()[key] is before[key] for key in before)
        assert [s[0] for s in t.spans] == ["op", "nuisance.fit_logistic"]
        assert all(s[2] >= s[1] for s in t.spans)

    def test_calls_from_other_modules_nest_under_their_caller(self):
        dataset, _ = generate(SimConfig(), 300, np.random.default_rng(0))
        t = Tracer()
        with installed(t), t.operation():
            ivdtr.sim.fit_sra_baseline(dataset, depth=2)
        names = [s[0] for s in t.spans]
        sra = names.index("sim.fit_sra_baseline")
        fits = [s for s in t.spans if s[0] == "nuisance.fit_logistic"]
        assert len(fits) == 4 and all(s[3] == sra for s in fits)
        counts = t.counters[0]
        assert counts["nuisance.fit_logistic.calls"] == 4
        assert counts["nuisance.fit_linear.calls"] == 4
        assert counts["data.histories.calls"] == 2
        assert counts["nuisance.newton_iters"] >= 4
        assert counts["dtr_core.fit_weighted_tree.calls"] == 2

    def test_repeats_count_identical_inputs_within_one_operation(self):
        X = np.random.default_rng(1).normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(float)
        t = Tracer()
        with installed(t):
            for _ in range(2):
                with t.operation():
                    ivdtr.nuisance.fit_logistic(X, y)
                    ivdtr.sim.fit_logistic(X.copy(), y)
                    ivdtr.nuisance.fit_logistic(X, 1.0 - y)
        for counts in t.counters:
            assert counts["nuisance.fit_logistic.calls"] == 3
            assert counts["nuisance.fit_logistic.repeats"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_run_visits_the_whole_corpus_in_a_seeded_order(name):
    cls = workloads.WORKLOADS[name]
    assert cls.size >= worker.MIN_OPS
    corpus = workloads._Corpus.__new__(cls)
    workloads._Corpus.__init__(corpus, seed=7)
    again = workloads._Corpus.__new__(cls)
    workloads._Corpus.__init__(again, seed=7)
    visited = [corpus.entry(i) for i in range(2 * cls.size)]
    assert visited == [again.entry(i) for i in range(2 * cls.size)]
    assert sorted(visited[:cls.size]) == list(range(cls.size))
    assert visited[cls.size:] == visited[:cls.size]


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(worker.PER_LAYER)
    spans = {layer.span for layer in tracer.LAYERS}
    assert {f"{name}.self_s" for name in spans} >= {
        m["name"] for m in doc["per_layer"] if m["name"].endswith(".self_s")}
    loop = worker.Loop(workload=None)
    loop.times, loop.attempted = [1.0] * 20, 20
    metrics, _ = worker.end_to_end(loop)
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == {
        (name, unit) for name, (_, unit) in metrics.items()} | {("setup_s", "s")}
