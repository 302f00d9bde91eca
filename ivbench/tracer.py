"""Outside-in span tracer: times calls into ivdtr's public functions.

The tracer wraps functions from outside the package, so the program under
test is unchanged. A module-level function is rebound in every ivdtr module
(and module-level dict) that holds it, because modules import each other's
functions by name (``from .nuisance import fit_logistic``): patching only the
defining module would miss the calls made from ``sim``, ``dtr_core`` and
``improve``. Methods are replaced on their class.

Each benchmark operation gets a root span named ``op``. A span is the list
``[name, start, end, parent_index, op_id]``; spans are kept in memory and
written out once, when the run ends. Counter hooks run inside ``trace.hook``
spans, so their own cost (hashing arguments, say) is excluded from every
layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ROOT_SPAN = "op"
HOOK = "trace.hook"


class Tracer:
    """Span and counter store for one run; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: list[defaultdict] = []   # entry i: counters of operation i
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    # --- spans ---

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, len(self.counters) - 1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self):
        """Root span of one operation; counters and repeat sets start empty."""
        self.counters.append(defaultdict(float))
        self._seen = {}
        index = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(index)

    # --- counters, called from hooks ---

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[-1][name] += value

    def repeat(self, name: str, *arrays) -> None:
        """Count under ``name.repeats`` when the bytes of ``arrays`` equal those
        of an earlier call in this operation."""
        digest = hashlib.blake2b(digest_size=16)
        for arr in arrays:
            if arr is None:
                digest.update(b"none;")
                continue
            arr = np.ascontiguousarray(arr)
            digest.update(f"{arr.dtype.str}{arr.shape};".encode())
            digest.update(arr.tobytes())
        seen = self._seen.setdefault(name, set())
        key = digest.digest()
        if key in seen:
            self.add(name + ".repeats")
        seen.add(key)

    # --- wrapping ---

    def wrap(self, layer: "Layer", original: Callable) -> Callable:
        tracer = self
        span, count = layer.span, layer.count
        calls = layer.calls or span + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.add(calls)
            if count is not None:
                hook = tracer.begin(HOOK)
                count(tracer, result, *args, **kwargs)
                tracer.end(hook)
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ------------------------------ self time ------------------------------


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_op(spans: list) -> list[dict]:
    """Entry i: {span name: summed self time} over operation i's spans."""
    selfs = self_times(spans)
    n_ops = 1 + max((span[4] for span in spans), default=-1)
    out = [defaultdict(float) for _ in range(n_ops)]
    for span, self_s in zip(spans, selfs):
        if span[4] >= 0:
            out[span[4]][span[0]] += self_s
    return out


# ------------------------------ layers ------------------------------


@dataclass(frozen=True)
class Layer:
    """A public ivdtr function to wrap.

    ``attr`` is a module attribute, or ``Class.method`` for a method.
    Completed calls are counted under ``calls`` (default ``span.calls``);
    ``count(tracer, result, *args, **kwargs)`` reads further counters from
    the arguments and the return value.
    """

    span: str
    module: str
    attr: str
    count: Optional[Callable] = None
    calls: Optional[str] = None


def _count_fit_logistic(tracer, result, features, labels, weights=None):
    tracer.repeat("nuisance.fit_logistic", features, labels, weights)
    tracer.add("nuisance.fit_logistic.converged", float(bool(result.converged)))


def _count_fit_linear(tracer, result, features, targets, weights=None):
    tracer.repeat("nuisance.fit_linear", features, targets, weights)


def _count_bounds(tracer, result, nuisance, H, a, tail):
    lower, _, n_repaired = result
    tracer.add("bounds.mp_bounds_matrix.rows", len(lower))
    tracer.add("bounds.n_repaired", n_repaired)


def _count_flips(tracer, result, *args, **kwargs):
    for est in result:
        tracer.add("improve.flips", int((est.improved_action != est.baseline_action).sum()))
        tracer.add("improve.rows", len(est.baseline_action))


def _count_decide(tracer, result, self, H):
    tracer.add("dtr_core.decide.rows", len(result))


def _count_true_value(tracer, result, *args, **kwargs):
    tracer.add("sim.true_value.points", result.n_eval)


def _count_loaded(tracer, result, *args, **kwargs):
    tracer.add("data.load_csv.rows", result.n)


LAYERS = (
    Layer("data.load_csv", "ivdtr.data", "load_csv", _count_loaded),
    Layer("data.dataset_from_arrays", "ivdtr.data", "dataset_from_arrays"),
    Layer("data.histories", "ivdtr.data", "Dataset.histories"),
    Layer("data.subset", "ivdtr.data", "Dataset.subset"),
    Layer("nuisance.fit_logistic", "ivdtr.nuisance", "fit_logistic", _count_fit_logistic),
    Layer("nuisance.fit_linear", "ivdtr.nuisance", "fit_linear", _count_fit_linear),
    Layer("nuisance.loglik", "ivdtr.nuisance", "penalized_loglik",
          calls="nuisance.loglik_evals"),
    Layer("nuisance.loglik", "ivdtr.nuisance", "loglik_gradient",
          calls="nuisance.newton_iters"),
    Layer("nuisance.fit_stage_nuisance", "ivdtr.nuisance", "fit_stage_nuisance"),
    Layer("nuisance.fit_mu_cells", "ivdtr.nuisance", "fit_mu_cells"),
    Layer("bounds.mp_bounds_matrix", "ivdtr.bounds", "mp_bounds_matrix", _count_bounds),
    Layer("dtr_core.fit_weighted_tree", "ivdtr.dtr_core", "fit_weighted_tree"),
    Layer("dtr_core.fit_stage", "ivdtr.dtr_core", "fit_stage"),
    Layer("dtr_core.backward_induct", "ivdtr.dtr_core", "backward_induct"),
    Layer("dtr_core.decide", "ivdtr.dtr_core", "TreeRule.decide", _count_decide),
    Layer("dtr_core.dtr_to_json", "ivdtr.dtr_core", "dtr_to_json"),
    Layer("crossfit.fit_ivoptimal_crossfit", "ivdtr.crossfit", "fit_ivoptimal_crossfit"),
    Layer("improve.relative_stage_estimates", "ivdtr.improve", "relative_stage_estimates",
          _count_flips),
    Layer("sim.generate", "ivdtr.sim", "generate"),
    Layer("sim.true_value", "ivdtr.sim", "true_value", _count_true_value),
    Layer("sim.fit_sra_baseline", "ivdtr.sim", "fit_sra_baseline"),
    Layer("cli.cmd", "ivdtr.cli", "cmd_fit"),
    Layer("cli.cmd", "ivdtr.cli", "cmd_improve"),
)


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, layers=LAYERS, package: str = "ivdtr") -> list:
    """Wrap every layer; returns the (target, key, original) list for restore()."""
    saved: list = []
    for layer in layers:
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(layer, original)
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for name, entry in list(value.items()):
                        if entry is original:
                            saved.append((value, name, original))
                            value[name] = wrapper
    return saved


def restore(saved: list) -> None:
    """Put back every original that install() replaced, newest first."""
    for target, key, original in reversed(saved):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


@contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    saved = install(tracer, layers)
    try:
        yield
    finally:
        restore(saved)
