#!/usr/bin/env python3
"""Say what moved between two output dumps of ``scripts/output_digest.py``.

Usage (from the root of a checkout that holds ``src/ivdtr`` and ``ivbench``):

    python3 scripts/output_digest.py --dump a.json > /dev/null   # in checkout A
    python3 scripts/output_digest.py --dump b.json > /dev/null   # in checkout B
    python3 scripts/output_diff.py a.json b.json

Prints one line per corpus entry whose outputs differ, then one summary line
per workload. An entry's line names the policy JSONs that changed and counts
the stage actions they changed on the entry's own training histories
(regenerated by this checkout's simulator). It gives the largest |difference|
of the simulated values (sim_replication) or of the exit code and report
numbers (the CLI workloads; the report's copies of the trees are left out, as
the policy covers them), and lists every other value that changed, such as a
report's ``converged``.
"""

import argparse
import json
from pathlib import Path

import numpy as np
from output_digest import training_set  # also puts the checkout's src/ on sys.path

from ivdtr.dtr_core import dtr_from_json


def leaves(doc, path=""):
    """(path, value) pairs of a JSON document's leaves, without "tree" keys."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "tree":
                yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(a, b) -> tuple[int, float, list[str]]:
    """How many numbers two documents hold at the same place differ, the
    largest |difference| among them, and the other leaves that changed."""
    la, lb = dict(leaves(a)), dict(leaves(b))
    moved, largest, other = 0, 0.0, []
    for path in sorted(la.keys() | lb.keys()):
        old, new = la.get(path), lb.get(path)
        if _is_number(old) and _is_number(new):
            moved += old != new
            largest = max(largest, abs(new - old))
        elif old != new:
            other.append(f"{path} {json.dumps(old)} -> {json.dumps(new)}")
    return moved, largest, other


def action_changes(a: dict, b: dict, dataset) -> int:
    """Stage actions that differ between two policy JSONs on the dataset's histories."""
    pa, pb = dtr_from_json(a), dtr_from_json(b)
    return sum(int(np.sum(pa.action_matrix(k, dataset.histories(k))
                          != pb.action_matrix(k, dataset.histories(k))))
               for k in range(1, dataset.num_stages + 1))


def entry_diff(name: str, k: int, a: dict, b: dict) -> dict:
    """What moved in corpus entry k of workload name."""
    if name == "sim_replication":
        policies = [(regime, a["policies"][regime], b["policies"][regime])
                    for regime in a["policies"]]
        numbers = a["values"], b["values"]
    else:
        policies = [("policy", a["policy"], b["policy"])]
        numbers = ({"code": a["code"], **a["report"]}, {"code": b["code"], **b["report"]})
    changed = [(label, pa, pb) for label, pa, pb in policies if pa != pb]
    actions = actions_of = 0
    if changed:
        dataset = training_set(name, k)
        actions = sum(action_changes(pa, pb, dataset) for _, pa, pb in changed)
        actions_of = len(policies) * dataset.num_stages * dataset.n
    moved, largest, other = compare(*numbers)
    return {"changed": [label for label, _, _ in changed], "n_policies": len(policies),
            "actions": actions, "actions_of": actions_of, "moved": moved,
            "n_numbers": sum(_is_number(v) for _, v in leaves(numbers[0])),
            "largest": largest, "other": other}


def describe(d: dict) -> str:
    parts = []
    if d["changed"]:
        parts.append(f"{len(d['changed'])} of {d['n_policies']} policy JSONs changed"
                     f" ({', '.join(d['changed'])}), {d['actions']:,} of"
                     f" {d['actions_of']:,} stage actions changed")
    parts.append(f"{d['moved']} of {d['n_numbers']} numbers moved,"
                 f" max |diff| {d['largest']:.3g}")
    return "; ".join(parts + d["other"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="dump of checkout A")
    parser.add_argument("b", type=Path, help="dump of checkout B")
    args = parser.parse_args()
    dumps = [json.loads(path.read_text(encoding="utf-8")) for path in (args.a, args.b)]
    for name, entries in dumps[0].items():
        diffs = [entry_diff(name, k, a, b)
                 for k, (a, b) in enumerate(zip(entries, dumps[1][name], strict=True))]
        for k, d in enumerate(diffs):
            if d["changed"] or d["moved"] or d["other"]:
                print(f"{name} {k}: {describe(d)}")
        print(f"{name}: {sum(bool(d['changed']) for d in diffs)} of {len(diffs)} entries"
              f" changed a policy JSON, {sum(d['actions'] > 0 for d in diffs)} changed"
              f" actions ({sum(d['actions'] for d in diffs):,} stage actions);"
              f" {sum(d['moved'] for d in diffs)} numbers moved,"
              f" max |diff| {max(d['largest'] for d in diffs):.3g};"
              f" {sum(len(d['other']) for d in diffs)} other values changed")


if __name__ == "__main__":
    main()
