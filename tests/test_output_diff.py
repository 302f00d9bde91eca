"""scripts/output_diff.py: what moved between two output dumps."""

import sys
from pathlib import Path

import numpy as np

from ivdtr.dtr_core import constant_dtr, dtr_to_json
from ivdtr.sim import SimConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import output_diff  # noqa: E402


def test_compare_counts_numbers_skips_trees_and_lists_other_changes():
    old = {"n": 10, "stages": [{"q": 0.5, "converged": False, "tree": {"threshold": 1.0}}]}
    new = {"n": 10, "stages": [{"q": 0.25, "converged": True, "tree": {"threshold": 9.0}}]}
    moved, largest, other = output_diff.compare(old, new)
    assert (moved, largest) == (1, 0.25)
    assert other == ["stages[0].converged false -> true"]
    assert output_diff.compare(old, old) == (0, 0.0, [])


def test_action_changes_count_every_differing_stage_action():
    dataset, _ = generate(SimConfig(c1=4.0, xi=1.0), 50, np.random.default_rng(0))
    std, prosp = (dtr_to_json(constant_dtr(label, 2)) for label in (-1, 1))
    assert output_diff.action_changes(std, prosp, dataset) == 100
    assert output_diff.action_changes(std, std, dataset) == 0
