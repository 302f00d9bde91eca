"""scripts/output_digest.py: one checkout gives the same digest on every run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import output_digest  # noqa: E402


@pytest.mark.parametrize("name", list(output_digest.WORKLOADS))
def test_entry_0_digest_repeats(tmp_path, name):
    workload = output_digest.WORKLOADS[name](0, tmp_path)
    entry = output_digest.sim_entry if name == "sim_replication" else output_digest.cli_entry
    first, _ = entry(workload, 0)
    second, _ = entry(workload, 0)
    assert first == second
