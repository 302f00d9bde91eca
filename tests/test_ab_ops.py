"""scripts/ab_ops.py: an interleaved run of one checkout against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_entries_on_one_checkout_give_one_summary_line():
    proc = subprocess.run([sys.executable, "scripts/ab_ops.py", "--parent", ".", "--change", ".",
                           "--workload", "sim_replication", "--ops", "2", "--seed", "1"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    # one checkout twice: each operation has one faster side, and the outputs agree
    line = re.fullmatch(r"sim_replication: change/parent per operation [\d.]+ \[[\d.]+-[\d.]+\] "
                        r"over 2 operations; change faster (\d), parent faster (\d); "
                        r"median [\d.]+ -> [\d.]+ ms; outputs differ on 0\n", proc.stdout)
    assert line and int(line[1]) + int(line[2]) == 2
