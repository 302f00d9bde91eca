"""scripts/bench_pairs.py: the summary of alternating benchmark pairs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result_line(ops_per_s, op_s_p50, failed=0):
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
               "op_s_p50": {"value": op_s_p50, "unit": "s"}}
    return json.dumps({"correct": failed == 0, "attempted": 40, "failed": failed,
                       "metrics": metrics})


def test_result_is_the_last_line():
    stdout = json.dumps({"detail": {"seed": 1}}) + "\n" + result_line(6.0, 0.15) + "\n"
    assert bench_pairs.result_of(stdout)["metrics"]["ops_per_s"]["value"] == 6.0


def test_summary_gives_parent_quartiles_change_median_and_wins():
    parent = [bench_pairs.result_of(result_line(v, 0.2)) for v in (4.0, 5.0, 6.0, 7.0, 8.0)]
    # pair 2 ties on ops_per_s and counts for neither side; op_s_p50 ties everywhere
    change = [bench_pairs.result_of(result_line(v, 0.2)) for v in (5.0, 6.0, 6.0, 9.0, 7.5)]
    lines = bench_pairs.summarize(parent, change, END_TO_END)
    assert lines == [
        "ops_per_s (1/s, higher is better): parent 6 [5-7], change 6, change wins 3/5",
        "op_s_p50 (s, lower is better): parent 0.2 [0.2-0.2], change 0.2, change wins 0/5",
    ]


def test_lower_is_better_counts_a_smaller_value_as_a_win():
    parent = [bench_pairs.result_of(result_line(5.0, v)) for v in (0.30, 0.20)]
    change = [bench_pairs.result_of(result_line(5.0, v)) for v in (0.25, 0.21)]
    line = bench_pairs.summarize(parent, change, END_TO_END)[1]
    assert line.endswith("change wins 1/2")


def test_pairs_alternate_the_first_side_and_failures_exit_1(monkeypatch, capsys):
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout.name, seed))
        return bench_pairs.result_of(result_line(5.0, 0.2, failed=int(seed == 8)))

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = ["--parent", "p", "--change", "c", "--workload", "cli_fit_10k",
            "--pairs", "3", "--seconds", "1", "--seed0", "7"]
    assert bench_pairs.main(argv) == 1
    assert runs == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9)]
    assert "2 failed operations" in capsys.readouterr().err
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args: bench_pairs.result_of(result_line(5.0, 0.2)))
    assert bench_pairs.main(argv) == 0


def verdict_lines(parent, change):
    """The verdicts of (ops_per_s, op_s_p50) parent and change runs."""
    return bench_pairs.verdicts([bench_pairs.result_of(result_line(*v)) for v in parent],
                                [bench_pairs.result_of(result_line(*v)) for v in change],
                                END_TO_END)


def test_worse_is_a_median_worse_by_more_than_the_bound():
    parent = [(6.0, 0.20)] * 4
    assert verdict_lines(parent, [(4.4, 0.26)] * 4) == [
        "ops_per_s: worse (bound 0.25 of the parent's median)",
        "op_s_p50: worse (bound 0.25 of the parent's median)",
    ]
    assert verdict_lines(parent, [(4.6, 0.24)] * 4) == [
        "ops_per_s: within bound (bound 0.25 of the parent's median)",
        "op_s_p50: within bound (bound 0.25 of the parent's median)",
    ]


def test_unresolved_is_a_parent_iqr_wider_than_the_bound():
    # op_s_p50's parent IQR is 0.15 against 0.25 * 0.25 allowed; ops_per_s's is 0
    parent = [(6.0, v) for v in (0.1, 0.2, 0.3, 0.4)]
    assert verdict_lines(parent, [(6.0, v) for v in (0.26, 0.27, 0.28, 0.29)]) == [
        "ops_per_s: within bound (bound 0.25 of the parent's median)",
        "op_s_p50: unresolved (bound 0.25 of the parent's median)",
    ]
    # unless every change run beats every parent run
    assert verdict_lines(parent, [(6.0, 0.09)] * 4)[1] == \
        "op_s_p50: within bound (bound 0.25 of the parent's median)"


def test_verdicts_follow_the_summary_lines(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args: bench_pairs.result_of(result_line(5.0, 0.2)))
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "cli_fit_10k",
                             "--pairs", "2", "--seconds", "1", "--seed0", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "op_s_p50 (s, lower is better): parent 0.2 [0.2-0.2], change 0.2, change wins 0/2",
        "ops_per_s (1/s, higher is better): parent 5 [5-5], change 5, change wins 0/2",
        "op_s_p50: within bound (bound 0.25 of the parent's median)",
        "ops_per_s: within bound (bound 0.25 of the parent's median)",
    ]
