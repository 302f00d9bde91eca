"""Data model, CSV round-trip, history construction, batch assignment."""

import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import dumps_csv, loads_csv, save_csv_rowwise

import ivdtr.data
from ivdtr.data import (
    DataError,
    Dataset,
    assign_batches,
    dataset_from_arrays,
    expected_header,
    save_csv,
)

TWO_STAGE_CSV = (
    "x1_1,z1,a1,r1,x2_1,z2,a2,r2\n"
    "0.3,1,1,1.0,-0.2,-1,-1,0.0\n"
    "0.1,-1,1,0.5,0.4,1,1,1.0\n"
    "-0.7,1,-1,0.0,0.9,-1,-1,0.25\n"
)


def one_row(covariates, actions, rewards, instruments=None):
    """One-trajectory dataset; covariates[k] is the stage-(k+1) covariate list."""
    return dataset_from_arrays(
        covariates=covariates,
        instruments=[[z] for z in (instruments or [1] * len(actions))],
        actions=[[a] for a in actions],
        rewards=[[r] for r in rewards],
    )


def make_trajectory():
    return one_row(covariates=[[0.3], [-0.2]], instruments=[1, -1], actions=[1, -1],
                   rewards=[1.0, 0.0])


class TestLoadCsv:
    def test_two_stage_parse(self):
        ds = loads_csv(TWO_STAGE_CSV)
        assert ds.n == 3
        assert ds.num_stages == 2
        assert ds.covariate_dims == (1, 1)
        assert ds.r[0, 0] == 1.0
        assert ds.a[2, 1] == -1

    def test_action_not_pm1(self):
        bad = "x1_1,z1,a1,r1\n0.3,1,0,1.0\n"
        with pytest.raises(DataError, match=r"action not in \{-1,\+1\}"):
            loads_csv(bad)

    def test_instrument_not_pm1(self):
        bad = "x1_1,z1,a1,r1\n0.3,2,1,1.0\n"
        with pytest.raises(DataError, match="instrument"):
            loads_csv(bad)

    def test_empty_file_header_only(self):
        with pytest.raises(DataError, match="empty dataset"):
            loads_csv("x1_1,z1,a1,r1\n")

    def test_non_numeric_cell(self):
        bad = "x1_1,z1,a1,r1\nfoo,1,1,1.0\n"
        with pytest.raises(DataError, match="non-numeric"):
            loads_csv(bad)

    def test_inconsistent_row_width(self):
        bad = "x1_1,z1,a1,r1\n0.3,1,1,1.0,9\n"
        with pytest.raises(DataError, match="expected 4 cells"):
            loads_csv(bad)

    def test_missing_cell(self):
        bad = "x1_1,z1,a1,r1\n0.3,,1,1.0\n"
        with pytest.raises(DataError, match="missing cell"):
            loads_csv(bad)

    def test_malformed_header(self):
        with pytest.raises(DataError, match="malformed header"):
            loads_csv("x1_1,a1,z1,r1\n0.3,1,1,1.0\n")

    def test_zero_covariate_stage(self):
        ds = loads_csv("x1_1,z1,a1,r1,z2,a2,r2\n0.5,1,1,1.0,-1,-1,0.0\n")
        assert ds.covariate_dims == (1, 0)

    def test_roundtrip_identity(self):
        ds = loads_csv(TWO_STAGE_CSV)
        again = loads_csv(dumps_csv(ds))
        assert again.num_stages == ds.num_stages
        assert again.covariate_dims == ds.covariate_dims
        np.testing.assert_array_equal(again.z, ds.z)
        np.testing.assert_array_equal(again.a, ds.a)
        np.testing.assert_array_equal(again.r, ds.r)
        for c1, c2 in zip(ds.covariates, again.covariates):
            np.testing.assert_array_equal(c1, c2)


HEADER2 = "x1_1,z1,a1,r1,x2_1,z2,a2,r2\n"


@pytest.mark.parametrize("bad_row, message", [
    ("0.3,1,1,1.0,,-1,-1,0.0", r"^row 2: missing cell$"),
    ("0.3,1,1,1.0,foo,-1,-1,0.0", r"^row 2: non-numeric cell .*'foo'"),
    ("0.3,1,1,1.0,-0.2,0,-1,0.0", r"^row 2: stage 2 instrument not in \{-1,\+1\}: 0$"),
    ("0.3,1,2,1.0,-0.2,-1,-1,0.0", r"^row 2: stage 1 action not in \{-1,\+1\}: 2$"),
    ("0.3,1,1,1.0,-0.2,-1,-1", r"^row 2: expected 8 cells, got 7$"),
    ("0.3,1,1,nan,-0.2,-1,-1,0.0", r"^row 2: stage 1 reward not finite: nan$"),
    ("0.3,1,1,1.0,inf,-1,-1,0.0", r"^row 2: stage 2 covariate x2_1 not finite: inf$"),
    # blank lines count, whether a cell fails to parse or to validate
    ("\n0.3,1,1,1.0,foo,-1,-1,0.0", r"^row 3: non-numeric cell .*'foo'"),
    ("\n0.3,1,1,1.0,-0.2,0,-1,0.0", r"^row 3: stage 2 instrument not in \{-1,\+1\}: 0$"),
    ("\n0.3,1,2,1.0,-0.2,-1,-1,0.0", r"^row 3: stage 1 action not in \{-1,\+1\}: 2$"),
    ("\n0.3,1,1,nan,-0.2,-1,-1,0.0", r"^row 3: stage 1 reward not finite: nan$"),
    ("\n0.3,1,1,1.0,inf,-1,-1,0.0", r"^row 3: stage 2 covariate x2_1 not finite: inf$"),
])
def test_rejected_cell_names_its_data_row(bad_row, message):
    with pytest.raises(DataError, match=message):
        loads_csv(HEADER2 + "0.3,1,1,1.0,-0.2,-1,-1,0.0\n" + bad_row + "\n")


@pytest.mark.parametrize("body", [
    TWO_STAGE_CSV,
    HEADER2 + "1_000,1,1,1.0,-0.2,-1,-1,0.0\n",  # numpy rejects 1_000: the row reader reads it
], ids=["c-parse", "row-reader"])
def test_byte_order_mark_skipped(body):
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    plain, marked = loads_csv(body), loads_csv("\ufeff" + body)
    assert marked.covariate_dims == plain.covariate_dims
    for got, want in zip((*marked.covariates, marked.z, marked.a, marked.r),
                         (*plain.covariates, plain.z, plain.a, plain.r), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad_row, message", [
    ("\n0.3,1,1,1.0,foo,-1,-1,0.0", r"^row 3: non-numeric cell .*'foo'"),
    ("\n0.3,1,1,1.0,-0.2,0,-1,0.0", r"^row 3: stage 2 instrument not in \{-1,\+1\}: 0$"),
], ids=["parse", "validate"])
def test_byte_order_mark_keeps_data_rows(bad_row, message):
    with pytest.raises(DataError, match=message):
        loads_csv("\ufeff" + HEADER2 + "0.3,1,1,1.0,-0.2,-1,-1,0.0\n" + bad_row + "\n")


def test_blank_lines_skipped_and_pm1_spellings_accepted():
    ds = loads_csv(HEADER2 + "\n0.3,1.0, -1,1.0,-0.2, -1,1.0,0.0\n\n")
    assert ds.n == 1
    np.testing.assert_array_equal(ds.z, [[1.0, -1.0]])
    np.testing.assert_array_equal(ds.a, [[-1.0, 1.0]])
    with pytest.raises(DataError, match="^row 2: missing cell$"):
        loads_csv(HEADER2 + "\n0.3,1,1,1.0,,-1,-1,0.0\n")


def body_rows(text, width):
    """The C parse and the row reader on the same body text (header excluded)."""
    return (ivdtr.data._loadtxt(io.StringIO(text, newline=""), width),
            ivdtr.data._read_rows(io.StringIO(text, newline=""), width))


@pytest.mark.parametrize("cell", [
    "+.5", "1.", "-.5e-3", "1e0", " -1", "\t0.3 ", "Infinity", "4.9e-324", "1e400",
])
@pytest.mark.parametrize("newline, end", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")],
                         ids=["lf", "crlf", "no-final-newline"])
def test_c_parse_equals_row_reader(cell, newline, end):
    text = newline.join([f"0.3,1,1,{cell},-0.2,-1,-1,0.0", f"{cell},1,1,1.0,-0.2,-1,-1,0.0"])
    fast, rows = body_rows(text + end, 8)
    assert fast is not None
    assert np.array_equal(fast, rows)
    assert np.array_equal(np.signbit(fast), np.signbit(rows))


def test_load_csv_parses_in_c(monkeypatch):
    def no_row_reader(fh, width):
        raise AssertionError("row reader used")

    expected = loads_csv(TWO_STAGE_CSV)
    monkeypatch.setattr(ivdtr.data, "_read_rows", no_row_reader)
    ds = loads_csv(TWO_STAGE_CSV.replace("\n", "\r\n"))
    for got, want in zip((*ds.covariates, ds.z, ds.a, ds.r),
                         (*expected.covariates, expected.z, expected.a, expected.r)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), ('"0.3"', 0.3), ("\u0661", 1.0)],
                         ids=["underscore", "quoted", "arabic-indic"])
def test_spellings_only_float_reads_load_through_the_row_reader(cell, value):
    row = f"{cell},1,1,1.0,-0.2,-1,-1,0.0\n"
    assert body_rows(row, 8)[0] is None
    ds = loads_csv(HEADER2 + row)
    assert ds.covariates[0][0, 0] == value


def test_header_and_blank_lines_is_empty_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^empty dataset$"):
            loads_csv(HEADER2 + "\n\r\n\n")


def test_save_csv_bytes_match_the_rowwise_writer(tmp_path):
    rng = np.random.default_rng(7)
    n = 40
    x = rng.normal(size=(n, 2))
    x[0, 0] = -0.0
    r1 = rng.uniform(size=n)
    r1[:5] = [5e-324, -5e-324, 1e300, -1e300, -0.0]
    ds = dataset_from_arrays(
        covariates=[x, np.empty((n, 0))],
        instruments=[rng.choice([-1.0, 1.0], size=n) for _ in range(2)],
        actions=[rng.choice([-1.0, 1.0], size=n) for _ in range(2)],
        rewards=[r1, rng.normal(size=n)],
    )
    save_csv(ds, tmp_path / "fast.csv")
    save_csv_rowwise(ds, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestHistoryAt:
    """The stage-k history H_k, read through Dataset.histories on one-row datasets."""

    def test_definition_unrolled(self):
        np.testing.assert_allclose(make_trajectory().histories(2), [[0.3, 1.0, 1.0, -0.2]])

    def test_stage_one_is_baseline_covariates(self):
        np.testing.assert_allclose(make_trajectory().histories(1), [[0.3]])

    def test_multi_covariate_stage_one(self):
        ds = one_row(covariates=[[0.1, 0.7]], actions=[-1], rewards=[0.0])
        np.testing.assert_allclose(ds.histories(1), [[0.1, 0.7]])

    def test_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            make_trajectory().histories(3)

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_prefix_extension(self, num_stages, dim, rnd):
        rng = np.random.default_rng(rnd.randint(0, 10**6))
        ds = one_row(
            covariates=[rng.normal(size=dim) for _ in range(num_stages)],
            instruments=[int(rng.choice([-1, 1])) for _ in range(num_stages)],
            actions=[int(rng.choice([-1, 1])) for _ in range(num_stages)],
            rewards=[float(rng.normal()) for _ in range(num_stages)],
        )
        for k in range(2, num_stages + 1):
            h_prev = ds.histories(k - 1)[0]
            h = ds.histories(k)[0]
            np.testing.assert_array_equal(h[: len(h_prev)], h_prev)
            np.testing.assert_allclose(
                h[len(h_prev): len(h_prev) + 2], [ds.a[0, k - 2], ds.r[0, k - 2]]
            )


class TestDataset:
    def test_mismatched_row_count_rejected(self):
        ds = loads_csv(TWO_STAGE_CSV)
        with pytest.raises(DataError, match="share n rows"):
            dataclasses.replace(ds, r=ds.r[:2])
        with pytest.raises(DataError, match="share n rows"):
            Dataset(covariates=(ds.covariates[0], ds.covariates[1][:2]), z=ds.z, a=ds.a, r=ds.r)

    def test_no_stages_or_no_rows_rejected(self):
        with pytest.raises(DataError, match="num_stages must be >= 1"):
            Dataset(covariates=(), z=np.empty((0, 0)), a=np.empty((0, 0)), r=np.empty((0, 0)))
        with pytest.raises(DataError, match="^empty dataset$"):
            dataset_from_arrays(covariates=[np.empty((0, 1))], instruments=[np.empty(0)],
                                actions=[np.empty(0)], rewards=[np.empty(0)])

    def test_history_width(self):
        ds = loads_csv(TWO_STAGE_CSV)
        assert ds.histories(1).shape == (3, 1)
        assert ds.histories(2).shape == (3, 4)

    def test_from_arrays(self):
        ds = dataset_from_arrays(
            covariates=[np.array([[0.0], [1.0]]), np.empty((2, 0))],
            instruments=[np.array([1, -1]), np.array([-1, 1])],
            actions=[np.array([1, 1]), np.array([-1, 1])],
            rewards=[np.array([0.5, 0.25]), np.array([1.0, 0.0])],
        )
        assert ds.n == 2
        assert ds.covariate_dims == (1, 0)
        np.testing.assert_allclose(ds.histories(2)[0], [0.0, 1.0, 0.5])


class TestAssignBatches:
    def test_exact_division(self):
        batch = assign_batches(10, 2, np.random.default_rng(0))
        sizes = sorted(int(np.sum(batch == j)) for j in range(2))
        assert sizes == [5, 5]

    def test_remainder_case(self):
        batch = assign_batches(11, 2, np.random.default_rng(0))
        sizes = sorted(int(np.sum(batch == j)) for j in range(2))
        assert sizes == [5, 6]

    def test_m_greater_than_n(self):
        with pytest.raises(DataError):
            assign_batches(3, 5, np.random.default_rng(0))

    def test_m_below_two(self):
        with pytest.raises(DataError):
            assign_batches(10, 1, np.random.default_rng(0))

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=7, max_value=60),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, m, n, seed):
        if m > n:
            return
        batch = assign_batches(n, m, np.random.default_rng(seed))
        all_members = np.concatenate([np.flatnonzero(batch == j) for j in range(m)])
        assert sorted(all_members.tolist()) == list(range(n))
        sizes = [int(np.sum(batch == j)) for j in range(m)]
        assert max(sizes) - min(sizes) <= 1
        again = assign_batches(n, m, np.random.default_rng(seed))
        np.testing.assert_array_equal(batch, again)


def test_expected_header():
    assert expected_header(2, (2, 0)) == ["x1_1", "x1_2", "z1", "a1", "r1", "z2", "a2", "r2"]
