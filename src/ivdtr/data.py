"""Columnar trajectory data, CSV ingestion, history construction, batch splitting.

Conventions baked in here and relied on everywhere else:
  * instruments and actions are encoded as floats in {-1.0, +1.0};
  * the stage-k history vector is the concatenation
        [x_1, a_1, r_1, x_2, a_2, r_2, ..., a_{k-1}, r_{k-1}, x_k]
    so H_1 = x_1.

load_csv parses the data rows with numpy's C parser (np.loadtxt). When that
parse fails or finds the wrong width, the row reader parses them again with
Python's float, which also takes 1_0, quoted cells and non-ASCII digits, and
names the data row of a malformed cell.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DataError(ValueError):
    """Raised on malformed input data (bad header, bad cell, bad shape). An error
    in one row names it, counting from 1: Dataset and RewardBounds.check count
    array rows, load_csv CSV rows (blank lines count)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.message, self.row = message, row

    def in_csv(self, path) -> DataError:
        """This error with its row, a row of the table load_csv reads from path,
        renamed as that file's row: the table skips blank lines, the file counts them."""
        if self.row is None:
            return self
        with open(path, newline="", encoding="utf-8-sig") as fh:
            nonblank = [idx for idx, cells in enumerate(csv.reader(fh)) if cells]  # header 0
        return DataError(self.message, row=nonblank[self.row])


@dataclass(frozen=True)
class Dataset:
    """n trajectories of K stages, stored as per-stage arrays.

    covariates[k - 1] is the (n, d_k) stage-k covariate matrix; z, a and r are
    (n, K) matrices whose column k - 1 holds the stage-k instruments, actions
    and rewards.
    """

    covariates: tuple[np.ndarray, ...]
    z: np.ndarray
    a: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        covariates = tuple(np.asarray(c, dtype=float) for c in self.covariates)
        object.__setattr__(self, "covariates", covariates)
        for name in ("z", "a", "r"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not covariates:
            raise DataError("num_stages must be >= 1")
        shape = (len(covariates[0]), len(covariates))
        if any(c.ndim != 2 or len(c) != shape[0] for c in covariates) or any(
            m.shape != shape for m in (self.z, self.a, self.r)
        ):
            raise DataError(f"stage arrays must share n rows; z, a and r must be {shape}")
        if shape[0] < 1:
            raise DataError("empty dataset")
        for what, m in (("instrument", self.z), ("action", self.a)):
            bad = np.argwhere((m != 1.0) & (m != -1.0))
            if len(bad):
                i, k = bad[0]
                raise DataError(f"stage {k + 1} {what} not in {{-1,+1}}: {m[i, k]:g}", row=i + 1)
        bad = np.argwhere(~np.isfinite(self.r))
        if len(bad):
            i, k = bad[0]
            raise DataError(f"stage {k + 1} reward not finite: {self.r[i, k]}", row=i + 1)
        for k, c in enumerate(covariates, start=1):
            if not np.all(np.isfinite(c)):
                i, j = np.argwhere(~np.isfinite(c))[0]
                raise DataError(f"stage {k} covariate x{k}_{j + 1} not finite: {c[i, j]}",
                                row=i + 1)

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def num_stages(self) -> int:
        return len(self.covariates)

    @property
    def covariate_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.covariates)

    # --- column accessors (1-indexed stage k), used by every estimator ---

    def histories(self, k: int) -> np.ndarray:
        """(n, dim_k) matrix of stage-k history vectors."""
        self._check_stage(k)
        parts = []
        for t in range(k - 1):
            parts += [self.covariates[t], self.a[:, t:t + 1], self.r[:, t:t + 1]]
        parts.append(self.covariates[k - 1])
        return np.hstack(parts)

    def instruments(self, k: int) -> np.ndarray:
        self._check_stage(k)
        return self.z[:, k - 1].copy()

    def actions(self, k: int) -> np.ndarray:
        self._check_stage(k)
        return self.a[:, k - 1].copy()

    def rewards(self, k: int) -> np.ndarray:
        self._check_stage(k)
        return self.r[:, k - 1].copy()

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Dataset restricted to the given trajectory indices (order kept)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            covariates=tuple(c[idx] for c in self.covariates),
            z=self.z[idx], a=self.a[idx], r=self.r[idx],
        )

    def _check_stage(self, k: int) -> None:
        if not 1 <= k <= self.num_stages:
            raise DataError(f"stage index {k} out of range 1..{self.num_stages}")


def assign_batches(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Random partition of {0..n-1} into m batches with sizes within 1 of n/m:
    each sample's batch label in 0..m-1."""
    if m < 2:
        raise DataError(f"number of batches must be >= 2, got {m}")
    if m > n:
        raise DataError(f"cannot split {n} samples into {m} batches")
    return (np.arange(n) % m)[rng.permutation(n)]


# --------------------------- CSV schema ---------------------------
#
# Header: x{k}_{j} (j = 1..dim_k), z{k}, a{k}, r{k}, repeated for k = 1..K.
# One row per trajectory, '.' decimal point, comma separated.


def expected_header(num_stages: int, covariate_dims: Sequence[int]) -> list[str]:
    cols = []
    for k in range(1, num_stages + 1):
        cols.extend(f"x{k}_{j}" for j in range(1, covariate_dims[k - 1] + 1))
        cols.extend([f"z{k}", f"a{k}", f"r{k}"])
    return cols


def _parse_header(header: list[str]) -> tuple[int, tuple[int, ...]]:
    """Infer (K, covariate_dims) from a header, validating the column order."""
    dims: list[int] = []
    pos = 0
    k = 0
    while pos < len(header):
        k += 1
        d = 0
        while pos < len(header) and header[pos] == f"x{k}_{d + 1}":
            d += 1
            pos += 1
        for name in (f"z{k}", f"a{k}", f"r{k}"):
            if pos >= len(header) or header[pos] != name:
                raise DataError(f"malformed header: expected column '{name}' at position {pos}")
            pos += 1
        dims.append(d)
    if k == 0:
        raise DataError("malformed header: no stage columns found")
    return k, tuple(dims)


def _loadtxt(fh, width: int) -> np.ndarray | None:
    """The data rows in numpy's C parser; None if it fails or finds another width."""
    # a body of blank lines is empty here, before np.loadtxt warns of no data
    first = next((line for line in fh if line.strip("\r\n")), None)
    if first is None:
        raise DataError("empty dataset")
    try:
        table = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape[1] == width else None


def _read_rows(fh, width: int) -> np.ndarray:
    """Python's float on every cell; an error names its data row (blank lines count)."""
    values = []
    for idx, row in enumerate(csv.reader(fh), start=1):
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"expected {width} cells, got {len(row)}", row=idx)
        try:
            values.append([float(cell) for cell in row])
        except ValueError as exc:
            if any(cell.strip() == "" for cell in row):
                raise DataError("missing cell", row=idx) from None
            raise DataError(f"non-numeric cell ({exc})", row=idx) from None
    return np.array(values)


def load_csv(path) -> Dataset:
    """Load a trajectory dataset from CSV, skipping a leading UTF-8 byte-order mark."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = [c.strip() for c in next(csv.reader(fh))]
        except StopIteration:
            raise DataError("empty dataset") from None
        _, dims = _parse_header(header)
        table = _loadtxt(fh, len(header))
        if table is None:
            fh.seek(0)
            next(csv.reader(fh))
            table = _read_rows(fh, len(header))

    starts = np.cumsum([0] + [d + 3 for d in dims[:-1]])
    z_cols = starts + np.array(dims)
    try:
        return Dataset(
            covariates=tuple(table[:, s:s + d] for s, d in zip(starts, dims)),
            z=table[:, z_cols], a=table[:, z_cols + 1], r=table[:, z_cols + 2],
        )
    except DataError as exc:  # on a parsed table, Dataset's only errors are bad cells
        raise exc.in_csv(path) from None


def save_csv(dataset: Dataset, path) -> None:
    """Floats as repr, z and a as integers, CRLF line ends (csv.writer's bytes)."""
    columns = []
    for k, x in enumerate(dataset.covariates):
        columns.extend(map(repr, col) for col in x.T.tolist())
        columns.append(map(str, map(int, dataset.z[:, k].tolist())))
        columns.append(map(str, map(int, dataset.a[:, k].tolist())))
        columns.append(map(repr, dataset.r[:, k].tolist()))
    header = ",".join(expected_header(dataset.num_stages, dataset.covariate_dims))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header, *map(",".join, zip(*columns))]) + "\r\n")


def dataset_from_arrays(
    covariates: Sequence[np.ndarray],
    instruments: Sequence[np.ndarray],
    actions: Sequence[np.ndarray],
    rewards: Sequence[np.ndarray],
) -> Dataset:
    """Build a Dataset from per-stage arrays.

    covariates[k] has shape (n, d_{k+1}); instruments/actions/rewards[k] have
    shape (n,). Mostly used by the simulation engine and tests.
    """
    return Dataset(
        covariates=tuple(np.atleast_2d(c) for c in covariates),
        z=np.column_stack(instruments), a=np.column_stack(actions), r=np.column_stack(rewards),
    )
