"""Partial-identification intervals for conditional mean (pseudo-)outcomes.

For a bounded outcome Y in [C_low, C_high] and a binary instrument coded so
that z=+1 is the encouragement arm, the interval for E[Y(a)|h] is

  lower = P(Z=-1|h) * psi(h,a,-1;C_low)
          + P(Z=+1|h) * max{psi(h,a,-1;C_low), psi(h,a,+1;C_low)}
  upper = P(Z=-1|h) * min{psi(h,a,-1;C_high), psi(h,a,+1;C_high)}
          + P(Z=+1|h) * psi(h,a,+1;C_high)

with psi(h,a,z;C) = C * P(A=-a|Z=z,h) + E[Y|h,z,a] * P(A=a|Z=z,h).

With estimated nuisances the two ends can cross in finite samples; intervals
are repaired by clipping to [C_low, C_high] and collapsing residual crossings
to the midpoint, with a diagnostic count.

mp_bounds_matrix is this formula on arrays of the conditional quantities alone,
with the arm a free to differ by row; arm_intervals bounds both arms on such
arrays, and each reader picks the ends it uses. Neither makes a model call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import DataError


class Interval(NamedTuple):
    lower: float
    upper: float


@dataclass(frozen=True)
class RewardBounds:
    """Per-stage reward ranges [C_low_k, C_high_k] and their tail sums."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lows", tuple(float(v) for v in self.lows))
        object.__setattr__(self, "highs", tuple(float(v) for v in self.highs))
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        for lo, hi in zip(self.lows, self.highs):
            if not np.isfinite([lo, hi]).all():
                raise ValueError(f"reward bound [{lo}, {hi}] is not finite")
            if lo > hi:
                raise ValueError(f"reward bound [{lo}, {hi}] has lower > upper")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "RewardBounds":
        return cls(lows=tuple(p[0] for p in pairs), highs=tuple(p[1] for p in pairs))

    @property
    def num_stages(self) -> int:
        return len(self.lows)

    def stage(self, k: int) -> tuple[float, float]:
        return self.lows[k - 1], self.highs[k - 1]

    def tail(self, k: int) -> tuple[float, float]:
        """(sum_{t>=k} C_low_t, sum_{t>=k} C_high_t)."""
        return sum(self.lows[k - 1:]), sum(self.highs[k - 1:])

    def check(self, dataset) -> None:
        """Raise DataError unless there is one pair per stage of the dataset and
        every stage-k reward lies in [low_k, high_k]; names the first bad row of
        the latest failing stage."""
        if self.num_stages != dataset.num_stages:
            raise DataError("reward_bounds must declare one [low, high] pair per stage")
        for k in range(self.num_stages, 0, -1):
            rewards = dataset.rewards(k)
            lo, hi = self.stage(k)
            bad = (rewards < lo - 1e-9) | (rewards > hi + 1e-9)
            if np.any(bad):
                raise DataError(f"stage {k} reward outside declared bounds [{lo}, {hi}]",
                                row=int(np.flatnonzero(bad)[0]) + 1)


@dataclass(frozen=True)
class WeightSpec:
    """Per-stage weights on the interval's lower end; 1 = worst-case."""

    values: tuple[float, ...] | float

    def __post_init__(self):
        vals = self.values
        if isinstance(vals, (int, float)):
            vals = float(vals)
            _check_unit(vals)
        else:
            vals = tuple(float(v) for v in vals)
            for v in vals:
                _check_unit(v)
        object.__setattr__(self, "values", vals)

    def at(self, k: int) -> float:
        if isinstance(self.values, float):
            return self.values
        if not 1 <= k <= len(self.values):
            raise ValueError(f"no weight declared for stage {k}")
        return self.values[k - 1]

    @classmethod
    def worst(cls) -> "WeightSpec":
        return cls(1.0)

    @classmethod
    def best(cls) -> "WeightSpec":
        return cls(0.0)

    @classmethod
    def minmax(cls) -> "WeightSpec":
        return cls(0.5)


def _check_unit(v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"lambda out of range [0, 1]: {v}")


def parse_weight_spec(text: str, num_stages: int) -> WeightSpec:
    """Parse 'w' | 'b' | 'm' | a bare float | 'const:STAGE:VALUE[,...]'."""
    named = {"w": WeightSpec.worst, "b": WeightSpec.best, "m": WeightSpec.minmax}
    text = text.strip()
    if text in named:
        return named[text]()
    if text.startswith("const:"):
        values: dict[int, float] = {}
        for part in text.split(","):
            fields = part.strip().split(":")
            try:
                if len(fields) != 3 or fields[0] != "const":
                    raise ValueError(part)
                stage, value = int(fields[1]), float(fields[2])
            except ValueError:
                raise ValueError(f"cannot parse lambda spec '{text}'") from None
            if not 1 <= stage <= num_stages:
                raise ValueError(f"lambda spec stage {stage} out of range 1..{num_stages}")
            if stage in values:
                raise ValueError(f"lambda spec names stage {stage} twice")
            values[stage] = value
        return WeightSpec(tuple(values.get(k, 0.5) for k in range(1, num_stages + 1)))
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse lambda spec '{text}'") from None
    return WeightSpec(value)


# ------------------------------ bounds ------------------------------


def mp_bounds_matrix(
    pz_pos: np.ndarray,
    p_a: tuple[np.ndarray, np.ndarray],
    mu: tuple[np.ndarray, np.ndarray],
    tail: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized interval ends for an arm a that may differ by row.

    pz_pos is P(Z=+1|h), p_a is (P(A=a|h,Z=-1), P(A=a|h,Z=+1)) and mu is
    (E[Y|h,Z=-1,A=a], E[Y|h,Z=+1,A=a]). Returns (lower, upper, n_repaired).
    """
    c_low, c_high = float(tail[0]), float(tail[1])
    if c_low > c_high:
        raise ValueError(f"tail bounds [{c_low}, {c_high}] crossed")
    p_a_zneg, p_a_zpos = p_a
    mu_zneg, mu_zpos = mu
    pz_neg = 1.0 - pz_pos

    psi_neg_low = c_low * (1.0 - p_a_zneg) + mu_zneg * p_a_zneg
    psi_pos_low = c_low * (1.0 - p_a_zpos) + mu_zpos * p_a_zpos
    psi_neg_high = c_high * (1.0 - p_a_zneg) + mu_zneg * p_a_zneg
    psi_pos_high = c_high * (1.0 - p_a_zpos) + mu_zpos * p_a_zpos

    lower = pz_neg * psi_neg_low + pz_pos * np.maximum(psi_neg_low, psi_pos_low)
    upper = pz_neg * np.minimum(psi_neg_high, psi_pos_high) + pz_pos * psi_pos_high

    lower = np.clip(lower, c_low, c_high)
    upper = np.clip(upper, c_low, c_high)
    crossed = lower > upper
    n_repaired = int(np.count_nonzero(crossed))
    if n_repaired:
        mid = 0.5 * (lower[crossed] + upper[crossed])  # np.clip's arrays are fresh
        lower[crossed] = mid
        upper[crossed] = mid
    return lower, upper, n_repaired


def arm_intervals(pz_pos: np.ndarray, pa_pos: Sequence[np.ndarray], mu: dict,
                  outcome_range: tuple[float, float]) -> tuple[Interval, Interval, int]:
    """Per-row intervals on arm +1 and on arm -1 over outcome_range, and the
    total repair count of both. pz_pos is P(Z=+1|h), pa_pos is
    [P(A=+1|h,Z=-1), P(A=+1|h,Z=+1)] and mu[(z, a)] is E[Y|h,Z=z,A=a], all at
    the same rows."""
    bounded = [mp_bounds_matrix(pz_pos, tuple(p if a == 1 else 1.0 - p for p in pa_pos),
                                tuple(mu[(z, a)] for z in (-1, 1)), outcome_range)
               for a in (1, -1)]
    plus, minus = (Interval(lower, upper) for lower, upper, _ in bounded)
    return plus, minus, bounded[0][2] + bounded[1][2]


def weighted_q(interval: Interval, lam: float):
    """lam * lower + (1 - lam) * upper; the ends may be scalars or arrays."""
    _check_unit(lam)
    return lam * interval.lower + (1.0 - lam) * interval.upper
