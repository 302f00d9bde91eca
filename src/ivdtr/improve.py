"""IV-improvement operator: never worse than a baseline policy, possibly better.

The per-stage relative contrast stored here uses the flip-positive convention:

  stage K:  C(h) = lower(h, -a') - upper(h, a')
  stage k:  C(h) = lower_{r+V}(h, -a') - upper_r(h, a') - lower_V(h, a')

where a' is the baseline action at h, lower/upper are partial-identification
interval ends for the subscripted outcome, and V is the next stage's relative
value. A strictly positive contrast means even the worst case of flipping the
baseline action beats its best case, so the improved rule flips; ties keep the
baseline. The relative value propagated backwards is

  V(h) = keep(h) + max(0, C(h)),   keep_K = 0,  keep_k = lower_V(h, a').

A single set of instrument/treatment fits per stage is shared by the three
outcome regressions (reward-only, relative-continuation-only, their sum),
which are bounded separately before the interval ends are combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import Interval, RewardBounds, mp_bounds_matrix
from .data import Dataset
from .dtr_core import Dtr, fit_weighted_tree
from .nuisance import fit_mu_cells, fit_stage_nuisance, is_binary_outcome


def improve_rule_single(L: float, U: float, baseline_action: int) -> int:
    """Single-stage improved action from a contrast interval [L, U].

    +1 when the interval is strictly positive, -1 when strictly negative,
    the baseline action when the interval straddles zero.
    """
    if L > U:
        raise ValueError(f"contrast interval [{L}, {U}] has L > U")
    if L > 0:
        return 1
    if U < 0:
        return -1
    return int(baseline_action)


@dataclass(frozen=True)
class RelativeStageEstimate:
    """Per-sample relative contrast pieces at one stage.

    contrast > 0 means flipping the baseline action is worst-case beneficial.
    """

    stage: int
    baseline_action: np.ndarray   # a'_i
    flip_lower: np.ndarray        # lower end of reward(+continuation) on arm -a'
    baseline_upper: np.ndarray    # upper end of reward-only on arm a'
    keep_lower: np.ndarray        # lower end of continuation-only on arm a' (0 at stage K)
    contrast: np.ndarray          # flip_lower - baseline_upper - keep_lower
    improved_action: np.ndarray   # flip where contrast > 0, else baseline
    relative_value: np.ndarray    # keep_lower + max(0, contrast)
    n_repaired: int
    converged: bool               # the reward nuisance's fits all converged


def _arm_intervals(nuisance, H: np.ndarray, tail: tuple[float, float],
                   baseline_action: np.ndarray) -> tuple[Interval, Interval, int]:
    """Per-row intervals on the baseline arm a' and on the flipped arm -a'."""
    low_p, up_p, rep_p = mp_bounds_matrix(nuisance, H, +1, tail)
    low_n, up_n, rep_n = mp_bounds_matrix(nuisance, H, -1, tail)
    on_pos = baseline_action == 1
    keep = Interval(np.where(on_pos, low_p, low_n), np.where(on_pos, up_p, up_n))
    flip = Interval(np.where(on_pos, low_n, low_p), np.where(on_pos, up_n, up_p))
    return keep, flip, rep_p + rep_n


def relative_contrast_pieces(
    H: np.ndarray,
    baseline_action: np.ndarray,
    reward_nuisance,
    reward_tail: tuple[float, float],
    continuation: Optional[tuple] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """(flip_lower, baseline_upper, keep_lower, contrast, n_repaired) per history row.

    continuation is None at stage K, where the flipped arm is bounded with the
    reward nuisance and keep_lower is zero; otherwise it is
    (sum_nuisance, sum_tail, continuation_nuisance, continuation_tail).
    n_repaired counts repairs on both arms of every nuisance used.
    """
    keep_r, flip_r, n_rep = _arm_intervals(reward_nuisance, H, reward_tail, baseline_action)
    if continuation is None:
        flip_lower, keep_lower = flip_r.lower, np.zeros_like(flip_r.lower)
    else:
        sum_ns, sum_tail, cont_ns, cont_tail = continuation
        _, flip_s, rep_s = _arm_intervals(sum_ns, H, sum_tail, baseline_action)
        keep_c, _, rep_c = _arm_intervals(cont_ns, H, cont_tail, baseline_action)
        flip_lower, keep_lower = flip_s.lower, keep_c.lower
        n_rep += rep_s + rep_c
    contrast = flip_lower - keep_r.upper - keep_lower
    return flip_lower, keep_r.upper, keep_lower, contrast, n_rep


def _contrast_at(h: np.ndarray, baseline_action: int, *nuisance_args) -> float:
    pieces = relative_contrast_pieces(
        np.atleast_2d(h), np.array([int(baseline_action)]), *nuisance_args)
    return float(pieces[3][0])


def relative_contrast_stage_K(nuisance, h: np.ndarray, baseline_action: int,
                              tail: tuple[float, float]) -> float:
    """Final-stage relative contrast at one history (flip-positive sign)."""
    return _contrast_at(h, baseline_action, nuisance, tail)


def relative_contrast_stage_k(
    reward_nuisance,
    sum_nuisance,
    continuation_nuisance,
    h: np.ndarray,
    baseline_action: int,
    reward_tail: tuple[float, float],
    sum_tail: tuple[float, float],
    continuation_tail: tuple[float, float],
) -> float:
    """Generic-stage relative contrast at one history (flip-positive sign).

    With a zero continuation (continuation nuisance bounding the constant 0)
    this reduces exactly to the final-stage formula.
    """
    return _contrast_at(h, baseline_action, reward_nuisance, reward_tail,
                        (sum_nuisance, sum_tail, continuation_nuisance, continuation_tail))


def relative_stage_estimates(
    dataset: Dataset,
    baseline: Dtr,
    reward_bounds: RewardBounds,
    clip: float = 1e-3,
) -> list[RelativeStageEstimate]:
    """Backward pass of the improvement operator over all stages.

    Returns estimates indexed by stage (entry k-1 is stage k).
    """
    K = dataset.num_stages
    if baseline.num_stages != K:
        raise ValueError(
            f"baseline has {baseline.num_stages} stages, dataset has {K}"
        )
    reward_bounds.check(dataset)

    estimates: list[Optional[RelativeStageEstimate]] = [None] * K
    next_relative: Optional[np.ndarray] = None

    for k in range(K, 0, -1):
        H = dataset.histories(k)
        z = dataset.instruments(k)
        a = dataset.actions(k)
        r = dataset.rewards(k)
        reward_tail = reward_bounds.stage(k)
        base_action = baseline.action_matrix(k, H)
        reward_ns = fit_stage_nuisance(
            H, z, a, r, outcome_range=reward_tail,
            binary_outcome=is_binary_outcome(r, reward_tail), clip=clip,
        )

        continuation = None
        if k < K:
            cont_width = reward_bounds.tail_width(k + 1)
            cont_tail = (0.0, cont_width)
            sum_tail = (reward_tail[0], reward_tail[1] + cont_width)
            cont_y = np.clip(next_relative, cont_tail[0], cont_tail[1])
            sum_y = np.clip(r + cont_y, sum_tail[0], sum_tail[1])

            cont_mu, cont_empty = fit_mu_cells(H, z, a, cont_y, cont_tail, binary_outcome=False)
            sum_mu, sum_empty = fit_mu_cells(H, z, a, sum_y, sum_tail, binary_outcome=False)
            continuation = (reward_ns.with_mu(sum_mu, sum_tail, False, sum_empty), sum_tail,
                            reward_ns.with_mu(cont_mu, cont_tail, False, cont_empty), cont_tail)

        flip_lower, baseline_upper, keep_lower, contrast, n_rep = relative_contrast_pieces(
            H, base_action, reward_ns, reward_tail, continuation)
        improved = np.where(contrast > 0, -base_action, base_action).astype(int)
        relative_value = keep_lower + np.maximum(contrast, 0.0)

        estimates[k - 1] = RelativeStageEstimate(
            stage=k,
            baseline_action=base_action.astype(int),
            flip_lower=flip_lower,
            baseline_upper=baseline_upper,
            keep_lower=keep_lower,
            contrast=contrast,
            improved_action=improved,
            relative_value=relative_value,
            n_repaired=n_rep,
            converged=reward_ns.converged,
        )
        next_relative = relative_value

    return list(estimates)


def fit_ivimproved(
    dataset: Dataset,
    baseline: Dtr,
    reward_bounds: RewardBounds,
    depth: int,
    clip: float = 1e-3,
    baseline_id: str = "baseline",
) -> tuple[Dtr, list[RelativeStageEstimate]]:
    """Estimate the IV-improved policy over a baseline, projected onto trees."""
    estimates = relative_stage_estimates(dataset, baseline, reward_bounds, clip=clip)
    stages = tuple(
        fit_weighted_tree(dataset.histories(est.stage), est.improved_action,
                          np.abs(est.contrast), depth)
        for est in estimates
    )
    return Dtr(stages=stages, kind=f"iv_improved({baseline_id})"), estimates
