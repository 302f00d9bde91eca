"""IV-improvement operator: flip a baseline action only where the gain is certified.

The per-stage relative contrast stored here uses the flip-positive convention:

  stage K:  C(h) = lower(h, -a') - upper(h, a')
  stage k:  C(h) = lower_{r+V}(h, -a') - upper_r(h, a') - lower_V(h, a')

where a' is the baseline action at h, lower/upper are partial-identification
interval ends for the subscripted outcome, and V is the next stage's relative
value. A strictly positive contrast means even the worst case of flipping the
baseline action beats its best case, so the improved rule flips; ties keep the
baseline. The depth-limited tree fitted to the improved actions can still
depart from the baseline on rows the rule keeps, so the fitted policy can fall
below the baseline. The relative value propagated backwards is

  V(h) = keep(h) + max(0, C(h)),   keep_K = 0,  keep_k = lower_V(h, a').

The pass reads the stage models (fit_stage_models) as its only data: they
supply each stage's histories, ranges and instrument, treatment and
reward-cell fits. It fits only the cells of the relative continuation and of
the sum; the models fit and bound each distinct outcome vector once, whatever
the baseline. Each of the three outcomes is bounded on both arms on its cells'
outcome_range by StageModels.intervals, and relative_contrast_pieces takes
each end it reads per row on a' or on -a'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dtr_core import Dtr, fit_weighted_tree
from .nuisance import StageModels, fit_stage_nuisance


@dataclass(frozen=True)
class RelativeStageEstimate:
    """Per-sample relative contrast pieces at one stage.

    contrast > 0 means flipping the baseline action is worst-case beneficial.
    """

    stage: int
    baseline_action: np.ndarray   # a'_i
    keep_lower: np.ndarray        # lower end of continuation-only on arm a' (0 at stage K)
    contrast: np.ndarray          # flipped-arm lower end - baseline-arm upper end - keep_lower
    improved_action: np.ndarray   # flip where contrast > 0, else baseline
    relative_value: np.ndarray    # keep_lower + max(0, contrast)
    n_repaired: int
    converged: bool               # the reward nuisance's fits all converged


def relative_contrast_pieces(
    baseline_action: np.ndarray,
    reward: tuple,
    continuation: Optional[tuple] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(keep_lower, contrast, n_repaired) per row of the intervals.

    reward and the continuation's are (plus, minus, n_repaired) as arm_intervals
    returns them. continuation is None at stage K, where the flipped arm is
    bounded with the reward and keep_lower is zero; otherwise it is (sum,
    continuation). n_repaired counts repairs on both arms of every interval used.
    """
    keep = baseline_action == 1
    plus, minus, n_rep = reward
    keep_upper = np.where(keep, plus.upper, minus.upper)
    if continuation is None:
        flip_lower = np.where(keep, minus.lower, plus.lower)
        keep_lower = np.zeros_like(flip_lower)
    else:
        (plus_s, minus_s, rep_s), (plus_c, minus_c, rep_c) = continuation
        flip_lower = np.where(keep, minus_s.lower, plus_s.lower)
        keep_lower = np.where(keep, plus_c.lower, minus_c.lower)
        n_rep += rep_s + rep_c
    return keep_lower, flip_lower - keep_upper - keep_lower, n_rep


def relative_stage_estimates(
    models: Sequence[StageModels],
    baseline: Dtr,
) -> list[RelativeStageEstimate]:
    """Backward pass of the improvement operator over all stages.

    models are fit_stage_models(dataset, reward_bounds); the returned
    estimates are in the same order (entry k-1 is stage k).
    """
    K = len(models)
    if baseline.num_stages != K:
        raise ValueError(
            f"baseline has {baseline.num_stages} stages, dataset has {K}"
        )

    estimates: list[Optional[RelativeStageEstimate]] = [None] * K
    next_relative: Optional[np.ndarray] = None

    for k in range(K, 0, -1):
        stage = models[k - 1]
        base_action = baseline.action_matrix(k, stage.H)

        continuation = None
        if k < K:
            next_tail = models[k].tail
            cont_width = next_tail[1] - next_tail[0]
            cont_tail = (0.0, cont_width)
            sum_tail = (stage.reward_range[0], stage.reward_range[1] + cont_width)
            cont_y = np.clip(next_relative, cont_tail[0], cont_tail[1])
            sum_y = np.clip(stage.r + cont_y, sum_tail[0], sum_tail[1])

            cont_ns = fit_stage_nuisance(stage, cont_y, cont_tail, False)
            sum_ns = fit_stage_nuisance(stage, sum_y, sum_tail, False)
            continuation = (stage.intervals(sum_ns), stage.intervals(cont_ns))

        keep_lower, contrast, n_rep = relative_contrast_pieces(
            base_action, stage.intervals(stage.reward), continuation)
        improved = np.where(contrast > 0, -base_action, base_action).astype(int)
        relative_value = keep_lower + np.maximum(contrast, 0.0)

        estimates[k - 1] = RelativeStageEstimate(
            stage=k,
            baseline_action=base_action.astype(int),
            keep_lower=keep_lower,
            contrast=contrast,
            improved_action=improved,
            relative_value=relative_value,
            n_repaired=n_rep,
            converged=stage.reward.converged,
        )
        next_relative = relative_value

    return list(estimates)


def fit_ivimproved(
    models: Sequence[StageModels],
    baseline: Dtr,
    depth: int,
    baseline_id: str = "baseline",
) -> tuple[Dtr, list[RelativeStageEstimate]]:
    """Estimate the IV-improved policy over a baseline, projected onto trees."""
    estimates = relative_stage_estimates(models, baseline)
    stages = tuple(
        fit_weighted_tree(models[est.stage - 1].H, est.improved_action,
                          np.abs(est.contrast), depth, order=models[est.stage - 1].order)
        for est in estimates
    )
    return Dtr(stages=stages, kind=f"iv_improved({baseline_id})"), estimates
