"""The IV-optimal fit, plain or with cross-fitted classification weights.

With cross-fitting, each sample's classification weight is a contrast
estimated with models that never saw the sample's own batch (Chernozhukov et
al., 2018, "Double/debiased machine learning"). For every batch the whole
backward induction, value propagation included, runs on the batch complement;
the fitted stage rules then score the held-out batch's histories.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .bounds import RewardBounds, WeightSpec
from .data import BatchAssignment, Dataset, assign_batches
from .dtr_core import Dtr, StageQEstimate, backward_induct, fit_weighted_tree, project_policy
from .dtr_core import sign_with_tie
from .nuisance import StageModels

MIN_BATCH_SIZE = 10


def crossfit_stage_contrasts(
    dataset: Dataset,
    batches: BatchAssignment,
    reward_bounds: RewardBounds,
    lam: WeightSpec,
) -> tuple[tuple[np.ndarray, ...], list[StageQEstimate]]:
    """Per-stage contrasts (entry k-1: (n,) at stage k), a sample's from a
    backward induction on its batch's complement, and those m inductions'
    stage estimates."""
    if batches.m < 2:
        raise ValueError("cross-fitting needs at least 2 batches")
    out = [np.zeros(dataset.n) for _ in range(dataset.num_stages)]
    fits: list[StageQEstimate] = []
    for j in range(batches.m):
        held = batches.members(j)
        estimates, rule = backward_induct(dataset.subset(batches.complement(j)), reward_bounds, lam)
        fits += estimates
        held_set = dataset.subset(held)
        for k, contrast in enumerate(out, start=1):
            contrast[held] = rule.stages[k - 1].contrast(held_set.histories(k))
    return tuple(out), fits


def fit_ivoptimal_crossfit(
    dataset: Dataset,
    reward_bounds: RewardBounds,
    lam: WeightSpec,
    depth: int,
    m: int,
    seed: int,
    models: Optional[Sequence[StageModels]] = None,
) -> tuple[Dtr, list[StageQEstimate]]:
    """The IV-optimal policy and the stage estimates of the fits behind it.

    m of 0 or 1 projects one full-sample backward induction (on the given
    stage models, if any) onto trees. m >= 2 splits the samples into m seeded
    batches of at least MIN_BATCH_SIZE and fits each stage's tree to the
    signs and magnitudes of contrasts from backward inductions run wholly on
    the batch complements, so no sample's label or weight depends on its own
    batch's data; the estimates are then those m inductions' stages.
    """
    if m < 0:
        raise ValueError(f"crossfit must be >= 0, got {m}")
    if m < 2:
        estimates, _ = backward_induct(dataset, reward_bounds, lam, models=models)
        return project_policy(estimates, dataset, depth, lam=lam), estimates
    batches = assign_batches(dataset.n, m, np.random.default_rng(seed))
    if dataset.n // m < MIN_BATCH_SIZE:
        raise ValueError(
            f"cross-fitting with m={m} leaves batches below {MIN_BATCH_SIZE} samples"
        )
    contrasts, estimates = crossfit_stage_contrasts(dataset, batches, reward_bounds, lam)
    stages = tuple(
        fit_weighted_tree(dataset.histories(k), sign_with_tie(contrast), np.abs(contrast), depth)
        for k, contrast in enumerate(contrasts, start=1)
    )
    return Dtr(stages=stages, kind="iv_optimal", lam=lam), estimates
