"""Cross-fitted contrasts for the weighted-classification step.

Each sample's classification weight is a contrast estimated with models that
never saw the sample's own batch (Chernozhukov et al., 2018, "Double/debiased
machine learning"). For every batch the whole backward induction, value
propagation included, runs on the batch complement; the fitted stage rules
then score the held-out batch's histories.
"""

from __future__ import annotations

import numpy as np

from .bounds import RewardBounds, WeightSpec
from .data import BatchAssignment, Dataset, assign_batches
from .dtr_core import Dtr, backward_induct, fit_weighted_tree, sign_with_tie

MIN_BATCH_SIZE = 10


def crossfit_stage_contrasts(
    dataset: Dataset,
    batches: BatchAssignment,
    reward_bounds: RewardBounds,
    lam: WeightSpec,
) -> tuple[np.ndarray, ...]:
    """Per-stage contrasts (entry k-1: (n,) at stage k); a sample's come from
    a backward induction on the complement of its own batch."""
    if batches.m < 2:
        raise ValueError("cross-fitting needs at least 2 batches")
    out = [np.zeros(dataset.n) for _ in range(dataset.num_stages)]
    for j in range(batches.m):
        held = batches.members(j)
        _, rule = backward_induct(dataset.subset(batches.complement(j)), reward_bounds, lam)
        held_set = dataset.subset(held)
        for k, contrast in enumerate(out, start=1):
            contrast[held] = rule.stages[k - 1].contrast(held_set.histories(k))
    return tuple(out)


def fit_ivoptimal_crossfit(
    dataset: Dataset,
    reward_bounds: RewardBounds,
    lam: WeightSpec,
    depth: int,
    m: int,
    seed: int,
) -> Dtr:
    """IV-optimal pipeline with cross-fitted classification weights.

    The samples are split into m >= 2 seeded batches of at least
    MIN_BATCH_SIZE. Each stage's tree is fit to the signs and magnitudes of
    contrasts from backward inductions run wholly on the batch complements,
    so no sample's label or weight depends on its own batch's data.
    """
    batches = assign_batches(dataset.n, m, np.random.default_rng(seed))
    if dataset.n // m < MIN_BATCH_SIZE:
        raise ValueError(
            f"cross-fitting with m={m} leaves batches below {MIN_BATCH_SIZE} samples"
        )
    contrasts = crossfit_stage_contrasts(dataset, batches, reward_bounds, lam)
    stages = tuple(
        fit_weighted_tree(dataset.histories(k), sign_with_tie(contrast), np.abs(contrast), depth)
        for k, contrast in enumerate(contrasts, start=1)
    )
    return Dtr(stages=stages, kind="iv_optimal", lam=lam)
