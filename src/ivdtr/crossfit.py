"""Cross-fitted contrasts for the weighted-classification step.

Each sample's classification weight is a contrast estimated with models that
never saw the sample's own batch (Chernozhukov et al., 2018, "Double/debiased
machine learning"). For every batch the whole backward induction, value
propagation included, runs on the batch complement; the fitted stage
evaluators then score the held-out batch's histories. crossfit_stage_contrasts
is agnostic to what the per-batch fitting procedure returns, as long as it can
evaluate contrasts on held-out histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import RewardBounds, WeightSpec
from .data import BatchAssignment, Dataset, assign_batches
from .dtr_core import Dtr, backward_induct, fit_weighted_tree, sign_with_tie

MIN_BATCH_SIZE = 10


@dataclass(frozen=True)
class CrossfitContrasts:
    """Per-sample, per-stage contrasts fitted without the sample's own batch."""

    contrasts: tuple[np.ndarray, ...]   # entry k-1: (n,) stage-k contrasts
    batches: BatchAssignment


def crossfit_stage_contrasts(
    dataset: Dataset,
    batches: BatchAssignment,
    fit_fn: Callable[[Dataset], Callable[[int, np.ndarray], np.ndarray]],
) -> CrossfitContrasts:
    """Fit on each batch complement, evaluate contrasts on the held-out batch.

    fit_fn(train_subset) must return evaluate(stage, histories) -> contrasts.
    The training subset never contains held-out trajectories, so the returned
    contrasts are out-of-batch by construction.
    """
    if batches.m < 2:
        raise ValueError("cross-fitting needs at least 2 batches")
    K = dataset.num_stages
    n = dataset.n
    out = [np.zeros(n) for _ in range(K)]
    for j in range(batches.m):
        held = batches.members(j)
        train = dataset.subset(batches.complement(j))
        evaluate = fit_fn(train)
        held_set = dataset.subset(held)
        for k in range(1, K + 1):
            out[k - 1][held] = evaluate(k, held_set.histories(k))
    return CrossfitContrasts(contrasts=tuple(out), batches=batches)


def ivoptimal_contrast_fitter(
    reward_bounds: RewardBounds,
    lam: WeightSpec,
    clip: float = 1e-3,
) -> Callable[[Dataset], Callable[[int, np.ndarray], np.ndarray]]:
    """fit_fn running the full backward induction on the training subset."""

    def fit(train: Dataset):
        estimates, _ = backward_induct(train, reward_bounds, lam, clip=clip)

        def evaluate(k: int, histories: np.ndarray) -> np.ndarray:
            return estimates[k - 1].evaluator.contrast(histories)

        return evaluate

    return fit


def fit_ivoptimal_crossfit(
    dataset: Dataset,
    reward_bounds: RewardBounds,
    lam: WeightSpec,
    depth: int,
    m: int,
    seed: int,
    clip: float = 1e-3,
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
    cf = crossfit_stage_contrasts(
        dataset, batches, ivoptimal_contrast_fitter(reward_bounds, lam, clip=clip)
    )
    stages = tuple(
        fit_weighted_tree(dataset.histories(k), sign_with_tie(contrast), np.abs(contrast), depth)
        for k, contrast in enumerate(cf.contrasts, start=1)
    )
    return Dtr(stages=stages, kind="iv_optimal", lam=lam)
