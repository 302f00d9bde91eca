"""Cross-fitting: out-of-batch purity of crossfit_stage_contrasts and of the
shipped pipeline, batch-size limits, determinism."""

import dataclasses

import numpy as np
import pytest
from synth import random_two_stage_dataset

import ivdtr.crossfit
from ivdtr.bounds import RewardBounds, WeightSpec
from ivdtr.crossfit import (
    crossfit_stage_contrasts,
    fit_ivoptimal_crossfit,
    ivoptimal_contrast_fitter,
)
from ivdtr.data import BatchAssignment, Dataset, StageObservation, Trajectory, assign_batches
from ivdtr.dtr_core import backward_induct, dtr_to_json, project_policy

BOUNDS2 = RewardBounds(lows=(0.0, 0.0), highs=(1.0, 1.0))
LAM = WeightSpec.minmax()


def scramble_batch(dataset: Dataset, members, rng) -> Dataset:
    """Replace every field of the given trajectories with arbitrary junk."""
    members = set(int(i) for i in members)
    trajectories = []
    for i, traj in enumerate(dataset.trajectories):
        if i not in members:
            trajectories.append(traj)
            continue
        stages = []
        for obs in traj.stages:
            stages.append(
                StageObservation(
                    covariates=rng.normal(size=obs.covariates.shape),
                    instrument=int(rng.choice([-1, 1])),
                    action=int(rng.choice([-1, 1])),
                    reward=float(rng.random()),
                )
            )
        trajectories.append(Trajectory(stages=tuple(stages)))
    return Dataset(trajectories=tuple(trajectories), num_stages=dataset.num_stages,
                   covariate_dims=dataset.covariate_dims)


def scramble_history_free_fields(dataset: Dataset, members, rng) -> Dataset:
    """Redraw z1, z2, a2 and r2 of the given two-stage trajectories.

    No history vector contains these fields, so every sample keeps its stage-1
    and stage-2 histories while its batch's outcome data change.
    """
    members = set(int(i) for i in members)
    trajectories = []
    for i, traj in enumerate(dataset.trajectories):
        if i in members:
            first, second = traj.stages
            traj = Trajectory(stages=(
                dataclasses.replace(first, instrument=int(rng.choice([-1, 1]))),
                dataclasses.replace(second, instrument=int(rng.choice([-1, 1])),
                                    action=int(rng.choice([-1, 1])),
                                    reward=float(rng.integers(0, 2))),
            ))
        trajectories.append(traj)
    return Dataset(trajectories=tuple(trajectories), num_stages=dataset.num_stages,
                   covariate_dims=dataset.covariate_dims)


class TestCrossfitStageContrasts:
    def test_own_batch_perturbation_changes_nothing(self):
        # the models behind batch j's contrasts never saw batch j: scrambling
        # batch j and refitting leaves its out-of-batch contrasts bit-identical
        rng = np.random.default_rng(0)
        ds = random_two_stage_dataset(rng, n=120)
        batches = BatchAssignment(batch_index=np.arange(120) % 2, m=2)
        fit_fn = ivoptimal_contrast_fitter(BOUNDS2, LAM)
        base = crossfit_stage_contrasts(ds, batches, fit_fn)
        for j in (0, 1):
            held = batches.members(j)
            scrambled = scramble_batch(ds, held, rng)
            refit = fit_fn(scrambled.subset(batches.complement(j)))
            held_set = ds.subset(held)
            for k in (1, 2):
                np.testing.assert_array_equal(
                    base.contrasts[k - 1][held], refit(k, held_set.histories(k)))

    def test_identical_halves_match_in_sample(self):
        rng = np.random.default_rng(1)
        half = random_two_stage_dataset(rng, n=100)
        doubled = Dataset(
            trajectories=half.trajectories + half.trajectories,
            num_stages=2, covariate_dims=half.covariate_dims)
        batches = BatchAssignment(
            batch_index=np.concatenate([np.zeros(100, int), np.ones(100, int)]), m=2)
        cf = crossfit_stage_contrasts(doubled, batches,
                                      ivoptimal_contrast_fitter(BOUNDS2, LAM))
        estimates, _ = backward_induct(half, BOUNDS2, LAM)
        for k in (1, 2):
            np.testing.assert_allclose(
                cf.contrasts[k - 1][:100], estimates[k - 1].contrast, atol=1e-9)
            np.testing.assert_allclose(
                cf.contrasts[k - 1][100:], estimates[k - 1].contrast, atol=1e-9)

    def test_single_batch_rejected(self):
        ds = random_two_stage_dataset(np.random.default_rng(2), n=40)
        batches = BatchAssignment(batch_index=np.zeros(40, int), m=1)
        with pytest.raises(ValueError, match="at least 2"):
            crossfit_stage_contrasts(ds, batches, ivoptimal_contrast_fitter(BOUNDS2, LAM))


class TestFitIvoptimalCrossfit:
    def test_deterministic_under_seed(self):
        ds = random_two_stage_dataset(np.random.default_rng(3), n=120)
        one = fit_ivoptimal_crossfit(ds, BOUNDS2, LAM, depth=2, m=2, seed=5)
        two = fit_ivoptimal_crossfit(ds, BOUNDS2, LAM, depth=2, m=2, seed=5)
        assert dtr_to_json(one) == dtr_to_json(two)

    @pytest.mark.parametrize("m", [2, 3])
    def test_own_batch_outcomes_leave_its_tree_inputs_unchanged(self, monkeypatch, m):
        # the labels and weights the shipped pipeline hands to the tree fitter
        # for batch j must not depend on batch j's data
        received = []
        fit_tree = ivdtr.crossfit.fit_weighted_tree

        def spy(features, labels, weights, depth, **kwargs):
            received.append((np.array(labels), np.array(weights)))
            return fit_tree(features, labels, weights, depth, **kwargs)

        monkeypatch.setattr(ivdtr.crossfit, "fit_weighted_tree", spy)

        def tree_inputs(data):
            received.clear()
            fit_ivoptimal_crossfit(data, BOUNDS2, LAM, depth=2, m=m, seed=11)
            assert len(received) == 2
            return list(received)

        rng = np.random.default_rng(10)
        ds = random_two_stage_dataset(rng, n=120)
        base = tree_inputs(ds)
        batches = assign_batches(ds.n, m, np.random.default_rng(11))
        for j in range(m):
            held = batches.members(j)
            moved = tree_inputs(scramble_history_free_fields(ds, held, rng))
            for k, ((labels0, weights0), (labels1, weights1)) in enumerate(
                    zip(base, moved), start=1):
                np.testing.assert_array_equal(
                    labels1[held], labels0[held], err_msg=f"stage {k} labels, batch {j}")
                np.testing.assert_array_equal(
                    weights1[held], weights0[held], err_msg=f"stage {k} weights, batch {j}")

    def test_fewer_than_two_batches_rejected(self):
        ds = random_two_stage_dataset(np.random.default_rng(4), n=150)
        with pytest.raises(ValueError, match=">= 2"):
            fit_ivoptimal_crossfit(ds, BOUNDS2, LAM, depth=2, m=1, seed=0)

    def test_small_batches_rejected(self):
        ds = random_two_stage_dataset(np.random.default_rng(5), n=30)
        with pytest.raises(ValueError, match="below"):
            fit_ivoptimal_crossfit(ds, BOUNDS2, LAM, depth=2, m=5, seed=0)

    def test_crossfit_policy_close_to_plain_in_value(self):
        # paired comparison on the simulation process: same training data,
        # same evaluation draw; the two pipelines should land within noise
        from ivdtr.sim import SimConfig, generate, true_value

        cfg = SimConfig(c1=4.0, xi=1.0)
        rng = np.random.default_rng(6)
        ds, _ = generate(cfg, 500, rng)
        plain_estimates, _ = backward_induct(ds, BOUNDS2, LAM)
        plain = project_policy(plain_estimates, ds, depth=2, lam=LAM)
        crossed = fit_ivoptimal_crossfit(ds, BOUNDS2, LAM, depth=2, m=5, seed=1)
        eval_rng = np.random.default_rng(7)
        x = eval_rng.uniform(-1, 1, size=(40000, 2))
        v_plain = true_value(plain, cfg, 40000, eval_rng, x=x).normalized_value
        v_cross = true_value(crossed, cfg, 40000, eval_rng, x=x).normalized_value
        assert abs(v_plain - v_cross) < 0.06
