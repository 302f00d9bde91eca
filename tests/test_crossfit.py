"""Cross-fitting: out-of-batch purity of crossfit_stage_contrasts and of the
shipped pipeline, batch-size limits, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import random_two_stage_dataset, reference_crossfit_stage_contrasts

import ivdtr.crossfit
from ivdtr.bounds import RewardBounds, WeightSpec
from ivdtr.crossfit import crossfit_stage_contrasts, fit_ivoptimal_crossfit
from ivdtr.data import Dataset, assign_batches, dataset_from_arrays
from ivdtr.dtr_core import (Dtr, backward_induct, constant_dtr, dtr_to_json, fit_weighted_tree,
                            sign_with_tie)
from ivdtr.improve import relative_stage_estimates
from ivdtr.nuisance import fit_stage_models

BOUNDS2 = RewardBounds(lows=(0.0, 0.0), highs=(1.0, 1.0))
LAM = WeightSpec.minmax()


def scramble_batch(dataset: Dataset, members, rng) -> Dataset:
    """Replace every field of the given trajectories with arbitrary junk."""
    idx = np.asarray(members, dtype=int)
    covariates = tuple(c.copy() for c in dataset.covariates)
    for c in covariates:
        c[idx] = rng.normal(size=(len(idx), c.shape[1]))
    z, a, r = dataset.z.copy(), dataset.a.copy(), dataset.r.copy()
    z[idx] = rng.choice([-1.0, 1.0], size=(len(idx), dataset.num_stages))
    a[idx] = rng.choice([-1.0, 1.0], size=(len(idx), dataset.num_stages))
    r[idx] = rng.random(size=(len(idx), dataset.num_stages))
    return dataclasses.replace(dataset, covariates=covariates, z=z, a=a, r=r)


def scramble_history_free_fields(dataset: Dataset, members, rng) -> Dataset:
    """Redraw z1, z2, a2 and r2 of the given two-stage trajectories.

    No history vector contains these fields, so every sample keeps its stage-1
    and stage-2 histories while its batch's outcome data change.
    """
    idx = np.asarray(members, dtype=int)
    z, a, r = dataset.z.copy(), dataset.a.copy(), dataset.r.copy()
    z[idx] = rng.choice([-1.0, 1.0], size=(len(idx), 2))
    a[idx, 1] = rng.choice([-1.0, 1.0], size=len(idx))
    r[idx, 1] = rng.integers(0, 2, size=len(idx))
    return dataclasses.replace(dataset, z=z, a=a, r=r)


class TestCrossfitStageContrasts:
    def test_own_batch_perturbation_changes_nothing(self):
        # the models behind batch j's contrasts never saw batch j: scrambling
        # batch j and refitting leaves its out-of-batch contrasts bit-identical
        rng = np.random.default_rng(0)
        ds = random_two_stage_dataset(rng, n=120)
        batch = np.arange(120) % 2
        base, _ = crossfit_stage_contrasts(fit_stage_models(ds, BOUNDS2), batch, LAM)
        for j in (0, 1):
            held = np.flatnonzero(batch == j)
            scrambled = scramble_batch(ds, held, rng)
            complement = fit_stage_models(scrambled.subset(np.flatnonzero(batch != j)), BOUNDS2)
            refit = backward_induct(complement, LAM)
            held_set = ds.subset(held)
            for k in (1, 2):
                np.testing.assert_array_equal(
                    base[k - 1][held], refit[k - 1].contrast_at(held_set.histories(k)))

    def test_identical_halves_match_in_sample(self):
        rng = np.random.default_rng(1)
        half = random_two_stage_dataset(rng, n=100)
        doubled = half.subset(np.tile(np.arange(100), 2))
        batch = np.concatenate([np.zeros(100, int), np.ones(100, int)])
        cf, fits = crossfit_stage_contrasts(fit_stage_models(doubled, BOUNDS2), batch, LAM)
        estimates = backward_induct(fit_stage_models(half, BOUNDS2), LAM)
        for k in (1, 2):
            np.testing.assert_allclose(cf[k - 1][:100], estimates[k - 1].contrast, atol=1e-9)
            np.testing.assert_allclose(cf[k - 1][100:], estimates[k - 1].contrast, atol=1e-9)
        # the complement inductions' stage estimates come back, K per batch
        assert [est.stage for est in fits] == [1, 2, 1, 2]
        for est in fits:
            np.testing.assert_allclose(est.contrast, estimates[est.stage - 1].contrast,
                                       atol=1e-9)

    def test_complement_starts_with_an_empty_memo(self):
        # after the full-sample models have fitted and bounded every outcome
        # of a lambda pass and an improvement pass, a complement made the way
        # crossfit_stage_contrasts makes one carries none of it
        ds = random_two_stage_dataset(np.random.default_rng(5), n=120)
        models = fit_stage_models(ds, BOUNDS2)
        backward_induct(models, LAM)
        relative_stage_estimates(models, constant_dtr(-1, 2))
        rows = np.arange(ds.n) % 3 != 0
        for stage in models:
            assert stage._memo
            complement = dataclasses.replace(stage, H=stage.H[rows], z=stage.z[rows],
                                             a=stage.a[rows], r=stage.r[rows])
            assert complement._memo == {}
            assert not {"pz", "pa", "reward"} & set(vars(complement))
            assert complement.reward.pz is not stage.reward.pz

    def test_single_batch_rejected(self):
        ds = random_two_stage_dataset(np.random.default_rng(2), n=40)
        with pytest.raises(ValueError, match="at least 2"):
            crossfit_stage_contrasts(fit_stage_models(ds, BOUNDS2), np.zeros(40, int), LAM)

    def test_label_outside_the_batches_rejected(self):
        # rows labelled -1 would never be held out, so they would keep contrast 0
        ds = random_two_stage_dataset(np.random.default_rng(2), n=60)
        with pytest.raises(ValueError, match=r"batch label -1 lies outside 0\.\.1"):
            crossfit_stage_contrasts(fit_stage_models(ds, BOUNDS2), np.arange(60) % 3 - 1, LAM)

    def test_empty_batch_rejected(self):
        # labels {0, 2}: batch 1's complement would be the whole sample
        ds = random_two_stage_dataset(np.random.default_rng(2), n=60)
        with pytest.raises(ValueError, match=r"batch label 1 of 0\.\.2 has no samples"):
            crossfit_stage_contrasts(fit_stage_models(ds, BOUNDS2), 2 * (np.arange(60) % 2),
                                     LAM)

    @pytest.mark.parametrize("labels", [200, 400])
    def test_batch_of_another_length_rejected(self, labels):
        # too short would leave the last rows unscored; too long would index past them
        models = fit_stage_models(random_two_stage_dataset(np.random.default_rng(2), n=300),
                                  BOUNDS2)
        batch = np.arange(labels) % 2
        with pytest.raises(ValueError, match=f"batch has {labels} labels for 300 samples"):
            crossfit_stage_contrasts(models, batch, LAM)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_selection_matches_the_mask_reference(self, data):
        # complements and held-out batches are selected by index and cells by
        # compress; boolean masks must give the same bytes, so the same fits
        K, m = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        n = data.draw(st.integers(4 * m, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # one-valued instruments leave a z-arm empty; a = z leaves the (z, -z) cells empty
        arms = st.sampled_from([(-1.0, 1.0), (-1.0,), (1.0,)])
        z = [rng.choice(data.draw(arms), size=n) for _ in range(K)]
        a = [z_k.copy() if data.draw(st.booleans()) else rng.choice(data.draw(arms), size=n)
             for z_k in z]
        r = [rng.integers(0, 2, size=n).astype(float) if data.draw(st.booleans())
             else rng.random(n) for _ in range(K)]
        covariates = [rng.normal(size=(n, data.draw(st.integers(0, 2)))) for _ in range(K)]
        models = fit_stage_models(dataset_from_arrays(covariates, z, a, r),
                                  RewardBounds(lows=(0.0,) * K, highs=(1.0,) * K))
        batch = assign_batches(n, m, rng)
        lam = data.draw(st.sampled_from([LAM, WeightSpec.best(), WeightSpec.worst()]))
        contrasts, fits = crossfit_stage_contrasts(models, batch, lam)
        expected, expected_fits = reference_crossfit_stage_contrasts(models, batch, lam)
        for got, want in zip(contrasts, expected, strict=True):
            np.testing.assert_array_equal(got, want)
        assert [est.stage for est in fits] == [est.stage for est in expected_fits]
        for got, want in zip(fits, expected_fits):
            np.testing.assert_array_equal(got.contrast, want.contrast)
            np.testing.assert_array_equal(got.widths, want.widths)
            assert got.n_repaired == want.n_repaired
        for stage in models:
            for (z0, a0), (rows, H_rows) in stage.cells.items():
                mask = (stage.z == z0) & (stage.a == a0)
                np.testing.assert_array_equal(rows, mask)
                assert H_rows.shape == stage.H[mask].shape
                np.testing.assert_array_equal(H_rows, stage.H[mask])


class TestFitIvoptimalCrossfit:
    def test_deterministic_under_seed(self):
        ds = random_two_stage_dataset(np.random.default_rng(3), n=120)
        one, _ = fit_ivoptimal_crossfit(fit_stage_models(ds, BOUNDS2), LAM, depth=2, m=2, seed=5)
        two, _ = fit_ivoptimal_crossfit(fit_stage_models(ds, BOUNDS2), LAM, depth=2, m=2, seed=5)
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
            fit_ivoptimal_crossfit(fit_stage_models(data, BOUNDS2), LAM, depth=2, m=m, seed=11)
            assert len(received) == 2
            return list(received)

        rng = np.random.default_rng(10)
        ds = random_two_stage_dataset(rng, n=120)
        base = tree_inputs(ds)
        batch = assign_batches(ds.n, m, np.random.default_rng(11))
        for j in range(m):
            held = np.flatnonzero(batch == j)
            moved = tree_inputs(scramble_history_free_fields(ds, held, rng))
            for k, ((labels0, weights0), (labels1, weights1)) in enumerate(
                    zip(base, moved), start=1):
                np.testing.assert_array_equal(
                    labels1[held], labels0[held], err_msg=f"stage {k} labels, batch {j}")
                np.testing.assert_array_equal(
                    weights1[held], weights0[held], err_msg=f"stage {k} weights, batch {j}")

    def test_zero_or_one_batch_is_the_plain_fit(self):
        # m of 0 or 1 is the plain fit, bit for bit; a negative m is rejected
        ds = random_two_stage_dataset(np.random.default_rng(4), n=150)
        models = fit_stage_models(ds, BOUNDS2)
        estimates = backward_induct(models, LAM)
        plain = dtr_to_json(Dtr(stages=tuple(
            fit_weighted_tree(stage.H, sign_with_tie(est.contrast), np.abs(est.contrast), 2)
            for stage, est in zip(models, estimates)), kind="iv_optimal", lam=LAM))
        for m in (0, 1):
            policy, fits = fit_ivoptimal_crossfit(fit_stage_models(ds, BOUNDS2), LAM, depth=2,
                                                  m=m, seed=0)
            assert dtr_to_json(policy) == plain
            assert [est.stage for est in fits] == [1, 2]
            for est, expected in zip(fits, estimates):
                np.testing.assert_array_equal(est.contrast, expected.contrast)
                np.testing.assert_array_equal(est.widths, expected.widths)
        with pytest.raises(ValueError, match="crossfit must be >= 0"):
            fit_ivoptimal_crossfit(fit_stage_models(ds, BOUNDS2), LAM, depth=2, m=-1, seed=0)

    def test_small_batches_rejected(self):
        ds = random_two_stage_dataset(np.random.default_rng(5), n=30)
        with pytest.raises(ValueError, match="below"):
            fit_ivoptimal_crossfit(fit_stage_models(ds, BOUNDS2), LAM, depth=2, m=5, seed=0)

    def test_crossfit_policy_close_to_plain_in_value(self):
        # paired comparison on the simulation process: same training data,
        # exact values; the two pipelines should land within noise
        from ivdtr.sim import SimConfig, generate, true_value

        cfg = SimConfig(c1=4.0, xi=1.0)
        rng = np.random.default_rng(6)
        ds, _ = generate(cfg, 500, rng)
        models = fit_stage_models(ds, BOUNDS2)
        plain, _ = fit_ivoptimal_crossfit(models, LAM, depth=2, m=0, seed=0)
        crossed, _ = fit_ivoptimal_crossfit(models, LAM, depth=2, m=5, seed=1)
        v_plain = true_value(plain, cfg).raw_value
        v_cross = true_value(crossed, cfg).raw_value
        assert abs(v_plain - v_cross) < 0.06
