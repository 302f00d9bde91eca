"""Improvement operator: closed forms, sign conventions, retention."""

import numpy as np
import pytest
from synth import interval_at, random_nuisance, random_two_stage_dataset, synthetic_nuisance

from ivdtr.bounds import RewardBounds, WeightSpec
from ivdtr.data import dataset_from_arrays
from ivdtr.dtr_core import Leaf, backward_induct, constant_dtr, sign_with_tie
from ivdtr.improve import fit_ivimproved, relative_contrast_pieces, relative_stage_estimates
from ivdtr.nuisance import fit_stage_models

BOUNDS2 = RewardBounds(lows=(0.0, 0.0), highs=(1.0, 1.0))
BOUNDS1 = RewardBounds(lows=(0.0,), highs=(1.0,))
ORIGIN = np.zeros((1, 1))


def contrast_at_origin(baseline_action, ns, continuation=()):
    """relative_contrast_pieces' contrast at one history, every set bounded there."""
    cont = tuple(x.intervals_at(ORIGIN) for x in continuation) or None
    return relative_contrast_pieces(np.array([baseline_action]), ns.intervals_at(ORIGIN),
                                    cont)[1][0]


def improve_rule_single(L: float, U: float, baseline_action: int) -> int:
    """Independent reference: the single-stage improved action from a
    contrast interval [L, U].

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


class TestImproveRuleSingle:
    def test_strictly_positive_interval_overrides_baseline(self):
        assert improve_rule_single(0.2, 0.9, -1) == 1

    def test_strictly_negative_interval(self):
        assert improve_rule_single(-0.9, -0.1, 1) == -1

    def test_ambiguous_interval_defers_to_baseline(self):
        assert improve_rule_single(-0.3, 0.5, -1) == -1
        assert improve_rule_single(-0.3, 0.5, 1) == 1

    def test_zero_boundary_keeps_baseline(self):
        assert improve_rule_single(0.0, 0.4, -1) == -1
        assert improve_rule_single(-0.4, 0.0, 1) == 1

    def test_crossed_interval_rejected(self):
        with pytest.raises(ValueError, match="L > U"):
            improve_rule_single(0.5, 0.2, 1)


class TestRelativeContrastStageK:
    def test_identity_with_interval_ends(self):
        # contrast is exactly lower(flip arm) - upper(baseline arm)
        rng = np.random.default_rng(0)
        for _ in range(200):
            ns = random_nuisance(rng)
            h = np.zeros(1)
            for a_base in (-1, 1):
                got = contrast_at_origin(a_base, ns)
                flip = interval_at(ns, h, -a_base)
                base = interval_at(ns, h, a_base)
                assert got == pytest.approx(flip.lower - base.upper, abs=1e-12)

    def test_positive_contrast_means_flip_is_safe(self):
        # flipped arm [0.7, 0.9] vs baseline arm ending at 0.3 gives +0.4
        assert 0.7 - 0.3 == pytest.approx(0.4)
        ns = synthetic_nuisance(
            pz_pos=0.5,
            pa_pos_by_z={-1: 0.5, 1: 1.0},
            mu_by_cell={(1, 1): 0.9, (-1, 1): 1.0, (1, -1): 0.2, (-1, -1): 0.2},
            outcome_range=(0.0, 1.0),
        )
        flip = interval_at(ns, np.zeros(1), +1)
        assert (flip.lower, flip.upper) == pytest.approx((0.7, 0.9), abs=1e-12)
        base = interval_at(ns, np.zeros(1), -1)
        got = contrast_at_origin(-1, ns)
        assert got == pytest.approx(flip.lower - base.upper, abs=1e-12)

    def test_identical_arms_keep_baseline(self):
        ns = synthetic_nuisance(
            0.5, {-1: 0.5, 1: 0.5},
            {(z, a): 0.6 for z in (-1, 1) for a in (-1, 1)}, (0.0, 1.0))
        contrast = contrast_at_origin(1, ns)
        arm = interval_at(ns, np.zeros(1), 1)
        assert contrast == pytest.approx(arm.lower - arm.upper, abs=1e-12)
        assert contrast < 0

    def test_exact_tie_keeps_baseline(self):
        # a = z compliance with extreme arm means: interval(+1) = [0.5, 1.0],
        # interval(-1) = [0.0, 0.5], so the relative contrast is exactly zero
        ns = synthetic_nuisance(
            0.5, {-1: 0.0, 1: 1.0},
            {(1, 1): 1.0, (-1, 1): 0.0, (-1, -1): 0.0, (1, -1): 0.0}, (0.0, 1.0))
        assert interval_at(ns, np.zeros(1), +1) == pytest.approx((0.5, 1.0))
        assert interval_at(ns, np.zeros(1), -1) == pytest.approx((0.0, 0.5))
        contrast = contrast_at_origin(-1, ns)
        assert contrast == pytest.approx(0.0, abs=1e-12)
        # tie -> keep: a strictly positive contrast is required for a flip
        assert not contrast > 0


class TestRelativeContrastStagek:
    def test_zero_continuation_reduces_to_stage_K(self):
        rng = np.random.default_rng(1)
        zero = synthetic_nuisance(
            0.5, {-1: 0.5, 1: 0.5},
            {(z, a): 0.0 for z in (-1, 1) for a in (-1, 1)}, (0.0, 0.0))
        for _ in range(100):
            ns = random_nuisance(rng)
            for a_base in (-1, 1):
                generic = contrast_at_origin(a_base, ns, (ns, zero))
                terminal = contrast_at_origin(a_base, ns)
                assert generic == pytest.approx(terminal, abs=1e-12)

    def test_constant_rewards_keep_baseline(self):
        # equal arms with width force retention: contrast = lower - upper < 0
        ns = synthetic_nuisance(
            0.5, {-1: 0.3, 1: 0.8},
            {(z, a): 0.5 for z in (-1, 1) for a in (-1, 1)}, (0.0, 1.0))
        zero = synthetic_nuisance(
            0.5, {-1: 0.5, 1: 0.5},
            {(z, a): 0.0 for z in (-1, 1) for a in (-1, 1)}, (0.0, 0.0))
        for a_base in (-1, 1):
            c = contrast_at_origin(a_base, ns, (ns, zero))
            assert c <= 0.0


class TestSingleStageAgreement:
    def test_matches_propositions_on_random_configs(self):
        # improved action == improve_rule_single(L, U, b) with
        # L = lower(+1) - upper(-1), U = upper(+1) - lower(-1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            ns = random_nuisance(rng)
            h = np.zeros(1)
            plus = interval_at(ns, h, +1)
            minus = interval_at(ns, h, -1)
            L = plus.lower - minus.upper
            U = plus.upper - minus.lower
            for b in (-1, 1):
                contrast = contrast_at_origin(b, ns)
                action = -b if contrast > 0 else b
                assert action == improve_rule_single(L, U, b)

    def test_end_to_end_k1_pipeline(self):
        rng = np.random.default_rng(3)
        from synth import random_single_stage_dataset

        ds = random_single_stage_dataset(rng, n=400)
        for b in (-1, 1):
            baseline = constant_dtr(b, 1)
            models = fit_stage_models(ds, BOUNDS1)
            _, estimates = fit_ivimproved(models, baseline, depth=2)
            est = estimates[0]
            H = ds.histories(1)
            nuisance_fit = backward_induct(models, WeightSpec.minmax())
            ns = nuisance_fit[0].nuisance
            for i in range(ds.n):
                plus = interval_at(ns, H[i], +1)
                minus = interval_at(ns, H[i], -1)
                L = plus.lower - minus.upper
                U = plus.upper - minus.lower
                assert est.improved_action[i] == improve_rule_single(L, U, b)


class TestRelativeStageEstimates:
    def test_retention_where_contrast_nonpositive(self):
        ds = random_two_stage_dataset(np.random.default_rng(4))
        baseline = constant_dtr(-1, 2)
        estimates = relative_stage_estimates(fit_stage_models(ds, BOUNDS2), baseline)
        for est in estimates:
            keep = est.contrast <= 0
            np.testing.assert_array_equal(
                est.improved_action[keep], est.baseline_action[keep])

    def test_relative_value_propagation(self):
        ds = random_two_stage_dataset(np.random.default_rng(5))
        estimates = relative_stage_estimates(fit_stage_models(ds, BOUNDS2), constant_dtr(1, 2))
        for est in estimates:
            np.testing.assert_allclose(
                est.relative_value,
                est.keep_lower + np.maximum(est.contrast, 0.0))
            assert np.all(est.relative_value >= -1e-12)

    def test_q_rule_baseline_is_fixed_point_at_final_stage(self):
        # relative contrast against the same fitted intervals' argmax is <= 0
        ds = random_two_stage_dataset(np.random.default_rng(6))
        models = fit_stage_models(ds, BOUNDS2)
        estimates = backward_induct(models, WeightSpec.minmax())
        _, contrast, _ = relative_contrast_pieces(
            sign_with_tie(estimates[1].contrast), models[1].intervals(models[1].reward))
        assert np.all(contrast <= 0.0)

    def test_stage_count_mismatch_rejected(self):
        ds = random_two_stage_dataset(np.random.default_rng(7))
        with pytest.raises(ValueError, match="stages"):
            relative_stage_estimates(fit_stage_models(ds, BOUNDS2), constant_dtr(1, 1))


class TestFitIvimproved:
    def test_all_kept_baseline_yields_constant_tree(self):
        ds = random_two_stage_dataset(np.random.default_rng(8))
        dtr, estimates = fit_ivimproved(fit_stage_models(ds, BOUNDS2), constant_dtr(-1, 2),
                                        depth=2)
        assert dtr.kind == "iv_improved(baseline)"
        for k, est in zip((1, 2), estimates):
            if np.all(est.improved_action == -1):
                assert isinstance(dtr.stages[k - 1].root, Leaf)
                assert dtr.stages[k - 1].root.label == -1

    def test_depth_respected(self):
        ds = random_two_stage_dataset(np.random.default_rng(9))
        dtr, _ = fit_ivimproved(fit_stage_models(ds, BOUNDS2), constant_dtr(1, 2), depth=2,
                                baseline_id="prosp")
        assert dtr.kind == "iv_improved(prosp)"
        for stage in dtr.stages:
            assert stage.depth() <= 2
