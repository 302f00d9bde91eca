"""Weighted trees vs exhaustive search, Q-learning invariants, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import (
    interval_at,
    reference_best_split,
    reference_fit_weighted_tree,
    synthetic_nuisance,
    weighted_loss,
)

import ivdtr.nuisance
from ivdtr.bounds import RewardBounds, WeightSpec, weighted_q
from ivdtr.data import dataset_from_arrays
from ivdtr.dtr_core import (
    TIE_TOL,
    Dtr,
    Leaf,
    TreeRule,
    backward_induct,
    constant_dtr,
    dtr_from_json,
    dtr_to_json,
    fit_stage,
    _best_split,
    fit_weighted_tree,
    sign_with_tie,
)
from ivdtr.crossfit import fit_ivoptimal_crossfit
from ivdtr.nuisance import StageModels, fit_stage_models


# --------------------------- exhaustive tree oracle ---------------------------


def _leaf_loss(labels, weights):
    wp = float(np.sum(weights[labels > 0]))
    wn = float(np.sum(weights[labels < 0]))
    return min(wp, wn)


def _all_thresholds(X):
    out = []
    for j in range(X.shape[1]):
        xs = np.unique(X[:, j])
        for lo, hi in zip(xs[:-1], xs[1:]):
            out.append((j, 0.5 * (lo + hi)))
    return out


def oracle_best_loss(X, labels, weights, depth):
    """Minimum weighted misclassification over all depth-limited trees."""
    if depth == 0 or len(labels) == 0:
        return _leaf_loss(labels, weights)
    best = _leaf_loss(labels, weights)
    for j, t in _all_thresholds(X):
        left = X[:, j] < t
        loss = oracle_best_loss(X[left], labels[left], weights[left], depth - 1)
        loss += oracle_best_loss(X[~left], labels[~left], weights[~left], depth - 1)
        best = min(best, loss)
    return best


def staircase_instance(rng, n=12, d=3):
    """Depth-2 separable instance whose root split is the unique best single
    split; greedy provably reaches zero loss on these."""
    for _ in range(10_000):
        X = rng.normal(size=(n, d))
        weights = rng.uniform(0.5, 1.5, size=n)
        xs0 = np.sort(X[:, 0])
        t0 = 0.5 * (xs0[n // 2 - 1] + xs0[n // 2])
        t1 = float(np.median(X[:, 1]))
        left = X[:, 0] < t0
        labels = np.where(left, 1.0, np.where(X[:, 1] < t1, 1.0, -1.0))
        if len(set(labels)) < 2:
            continue
        root_loss = _leaf_loss(labels[left], weights[left]) + _leaf_loss(
            labels[~left], weights[~left]
        )
        others = [
            _leaf_loss(labels[X[:, j] < t], weights[X[:, j] < t])
            + _leaf_loss(labels[X[:, j] >= t], weights[X[:, j] >= t])
            for j, t in _all_thresholds(X)
            if not (j == 0 and np.array_equal(X[:, j] < t, left))
        ]
        if others and root_loss < min(others) - 1e-9:
            return X, labels, weights
    raise AssertionError("could not generate a curated instance")


class TestFitWeightedTree:
    def test_all_positive_labels(self):
        X = np.arange(8.0)[:, None]
        tree = fit_weighted_tree(X, np.ones(8), np.ones(8), depth=2)
        assert isinstance(tree.root, Leaf) and tree.root.label == 1
        assert weighted_loss(tree, X, np.ones(8), np.ones(8)) == 0.0

    def test_single_split_separable(self):
        X = np.array([[0.0], [0.1], [0.2], [0.4], [0.5], [0.9]])
        labels = np.where(X.ravel() > 0.3, 1.0, -1.0)
        tree = fit_weighted_tree(X, labels, np.ones(6), depth=1, min_leaf_weight=0.0)
        assert tree.root == 0 and len(tree.nodes) == 1
        assert 0.2 < tree.nodes[0][1] < 0.4
        assert weighted_loss(tree, X, labels, np.ones(6)) == 0.0

    def test_zero_weights_degenerate(self):
        tree = fit_weighted_tree(np.zeros((4, 1)), np.array([1.0, -1, 1, -1]),
                                 np.zeros(4), depth=2)
        assert tree.degenerate
        assert isinstance(tree.root, Leaf) and tree.root.label == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit_weighted_tree(np.zeros((2, 1)), np.array([1.0, -1.0]),
                              np.array([1.0, -0.5]), depth=1)

    @pytest.mark.parametrize("labels, depth, error", [
        ([1.0, -1.0], -1, "depth must be >= 0"),
        ([1.0, 0.0], 1, r"labels must be \+/-1"),
    ], ids=["negative_depth", "zero_label"])
    def test_bad_depth_or_label_rejected(self, labels, depth, error):
        with pytest.raises(ValueError, match=error):
            fit_weighted_tree(np.zeros((2, 1)), np.array(labels), np.ones(2), depth=depth)

    def test_depth_limit_honored(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 3))
        labels = rng.choice([-1.0, 1.0], size=64)
        for depth in (0, 1, 2, 3):
            tree = fit_weighted_tree(X, labels, np.ones(64), depth=depth,
                                     min_leaf_weight=0.0)
            assert tree.depth() <= depth

    def test_greedy_matches_oracle_on_random_tiny(self):
        # greedy never beats the exhaustive optimum
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = rng.integers(4, 13)
            X = rng.normal(size=(n, 2))
            labels = rng.choice([-1.0, 1.0], size=n)
            weights = rng.uniform(0.0, 2.0, size=n)
            tree = fit_weighted_tree(X, labels, weights, depth=2, min_leaf_weight=0.0)
            greedy = weighted_loss(tree, X, labels, weights)
            best = oracle_best_loss(X, labels, weights, 2)
            assert greedy >= best - 1e-12

    def test_greedy_exact_on_curated_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X, labels, weights = staircase_instance(rng)
            tree = fit_weighted_tree(X, labels, weights, depth=2, min_leaf_weight=0.0)
            greedy = weighted_loss(tree, X, labels, weights)
            best = oracle_best_loss(X, labels, weights, 2)
            assert greedy == pytest.approx(best, abs=1e-12)
            assert greedy == pytest.approx(0.0, abs=1e-12)

    def test_depth2_no_worse_than_depth1(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = rng.normal(size=(20, 2))
            labels = rng.choice([-1.0, 1.0], size=20)
            weights = rng.uniform(0.1, 1.0, size=20)
            loss1 = weighted_loss(
                fit_weighted_tree(X, labels, weights, 1, min_leaf_weight=0.0),
                X, labels, weights)
            loss2 = weighted_loss(
                fit_weighted_tree(X, labels, weights, 2, min_leaf_weight=0.0),
                X, labels, weights)
            assert loss2 <= loss1 + 1e-12

    @staticmethod
    def zero_gain_design(seed):
        # each history twice, labeled +1 and -1 with half the weight: every split
        # leaves both children's minority mass summing to the node's exactly
        rng = np.random.default_rng(seed)
        X = np.repeat(rng.normal(size=(20, 3)), 2, axis=0)
        labels = np.tile([1.0, -1.0], 20)
        weights = np.repeat(rng.uniform(0.1, 1.0, size=20), 2) * np.tile([1.0, 0.5], 20)
        return X, labels, weights

    def test_exact_zero_gain_ties_take_the_balanced_split(self):
        for seed in range(20):
            X, labels, weights = self.zero_gain_design(seed)
            tree = fit_weighted_tree(X, labels, weights, depth=1, min_leaf_weight=0.0)
            xs = np.sort(X[:, 0])
            assert tree.nodes[tree.root][:2] == (0, 0.5 * (xs[19] + xs[20]))

    def test_last_bit_weight_noise_leaves_the_tree_unchanged(self):
        for seed in range(20):
            X, labels, weights = self.zero_gain_design(seed)
            u = np.random.default_rng(100 + seed).random(weights.size)
            for depth in (1, 2):
                tree = fit_weighted_tree(X, labels, weights, depth, min_leaf_weight=0.0)
                assert fit_weighted_tree(X, labels, weights * (1.0 + 1e-12 * u), depth,
                                         min_leaf_weight=0.0) == tree

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_split_search_matches_the_per_feature_reference(self, data):
        # small integer features and weights make exact loss and balance ties common
        n, d = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 4))
        X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d)),
                     dtype=float).reshape(n, d)
        labels = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                             max_size=n)))
        weights = np.array(data.draw(st.lists(st.integers(0, 3) | st.floats(0.0, 2.0),
                                              min_size=n, max_size=n)), dtype=float)
        total = float(np.sum(weights))
        min_leaf_weight = data.draw(st.floats(0.0, 0.3)) * total
        tol = data.draw(st.sampled_from([0.0, TIE_TOL * total, 1.0]))
        order = np.argsort(X.T, axis=1, kind="stable")
        assert _best_split(X, order, labels, weights, min_leaf_weight, tol) == \
            reference_best_split(X, labels, weights, min_leaf_weight, tol)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_presorted_trees_match_the_per_node_sort_reference(self, data):
        # children partition their parent's sorted rows; a fresh sort at every node
        # must give the same tree, with the sort passed in or made by the tree
        n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 4))
        X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d)),
                     dtype=float).reshape(n, d)
        labels = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                             max_size=n)))
        weights = np.array(data.draw(st.lists(st.integers(0, 3) | st.floats(0.0, 2.0),
                                              min_size=n, max_size=n)), dtype=float)
        depth = data.draw(st.integers(0, 3))
        min_leaf_weight = data.draw(st.none() | st.floats(0.0, 0.3).map(
            lambda f: f * float(np.sum(weights))))
        expected = reference_fit_weighted_tree(X, labels, weights, depth, min_leaf_weight)
        assert fit_weighted_tree(X, labels, weights, depth, min_leaf_weight) == expected
        assert fit_weighted_tree(X, labels, weights, depth, min_leaf_weight,
                                 order=np.argsort(X.T, axis=1, kind="stable")) == expected

    def test_order_of_another_shape_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match=r"order must have shape \(2, 4\), got \(4, 2\)"):
            fit_weighted_tree(X, np.ones(4), np.ones(4), 1, order=np.argsort(X, axis=0))

    def test_shatters_distinct_points(self):
        # at depth ceil(log2 n), n <= 8 distinct 1-d points are fit exactly
        rng = np.random.default_rng(21)
        for n in (2, 4, 6, 8):
            X = np.sort(rng.normal(size=n))[:, None]
            labels = rng.choice([-1.0, 1.0], size=n)
            depth = int(np.ceil(np.log2(n)))
            tree = fit_weighted_tree(X, labels, np.ones(n), depth=depth,
                                     min_leaf_weight=0.0)
            assert weighted_loss(tree, X, labels, np.ones(n)) == 0.0


class TestPolicyStages:
    def test_constant_rule(self):
        stage = constant_dtr(-1, 1).stages[0]
        assert stage == TreeRule(nodes=(), root=Leaf(-1), max_depth=0)
        assert stage.decide(np.array([3.0, 4.0])).tolist() == [-1]
        assert stage.decide(np.zeros((3, 2))).tolist() == [-1, -1, -1]

    def test_stage_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"stage index 3 out of range 1..2"):
            constant_dtr(1, 2).action_matrix(3, np.zeros(2))

    def test_tree_rule_example(self):
        tree = TreeRule(nodes=((0, 0.5, Leaf(-1), Leaf(1)),), root=0, max_depth=1)
        assert tree.decide(np.array([0.7, 0.0]))[0] == 1
        assert tree.decide(np.array([0.2, 0.0]))[0] == -1

    def test_sign_of_contrast_tie_is_positive(self):
        # one row per (z, a) cell, all alike: both arms get the same interval
        models = StageModels(H=np.zeros((4, 2)), z=np.array([-1.0, -1.0, 1.0, 1.0]),
                             a=np.array([-1.0, 1.0, -1.0, 1.0]), r=np.full(4, 0.5),
                             reward_range=(0.0, 1.0), tail=(0.0, 1.0))
        est, _ = fit_stage(models, models.reward, 0.5, 1)
        assert est.contrast_at(np.zeros(2))[0] == 0.0
        assert sign_with_tie(est.contrast)[0] == 1

    def test_sign_with_tie(self):
        np.testing.assert_array_equal(
            sign_with_tie(np.array([-0.5, 0.0, 2.0])), [-1, 1, 1])


def simulate_two_stage(n=600, seed=0):
    """Simple two-stage trajectory data with a strong instrument."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 1))
    z1 = rng.choice([-1.0, 1.0], size=n)
    a1 = np.where(rng.random(n) < (0.1 + 0.8 * (z1 == 1)), 1.0, -1.0)
    r1 = (rng.random(n) < 0.3 + 0.2 * (a1 == 1) * (x[:, 0] > 0)).astype(float)
    z2 = rng.choice([-1.0, 1.0], size=n)
    a2 = np.where(rng.random(n) < (0.1 + 0.8 * (z2 == 1)), 1.0, -1.0)
    r2 = (rng.random(n) < 0.2 + 0.3 * (a2 == 1) + 0.2 * r1).astype(float)
    return dataset_from_arrays(
        covariates=[x, np.empty((n, 0))],
        instruments=[z1, z2],
        actions=[a1, a2],
        rewards=[r1, r2],
    )


BOUNDS2 = RewardBounds(lows=(0.0, 0.0), highs=(1.0, 1.0))


class TestBackwardInduct:
    def test_decision_from_hand_set_q_tables(self):
        # stage-2 weighted Q 0.8 vs 0.5 selects +1; stage-1 1.6 vs 1.9 selects -1
        assert sign_with_tie(np.array([0.8 - 0.5]))[0] == 1
        assert sign_with_tie(np.array([1.6 - 1.9]))[0] == -1

    def test_sandwich_and_consistency(self):
        ds = simulate_two_stage()
        models = fit_stage_models(ds, BOUNDS2)
        estimates = backward_induct(models, WeightSpec.minmax())
        for est in estimates:
            H = models[est.stage - 1].H
            plus, minus, _ = est.nuisance.intervals_at(H)
            q_pos, q_neg = weighted_q(plus, 0.5), weighted_q(minus, 0.5)
            assert np.all(plus.lower <= q_pos + 1e-12)
            assert np.all(q_pos <= plus.upper + 1e-12)
            assert np.all(minus.lower <= q_neg + 1e-12)
            assert np.all(q_neg <= minus.upper + 1e-12)
            np.testing.assert_allclose(est.contrast, q_pos - q_neg)
            np.testing.assert_array_equal(
                est.widths, np.concatenate([plus.upper - plus.lower, minus.upper - minus.lower]))
            _, value = fit_stage(models[est.stage - 1], est.nuisance, est.lam, est.stage)
            np.testing.assert_array_equal(
                value, np.where(sign_with_tie(est.contrast) == 1, q_pos, q_neg))
        # contrast_at agrees with the training-sample contrasts at every history
        for k in (1, 2):
            np.testing.assert_array_equal(
                estimates[k - 1].contrast_at(ds.histories(k)), estimates[k - 1].contrast)

    def test_lambda_extremes(self):
        ds = simulate_two_stage(seed=3)
        models = fit_stage_models(ds, BOUNDS2)
        worst = backward_induct(models, WeightSpec.worst())
        best = backward_induct(models, WeightSpec.best())
        for est in worst:
            plus, minus, _ = est.nuisance.intervals_at(models[est.stage - 1].H)
            np.testing.assert_allclose(est.contrast, plus.lower - minus.lower)
        for est in best:
            plus, minus, _ = est.nuisance.intervals_at(models[est.stage - 1].H)
            np.testing.assert_allclose(est.contrast, plus.upper - minus.upper)

    def test_stage1_pseudo_outcome_range(self):
        ds = simulate_two_stage(seed=5)
        models = fit_stage_models(ds, BOUNDS2)
        estimates = backward_induct(models, WeightSpec.minmax())
        stage2 = estimates[1]
        _, value = fit_stage(models[1], stage2.nuisance, stage2.lam, 2)
        assert np.all(value >= 0.0) and np.all(value <= 1.0)
        po = ds.rewards(1) + value
        assert np.all(po >= 0.0) and np.all(po <= 2.0)

    def test_k1_reduces_to_single_stage(self):
        ds = simulate_two_stage(seed=7)
        k1 = dataset_from_arrays(
            covariates=[ds.histories(1)],
            instruments=[ds.instruments(1)],
            actions=[ds.actions(1)],
            rewards=[ds.rewards(1)],
        )
        estimates = backward_induct(
            fit_stage_models(k1, RewardBounds(lows=(0.0,), highs=(1.0,))), WeightSpec.minmax())
        est = estimates[0]
        H = k1.histories(1)
        action = sign_with_tie(est.contrast)
        # decision-for-decision equal to the min-max rule from the same intervals
        for i in range(k1.n):
            plus = interval_at(est.nuisance, H[i], +1)
            minus = interval_at(est.nuisance, H[i], -1)
            direct = weighted_q(plus, 0.5) - weighted_q(minus, 0.5)
            assert sign_with_tie(np.array([direct]))[0] == action[i]

    def test_plain_induction_fits_no_stage1_reward_cells(self, monkeypatch):
        # logistic fits: 3 instrument/treatment models per stage and the 4
        # binary stage-2 reward cells; stage 1 bounds a pseudo-outcome
        calls = []
        original = ivdtr.nuisance.fit_logistic

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ivdtr.nuisance, "fit_logistic", counted)
        backward_induct(fit_stage_models(simulate_two_stage(seed=8), BOUNDS2),
                        WeightSpec.minmax())
        assert len(calls) == 2 * 3 + 4 == 10

    def test_crossfit_fits_only_batch_complements(self, monkeypatch):
        # each of the 5 complement inductions fits its own 10 models, as above,
        # and the full-sample stage models are never fitted
        calls = []
        original = ivdtr.nuisance.fit_logistic

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ivdtr.nuisance, "fit_logistic", counted)
        models = fit_stage_models(simulate_two_stage(seed=8), BOUNDS2)
        fit_ivoptimal_crossfit(models, WeightSpec.minmax(), depth=2, m=5, seed=0)
        assert len(calls) == 5 * 10

    def test_reward_outside_bounds_rejected(self):
        ds = simulate_two_stage(seed=9)
        tight = RewardBounds(lows=(0.0, 0.2), highs=(1.0, 1.0))
        with pytest.raises(ValueError, match="outside declared bounds"):
            fit_stage_models(ds, tight)

    def test_compliant_rct_contrast_matches_analytic_oracle(self):
        # Fully compliant RCT (a = z), constant treatment effect +0.3. Under
        # the mixture-form bounds each arm is identified only on its own
        # instrument side: interval(+1) = [mu+/2, mu+], interval(-1) =
        # [mu-, (1 + mu-)/2], so the min-max contrast is
        # 0.75 * (mu+ - mu-) - 0.25 (population value; RCT compliance does
        # not point-identify both arms at once).
        rng = np.random.default_rng(31)
        n = 2000
        x = rng.uniform(-1, 1, size=(n, 1))
        z = rng.choice([-1.0, 1.0], size=n)
        a = z.copy()
        y = (rng.random(n) < 0.35 + 0.3 * (a == 1)).astype(float)
        ds = dataset_from_arrays([x], [z], [a], [y])
        estimates = backward_induct(
            fit_stage_models(ds, RewardBounds(lows=(0.0,), highs=(1.0,))), WeightSpec.minmax())
        oracle = 0.75 * 0.3 - 0.25
        assert abs(float(np.mean(estimates[0].contrast)) - oracle) < 0.05

    def test_two_sided_compliance_recovers_cate(self):
        # When each arm's takers exist on both instrument sides with high
        # compliance to z's encouragement, the minmax contrast tracks the
        # CATE closely; checked against a Monte Carlo oracle of the bound
        # formulas applied to the population quantities.
        mu_pos, mu_neg = 0.65, 0.35
        mu = {(1, 1): mu_pos, (-1, 1): mu_pos, (1, -1): mu_neg, (-1, -1): mu_neg}
        ns = synthetic_nuisance(0.5, {-1: 0.0, 1: 1.0}, mu, (0.0, 1.0))
        plus = interval_at(ns, np.zeros(1), +1)
        minus = interval_at(ns, np.zeros(1), -1)
        contrast = weighted_q(plus, 0.5) - weighted_q(minus, 0.5)
        assert contrast == pytest.approx(0.75 * (mu_pos - mu_neg) - 0.25, abs=1e-12)


class TestProjectPolicy:
    def test_all_positive_contrasts_give_constant_tree(self):
        models = fit_stage_models(simulate_two_stage(seed=11), BOUNDS2)
        estimates = backward_induct(models, WeightSpec.minmax())
        for est in estimates:
            forced = np.abs(est.contrast) + 0.1  # all positive, magnitudes kept
            tree = fit_weighted_tree(models[est.stage - 1].H, sign_with_tie(forced),
                                     np.abs(forced), 2)
            assert isinstance(tree.root, Leaf)
            assert tree.root.label == 1

    def test_projection_loss_bounded_by_depth1(self):
        models = fit_stage_models(simulate_two_stage(seed=13), BOUNDS2)
        estimates = backward_induct(models, WeightSpec.minmax())
        for est in estimates:
            H = models[est.stage - 1].H
            w = np.abs(est.contrast)
            action = sign_with_tie(est.contrast)
            t1 = fit_weighted_tree(H, action, w, 1, min_leaf_weight=0.0)
            t2 = fit_weighted_tree(H, action, w, 2, min_leaf_weight=0.0)
            assert (weighted_loss(t2, H, action, w)
                    <= weighted_loss(t1, H, action, w) + 1e-12)


class TestSerialization:
    def test_tree_and_constant_roundtrip(self):
        tree = TreeRule(nodes=((0, 0.5, Leaf(-1), 1), (1, -0.25, Leaf(1), Leaf(-1))),
                        root=0, max_depth=2)
        dtr = Dtr(stages=(tree, constant_dtr(-1, 1).stages[0]), kind="iv_optimal",
                  lam=WeightSpec(0.5))
        doc = json.loads(json.dumps(dtr_to_json(dtr)))
        back = dtr_from_json(doc)
        assert back.kind == "iv_optimal"
        assert back.lam.at(1) == 0.5
        H = np.random.default_rng(0).normal(size=(40, 2))
        np.testing.assert_array_equal(back.action_matrix(1, H),
                                      dtr.action_matrix(1, H))
        np.testing.assert_array_equal(back.action_matrix(2, H),
                                      dtr.action_matrix(2, H))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_node_arrays_roundtrip(self, data):
        # any valid node array, shared children and unreachable nodes included,
        # writes back as the same document and decides as a per-row walk does
        n = data.draw(st.integers(0, 8))

        def child(parent):
            leaf = st.sampled_from([-1, 1]).map(lambda label: {"leaf": label})
            if parent + 1 == n:
                return data.draw(leaf)
            return data.draw(leaf | st.integers(parent + 1, n - 1).map(lambda i: {"node": i}))

        nodes = [{"feature": data.draw(st.integers(0, 2)),
                  "threshold": data.draw(st.floats(-2.0, 2.0)),
                  "left": child(i), "right": child(i)} for i in range(n)]
        tree = {"type": "tree", "nodes": nodes, "root": child(-1), "max_depth": n,
                "degenerate": data.draw(st.booleans())}
        unit = st.floats(0.0, 1.0)
        doc = {"kind": "iv_optimal", "stages": [tree],
               "lambda": data.draw(st.none() | unit | st.lists(unit, min_size=1, max_size=1))}
        dtr = dtr_from_json(doc)
        assert dtr_to_json(dtr) == doc
        assert dtr_from_json(json.loads(json.dumps(doc))) == dtr

        def walk(ref, h):
            while "node" in ref:
                node = nodes[ref["node"]]
                ref = node["left" if h[node["feature"]] < node["threshold"] else "right"]
            return ref["leaf"]

        def depth(ref):
            return 0 if "leaf" in ref else 1 + max(depth(nodes[ref["node"]][side])
                                                    for side in ("left", "right"))

        H = np.random.default_rng(n).uniform(-2.5, 2.5, size=(50, 3))
        assert dtr.action_matrix(1, H).tolist() == [walk(tree["root"], h) for h in H]
        assert dtr.stages[0].depth() == depth(tree["root"])

    def test_sign_rule_is_not_serialized(self):
        # only trees and constants are files
        doc = {"kind": "iv_optimal", "lambda": 0.5,
               "stages": [{"type": "contrast_sign"}, {"type": "constant", "label": 1}]}
        with pytest.raises(ValueError, match="unknown stage type 'contrast_sign'"):
            dtr_from_json(doc)

    def test_constant_stage_reads_as_one_leaf_tree(self):
        doc = {"kind": "std", "stages": [{"type": "constant", "label": -1}] * 2}
        dtr = dtr_from_json(doc)
        assert dtr == constant_dtr(-1, 2, kind="std")
        assert dtr_to_json(dtr)["stages"][0] == {"type": "tree", "nodes": [],
                                                 "root": {"leaf": -1}, "max_depth": 0,
                                                 "degenerate": False}

    def test_constant_dtr_kind(self):
        dtr = constant_dtr(-1, 2, kind="std")
        assert dtr.kind == "std"
        assert dtr.action_matrix(1, np.zeros(3)).tolist() == [-1]
