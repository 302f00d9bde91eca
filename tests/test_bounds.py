"""Partial-identification interval formulas against an independent oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import interval_at, random_two_stage_dataset, synthetic_nuisance

from ivdtr.bounds import (
    Interval,
    RewardBounds,
    WeightSpec,
    arm_intervals,
    mp_bounds_matrix,
    parse_weight_spec,
    weighted_q,
)
from ivdtr.data import DataError
from ivdtr.improve import relative_contrast_pieces
from ivdtr.nuisance import LinearModel, LogisticModel, NuisanceSet


def oracle_bounds(pz_pos, pa_pos, mu, a, c_low, c_high):
    """Straight-line scalar re-derivation of the interval ends.

    pa_pos[z] = P(A=+1|Z=z), mu[(z, a)] = E[Y|z, a]; no clipping, no repair.
    """
    def psi_scalar(z, C):
        p_a = pa_pos[z] if a == 1 else 1.0 - pa_pos[z]
        return C * (1.0 - p_a) + mu[(z, a)] * p_a

    pz_neg = 1.0 - pz_pos
    lower = pz_neg * psi_scalar(-1, c_low) + pz_pos * max(
        psi_scalar(-1, c_low), psi_scalar(+1, c_low)
    )
    upper = pz_neg * min(psi_scalar(-1, c_high), psi_scalar(+1, c_high)) + (
        pz_pos * psi_scalar(+1, c_high)
    )
    return lower, upper


def make_nuisance(pz_pos, pa_pos, mu, outcome_range=(0.0, 1.0)):
    return synthetic_nuisance(pz_pos, pa_pos, mu, outcome_range)


HAND_EXAMPLE = dict(
    pz_pos=0.5,
    pa_pos={-1: 0.2, 1: 0.8},
    mu={(-1, 1): 0.6, (1, 1): 0.7, (-1, -1): 0.5, (1, -1): 0.5},
)


def psi_ends(ns, c_low, c_high):
    """(psi(C_low), psi(C_high)) for action +1 from the vectorized bounds.

    With P(A|Z) and E[Y|Z,A] equal in both instrument arms, psi does not
    depend on z, so the interval ends are exactly psi at C_low and C_high.
    """
    return interval_at(dataclasses.replace(ns, outcome_range=(c_low, c_high)), np.zeros(1), 1)


class TestPsi:
    def test_perfect_compliance_collapses(self):
        ns = make_nuisance(0.5, {-1: 1.0, 1: 1.0}, {(z, a): 0.7 for z in (-1, 1) for a in (-1, 1)})
        for C in (0.0, 0.5):
            assert psi_ends(ns, C, 1.0)[0] == pytest.approx(0.7)
        assert psi_ends(ns, 0.0, 1.0)[1] == pytest.approx(0.7)

    def test_fully_counterfactual(self):
        ns = make_nuisance(0.5, {-1: 0.0, 1: 0.0}, {(z, a): 0.7 for z in (-1, 1) for a in (-1, 1)})
        assert psi_ends(ns, 0.25, 1.0)[0] == pytest.approx(0.25)

    def test_direct_evaluation(self):
        ns = make_nuisance(0.5, {-1: 0.8, 1: 0.8}, {(z, a): 0.7 for z in (-1, 1) for a in (-1, 1)})
        assert psi_ends(ns, 0.0, 1.0)[0] == pytest.approx(0.56, abs=1e-12)
        assert psi_ends(ns, 0.0, 1.0)[1] == pytest.approx(0.76, abs=1e-12)


class TestMpInterval:
    def test_hand_derived_example(self):
        # independent-oracle value computed from the displayed formulas
        ns = make_nuisance(**HAND_EXAMPLE)
        interval = interval_at(ns, np.zeros(1), 1)
        assert interval.lower == pytest.approx(0.34, abs=1e-12)
        assert interval.upper == pytest.approx(0.76, abs=1e-12)
        lo, hi = oracle_bounds(0.5, HAND_EXAMPLE["pa_pos"], HAND_EXAMPLE["mu"], 1, 0.0, 1.0)
        assert interval.lower == pytest.approx(lo, abs=1e-12)
        assert interval.upper == pytest.approx(hi, abs=1e-12)

    def test_perfect_compliance_point_identifies(self):
        mu = {(z, a): 0.42 for z in (-1, 1) for a in (-1, 1)}
        ns = make_nuisance(0.5, {-1: 1.0, 1: 1.0}, mu)
        interval = interval_at(ns, np.zeros(1), 1)
        assert interval.lower == pytest.approx(0.42)
        assert interval.upper == pytest.approx(0.42)

    def test_vacuous_when_action_never_seen(self):
        mu = {(z, a): 0.9 for z in (-1, 1) for a in (-1, 1)}
        ns = make_nuisance(0.5, {-1: 0.0, 1: 0.0}, mu)
        interval = interval_at(ns, np.zeros(1), 1)
        assert interval == Interval(0.0, 1.0)

    def test_crossed_interval_is_repaired(self):
        # contradictory z arms under near-perfect compliance force a crossing
        mu = {(-1, 1): 0.9, (1, 1): 0.1, (-1, -1): 0.5, (1, -1): 0.5}
        ns = make_nuisance(0.5, {-1: 1.0, 1: 1.0}, mu)
        interval = interval_at(ns, np.zeros(1), 1)
        assert interval.lower <= interval.upper
        assert interval.lower == pytest.approx(interval.upper)  # collapsed to midpoint

    def test_crossed_tail_rejected(self):
        half = (np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError, match=r"tail bounds \[1.0, 0.0\] crossed"):
            mp_bounds_matrix(np.array([0.5]), half, half, (1.0, 0.0))

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([-1, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_and_is_valid(self, pz, pa_neg, pa_pos, mu_neg, mu_pos, a):
        pa = {-1: pa_neg, 1: pa_pos}
        mu = {(-1, a): mu_neg, (1, a): mu_pos, (-1, -a): 0.5, (1, -a): 0.5}
        ns = make_nuisance(pz, pa, mu)
        p_a = tuple(np.array([pa[z] if a == 1 else 1.0 - pa[z]]) for z in (-1, 1))
        lower, upper, _ = mp_bounds_matrix(np.array([pz]), p_a,
                                           (np.array([mu_neg]), np.array([mu_pos])), (0.0, 1.0))
        lo, hi = oracle_bounds(pz, pa, mu, a, 0.0, 1.0)
        # oracle ends may cross; the implementation repairs but must agree otherwise
        lo_c, hi_c = np.clip(lo, 0, 1), np.clip(hi, 0, 1)
        # through the nuisance set, and on the arrays of its values directly
        for interval in (interval_at(ns, np.zeros(1), a),
                         Interval(lower[0], upper[0])):
            if lo_c <= hi_c:
                assert interval.lower == pytest.approx(lo_c, abs=1e-12)
                assert interval.upper == pytest.approx(hi_c, abs=1e-12)
            else:
                assert interval.lower == pytest.approx(0.5 * (lo_c + hi_c), abs=1e-12)
            assert 0.0 <= interval.lower <= interval.upper <= 1.0

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_monotonicity(self, pz, pa_neg, pa_pos, mu_val, widen):
        # widening [C_low, C_high] never shrinks the interval
        mu = {(z, a): mu_val for z in (-1, 1) for a in (-1, 1)}
        ns = make_nuisance(pz, {-1: pa_neg, 1: pa_pos}, mu)
        inner = interval_at(ns, np.zeros(1), 1)
        wide_ns = make_nuisance(pz, {-1: pa_neg, 1: pa_pos}, mu,
                                outcome_range=(-widen, 1.0 + widen))
        outer = interval_at(wide_ns, np.zeros(1), 1)
        assert outer.lower <= inner.lower + 1e-12
        assert outer.upper >= inner.upper - 1e-12


def history_nuisance(rng, d, outcome_range):
    """NuisanceSet whose every model varies with the history."""
    def logistic():
        return LogisticModel(rng.normal(), rng.normal(size=d))

    return NuisanceSet(
        pz=logistic(), pa={z: logistic() for z in (-1, 1)},
        mu={(z, a): LinearModel(rng.normal(), rng.normal(size=d))
            for z in (-1, 1) for a in (-1, 1)},
        outcome_range=outcome_range,
    )


class TestArmIntervals:
    def test_intervals_at_bounds_each_models_predictions(self):
        # probabilities as the models predict them, cells clipped to the range
        rng = np.random.default_rng(9)
        ns = history_nuisance(rng, 3, (-0.5, 0.5))
        H = rng.normal(size=(200, 3))
        mu = {cell: np.clip(model.predict(H), -0.5, 0.5) for cell, model in ns.mu.items()}
        got = ns.intervals_at(H)
        expected = arm_intervals(ns.pz.predict(H), [ns.pa[z].predict(H) for z in (-1, 1)],
                                 mu, (-0.5, 0.5))
        for got_end, end in zip((*got[0], *got[1]), (*expected[0], *expected[1])):
            assert np.array_equal(got_end, end)
        assert got[2] == expected[2]
        assert any((model.predict(H) > 0.5).any() for model in ns.mu.values())  # clip binds
        for a, (lower, upper) in zip((1, -1), got[:2]):
            p_a = tuple(p if a == 1 else 1.0 - p for p in (ns.pa[-1].predict(H),
                                                         ns.pa[1].predict(H)))
            arm = mp_bounds_matrix(ns.pz.predict(H), p_a, (mu[(-1, a)], mu[(1, a)]),
                                   (-0.5, 0.5))
            assert np.array_equal(lower, arm[0]) and np.array_equal(upper, arm[1])

    def test_contrast_pieces_select_per_row_from_both_arms(self):
        rng, extra = np.random.default_rng(7), np.random.default_rng(8)
        repaired = 0
        for _ in range(25):
            low = rng.uniform(-1.0, 0.5)
            tail = (low, low + rng.uniform(0.1, 2.0))
            ns = history_nuisance(rng, 3, tail)
            H = rng.normal(size=(200, 3))
            baseline = rng.choice([-1, 1], size=200)
            sum_ns, cont_ns = (history_nuisance(extra, 3, (low, low + extra.uniform(0.1, 2.0)))
                               for _ in range(2))
            reward, sums, cont = (x.intervals_at(H) for x in (ns, sum_ns, cont_ns))
            (plus, minus, n_r), (plus_s, minus_s, n_s), (plus_c, minus_c, n_c) = reward, sums, cont
            keep = baseline == 1
            keep_upper = np.where(keep, plus.upper, minus.upper)

            keep_lower, contrast, n_rep = relative_contrast_pieces(baseline, reward)
            assert np.array_equal(keep_lower, np.zeros(200))
            assert np.array_equal(contrast, np.where(keep, minus.lower, plus.lower) - keep_upper)
            assert n_rep == n_r

            keep_lower, contrast, n_rep = relative_contrast_pieces(baseline, reward, (sums, cont))
            expected_keep = np.where(keep, plus_c.lower, minus_c.lower)
            assert np.array_equal(keep_lower, expected_keep)
            assert np.array_equal(contrast, np.where(keep, minus_s.lower, plus_s.lower)
                                  - keep_upper - expected_keep)
            assert n_rep == n_r + n_s + n_c
            repaired += n_rep
        assert repaired > 0  # the draws reach the midpoint repair


class TestWeightedQ:
    def test_minmax_panel_values(self):
        assert weighted_q(Interval(1.0, 1.5), 0.5) == pytest.approx(1.25)
        assert weighted_q(Interval(0.8, 5.0), 0.5) == pytest.approx(2.90)

    def test_degenerate_interval(self):
        for lam in (0.0, 0.3, 1.0):
            assert weighted_q(Interval(0.7, 0.7), lam) == pytest.approx(0.7)

    def test_extremes_hit_ends_exactly(self):
        interval = Interval(0.25, 0.75)
        assert weighted_q(interval, 1.0) == interval.lower
        assert weighted_q(interval, 0.0) == interval.upper

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError, match="lambda out of range"):
            weighted_q(Interval(0.0, 1.0), 1.5)


class TestRewardBounds:
    def test_tail_sums(self):
        rb = RewardBounds.from_pairs([[0.0, 1.0], [-0.5, 2.0]])
        assert rb.stage(2) == (-0.5, 2.0)
        assert rb.tail(1) == (-0.5, 3.0)
        assert rb.tail(2) == (-0.5, 2.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="lows and highs must have equal length"):
            RewardBounds(lows=(0.0,), highs=(1.0, 1.0))

    def test_crossed_pair_rejected(self):
        with pytest.raises(ValueError, match="lower > upper"):
            RewardBounds.from_pairs([[1.0, 0.0]])

    @pytest.mark.parametrize("pair", [[float("nan"), 1.0], [0.0, float("inf")]])
    def test_non_finite_pair_rejected(self, pair):
        with pytest.raises(ValueError, match="is not finite"):
            RewardBounds.from_pairs([pair])

    def test_rewards_outside_the_bounds_are_a_data_error(self):
        ds = random_two_stage_dataset(np.random.default_rng(0), n=50)
        with pytest.raises(DataError, match="stage 2 reward outside"):
            RewardBounds.from_pairs([[0.0, 1.0], [0.0, 0.5]]).check(ds)


class TestWeightSpec:
    def test_named_specs(self):
        assert WeightSpec.worst().at(1) == 1.0
        assert WeightSpec.best().at(3) == 0.0
        assert WeightSpec.minmax().at(2) == 0.5

    def test_per_stage_values(self):
        spec = WeightSpec((0.2, 0.8))
        assert spec.at(1) == 0.2
        assert spec.at(2) == 0.8
        with pytest.raises(ValueError):
            spec.at(3)

    def test_out_of_unit_rejected(self):
        with pytest.raises(ValueError, match="lambda out of range"):
            WeightSpec(1.2)

    def test_parse(self):
        assert parse_weight_spec("w", 2).at(1) == 1.0
        assert parse_weight_spec("0.25", 2).at(2) == 0.25
        spec = parse_weight_spec("const:1:0.3,const:2:0.7", 2)
        assert spec.at(1) == 0.3 and spec.at(2) == 0.7
        with pytest.raises(ValueError):
            parse_weight_spec("nope", 2)
        with pytest.raises(ValueError):
            parse_weight_spec("worst", 2)
        assert parse_weight_spec("const:2:0.9", 2).values == (0.5, 0.9)
        with pytest.raises(ValueError, match="names stage 1 twice"):
            parse_weight_spec("const:1:0.2,const:1:0.9", 2)
        for text in ("const:x:0.2", "const:1:y", "const:1", "const:1:0.2:3", "const:1:0.2,2:0.3"):
            with pytest.raises(ValueError, match=f"^cannot parse lambda spec '{text}'$"):
                parse_weight_spec(text, 2)
