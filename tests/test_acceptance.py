"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-3 exercise the full experiment pipeline at the stated scale and
assert the published table values at their stated tolerances. Criteria 4-8
pin formula-level behavior against independent oracles. Heavy cells run once
per session and are shared across criteria.
"""

import numpy as np
import pytest
from scipy.special import expit
from synth import (
    interval_at,
    random_nuisance,
    random_single_stage_dataset,
    random_two_stage_dataset,
    synthetic_nuisance,
    weighted_loss,
)

from ivdtr.bounds import Interval, RewardBounds, WeightSpec, weighted_q
from ivdtr.crossfit import crossfit_stage_contrasts
from ivdtr.data import assign_batches
from ivdtr.dtr_core import backward_induct, fit_weighted_tree, sign_with_tie
from ivdtr.improve import relative_contrast_pieces
from ivdtr.nuisance import (
    fit_linear,
    fit_logistic,
    fit_stage_models,
    loglik_gradient,
    penalized_loglik,
)
from ivdtr.sim import REGIMES, SimConfig, generate, run_cell, true_value
from test_dtr_core import oracle_best_loss, staircase_instance
from test_improve import improve_rule_single
from test_nuisance import ridge_normal_equation_oracle

BOUNDS1 = RewardBounds(lows=(0.0,), highs=(1.0,))
BOUNDS2 = RewardBounds(lows=(0.0, 0.0), highs=(1.0, 1.0))


def report_criterion(number: int, checks: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"\n[acceptance] criterion {number}: {status}")
    assert not failed, f"criterion {number} failed: {failed}"


@pytest.fixture(scope="session")
def cell_xi1_c4():
    config = SimConfig(c1=4.0, xi=1.0, n_train=1000, seed=20260810,
                       n_eval=100_000, replications=100, threads=2)
    return run_cell(config)


@pytest.fixture(scope="session")
def cell_xi3_c4():
    config = SimConfig(c1=4.0, xi=3.0, n_train=1000, seed=20260810,
                       n_eval=100_000, replications=100, threads=2)
    return run_cell(config)


@pytest.fixture(scope="session")
def cell_xi3_c5():
    config = SimConfig(c1=5.0, xi=3.0, n_train=1000, seed=77,
                       n_eval=100_000, replications=200, threads=2)
    return run_cell(config)


def table_checks(result, targets: dict) -> list[tuple[str, bool]]:
    checks = []
    for name, (target, tol) in targets.items():
        mean = float(np.mean(result.values(name)))
        ok = abs(mean - target) <= tol
        checks.append((f"{name}: mean {mean:.4f} vs {target} +/- {tol}", ok))
    return checks


def test_criterion_1_table_parametric_n1000(cell_xi1_c4):
    targets = {
        "pi_b_std": (1.00, 0.0),
        "pi_b_prosp": (1.03, 0.02),
        "pi_up_std": (1.09, 0.04),
        "pi_up_prosp": (1.19, 0.04),
        "pi_b_sra": (1.13, 0.04),
        "pi_up_sra": (1.16, 0.04),
        "pi_iv_1": (1.09, 0.04),
        "pi_iv_0": (1.14, 0.04),
        "pi_iv_half": (1.14, 0.04),
    }
    report_criterion(1, table_checks(cell_xi1_c4, targets))


def test_criterion_2_confounded_cell(cell_xi3_c4):
    targets = {
        "pi_b_prosp": (0.88, 0.02),
        "pi_up_prosp": (1.09, 0.03),
        "pi_iv_half": (1.11, 0.03),
    }
    report_criterion(2, table_checks(cell_xi3_c4, targets))


def test_criterion_3_improvement_dominance(cell_xi3_c5):
    checks = []
    deciles = np.arange(0.1, 0.95, 0.1)
    for base, improved in (("pi_b_std", "pi_up_std"),
                           ("pi_b_prosp", "pi_up_prosp"),
                           ("pi_b_sra", "pi_up_sra")):
        vb = cell_xi3_c5.values(base)
        vu = cell_xi3_c5.values(improved)
        mean_ok = float(np.mean(vu)) >= float(np.mean(vb)) - 0.005
        checks.append((f"mean {improved} >= {base} - 0.005", mean_ok))
        gaps = np.quantile(vu, deciles) - np.quantile(vb, deciles)
        checks.append((f"decile dominance {improved} over {base}",
                       bool(np.all(gaps >= -0.005))))
    report_criterion(3, checks)


def oracle_interval(pz_pos, pa_pos, mu, a, c_low, c_high):
    """Independent scalar evaluation of the interval formulas (no repair)."""
    def psi(z, C):
        p_a = pa_pos[z] if a == 1 else 1.0 - pa_pos[z]
        return C * (1.0 - p_a) + mu[(z, a)] * p_a

    lower = (1.0 - pz_pos) * psi(-1, c_low) + pz_pos * max(psi(-1, c_low), psi(+1, c_low))
    upper = (1.0 - pz_pos) * min(psi(-1, c_high), psi(+1, c_high)) + pz_pos * psi(+1, c_high)
    return lower, upper


def test_criterion_4_bound_property_suite():
    rng = np.random.default_rng(4)
    checks = []

    ns = synthetic_nuisance(0.5, {-1: 0.2, 1: 0.8},
                            {(-1, 1): 0.6, (1, 1): 0.7, (-1, -1): 0.5, (1, -1): 0.5},
                            (0.0, 1.0))
    hand = interval_at(ns, np.zeros(1), 1)
    checks.append(("hand-derived example equals (0.34, 0.76) to 1e-12",
                   abs(hand.lower - 0.34) < 1e-12 and abs(hand.upper - 0.76) < 1e-12))
    lo, hi = oracle_interval(0.5, {-1: 0.2, 1: 0.8},
                             {(-1, 1): 0.6, (1, 1): 0.7}, 1, 0.0, 1.0)
    checks.append(("hand-derived example matches independent script to 1e-12",
                   abs(hand.lower - lo) < 1e-12 and abs(hand.upper - hi) < 1e-12))

    validity = collapse = monotone = extremes = True
    for _ in range(1000):
        ns = random_nuisance(rng)
        a = int(rng.choice([-1, 1]))
        interval = interval_at(ns, np.zeros(1), a)
        validity &= 0.0 <= interval.lower <= interval.upper <= 1.0

        lam = float(rng.uniform())
        q = weighted_q(interval, lam)
        extremes &= weighted_q(interval, 1.0) == interval.lower
        extremes &= weighted_q(interval, 0.0) == interval.upper
        extremes &= interval.lower - 1e-12 <= q <= interval.upper + 1e-12

        widen = float(rng.uniform(0.0, 0.5))
        pz = ns.pz.value
        pa = {z: m.value for z, m in ns.pa.items()}
        mu_cells = {cell: m.value for cell, m in ns.mu.items()}
        raw_in = oracle_interval(pz, pa, mu_cells, a, 0.0, 1.0)
        raw_out = oracle_interval(pz, pa, mu_cells, a, -widen, 1.0 + widen)
        # the repair step collapses contradictory arms; monotonicity is a
        # property of the raw formula, so compare only uncrossed configurations
        if raw_in[0] <= raw_in[1] and raw_out[0] <= raw_out[1]:
            wide_ns = synthetic_nuisance(pz, pa, mu_cells, (-widen, 1.0 + widen))
            outer = interval_at(wide_ns, np.zeros(1), a)
            monotone &= outer.lower <= interval.lower + 1e-12
            monotone &= outer.upper >= interval.upper - 1e-12

        mu_val = float(rng.uniform())
        clip = 1e-3
        tight = synthetic_nuisance(
            float(rng.uniform(0.05, 0.95)), {-1: 1.0 - clip, 1: 1.0 - clip},
            {(z, aa): mu_val for z in (-1, 1) for aa in (-1, 1)}, (0.0, 1.0))
        collapsed = interval_at(tight, np.zeros(1), 1)
        collapse &= (collapsed.upper - collapsed.lower) <= 2 * clip * 1.0 + 1e-12

    checks.append(("interval validity on 1000 random configurations", validity))
    checks.append(("perfect-compliance collapse", collapse))
    checks.append(("outcome-range monotonicity", monotone))
    checks.append(("lambda-extreme identities", extremes))
    report_criterion(4, checks)


def test_criterion_5_closed_form_reductions():
    rng = np.random.default_rng(5)
    checks = []

    # K=1 pipeline vs direct min-max rule, decision for decision
    agree = True
    decisions = 0
    for _ in range(5):
        ds = random_single_stage_dataset(rng, n=100)
        estimates = backward_induct(fit_stage_models(ds, BOUNDS1), WeightSpec.minmax())
        ns = estimates[0].nuisance
        H = ds.histories(1)
        rule_actions = sign_with_tie(estimates[0].contrast_at(H))
        for i in range(ds.n):
            plus = interval_at(ns, H[i], +1)
            minus = interval_at(ns, H[i], -1)
            direct = sign_with_tie(
                np.array([weighted_q(plus, 0.5) - weighted_q(minus, 0.5)]))[0]
            agree &= direct == rule_actions[i]
            decisions += 1
    checks.append((f"K=1 pipeline equals min-max rule on {decisions} decisions",
                   agree and decisions == 500))

    # improvement operator vs the explicit single-stage formula
    prop_agree = True
    triples = 0
    for _ in range(250):
        ns = random_nuisance(rng)
        plus = interval_at(ns, np.zeros(1), +1)
        minus = interval_at(ns, np.zeros(1), -1)
        L = plus.lower - minus.upper
        U = plus.upper - minus.lower
        for b in (-1, 1):
            contrast = relative_contrast_pieces(
                np.array([b]), ns.intervals_at(np.zeros((1, 1))))[1][0]
            action = -b if contrast > 0 else b
            prop_agree &= action == improve_rule_single(L, U, b)
            triples += 1
    checks.append((f"improvement rule equals closed form on {triples} triples",
                   prop_agree and triples == 500))

    # generic-stage relative contrast with zero continuation == final-stage
    terminal = True
    zero = synthetic_nuisance(0.5, {-1: 0.5, 1: 0.5},
                              {(z, a): 0.0 for z in (-1, 1) for a in (-1, 1)},
                              (0.0, 0.0))
    for _ in range(500):
        ns = random_nuisance(rng)
        b = int(rng.choice([-1, 1]))
        reward = ns.intervals_at(np.zeros((1, 1)))
        generic = relative_contrast_pieces(
            np.array([b]), reward, (reward, zero.intervals_at(np.zeros((1, 1)))))[1][0]
        terminal &= abs(generic - relative_contrast_pieces(np.array([b]), reward)[1][0]) < 1e-12
    checks.append(("zero-continuation reduction exact to 1e-12", terminal))
    report_criterion(5, checks)


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(6)
    checks = []

    # greedy tree equals exhaustive optimum on 50 curated instances
    exact = True
    for _ in range(50):
        X, labels, weights = staircase_instance(rng, n=int(rng.integers(8, 13)))
        tree = fit_weighted_tree(X, labels, weights, depth=2, min_leaf_weight=0.0)
        greedy = weighted_loss(tree, X, labels, weights)
        exact &= abs(greedy - oracle_best_loss(X, labels, weights, 2)) < 1e-12
    checks.append(("greedy tree matches exhaustive optimum on curated corpus", exact))

    # saturated logistic design recovers empirical frequencies to 1e-6
    features = np.concatenate([np.zeros(60), np.ones(60)])[:, None]
    labels = np.concatenate([np.repeat([0.0, 1.0], [45, 15]),
                             np.repeat([0.0, 1.0], [15, 45])])
    model = fit_logistic(features, labels)
    p0 = model.predict(np.array([[0.0]]), clip=1e-9)[0]
    p1 = model.predict(np.array([[1.0]]), clip=1e-9)[0]
    checks.append(("saturated logistic matches closed form to 1e-6",
                   abs(p0 - 0.25) < 1e-6 and abs(p1 - 0.75) < 1e-6))

    # linear fits match the normal-equation oracle to 1e-6
    linear_ok = True
    for _ in range(20):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        fit = fit_linear(X, y)
        oracle = ridge_normal_equation_oracle(X, y)
        linear_ok &= np.allclose(
            np.concatenate([[fit.intercept], fit.coefficients]), oracle, atol=1e-6)
    checks.append(("linear fit matches normal-equation oracle to 1e-6", linear_ok))

    # analytic logistic score matches central finite differences, 1e-5 relative
    X = rng.normal(size=(80, 2))
    y = (rng.random(80) < 0.5).astype(float)
    design = np.hstack([np.ones((80, 1)), X])
    theta = rng.normal(size=3) * 0.5
    analytic = loglik_gradient(theta, design @ theta, design, y)[0]
    eps = 1e-6
    numeric = np.empty(3)
    for j in range(3):
        up, down = theta.copy(), theta.copy()
        up[j] += eps
        down[j] -= eps
        numeric[j] = (penalized_loglik(up, design @ up, 1.0 - 2.0 * y)
                      - penalized_loglik(down, design @ down, 1.0 - 2.0 * y)) / (2 * eps)
    checks.append(("logistic score matches finite differences (1e-5 relative)",
                   bool(np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7))))
    report_criterion(6, checks)


def test_criterion_7_dgp_analytic_checks():
    checks = []
    config = SimConfig(c1=3.0, xi=1.0)
    n = 100_000
    ds, _ = generate(config, n, np.random.default_rng(7))

    analytic = float(np.mean([expit(-2), expit(-3), expit(4), expit(3)]))
    checks.append(("enumerated P(A1=+1) equals 0.5253 to 4 decimals",
                   abs(analytic - 0.5253) < 5e-5))
    a1 = ds.actions(1)
    se = np.sqrt(analytic * (1 - analytic) / n)
    checks.append(("sampled P(A1=+1) within 4 SEs of enumeration",
                   abs(float(np.mean(a1 == 1.0)) - analytic) < 4 * se))

    from ivdtr.dtr_core import constant_dtr

    report = true_value(constant_dtr(-1, 2), config)
    checks.append(("standard-of-care raw value exactly 1.0",
                   report.raw_value == 1.0 and report.n_eval == 16))

    ctrl = ds.rewards(1)[a1 == -1.0]
    se_r = np.sqrt(0.25 / len(ctrl))
    checks.append(("P(R1=1 | A1=-1) = 0.5 within 4 SEs",
                   abs(float(ctrl.mean()) - 0.5) < 4 * se_r))
    report_criterion(7, checks)


def test_criterion_8_crossfit_leakage():
    from test_crossfit import scramble_batch

    rng = np.random.default_rng(9)
    lam = WeightSpec.minmax()
    clean = True
    for trial in range(20):
        ds = random_two_stage_dataset(rng, n=80)
        m = int(rng.integers(2, 5))
        batch = assign_batches(ds.n, m, rng)
        base, _ = crossfit_stage_contrasts(fit_stage_models(ds, BOUNDS2), batch, lam)
        j = int(rng.integers(0, m))
        held = np.flatnonzero(batch == j)
        scrambled = scramble_batch(ds, held, rng)
        refit = backward_induct(
            fit_stage_models(scrambled.subset(np.flatnonzero(batch != j)), BOUNDS2), lam)
        held_set = ds.subset(held)
        for k in (1, 2):
            clean &= bool(np.array_equal(
                base[k - 1][held], refit[k - 1].contrast_at(held_set.histories(k))))
    report_criterion(8, [("out-of-batch contrasts bit-identical on 20 trials", clean)])
