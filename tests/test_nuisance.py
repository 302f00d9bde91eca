"""Logistic/linear fits against closed forms, finite differences, and oracles."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from synth import reference_arm_intervals

import ivdtr.crossfit
import ivdtr.nuisance
from ivdtr.bounds import RewardBounds, WeightSpec, weighted_q
from ivdtr.crossfit import crossfit_stage_contrasts
from ivdtr.data import assign_batches, dataset_from_arrays
from ivdtr.dtr_core import backward_induct, constant_dtr
from ivdtr.improve import relative_stage_estimates
from ivdtr.nuisance import (
    DEFAULT_CLIP,
    RIDGE,
    ConstantModel,
    LogisticModel,
    NuisanceSet,
    StageModels,
    fit_linear,
    fit_logistic,
    fit_stage_models,
    fit_stage_nuisance,
    logistic_mean,
    loglik_gradient,
    penalized_loglik,
)
from ivdtr.sim import SimConfig, generate


def ridge_normal_equation_oracle(X, y):
    """Independent solve of the slope-penalized normal equations."""
    X = np.atleast_2d(X)
    design = np.hstack([np.ones((X.shape[0], 1)), X])
    penalty = RIDGE * np.eye(design.shape[1])
    penalty[0, 0] = 0.0
    lhs = design.T @ design + penalty
    rhs = design.T @ y
    return np.linalg.solve(lhs, rhs)


def softplus(t):
    """log(1 + exp(t)) without overflow."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def two_term_loglik(theta, eta, y):
    """The penalized log-likelihood at eta = X @ theta with both Bernoulli
    terms written out per row."""
    ll = np.sum(y * -softplus(-eta) + (1.0 - y) * -softplus(eta))
    return float(ll - RIDGE * theta @ theta)


def reference_fit_logistic(features, labels):
    """Independent Newton/IRLS with step-halving in its longest form: two
    softplus terms per row, X @ theta computed afresh for every gradient and
    mean, and all 100 iterations run even when a step leaves theta unchanged.
    Its means are 1 / (1 + exp(-eta)); X @ theta is theta @ XF.T and the
    Hessian (XF.T * s) @ XF on a column-major copy XF of the design, while the
    gradient's X.T @ (y - mu) reads the row-major X. It starts at the labels'
    log-odds. A rejected full step whose predicted gain grad @ step is at most
    1e-13 * |ll| is taken as the optimum, and the fit stops converged; a
    passed gradient test after a Newton step adds one finishing step on the
    previous Hessian."""
    X = np.hstack([np.ones((features.shape[0], 1)), features])
    XF = np.asfortranarray(X)
    y = np.asarray(labels, dtype=float)
    n, p = X.shape

    def mean(theta):
        with np.errstate(over="ignore"):  # exp(-eta) = inf is the exact mean 0
            return 1.0 / (1.0 + np.exp(-(theta @ XF.T)))

    k = float(np.sum(y))
    theta = np.zeros(p)
    theta[0] = np.log((k + 0.5) / (n - k + 0.5))
    ll = two_term_loglik(theta, theta @ XF.T, y)
    converged = False
    hess = None
    for _ in range(100):
        grad = X.T @ (y - mean(theta)) - 2.0 * RIDGE * theta
        if np.linalg.norm(grad) <= 1e-8:
            if hess is not None:
                theta = theta + np.linalg.solve(hess, grad)
            converged = True
            break
        mu = mean(theta)
        s = mu * (1.0 - mu)
        hess = (XF.T * s) @ XF + 2.0 * RIDGE * np.eye(p)
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(40):
            candidate = theta + scale * step
            cand_ll = two_term_loglik(candidate, candidate @ XF.T, y)
            if cand_ll >= ll - 1e-14:
                theta, ll = candidate, cand_ll
                break
            if scale == 1.0 and grad @ step <= 1e-13 * abs(ll):
                return candidate[0], candidate[1:], True
            scale *= 0.5
        else:
            break
    else:
        grad = X.T @ (y - mean(theta)) - 2.0 * RIDGE * theta
        converged = np.linalg.norm(grad) <= 1e-8
    return theta[0], theta[1:], converged


def longdouble_optimum(features, labels):
    """The penalized optimum by Newton steps on np.longdouble gradients; the
    float Hessian only sets the rate, not the point the steps stop at."""
    X = np.hstack([np.ones((features.shape[0], 1)), features]).astype(np.longdouble)
    y = np.asarray(labels, dtype=np.longdouble)
    theta = np.zeros(X.shape[1], dtype=np.longdouble)
    for _ in range(60):
        mu = 1 / (1 + np.exp(-(X @ theta)))
        grad = X.T @ (y - mu) - 2 * np.longdouble(RIDGE) * theta
        hess = X.T @ ((mu * (1 - mu))[:, None] * X) + 2 * np.longdouble(RIDGE) * np.eye(len(theta))
        theta = theta + np.linalg.solve(hess.astype(float), grad.astype(float))
    return theta


def pinned_stuck_design(xi, rep, stage, model):
    """A simulated stage fit (c1=4, seed 0, replication rep) whose gradient
    norm near the optimum is about the absolute gradient tolerance, where the
    full Newton step's gain is below the log-likelihood's rounding: model "pz"
    is P(Z=+1|H), model "pa-" is P(A=+1|H,Z=-1)."""
    train_seed, _ = np.random.SeedSequence(entropy=0, spawn_key=(rep,)).spawn(2)
    dataset, _ = generate(SimConfig(c1=4.0, xi=xi), 1000, np.random.default_rng(train_seed))
    H, z, a = dataset.histories(stage), dataset.instruments(stage), dataset.actions(stage)
    if model == "pz":
        return H, (z == 1.0).astype(float)
    rows = z == -1.0
    return H[rows], (a[rows] == 1.0).astype(float)


def corpus_complement_design(held_batches, model):
    """Stage 2 of the first 10,000-row benchmark CSV, with the rows of the
    held batches (of 5) left out: 8,000 rows when one batch is held, as in a
    5-fold cross-fitting complement, 4,000 when three are. Model "pz" is
    P(Z=+1|H), model "pa-" is P(A=+1|H,Z=-1) on the complement's z=-1 rows."""
    dataset, _ = generate(SimConfig(c1=4.0, xi=1.0), 10_000,
                          np.random.default_rng([210407822, 0]))
    rows = ~np.isin(assign_batches(10_000, 5, np.random.default_rng(0)), held_batches)
    H, z, a = dataset.histories(2)[rows], dataset.instruments(2)[rows], dataset.actions(2)[rows]
    if model == "pz":
        return H, (z == 1.0).astype(float)
    return H[z == -1.0], (a[z == -1.0] == 1.0).astype(float)


PINNED_STUCK = [(1.0, 4, 1, "pa-"), (3.0, 2, 2, "pz"), (3.0, 3, 2, "pa-"), (3.0, 16, 2, "pa-")]


def ill_scaled_design(seed):
    """Features at scales 10^3 to 10^6, as raw incomes are: the gradient's
    rounding floor can lie above the absolute tolerance, and then only the
    stall stop ends the fit."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(200, 2001)), int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(3.0, 6.0, size=d)
    Z = rng.normal(size=(n, d))
    y = (rng.random(n) < expit(Z @ rng.normal(size=d))).astype(float)
    return Z * scale, y


ILL_SCALED = [ill_scaled_design(seed) for seed in (11, 206)]
# fits that end by the stall stop
STALLING = [pinned_stuck_design(*spec) for spec in PINNED_STUCK[1:]] + ILL_SCALED


def random_design(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(5, 400)), int(rng.integers(1, 5))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
    y = (rng.random(n) < expit(X @ rng.normal(size=d) * rng.uniform(0.0, 4.0))).astype(float)
    return X, y


def newton_designs():
    two_cell = np.concatenate([np.zeros(50), np.ones(50)])[:, None]
    yield from (pinned_stuck_design(*spec) for spec in PINNED_STUCK)
    yield (np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])[:, None],
           np.repeat([0.0, 1.0], 50))
    yield np.zeros((30, 1)), np.ones(30)
    yield two_cell, np.repeat([0.0, 1.0, 0.0, 1.0], [40, 10, 10, 40])
    yield from (random_design(seed) for seed in range(20))
    # sizes where the BLAS products take their blocked paths
    yield corpus_complement_design([0], "pz")
    yield corpus_complement_design([0], "pa-")
    yield corpus_complement_design([0, 1, 2], "pz")
    yield from ILL_SCALED


class TestNewtonLoop:
    @pytest.mark.parametrize("design", list(newton_designs()))
    def test_matches_reference_bit_for_bit(self, design):
        features, labels = design
        model = fit_logistic(features, labels)
        intercept, coefficients, converged = reference_fit_logistic(features, labels)
        assert model.intercept == intercept
        np.testing.assert_array_equal(model.coefficients, coefficients)
        assert model.converged == converged

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float here")
    @pytest.mark.parametrize("spec", PINNED_STUCK)
    def test_pinned_stalled_fits_converge(self, spec, monkeypatch):
        # spec0 ends by the gradient test and the finishing step, the others
        # by the stall stop; both must land on the optimum
        calls = {"penalized_loglik": 0, "loglik_gradient": 0}

        def counting(name):
            original = getattr(ivdtr.nuisance, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(ivdtr.nuisance, name, counting(name))
        features, labels = pinned_stuck_design(*spec)
        model = fit_logistic(features, labels)
        assert model.converged
        # the tracer counts these two calls as Newton iterations and ll evaluations
        assert 1 <= calls["loglik_gradient"] <= 10 and 1 <= calls["penalized_loglik"] <= 12
        theta = np.concatenate([[model.intercept], model.coefficients])
        optimum = longdouble_optimum(features, labels)
        error = np.abs(theta - optimum) / np.maximum(1.0, np.abs(optimum))
        assert float(np.max(error)) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float here")
    @pytest.mark.parametrize("design", list(newton_designs()))
    def test_fitted_probabilities_match_the_optimum(self, design):
        # the finishing step lands on the optimum, not GRAD_TOL short of it
        features, labels = design
        model = fit_logistic(features, labels)
        X = np.hstack([np.ones((features.shape[0], 1)), features])
        theta = np.concatenate([[model.intercept], model.coefficients])
        optimum = longdouble_optimum(features, labels)
        fitted_at_optimum = 1 / (1 + np.exp(-(X.astype(np.longdouble) @ optimum)))
        assert float(np.max(np.abs(expit(X @ theta) - fitted_at_optimum))) <= 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float here")
    @pytest.mark.parametrize("design", STALLING)
    def test_stall_stop_ends_the_fit_at_the_optimum(self, design, monkeypatch):
        # a fit ends on a log-likelihood evaluation only when a rejected full
        # step stalls; the gradient test and MAX_ITER end on a gradient
        calls = []

        def logging(name):
            original = getattr(ivdtr.nuisance, name)

            def logged(*args):
                calls.append(name)
                return original(*args)
            return logged

        for name in ("penalized_loglik", "loglik_gradient"):
            monkeypatch.setattr(ivdtr.nuisance, name, logging(name))
        features, labels = design
        model = fit_logistic(features, labels)
        assert model.converged and calls[-1] == "penalized_loglik"
        assert calls.count("loglik_gradient") <= 10
        theta = np.concatenate([[model.intercept], model.coefficients])
        optimum = longdouble_optimum(features, labels)
        error = np.abs(theta - optimum) / np.maximum(1.0, np.abs(optimum))
        assert float(np.max(error)) <= 1e-12

    def test_loglik_equals_two_term_formula_exactly(self):
        # eta = X @ theta spreads over +-700, where exp(eta) nearly overflows
        rng = np.random.default_rng(17)
        for n, p in [(500, 1), (300, 3), (1, 2)]:
            X = rng.uniform(-700.0, 700.0, size=(n, p)) / p
            theta = rng.choice([-1.0, 1.0], size=p)
            y = (rng.random(n) < 0.5).astype(float)
            one_term = penalized_loglik(theta, X @ theta, 1.0 - 2.0 * y)
            assert one_term == two_term_loglik(theta, X @ theta, y)


class TestFitLogistic:
    def test_separable_design_saturates(self):
        features = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])[:, None]
        labels = (features.ravel() > 0).astype(float)
        model = fit_logistic(features, labels)
        assert model.predict(np.array([[-1.0]]), clip=1e-6)[0] < 0.01
        assert model.predict(np.array([[1.0]]), clip=1e-6)[0] > 0.99

    def test_balanced_constant_feature(self):
        features = np.zeros((40, 1))
        labels = np.array([0.0, 1.0] * 20)
        model = fit_logistic(features, labels)
        assert abs(model.intercept) < 1e-6
        assert abs(model.predict(np.array([[0.0]]))[0] - 0.5) < 1e-6

    def test_saturated_two_cell_design(self):
        # empirical cell rates 0.2 and 0.8 recovered to 1e-6
        features = np.concatenate([np.zeros(50), np.ones(50)])[:, None]
        labels = np.concatenate([np.repeat([0.0, 1.0], [40, 10]),
                                 np.repeat([0.0, 1.0], [10, 40])])
        model = fit_logistic(features, labels)
        p0 = model.predict(np.array([[0.0]]), clip=1e-9)[0]
        p1 = model.predict(np.array([[1.0]]), clip=1e-9)[0]
        assert abs(p0 - 0.2) < 1e-6
        assert abs(p1 - 0.8) < 1e-6

    def test_all_one_labels_finite_via_ridge(self):
        model = fit_logistic(np.zeros((30, 1)), np.ones(30))
        assert np.isfinite(model.intercept)
        assert model.predict(np.array([[0.0]]), clip=1e-3)[0] == pytest.approx(0.999)

    def test_gradient_at_optimum_near_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < expit(X @ np.array([0.5, -1.0, 0.2]))).astype(float)
        model = fit_logistic(X, y)
        design = np.hstack([np.ones((200, 1)), X])
        theta = np.concatenate([[model.intercept], model.coefficients])
        grad = loglik_gradient(theta, design @ theta, design, y)[0]
        assert np.linalg.norm(grad) <= 1e-8

    def test_score_matches_finite_difference(self):
        # analytic score vs central finite differences, 1e-5 relative
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        design = np.hstack([np.ones((60, 1)), X])
        theta = np.array([0.3, -0.7, 0.4])
        analytic = loglik_gradient(theta, design @ theta, design, y)[0]
        eps = 1e-6
        numeric = np.empty_like(theta)
        for j in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            numeric[j] = (
                penalized_loglik(up, design @ up, 1.0 - 2.0 * y)
                - penalized_loglik(down, design @ down, 1.0 - 2.0 * y)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("fit", [fit_logistic, fit_linear], ids=["logistic", "linear"])
    def test_rejects_zero_rows(self, fit):
        with pytest.raises(ValueError, match="need at least one row"):
            fit(np.zeros((0, 1)), np.zeros(0))

    def test_rejects_bad_labels_and_nonfinite(self):
        with pytest.raises(ValueError, match="0/1"):
            fit_logistic(np.zeros((3, 1)), np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            fit_logistic(np.array([[np.nan]]), np.array([1.0]))


class TestPredictProb:
    """Clipped probability predictions at one history."""

    def test_null_model(self):
        np.testing.assert_array_equal(ConstantModel(0.5).predict(np.zeros((3, 1))), [0.5] * 3)
        model = fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]))
        assert model.predict(np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-9)

    def test_expit_four(self):
        model = LogisticModel(intercept=4.0, coefficients=np.zeros(1))
        value = model.predict(np.array([[0.0]]), clip=0.01)[0]
        assert value == pytest.approx(min(expit(4.0), 0.99), abs=1e-10)
        assert value == pytest.approx(0.98201, abs=5e-6)

    def test_clip_floor(self):
        model = LogisticModel(intercept=-100.0, coefficients=np.zeros(1))
        assert model.predict(np.array([[0.0]]), clip=0.001)[0] == 0.001


class TestLogisticMean:
    """The fits' and predictions' mean 1 / (1 + exp(-eta)) against expit."""

    def test_within_stated_bound_of_expit(self):
        # relative 1e-15 where expit is a normal float; below the smallest
        # normal float where exp(-eta) overflows or the mean is subnormal
        eta = np.linspace(-800.0, 800.0, 1_600_001)
        with np.errstate(over="ignore"):
            mean = logistic_mean(eta)
        exact = expit(eta)
        assert np.all(np.abs(mean - exact) <= 1e-15 * exact + np.finfo(float).tiny)

    @pytest.mark.parametrize("design", ILL_SCALED + [
        (np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])[:, None], np.repeat([0.0, 1.0], 50)),
        # separable; an accepted step puts eta near -958, where exp(-eta) overflows
        (np.array([[5220.3], [-586.9], [-22130.1], [9778.5]]), np.array([1.0, 0.0, 0.0, 1.0])),
    ])
    def test_fit_raises_no_runtime_warning(self, design):
        features, labels = design
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic(features, labels)
        assert np.isfinite(model.intercept) and np.all(np.isfinite(model.coefficients))

    def test_predict_at_800_is_exact_and_silent(self):
        model = LogisticModel(intercept=0.0, coefficients=np.ones(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = model.predict(np.array([[-800.0], [800.0]]), clip=0.0)
        np.testing.assert_array_equal(mean, [0.0, 1.0])


class TestFitLinear:
    def test_constant_targets(self):
        model = fit_linear(np.arange(6.0)[:, None], np.full(6, 3.25))
        assert model.intercept == pytest.approx(3.25, abs=1e-9)
        assert abs(model.coefficients[0]) < 1e-9

    def test_exact_line(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = fit_linear(X, 2.0 * X.ravel() + 1.0)
        np.testing.assert_allclose(
            [model.intercept, model.coefficients[0]], [1.0, 2.0], atol=5e-8
        )

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_linear(X, y)
        oracle = ridge_normal_equation_oracle(X, y)
        np.testing.assert_allclose(
            np.concatenate([[model.intercept], model.coefficients]), oracle, atol=1e-6
        )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_linear(np.array([[1.0]]), np.array([np.inf]))


def assert_same_intervals(got, expected):
    """Both arms' ends equal bit for bit, and the repair counts equal."""
    for got_end, end in zip((*got[0], *got[1]), (*expected[0], *expected[1]), strict=True):
        assert got_end.shape == end.shape and np.array_equal(got_end, end)
    assert got[2] == expected[2]


def fit_stage_nuisance_on(H, z, a, y, outcome_range, binary_outcome):
    """Outcome cells for y on the stage models of one stage's (H, z, a, y)."""
    models = StageModels(H=H, z=z, a=a, r=y, reward_range=outcome_range, tail=outcome_range)
    return fit_stage_nuisance(models, y, outcome_range, binary_outcome)


class TestFitStageNuisance:
    @staticmethod
    def compliant_data(n=400, seed=0):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(n, 2))
        z = rng.choice([-1.0, 1.0], size=n)
        a = z.copy()  # perfect compliance
        y = (rng.random(n) < 0.7).astype(float)
        return H, z, a, y

    def test_perfect_compliance_structure(self):
        H, z, a, y = self.compliant_data()
        ns = fit_stage_nuisance_on(H, z, a, y, outcome_range=(0.0, 1.0), binary_outcome=True)
        probe = np.zeros((1, 2))
        assert ns.pa[+1].predict(probe)[0] > 0.99
        assert ns.pa[-1].predict(probe)[0] < 0.01
        # cells (z=+1, a=-1) and (z=-1, a=+1) never occur
        assert (1, -1) in ns.empty_cells and (-1, 1) in ns.empty_cells

    def test_constant_one_outcomes(self):
        rng = np.random.default_rng(1)
        n = 200
        H = rng.normal(size=(n, 1))
        z = rng.choice([-1.0, 1.0], size=n)
        a = rng.choice([-1.0, 1.0], size=n)
        ns = fit_stage_nuisance_on(H, z, a, np.ones(n), outcome_range=(0.0, 1.0),
                                   binary_outcome=True)
        val = ns.cells_at(np.zeros((1, 1)))[(1, 1)][0]
        assert val == pytest.approx(1.0 - DEFAULT_CLIP, abs=1e-6)

    def test_empty_cell_fallback_midpoint(self):
        H = np.zeros((4, 1))
        z = np.array([1.0, 1.0, -1.0, -1.0])
        a = np.array([1.0, 1.0, -1.0, 1.0])   # cell (+1, -1) empty
        y = np.array([0.2, 0.4, 0.6, 0.8])
        ns = fit_stage_nuisance_on(H, z, a, y, outcome_range=(0.0, 1.0), binary_outcome=False)
        assert (1, -1) in ns.empty_cells
        assert ns.cells_at(np.zeros((1, 1)))[(1, -1)][0] == pytest.approx(0.5)

    def test_empty_instrument_arm_listed_before_cells(self):
        H = np.zeros((4, 1))
        z = -np.ones(4)                        # instrument arm z=+1 never occurs
        a = np.array([1.0, -1.0, 1.0, -1.0])
        ns = fit_stage_nuisance_on(H, z, a, np.full(4, 0.5), outcome_range=(0.0, 1.0),
                                   binary_outcome=False)
        assert ns.empty_cells == (("pa", 1), (1, -1), (1, 1))
        assert ns.pa[1].predict(np.zeros((1, 1)))[0] == 0.5

    def test_outcomes_outside_range_rejected(self):
        H, z, a, y = self.compliant_data()
        with pytest.raises(ValueError, match="outside declared range"):
            fit_stage_nuisance_on(H, z, a, y + 5.0, outcome_range=(0.0, 1.0),
                                  binary_outcome=False)

    def test_mu_predictions_clipped_to_range(self):
        rng = np.random.default_rng(2)
        n = 100
        H = rng.normal(size=(n, 1)) * 5
        z = rng.choice([-1.0, 1.0], size=n)
        a = rng.choice([-1.0, 1.0], size=n)
        y = rng.uniform(0.0, 2.0, size=n)
        ns = fit_stage_nuisance_on(H, z, a, y, outcome_range=(0.0, 2.0), binary_outcome=False)
        probe = rng.normal(size=(50, 1)) * 20
        for vals in ns.cells_at(probe).values():
            assert np.all(vals >= 0.0) and np.all(vals <= 2.0)

    def test_models_fit_and_bound_each_outcome_vector_once(self, monkeypatch):
        # equal bytes, range and kind give the same set, fitted once; any of
        # the three differing gives a new fit; intervals() bounds a set once
        H, z, a, y = self.compliant_data()
        models = StageModels(H=H, z=z, a=a, r=y, reward_range=(0.0, 1.0), tail=(0.0, 2.0))
        fits = []
        fit_cells = ivdtr.nuisance.fit_mu_cells
        monkeypatch.setattr(ivdtr.nuisance, "fit_mu_cells",
                            lambda *args: fits.append(1) or fit_cells(*args))
        first = fit_stage_nuisance(models, y, (0.0, 1.0), False)
        assert fit_stage_nuisance(models, y.copy(), (0, 1), False) is first
        assert len(fits) == 1
        others = [fit_stage_nuisance(models, 1.0 - y, (0.0, 1.0), False),
                  fit_stage_nuisance(models, y, (0.0, 2.0), False),
                  fit_stage_nuisance(models, y, (0.0, 1.0), True)]
        assert len(fits) == 4 and len({id(ns) for ns in [first, *others]}) == 4

        bounded = []
        bound = ivdtr.nuisance.arm_intervals
        monkeypatch.setattr(ivdtr.nuisance, "arm_intervals",
                            lambda *args: bounded.append(1) or bound(*args))
        got = models.intervals(first)
        assert all(models.intervals(first) is got for _ in range(3))
        assert len(bounded) == 1
        assert_same_intervals(got, first.intervals_at(H))

    def test_intervals_equal_intervals_at_on_own_sets(self):
        # a set fitted on the models is bounded on their instrument predictions
        # at H, as its own models predict them there
        H, z, a, y = self.compliant_data()
        models = StageModels(H=H, z=z, a=a, r=y, reward_range=(0.0, 1.0), tail=(0.0, 2.0))
        for ns in (models.reward, fit_stage_nuisance(models, 2.0 * y, (0.0, 2.0), False)):
            assert_same_intervals(models.intervals(ns), ns.intervals_at(H))
            assert_same_intervals(models.intervals(ns), reference_arm_intervals(ns, H))


@st.composite
def interval_datasets(draw):
    """K in {1, 2, 3} stages of 40 to 120 rows with rewards in [0, 1], binary or
    continuous; at one stage an instrument arm or a (z, a) cell may be empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K, n = draw(st.integers(1, 3)), draw(st.integers(40, 120))
    hole, at = draw(st.sampled_from(["none", "arm", "cell"])), draw(st.integers(1, K))
    covariates, z, a, r = [], [], [], []
    for k in range(1, K + 1):
        covariates.append(rng.normal(size=(n, 1 if k == 1 else draw(st.integers(0, 1)))))
        z_k = rng.choice([-1.0, 1.0], size=n)
        if hole == "arm" and k == at:
            z_k[:] = draw(st.sampled_from([-1.0, 1.0]))
        a_k = np.where(rng.random(n) < np.where(z_k == 1, 0.8, 0.2), 1.0, -1.0)
        if hole == "cell" and k == at:
            a_k[z_k == -1] = -1.0  # cell (-1, +1) empty
        z.append(z_k)
        a.append(a_k)
        r.append(rng.integers(0, 2, size=n).astype(float) if draw(st.booleans())
                 else rng.random(n))
    return dataset_from_arrays(covariates, z, a, r), rng


class TestOnePathToIntervals:
    """Every set the passes fit is bounded as the reference predicts each model."""

    @given(interval_datasets())
    @settings(max_examples=50, deadline=None)
    def test_every_set_the_passes_bound_matches_the_reference(self, drawn):
        ds, rng = drawn
        K = ds.num_stages
        models = fit_stage_models(ds, RewardBounds(lows=(0.0,) * K, highs=(1.0,) * K))
        for lam in (0.0, 0.5, 1.0):
            backward_induct(models, WeightSpec(lam))
        for label in (-1, 1):  # std and prosp
            relative_stage_estimates(models, constant_dtr(label, K))
        complements = []
        induct = ivdtr.crossfit.backward_induct
        batch = assign_batches(ds.n, 2, rng)
        with mock.patch.object(ivdtr.crossfit, "backward_induct",
                               lambda m, lam: complements.append(m) or induct(m, lam)):
            contrasts, fits = crossfit_stage_contrasts(models, batch, WeightSpec.minmax())

        for stages in (models, *complements):
            for stage in stages:
                sets = [v for v in stage._memo.values() if isinstance(v, NuisanceSet)]
                assert sets and (stages is not models or stage.reward in sets)
                for ns in sets:
                    assert ns in stage._memo  # the passes bounded it
                    expected = reference_arm_intervals(ns, stage.H)
                    assert_same_intervals(stage.intervals(ns), expected)
                    assert_same_intervals(ns.intervals_at(stage.H), expected)
                    assert_same_intervals(
                        reference_arm_intervals(ns, stage.H, stage.instrument), expected)
        for j, est in enumerate(fits):
            held = models[est.stage - 1].H[batch == j // K]
            plus, minus, _ = reference_arm_intervals(est.nuisance, held)
            expected = weighted_q(plus, est.lam) - weighted_q(minus, est.lam)
            assert np.array_equal(est.contrast_at(held), expected)
            assert np.array_equal(contrasts[est.stage - 1][batch == j // K], expected)
