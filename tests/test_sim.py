"""Data-generating process marginals, quadrature and Monte Carlo evaluators, SRA
baseline, cell runner."""

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

import ivdtr.nuisance
import ivdtr.sim
from ivdtr.bounds import WeightSpec
from ivdtr.crossfit import fit_ivoptimal_crossfit
from ivdtr.dtr_core import (
    Dtr, Leaf, SignOfContrast, TreeNode, TreeRule, backward_induct, constant_dtr,
)
from ivdtr.nuisance import fit_stage_models
from ivdtr.sim import (
    REGIMES,
    SIM_REWARD_BOUNDS,
    SimConfig,
    _r1_prob,
    _r2_prob,
    fit_all_regimes,
    fit_sra_baseline,
    generate,
    run_cell,
    run_replication,
    true_value,
)


def quadrature_policy_value(policy, xi, threshold=1.0, grid=20001):
    """Independent evaluation oracle: x1-quadrature, exact latent enumeration.

    Only covers policies whose decisions depend on x through x1 alone (the
    constant policies used here), which keeps the oracle one-dimensional.
    """
    x1 = np.linspace(-1 + 1e-9, 1 - 1e-9, grid)
    x = np.column_stack([x1, np.zeros_like(x1)])
    a1 = policy.action_matrix(1, x).astype(float)
    total = np.zeros_like(x1)
    for u1 in (0.0, 1.0):
        p1 = expit(0.5 * (np.where(x1 >= threshold, 1.0, -1.0) - xi * u1 + 0.2) * (a1 + 1))
        for r1 in (0.0, 1.0):
            pb = p1 if r1 == 1.0 else 1 - p1
            h2 = np.column_stack([x, a1, np.full_like(x1, r1)])
            a2 = policy.action_matrix(2, h2).astype(float)
            s2 = np.zeros_like(x1)
            for u2 in (0.0, 1.0):
                s2 += 0.5 * expit(
                    0.1 * (a1 + 1) + 0.4 * (1 - x1 + r1 - xi * (2 * u2 - 1)) * (a2 + 1)
                )
            total += 0.5 * pb * (r1 + s2)
    return float(total.mean())


class TestGenerate:
    def test_marginals_against_enumeration(self):
        # P(A1=+1 | C1=3, xi=1) enumerates to 0.5253 over (Z1, U1)
        cfg = SimConfig(c1=3.0, xi=1.0)
        n = 100_000
        ds, trace = generate(cfg, n, np.random.default_rng(0))
        analytic = float(np.mean([expit(-2), expit(-3), expit(4), expit(3)]))
        assert analytic == pytest.approx(0.5253, abs=5e-5)
        a1 = ds.actions(1)
        se = np.sqrt(analytic * (1 - analytic) / n)
        assert abs(np.mean(a1 == 1.0) - analytic) < 4 * se

        # P(R1=1 | A1=-1) = 0.5 exactly in the process
        r1 = ds.rewards(1)
        ctrl = r1[a1 == -1.0]
        assert abs(ctrl.mean() - 0.5) < 4 * np.sqrt(0.25 / len(ctrl))

        # instruments are fair coins
        for k in (1, 2):
            zk = ds.instruments(k)
            assert abs(np.mean(zk == 1.0) - 0.5) < 4 * np.sqrt(0.25 / n)

        assert trace.u1.shape == (n,)
        assert set(np.unique(trace.u1)) <= {0.0, 1.0}

    def test_reward_probability_zeroed_by_control_arm(self):
        x1 = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(_r1_prob(x1, -1.0, 1.0, 3.0, 1.0), 0.5)
        np.testing.assert_allclose(_r2_prob(x1, 1.0, -1.0, -1.0, 1.0, 3.0), 0.5)

    def test_structure(self):
        cfg = SimConfig(c1=4.0, xi=2.0)
        ds, _ = generate(cfg, 50, np.random.default_rng(1))
        assert ds.num_stages == 2
        assert ds.covariate_dims == (2, 0)
        assert ds.histories(2).shape == (50, 4)
        assert set(np.unique(ds.rewards(1))) <= {0.0, 1.0}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SimConfig(c1=0.0)
        with pytest.raises(ValueError, match="n_eval"):
            SimConfig(n_eval=0)
        with pytest.raises(ValueError, match="crossfit"):
            SimConfig(crossfit_m=-1)
        with pytest.raises(ValueError, match="threads"):
            SimConfig(threads=0)
        with pytest.raises(ValueError, match="replications"):
            SimConfig(replications=0)
        cfg = SimConfig()
        with pytest.raises(ValueError):
            generate(cfg, 0, np.random.default_rng(0))


class TestTrueValue:
    def test_std_baseline_exact(self):
        cfg = SimConfig(c1=4.0, xi=1.0)
        report = true_value(constant_dtr(-1, 2), cfg, 5000, np.random.default_rng(2))
        assert report.raw_value == 1.0
        assert report.normalized_value == 1.0
        assert report.monte_carlo_se == 0.0

    @pytest.mark.parametrize("xi", [1.0, 2.0, 3.0])
    def test_prosp_matches_quadrature_oracle(self, xi):
        cfg = SimConfig(c1=4.0, xi=xi)
        prosp = constant_dtr(1, 2)
        oracle = quadrature_policy_value(prosp, xi)
        report = true_value(prosp, cfg, 200_000, np.random.default_rng(3))
        assert abs(report.raw_value - oracle) < 4 * report.monte_carlo_se + 1e-4

    def test_tree_policy_matches_quadrature_oracle(self):
        # stage-2 rule splits on r1; stage-1 rule splits on x1
        stage1 = TreeRule(root=TreeNode(0, 0.2, Leaf(-1), Leaf(1)), max_depth=1)
        stage2 = TreeRule(root=TreeNode(3, 0.5, Leaf(-1), Leaf(1)), max_depth=1)
        policy = Dtr(stages=(stage1, stage2), kind="constant")
        cfg = SimConfig(c1=4.0, xi=2.0)
        oracle = quadrature_policy_value(policy, 2.0)
        report = true_value(policy, cfg, 200_000, np.random.default_rng(4))
        assert abs(report.raw_value - oracle) < 4 * report.monte_carlo_se + 1e-4

    def test_se_scales_with_sample_size(self):
        # the in-memory sign rule is the policy that Monte Carlo still evaluates
        cfg = SimConfig(c1=4.0, xi=1.0)
        ds, _ = generate(cfg, 1000, np.random.default_rng(13))
        _, sign_rule = backward_induct(fit_stage_models(ds, SIM_REWARD_BOUNDS),
                                       WeightSpec.minmax())
        assert all(isinstance(stage, SignOfContrast) for stage in sign_rule.stages)
        small = true_value(sign_rule, cfg, 4000, np.random.default_rng(5))
        large = true_value(sign_rule, cfg, 64_000, np.random.default_rng(6))
        ratio = small.monte_carlo_se / large.monte_carlo_se
        assert 2.8 < ratio < 5.7  # ~sqrt(16) = 4
        assert abs(small.raw_value - large.raw_value) < 4 * small.monte_carlo_se

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="n_eval"):
            true_value(constant_dtr(1, 2), SimConfig(), 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_eval"):
            true_value(constant_dtr(1, 2), SimConfig(), 5, np.random.default_rng(0),
                       x=np.empty((0, 2)))

    def test_common_random_numbers(self):
        cfg = SimConfig(c1=4.0, xi=1.0)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(1000, 2))
        one = true_value(constant_dtr(1, 2), cfg, 1000, rng, x=x)
        two = true_value(constant_dtr(1, 2), cfg, 1000, rng, x=x)
        assert one.raw_value == two.raw_value


def random_tree(rng, n_features, depth=2):
    """A random tree of depth <= 2 with thresholds in (-1, 1)."""
    def grow(level):
        if level == depth or (level > 0 and rng.random() < 0.3):
            return Leaf(int(rng.choice([-1, 1])))
        return TreeNode(int(rng.integers(n_features)), float(rng.uniform(-1, 1)),
                        grow(level + 1), grow(level + 1))

    return TreeRule(root=grow(0), max_depth=depth)


def random_policy(rng):
    # stage 1 splits on (x1, x2); stage 2 on (x1, x2, a1, r1)
    return Dtr(stages=(random_tree(rng, 2), random_tree(rng, 4)))


class TestQuadrature:
    @pytest.mark.parametrize("xi", [1.0, 3.0])
    def test_random_trees_match_monte_carlo(self, xi):
        cfg = SimConfig(c1=4.0, xi=xi)
        rng = np.random.default_rng(int(xi) + 20)
        for _ in range(6):
            policy = random_policy(rng)
            exact = true_value(policy, cfg, cfg.n_eval)
            mc = true_value(policy, cfg, 200_000, x=rng.uniform(-1.0, 1.0, size=(200_000, 2)))
            assert exact.monte_carlo_se == 0.0
            assert exact.n_eval <= 256  # 6 cuts: (1 + 3) x1 intervals * 16 * (1 + 3) x2 cells
            # 1e-12 admits an integrand constant in x (a2 = -1 throughout), whose
            # Monte Carlo SE is rounding noise
            assert abs(exact.raw_value - mc.raw_value) < 4 * mc.monte_carlo_se + 1e-12

    def test_node_count_converged(self, monkeypatch):
        cfg = SimConfig(c1=4.0, xi=3.0, stage1_signal_threshold=0.1)
        rng = np.random.default_rng(30)
        policies = [random_policy(rng) for _ in range(10)] + [constant_dtr(1, 2)]
        at_16 = [true_value(policy, cfg, 1).raw_value for policy in policies]
        monkeypatch.setattr(ivdtr.sim, "GAUSS_LEGENDRE_ORDER", 32)
        at_32 = [true_value(policy, cfg, 1).raw_value for policy in policies]
        np.testing.assert_allclose(at_16, at_32, rtol=0.0, atol=1e-12)

    def test_signal_threshold_cut_matches_quadrature_oracle(self):
        # treated on x1 >= -0.9, so R1's signal jumps at the threshold 0.3
        stage1 = TreeRule(root=TreeNode(0, -0.9, Leaf(-1), Leaf(1)), max_depth=1)
        stage2 = TreeRule(root=TreeNode(3, 0.5, Leaf(1), Leaf(-1)), max_depth=1)
        policy = Dtr(stages=(stage1, stage2))
        cfg = SimConfig(c1=4.0, xi=2.0, stage1_signal_threshold=0.3)
        exact = true_value(policy, cfg, cfg.n_eval).raw_value
        assert abs(exact - quadrature_policy_value(policy, 2.0, threshold=0.3)) < 1e-4
        assert abs(exact - true_value(policy, SimConfig(c1=4.0, xi=2.0), 1).raw_value) > 0.01

    def test_explicit_points_and_sign_rules_stay_monte_carlo(self):
        cfg = SimConfig(c1=4.0, xi=1.0)
        x = np.random.default_rng(31).uniform(-1, 1, size=(500, 2))
        report = true_value(constant_dtr(1, 2), cfg, 500, x=x)
        assert report.n_eval == 500 and report.monte_carlo_se > 0.0
        ds, _ = generate(cfg, 300, np.random.default_rng(32))
        _, sign_rule = backward_induct(fit_stage_models(ds, SIM_REWARD_BOUNDS),
                                       WeightSpec.minmax())
        with pytest.raises(ValueError, match="needs rng or x"):
            true_value(sign_rule, cfg, 500)


class TestSraBaseline:
    def test_requires_treatment_variation(self):
        cfg = SimConfig(c1=4.0, xi=1.0)
        ds, _ = generate(cfg, 200, np.random.default_rng(8))
        a = ds.a.copy()
        a[:, 1] = -1
        frozen = dataclasses.replace(ds, a=a)
        with pytest.raises(ValueError, match="no treatment variation"):
            fit_sra_baseline(frozen, depth=2)

    def test_learns_valuable_policy_at_low_confounding(self):
        cfg = SimConfig(c1=4.0, xi=1.0, n_train=1000)
        ds, _ = generate(cfg, 1000, np.random.default_rng(9))
        sra, converged = fit_sra_baseline(ds, depth=2)
        assert sra.kind == "sra"
        assert converged
        report = true_value(sra, cfg, 50_000, np.random.default_rng(10))
        assert report.normalized_value > 1.05


class TestRunCell:
    def test_replication_deterministic(self):
        cfg = SimConfig(c1=3.0, xi=1.0, n_train=300, seed=42, n_eval=5000,
                        replications=1)
        one = run_replication(cfg, 0)
        two = run_replication(cfg, 0)
        assert one == two

    def test_cell_shape_and_summary(self):
        cfg = SimConfig(c1=3.0, xi=1.0, n_train=300, seed=1, n_eval=5000,
                        replications=2)
        result = run_cell(cfg)
        assert len(result.rows) == 2 * len(REGIMES)
        assert result.summary["pi_b_std"]["mean"] == 1.0
        for name in REGIMES:
            stats = result.summary[name]
            assert stats["q25"] <= stats["mean"] + 1e-9 or True
            assert stats["q25"] <= stats["q75"]

    def test_parallel_matches_sequential(self):
        cfg = SimConfig(c1=3.0, xi=1.0, n_train=300, seed=3, n_eval=5000,
                        replications=2)
        seq = run_cell(cfg)
        par = run_cell(SimConfig(c1=3.0, xi=1.0, n_train=300, seed=3, n_eval=5000,
                                 replications=2, threads=2))
        assert seq.rows == par.rows

    @pytest.mark.parametrize("threads, replications, max_workers", [
        (4, 2, 2), (3, 5, 3), (4, 1, None), (1, 3, None),
    ])
    def test_worker_pool_capped_at_replications(self, monkeypatch, threads, replications,
                                                max_workers):
        # no process starts: the executor maps in-process and only records
        # the pool size it was asked for (None: no pool opened)
        opened = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(ivdtr.sim, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(ivdtr.sim, "run_replication",
                            lambda config, rep: {name: float(rep) for name in REGIMES})
        result = run_cell(SimConfig(replications=replications, threads=threads))
        assert opened == ([] if max_workers is None else [max_workers])
        assert [rep for rep, _, _ in result.rows[::len(REGIMES)]] == list(range(replications))

    def test_crossfit_replication_runs_the_crossfit_fit(self):
        # with crossfit_m >= 2 each IV regime is the cross-fitted policy on the
        # replication's own training draw, evaluated by quadrature
        cfg = SimConfig(c1=4.0, xi=1.0, n_train=200, n_eval=2000, seed=3, crossfit_m=2)
        values = run_replication(cfg, 0)
        assert set(values) == set(REGIMES)
        assert all(np.isfinite(v) for v in values.values())
        assert values["pi_b_std"] == 1.0
        train_seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)).spawn(2)[0]
        ds, _ = generate(cfg, cfg.n_train, np.random.default_rng(train_seed))
        for name, lam in (("pi_iv_1", 1.0), ("pi_iv_0", 0.0), ("pi_iv_half", 0.5)):
            policy, _ = fit_ivoptimal_crossfit(fit_stage_models(ds, SIM_REWARD_BOUNDS),
                                               WeightSpec(lam), cfg.depth, m=2, seed=cfg.seed)
            expected = true_value(policy, cfg, cfg.n_eval).normalized_value
            assert values[name] == expected

    def test_all_regimes_fit(self):
        cfg = SimConfig(c1=4.0, xi=1.0, n_train=400, seed=5)
        ds, _ = generate(cfg, 400, np.random.default_rng(11))
        regimes = fit_all_regimes(ds, cfg)
        assert set(regimes) == set(REGIMES)
        for dtr in regimes.values():
            assert dtr.num_stages == 2

    def test_stage_models_fit_once_per_dataset(self, monkeypatch):
        # logistic fits: 3 instrument/treatment models per stage and the 4
        # binary reward cells of each stage, all fitted once; 4 in the SRA
        # baseline. The regimes' own cells bound continuous pseudo-outcomes.
        calls = []
        original = ivdtr.nuisance.fit_logistic

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (ivdtr.nuisance, ivdtr.sim):
            monkeypatch.setattr(module, "fit_logistic", counted)
        cfg = SimConfig(c1=4.0, xi=1.0, n_train=1000, seed=5)
        ds, _ = generate(cfg, 1000, np.random.default_rng(12))
        fit_all_regimes(ds, cfg)
        assert len(calls) == 2 * 3 + 4 + 2 * 4 == 18
