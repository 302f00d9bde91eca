"""Data-generating process marginals, exact evaluator, SRA baseline, cell runner."""

import numpy as np
import pytest
from scipy.special import expit

from ivdtr.dtr_core import Leaf, TreeNode, TreeRule, Dtr, constant_dtr
from ivdtr.sim import (
    REGIMES,
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
        cfg = SimConfig(c1=4.0, xi=1.0)
        prosp = constant_dtr(1, 2)
        small = true_value(prosp, cfg, 4000, np.random.default_rng(5))
        large = true_value(prosp, cfg, 64_000, np.random.default_rng(6))
        ratio = small.monte_carlo_se / large.monte_carlo_se
        assert 2.8 < ratio < 5.7  # ~sqrt(16) = 4
        assert abs(small.raw_value - large.raw_value) < 4 * small.monte_carlo_se

    def test_common_random_numbers(self):
        cfg = SimConfig(c1=4.0, xi=1.0)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(1000, 2))
        one = true_value(constant_dtr(1, 2), cfg, 1000, rng, x=x)
        two = true_value(constant_dtr(1, 2), cfg, 1000, rng, x=x)
        assert one.raw_value == two.raw_value


class TestSraBaseline:
    def test_requires_treatment_variation(self):
        cfg = SimConfig(c1=4.0, xi=1.0)
        ds, _ = generate(cfg, 200, np.random.default_rng(8))
        from ivdtr.data import Dataset, StageObservation, Trajectory

        frozen = Dataset(
            trajectories=tuple(
                Trajectory(stages=(
                    t.stages[0],
                    StageObservation(t.stages[1].covariates, t.stages[1].instrument,
                                     -1, t.stages[1].reward),
                ))
                for t in ds.trajectories
            ),
            num_stages=2, covariate_dims=ds.covariate_dims)
        with pytest.raises(ValueError, match="no treatment variation"):
            fit_sra_baseline(frozen, depth=2)

    def test_learns_valuable_policy_at_low_confounding(self):
        cfg = SimConfig(c1=4.0, xi=1.0, n_train=1000)
        ds, _ = generate(cfg, 1000, np.random.default_rng(9))
        sra = fit_sra_baseline(ds, depth=2)
        assert sra.kind == "sra"
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

    def test_all_regimes_fit(self):
        cfg = SimConfig(c1=4.0, xi=1.0, n_train=400, seed=5)
        ds, _ = generate(cfg, 400, np.random.default_rng(11))
        regimes = fit_all_regimes(ds, cfg)
        assert set(regimes) == set(REGIMES)
        for dtr in regimes.values():
            assert dtr.num_stages == 2
