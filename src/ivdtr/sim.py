"""Two-stage synthetic data-generating process and factorial experiment runner.

Per trajectory, with confounding level xi and instrument strength c1:

  X1, X2 ~ Unif[-1, 1]
  U1 ~ Bern(1/2);  Z1 ~ Rademacher(1/2)
  A1 = +1 w.p. expit{c1 * (Z1 + 1) - xi * U1 - 2}
  R1 ~ Bern(expit{0.5 * (sgn(X1 - 1) - xi * U1 + 0.2) * (A1 + 1)})
  U2 ~ Bern(1/2);  Z2 ~ Rademacher(1/2)
  A2 = +1 w.p. expit{c1 * (Z2 + 1) + X1 - 7 * (R1 - 0.5) - xi * (1 + X1) * (2 U2 - 1)}
  R2 ~ Bern(expit{0.1 * (A1 + 1) + 0.4 * [1 - X1 + R1 - xi * (2 U2 - 1)] * (A2 + 1)})

Policy values are computed by Monte Carlo over (X1, X2) only; the inner
expectation over (U1, R1, U2) is enumerated exactly, so the constant standard
of care policy (-1, -1) evaluates to 1.0 with zero variance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from .bounds import RewardBounds, WeightSpec
from .crossfit import fit_ivoptimal_crossfit
from .data import Dataset, dataset_from_arrays
from .dtr_core import Dtr, backward_induct, constant_dtr, fit_weighted_tree, project_policy
from .improve import fit_ivimproved
from .nuisance import fit_linear, fit_logistic

STD_BASELINE_RAW_VALUE = 1.0  # analytic: each stage reward is Bern(1/2) under all -1

REGIMES = (
    "pi_b_std", "pi_up_std",
    "pi_b_prosp", "pi_up_prosp",
    "pi_b_sra", "pi_up_sra",
    "pi_iv_1", "pi_iv_0", "pi_iv_half",
)


@dataclass(frozen=True)
class SimConfig:
    c1: float = 4.0
    xi: float = 1.0
    n_train: int = 1000
    seed: int = 0
    lam: WeightSpec = field(default_factory=WeightSpec.minmax)
    depth: int = 2
    replications: int = 100
    n_eval: int = 100_000
    crossfit_m: int = 0
    clip: float = 1e-3
    stage1_signal_threshold: float = 1.0
    threads: int = 1

    def __post_init__(self):
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.xi <= 0:
            raise ValueError("xi must be positive")


SIM_REWARD_BOUNDS = RewardBounds(lows=(0.0, 0.0), highs=(1.0, 1.0))


@dataclass(frozen=True)
class LatentTrace:
    """Debug-only export of the latent confounders; never fed to estimators."""

    u1: np.ndarray
    u2: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    raw_value: float
    normalized_value: float
    monte_carlo_se: float
    n_eval: int


def _sgn(values: np.ndarray) -> np.ndarray:
    return np.where(values >= 0, 1.0, -1.0)


def _rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def _r1_prob(x1, a1, u1, xi, threshold):
    return expit(0.5 * (_sgn(x1 - threshold) - xi * u1 + 0.2) * (a1 + 1.0))


def _r2_prob(x1, r1, a1, a2, u2, xi):
    return expit(0.1 * (a1 + 1.0) + 0.4 * (1.0 - x1 + r1 - xi * (2.0 * u2 - 1.0)) * (a2 + 1.0))


def generate(config: SimConfig, n: int, rng: np.random.Generator) -> tuple[Dataset, LatentTrace]:
    """Draw n trajectories from the two-stage process."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xi, c1 = config.xi, config.c1
    x1 = rng.uniform(-1.0, 1.0, size=n)
    x2 = rng.uniform(-1.0, 1.0, size=n)
    u1 = rng.integers(0, 2, size=n).astype(float)
    z1 = _rademacher(rng, n)
    a1 = np.where(rng.random(n) < expit(c1 * (z1 + 1.0) - xi * u1 - 2.0), 1.0, -1.0)
    r1 = (rng.random(n) < _r1_prob(x1, a1, u1, xi, config.stage1_signal_threshold)).astype(float)
    u2 = rng.integers(0, 2, size=n).astype(float)
    z2 = _rademacher(rng, n)
    a2_prob = expit(c1 * (z2 + 1.0) + x1 - 7.0 * (r1 - 0.5) - xi * (1.0 + x1) * (2.0 * u2 - 1.0))
    a2 = np.where(rng.random(n) < a2_prob, 1.0, -1.0)
    r2 = (rng.random(n) < _r2_prob(x1, r1, a1, a2, u2, xi)).astype(float)

    dataset = dataset_from_arrays(
        covariates=[np.column_stack([x1, x2]), np.empty((n, 0))],
        instruments=[z1, z2],
        actions=[a1, a2],
        rewards=[r1, r2],
    )
    return dataset, LatentTrace(u1=u1, u2=u2)


def true_value(
    policy: Dtr,
    config: SimConfig,
    n_eval: int,
    rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> EvalReport:
    """Exact-inner-expectation Monte Carlo value of a two-stage policy.

    Draws (X1, X2) (or reuses the provided x of shape (n_eval, 2), enabling
    common random numbers across regimes) and enumerates U1, R1, U2.
    """
    if policy.num_stages != 2:
        raise ValueError("the evaluator handles two-stage policies")
    xi = config.xi
    if x is None:
        x = rng.uniform(-1.0, 1.0, size=(n_eval, 2))
    else:
        x = np.asarray(x, dtype=float)
        n_eval = x.shape[0]
    x1 = x[:, 0]

    a1 = policy.action_matrix(1, x).astype(float)
    # stage-2 decisions depend on r1; evaluate the rule on both branches
    a2_by_r1 = {}
    for r1_val in (0.0, 1.0):
        h2 = np.column_stack([x, a1, np.full(n_eval, r1_val)])
        a2_by_r1[r1_val] = policy.action_matrix(2, h2).astype(float)

    total = np.zeros(n_eval)
    for u1 in (0.0, 1.0):
        p_r1 = _r1_prob(x1, a1, u1, xi, config.stage1_signal_threshold)
        for r1_val in (0.0, 1.0):
            p_branch = p_r1 if r1_val == 1.0 else 1.0 - p_r1
            a2 = a2_by_r1[r1_val]
            stage2 = np.zeros(n_eval)
            for u2 in (0.0, 1.0):
                stage2 += 0.5 * _r2_prob(x1, r1_val, a1, a2, u2, xi)
            total += 0.5 * p_branch * (r1_val + stage2)

    raw = float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(n_eval)) if n_eval > 1 else 0.0
    return EvalReport(
        raw_value=raw,
        normalized_value=raw / STD_BASELINE_RAW_VALUE,
        monte_carlo_se=se,
        n_eval=n_eval,
    )


# ------------------------------ SRA baseline ------------------------------


def _aipw_contrast(H, a, y, mu_pos, mu_neg, prop_pos, clip):
    """Doubly robust per-sample contrast estimate, propensity clipped."""
    prop = np.where(a == 1.0, prop_pos, 1.0 - prop_pos)
    prop = np.clip(prop, clip, 1.0)
    mu_own = np.where(a == 1.0, mu_pos, mu_neg)
    return mu_pos - mu_neg + a * (y - mu_own) / prop


def _dr_stage(h, a, y, fit_arm, predict_arm, depth, clip, stage):
    """One stage of doubly robust C-learning: per-arm outcome models, AIPW
    scores smoothed by a linear model, and a tree on the smoothed contrast.

    Returns (tree, arm +1 predictions, arm -1 predictions).
    """
    if np.all(a == a[0]):
        raise ValueError(f"no treatment variation at stage {stage}")
    arm = {a0: fit_arm(h[a == a0], y[a == a0]) for a0 in (-1.0, 1.0)}
    prop = fit_logistic(h, (a == 1.0).astype(float))
    mu_pos, mu_neg = predict_arm(arm[1.0], h), predict_arm(arm[-1.0], h)
    phi = _aipw_contrast(h, a, y, mu_pos, mu_neg, prop.predict(h, clip=clip), clip)
    contrast = fit_linear(h, phi).predict(h)
    tree = fit_weighted_tree(h, np.where(contrast >= 0, 1, -1), np.abs(contrast), depth)
    return tree, mu_pos, mu_neg


def fit_sra_baseline(dataset: Dataset, depth: int, clip: float = 1e-3) -> Dtr:
    """Backward doubly-robust C-learning that ignores the instrument.

    Stage outcome models are logistic for the binary stage-2 reward and linear
    for the continuous stage-1 pseudo-outcome; contrasts are smoothed with a
    linear model of the per-sample doubly robust scores before the tree fit.
    """
    if dataset.num_stages != 2:
        raise ValueError("the SRA baseline fitter handles two-stage data")
    tree2, mu2_pos, mu2_neg = _dr_stage(
        dataset.histories(2), dataset.actions(2), dataset.rewards(2), fit_logistic,
        lambda model, h: np.clip(model.predict(h, clip=clip), 0.0, 1.0), depth, clip, 2)
    # stage 1: pseudo-outcome r1 + max_a mu2(h2, a)
    tree1, _, _ = _dr_stage(
        dataset.histories(1), dataset.actions(1),
        dataset.rewards(1) + np.maximum(mu2_pos, mu2_neg), fit_linear,
        lambda model, h: np.clip(model.predict(h), 0.0, 2.0), depth, clip, 1)
    return Dtr(stages=(tree1, tree2), kind="sra")


# ------------------------------ cell runner ------------------------------


def fit_all_regimes(dataset: Dataset, config: SimConfig) -> dict[str, Dtr]:
    """Fit the nine regimes on one training set."""
    regimes: dict[str, Dtr] = {}
    std = constant_dtr(-1, 2, kind="std")
    prosp = constant_dtr(1, 2, kind="prosp")
    sra = fit_sra_baseline(dataset, config.depth, clip=config.clip)
    regimes["pi_b_std"] = std
    regimes["pi_b_prosp"] = prosp
    regimes["pi_b_sra"] = sra
    for name, baseline, tag in (
        ("pi_up_std", std, "std"),
        ("pi_up_prosp", prosp, "prosp"),
        ("pi_up_sra", sra, "sra"),
    ):
        improved, _ = fit_ivimproved(
            dataset, baseline, SIM_REWARD_BOUNDS, config.depth,
            clip=config.clip, baseline_id=tag,
        )
        regimes[name] = improved
    for name, lam_value in (("pi_iv_1", 1.0), ("pi_iv_0", 0.0), ("pi_iv_half", 0.5)):
        lam = WeightSpec(lam_value)
        if config.crossfit_m >= 2:
            dtr = fit_ivoptimal_crossfit(
                dataset, SIM_REWARD_BOUNDS, lam, config.depth,
                m=config.crossfit_m, seed=config.seed, clip=config.clip,
            )
        else:
            estimates, _ = backward_induct(dataset, SIM_REWARD_BOUNDS, lam, clip=config.clip)
            dtr = project_policy(estimates, dataset, config.depth, lam=lam)
        regimes[name] = dtr
    return regimes


def run_replication(config: SimConfig, rep: int) -> dict[str, float]:
    """One experiment replication: generate, fit nine regimes, evaluate all."""
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    train_seed, eval_seed = seq.spawn(2)
    train_rng = np.random.default_rng(train_seed)
    dataset, _ = generate(config, config.n_train, train_rng)
    regimes = fit_all_regimes(dataset, config)
    eval_rng = np.random.default_rng(eval_seed)
    x = eval_rng.uniform(-1.0, 1.0, size=(config.n_eval, 2))
    values = {}
    for name in REGIMES:
        report = true_value(regimes[name], config, config.n_eval, eval_rng, x=x)
        values[name] = report.normalized_value
    return values


@dataclass(frozen=True)
class CellResult:
    config: SimConfig
    rows: tuple[tuple[int, str, float], ...]   # (replication, regime, value)
    summary: dict

    def values(self, regime: str) -> np.ndarray:
        return np.array([v for _, name, v in self.rows if name == regime])


def _summarize(rows: Sequence[tuple[int, str, float]]) -> dict:
    summary = {}
    for name in REGIMES:
        vals = np.array([v for _, regime, v in rows if regime == name])
        summary[name] = {
            "mean": float(np.mean(vals)),
            "q25": float(np.quantile(vals, 0.25)),
            "q75": float(np.quantile(vals, 0.75)),
        }
    return summary


def run_cell(config: SimConfig) -> CellResult:
    """Run all replications of one factorial cell and summarize."""
    if config.replications < 1:
        raise ValueError("replications must be >= 1")
    reps = range(config.replications)
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            all_values = list(pool.map(run_replication, [config] * config.replications, reps))
    else:
        all_values = [run_replication(config, rep) for rep in reps]
    rows = tuple(
        (rep, name, values[name])
        for rep, values in enumerate(all_values)
        for name in REGIMES
    )
    return CellResult(config=config, rows=rows, summary=_summarize(rows))
