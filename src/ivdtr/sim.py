"""Two-stage synthetic data-generating process and factorial experiment runner.

Per trajectory, with confounding level xi and instrument strength c1:

  X1, X2 ~ Unif[-1, 1]
  U1 ~ Bern(1/2);  Z1 ~ Rademacher(1/2)
  A1 = +1 w.p. expit{c1 * (Z1 + 1) - xi * U1 - 2}
  R1 ~ Bern(expit{0.5 * (sgn(X1 - 1) - xi * U1 + 0.2) * (A1 + 1)})
  U2 ~ Bern(1/2);  Z2 ~ Rademacher(1/2)
  A2 = +1 w.p. expit{c1 * (Z2 + 1) + X1 - 7 * (R1 - 0.5) - xi * (1 + X1) * (2 U2 - 1)}
  R2 ~ Bern(expit{0.1 * (A1 + 1) + 0.4 * [1 - X1 + R1 - xi * (2 U2 - 1)] * (A2 + 1)})

A policy's value is one integrand over (X1, X2), the expectation over (U1, R1,
U2) enumerated exactly. Outcomes depend on the covariates only through X1 and
tree and constant stages are constant on the cells cut by their thresholds, so
such policies are integrated by quadrature (Gauss-Legendre in X1 between the
cuts, cell midpoints in X2), exact to rounding; in-memory sign-of-contrast
rules by Monte Carlo. The standard of care (-1, -1) evaluates to 1.0 exactly.
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
from .dtr_core import ConstantRule, Dtr, TreeNode, TreeRule, constant_dtr, fit_weighted_tree
from .improve import fit_ivimproved
from .nuisance import DEFAULT_CLIP, fit_linear, fit_logistic, fit_stage_models

STD_BASELINE_RAW_VALUE = 1.0  # analytic: each stage reward is Bern(1/2) under all -1
GAUSS_LEGENDRE_ORDER = 16  # quadrature nodes per X1 interval

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
    stage1_signal_threshold: float = 1.0
    threads: int = 1

    def __post_init__(self):
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if self.n_eval < 1:
            raise ValueError("n_eval must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.crossfit_m < 0:
            raise ValueError("crossfit must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


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


def _integrand(policy: Dtr, config: SimConfig, x: np.ndarray) -> np.ndarray:
    """Expected total reward at each row (x1, x2) of x, with U1, R1 and U2
    enumerated exactly."""
    xi, n = config.xi, x.shape[0]
    x1 = x[:, 0]
    a1 = policy.action_matrix(1, x).astype(float)
    # stage-2 decisions depend on r1; evaluate the rule on both branches
    a2_by_r1 = {}
    for r1_val in (0.0, 1.0):
        h2 = np.column_stack([x, a1, np.full(n, r1_val)])
        a2_by_r1[r1_val] = policy.action_matrix(2, h2).astype(float)

    total = np.zeros(n)
    for u1 in (0.0, 1.0):
        p_r1 = _r1_prob(x1, a1, u1, xi, config.stage1_signal_threshold)
        for r1_val in (0.0, 1.0):
            p_branch = p_r1 if r1_val == 1.0 else 1.0 - p_r1
            a2 = a2_by_r1[r1_val]
            stage2 = np.zeros(n)
            for u2 in (0.0, 1.0):
                stage2 += 0.5 * _r2_prob(x1, r1_val, a1, a2, u2, xi)
            total += 0.5 * p_branch * (r1_val + stage2)
    return total


def _quadrature(policy: Dtr, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]^2 for a tree/constant policy: Gauss-Legendre
    in x1 between the feature-0 cuts and the stage-1 signal threshold, and the
    midpoint of each cell between the feature-1 cuts in x2."""
    cuts = {0: {config.stage1_signal_threshold}, 1: set()}
    nodes = [stage.root for stage in policy.stages if isinstance(stage, TreeRule)]
    while nodes:
        node = nodes.pop()
        if isinstance(node, TreeNode):
            if node.feature in cuts:  # a1 and r1 splits are enumerated by the integrand
                cuts[node.feature].add(node.threshold)
            nodes += [node.left, node.right]
    edges1, edges2 = (np.array([-1.0, *sorted(t for t in cuts[j] if -1.0 < t < 1.0), 1.0])
                      for j in (0, 1))
    t, w = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)
    half = np.diff(edges1)[:, None] / 2.0
    x1 = (edges1[:-1, None] + half * (1.0 + t)).ravel()
    x2 = (edges2[:-1] + edges2[1:]) / 2.0
    x = np.column_stack([np.repeat(x1, x2.size), np.tile(x2, x1.size)])
    return x, np.outer(half * w, np.diff(edges2)).ravel()


def true_value(
    policy: Dtr,
    config: SimConfig,
    n_eval: int,
    rng: Optional[np.random.Generator] = None,
    x: Optional[np.ndarray] = None,
) -> EvalReport:
    """Value of a two-stage policy, the latent expectation enumerated exactly.

    Without x, a policy of tree and constant stages is integrated by quadrature:
    monte_carlo_se is 0.0 and the report's n_eval counts the nodes. Otherwise
    the value is a Monte Carlo average over n_eval points drawn from rng, or
    over the rows of x (common random numbers across regimes).
    """
    if policy.num_stages != 2:
        raise ValueError("the evaluator handles two-stage policies")
    if x is not None:
        x = np.asarray(x, dtype=float)
        n_eval = x.shape[0]
    if n_eval < 1:
        raise ValueError("n_eval must be >= 1")
    weights = None
    if x is None and all(isinstance(stage, (TreeRule, ConstantRule)) for stage in policy.stages):
        x, weights = _quadrature(policy, config)
    elif x is None:
        if rng is None:
            raise ValueError("a Monte Carlo evaluation needs rng or x")
        x = rng.uniform(-1.0, 1.0, size=(n_eval, 2))
    total = _integrand(policy, config, x)
    n_eval = total.size
    # np.average, not a dot product: a constant integrand averages to itself exactly
    raw = float(np.average(total, weights=weights))
    se = float(np.std(total, ddof=1) / math.sqrt(n_eval)) if weights is None and n_eval > 1 else 0.0
    return EvalReport(
        raw_value=raw,
        normalized_value=raw / STD_BASELINE_RAW_VALUE,
        monte_carlo_se=se,
        n_eval=n_eval,
    )


# ------------------------------ SRA baseline ------------------------------


def _aipw_contrast(H, a, y, mu_pos, mu_neg, prop_pos):
    """Doubly robust per-sample contrast estimate, propensity clipped."""
    prop = np.where(a == 1.0, prop_pos, 1.0 - prop_pos)
    prop = np.clip(prop, DEFAULT_CLIP, 1.0)
    mu_own = np.where(a == 1.0, mu_pos, mu_neg)
    return mu_pos - mu_neg + a * (y - mu_own) / prop


def _dr_stage(h, a, y, fit_arm, predict_arm, depth, stage):
    """One stage of doubly robust C-learning: per-arm outcome models, AIPW
    scores smoothed by a linear model, and a tree on the smoothed contrast.

    Returns (tree, arm +1 predictions, arm -1 predictions, whether every
    logistic fit converged).
    """
    if np.all(a == a[0]):
        raise ValueError(f"no treatment variation at stage {stage}")
    arm = {a0: fit_arm(h[a == a0], y[a == a0]) for a0 in (-1.0, 1.0)}
    prop = fit_logistic(h, (a == 1.0).astype(float))
    mu_pos, mu_neg = predict_arm(arm[1.0], h), predict_arm(arm[-1.0], h)
    phi = _aipw_contrast(h, a, y, mu_pos, mu_neg, prop.predict(h))
    contrast = fit_linear(h, phi).predict(h)
    tree = fit_weighted_tree(h, np.where(contrast >= 0, 1, -1), np.abs(contrast), depth)
    converged = all(getattr(model, "converged", True) for model in (prop, *arm.values()))
    return tree, mu_pos, mu_neg, converged


def fit_sra_baseline(dataset: Dataset, depth: int) -> tuple[Dtr, bool]:
    """Backward doubly-robust C-learning that ignores the instrument.

    Stage outcome models are logistic for the binary stage-2 reward and linear
    for the continuous stage-1 pseudo-outcome; contrasts are smoothed with a
    linear model of the per-sample doubly robust scores before the tree fit.
    Returns the policy and whether all four of its logistic fits converged.
    """
    if dataset.num_stages != 2:
        raise ValueError("the SRA baseline fitter handles two-stage data")
    tree2, mu2_pos, mu2_neg, converged2 = _dr_stage(
        dataset.histories(2), dataset.actions(2), dataset.rewards(2), fit_logistic,
        lambda model, h: np.clip(model.predict(h), 0.0, 1.0), depth, 2)
    # stage 1: pseudo-outcome r1 + max_a mu2(h2, a)
    tree1, _, _, converged1 = _dr_stage(
        dataset.histories(1), dataset.actions(1),
        dataset.rewards(1) + np.maximum(mu2_pos, mu2_neg), fit_linear,
        lambda model, h: np.clip(model.predict(h), 0.0, 2.0), depth, 1)
    return Dtr(stages=(tree1, tree2), kind="sra"), converged1 and converged2


# ------------------------------ cell runner ------------------------------


def fit_all_regimes(dataset: Dataset, config: SimConfig) -> dict[str, Dtr]:
    """Fit the nine regimes on one training set; the full-sample ones share
    one fit of each stage's instrument, treatment and reward models."""
    regimes: dict[str, Dtr] = {}
    std = constant_dtr(-1, 2, kind="std")
    prosp = constant_dtr(1, 2, kind="prosp")
    sra, _ = fit_sra_baseline(dataset, config.depth)
    models = fit_stage_models(dataset, SIM_REWARD_BOUNDS)
    regimes["pi_b_std"] = std
    regimes["pi_b_prosp"] = prosp
    regimes["pi_b_sra"] = sra
    for name, baseline, tag in (
        ("pi_up_std", std, "std"),
        ("pi_up_prosp", prosp, "prosp"),
        ("pi_up_sra", sra, "sra"),
    ):
        regimes[name], _ = fit_ivimproved(models, baseline, config.depth, baseline_id=tag)
    for name, lam_value in (("pi_iv_1", 1.0), ("pi_iv_0", 0.0), ("pi_iv_half", 0.5)):
        regimes[name], _ = fit_ivoptimal_crossfit(
            models, WeightSpec(lam_value), config.depth, m=config.crossfit_m, seed=config.seed,
        )
    return regimes


def run_replication(config: SimConfig, rep: int) -> dict[str, float]:
    """One experiment replication: generate, fit nine regimes, evaluate all."""
    train_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,)).spawn(2)[0]
    dataset, _ = generate(config, config.n_train, np.random.default_rng(train_seed))
    regimes = fit_all_regimes(dataset, config)
    return {name: true_value(regimes[name], config, config.n_eval).normalized_value
            for name in REGIMES}


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
    reps = range(config.replications)
    workers = min(config.threads, config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_values = list(pool.map(run_replication, [config] * config.replications, reps))
    else:
        all_values = [run_replication(config, rep) for rep in reps]
    rows = tuple(
        (rep, name, values[name])
        for rep, values in enumerate(all_values)
        for name in REGIMES
    )
    return CellResult(config=config, rows=rows, summary=_summarize(rows))
