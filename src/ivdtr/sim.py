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
tree stages are constant on the cells cut by their thresholds, so policies are
integrated by quadrature (Gauss-Legendre in X1 between the cuts, cell midpoints
in X2), exact to rounding. The standard of care (-1, -1) evaluates to 1.0
exactly.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .bounds import RewardBounds, WeightSpec
from .crossfit import fit_ivoptimal_crossfit
from .data import DataError, Dataset, dataset_from_arrays
from .dtr_core import Dtr, constant_dtr, fit_weighted_tree, sign_with_tie
from .improve import fit_ivimproved
from .nuisance import fit_linear, fit_logistic, fit_stage_models, is_binary_outcome

GAUSS_LEGENDRE_ORDER = 16  # quadrature nodes per X1 interval
# nodes and weights on [-1, 1], computed on first use: at import, leggauss's eigensolver
# would add ~1 MB to the peak memory of every command, evaluating or not
_legendre = functools.cache(functools.partial(np.polynomial.legendre.leggauss,
                                              GAUSS_LEGENDRE_ORDER))

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
    depth: int = 2
    replications: int = 100
    n_eval: int = 100_000
    crossfit_m: int = 0
    stage1_signal_threshold: float = 1.0
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.c1 < math.inf:
            raise ValueError("c1 must be positive and finite")
        if not 0 < self.xi < math.inf:
            raise ValueError("xi must be positive and finite")
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    n_eval: int


def _rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def _r1_prob(x1, a1, u1, xi, threshold):
    return expit(0.5 * (sign_with_tie(x1 - threshold) - xi * u1 + 0.2) * (a1 + 1.0))


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
    enumerated exactly on broadcast axes (u1, r1, u2) before the rows."""
    xi, n = config.xi, x.shape[0]
    x1 = x[:, 0]
    bit = np.array([[0.0], [1.0]])  # the values of u1, r1 and u2
    a1 = policy.action_matrix(1, x).astype(float)
    # stage-2 decisions depend on r1: one call covers both branches, r1 = 0 first
    h2 = np.column_stack([np.tile(x, (2, 1)), np.tile(a1, 2), np.repeat(bit, n)])
    a2 = policy.action_matrix(2, h2).astype(float).reshape(2, n)
    p_r1 = _r1_prob(x1, a1, bit, xi, config.stage1_signal_threshold)  # (u1, row)
    p_branch = np.stack([1.0 - p_r1, p_r1], axis=1)  # (u1, r1, row)
    p_r2 = _r2_prob(x1, bit[:, None], a1, a2[:, None], bit[None], xi)  # (r1, u2, row)
    t = 0.5 * p_branch * (bit + (0.5 * p_r2[:, 0] + 0.5 * p_r2[:, 1]))
    return t[0, 0] + t[0, 1] + t[1, 0] + t[1, 1]  # the sum in the enumeration's order


def _quadrature(policy: Dtr, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]^2 for a policy of trees: Gauss-Legendre
    in x1 between the feature-0 cuts and the stage-1 signal threshold, and the
    midpoint of each cell between the feature-1 cuts in x2."""
    cuts = {0: {config.stage1_signal_threshold}, 1: set()}
    for stage in policy.stages:
        for feature, threshold, _, _ in stage.nodes:
            if feature in cuts:  # a1 and r1 splits are enumerated by the integrand
                cuts[feature].add(threshold)
    edges1, edges2 = (np.array([-1.0, *sorted(t for t in cuts[j] if -1.0 < t < 1.0), 1.0])
                      for j in (0, 1))
    t, w = _legendre()
    half = np.diff(edges1)[:, None] / 2.0
    x1 = (edges1[:-1, None] + half * (1.0 + t)).ravel()
    x2 = (edges2[:-1] + edges2[1:]) / 2.0
    x = np.column_stack([np.repeat(x1, x2.size), np.tile(x2, x1.size)])
    return x, np.outer(half * w, np.diff(edges2)).ravel()


def true_value(policy: Dtr, config: SimConfig) -> EvalReport:
    """Value of a two-stage policy of trees, integrated by quadrature with the
    latent expectation enumerated exactly; the report's n_eval counts the nodes."""
    if policy.num_stages != 2:
        raise ValueError("the evaluator handles two-stage policies")
    x, weights = _quadrature(policy, config)
    total = _integrand(policy, config, x)
    # np.average, not a dot product: a constant integrand averages to itself exactly
    return EvalReport(raw_value=float(np.average(total, weights=weights)), n_eval=total.size)


# ------------------------------ SRA baseline ------------------------------


def _aipw_contrast(a, y, mu_pos, mu_neg, prop_pos):
    """Doubly robust per-sample contrast estimate; prop_pos comes from
    LogisticModel.predict, which clips it to [DEFAULT_CLIP, 1 - DEFAULT_CLIP]."""
    prop = np.where(a == 1.0, prop_pos, 1.0 - prop_pos)
    mu_own = np.where(a == 1.0, mu_pos, mu_neg)
    return mu_pos - mu_neg + a * (y - mu_own) / prop


def fit_sra_baseline(dataset: Dataset, depth: int) -> tuple[Dtr, bool]:
    """Backward doubly robust C-learning over k = K..1 that ignores the instrument.

    Stage k's outcome is r_k plus the next stage's larger arm prediction, on
    the sums over stages k..K of the observed reward minima and maxima. Arm
    models are logistic where the outcome is 0/1 on [0, 1] and linear
    otherwise, predictions clipped to that range; a linear model smooths the
    per-sample doubly robust contrasts before the tree fit. Returns the policy
    and whether every logistic fit converged.
    """
    r_min, r_max = dataset.r.min(axis=0), dataset.r.max(axis=0)
    stages, converged, next_value = [], True, 0.0
    for k in range(dataset.num_stages, 0, -1):
        h, a = dataset.histories(k), dataset.actions(k)
        if np.all(a == a[0]):
            raise DataError(f"no treatment variation at stage {k}")
        y = dataset.rewards(k) + next_value
        tail = (float(r_min[k - 1:].sum()), float(r_max[k - 1:].sum()))
        fit_arm = fit_logistic if is_binary_outcome(y, tail) else fit_linear
        arm = {a0: fit_arm(h[a == a0], y[a == a0]) for a0 in (-1.0, 1.0)}
        prop = fit_logistic(h, (a == 1.0).astype(float))
        mu_pos, mu_neg = (np.clip(arm[a0].predict(h), *tail) for a0 in (1.0, -1.0))
        phi = _aipw_contrast(a, y, mu_pos, mu_neg, prop.predict(h))
        contrast = fit_linear(h, phi).predict(h)
        stages.insert(0, fit_weighted_tree(h, sign_with_tie(contrast), np.abs(contrast), depth))
        converged &= all(getattr(m, "converged", True) for m in (prop, *arm.values()))
        next_value = np.maximum(mu_pos, mu_neg)
    return Dtr(stages=tuple(stages), kind="sra"), converged


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
    train_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep, 0))
    dataset, _ = generate(config, config.n_train, np.random.default_rng(train_seed))
    regimes = fit_all_regimes(dataset, config)
    return {name: true_value(regimes[name], config).raw_value for name in REGIMES}


@dataclass(frozen=True)
class CellResult:
    rows: tuple[tuple[int, str, float], ...]   # (replication, regime, value)

    def values(self, regime: str) -> np.ndarray:
        return np.array([v for _, name, v in self.rows if name == regime])

    @property
    def summary(self) -> dict:
        """Each regime's mean and quartiles over the replications."""
        summary = {}
        for name in REGIMES:
            vals = self.values(name)
            summary[name] = {"mean": float(np.mean(vals)),
                             "q25": float(np.quantile(vals, 0.25)),
                             "q75": float(np.quantile(vals, 0.75))}
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
    return CellResult(rows=rows)
