"""Parametric nuisance models: logistic and linear regression fit from scratch.

These are the "simple parametric models" used to estimate every conditional
quantity the partial-identification bounds need:
  P(Z=+1|H), P(A=+1|H,Z=z) for z in {-1,+1}, and E[Y|H,Z=z,A=a] per (z,a) cell.

StageModels holds one stage's data, reward range and tail range, and fits
P(Z|H), P(A|H,Z) and the reward cells on [low_k, high_k] on first read, as
it computes H's per-column sort for its trees, the (z, a) cells' rows and
the instrument predictions at H. The backward passes read the stage models
as their only data, which fit and bound each distinct outcome vector once
(see StageModels), and a row subset of the models (one cross-fitting
complement) fits its own. A set is bounded at any histories by its intervals_at,
and at H by StageModels.intervals. An instrument arm's or a cell's rows are
copied with compress, which copies the same rows as boolean indexing in the same
order at about a seventh of its cost (17 us against 118 us for 8,000 of 10,000
rows of 4 columns; numpy 2.4, one Xeon core).

Logistic fits use Newton/IRLS with step-halving on a ridge-penalized
log-likelihood (penalty RIDGE * ||theta||^2 over all parameters, intercept
included, so separated or single-class designs stay finite). Each fit starts
at its labels' log-odds, theta = (log((k + 1/2) / (n - k + 1/2)), 0, ..., 0)
with k = sum(y), so an imbalanced design does not walk its intercept out from
0; the start reads the fit's own labels only, so a cross-fitting complement
learns nothing from its held-out batch. Each fit makes one column-major copy
XF of X. X @ theta = theta @ XF.T is computed once per trial step, for its
log-likelihood, and the accepted step's product gives the next gradient's
means mu = 1 / (1 + exp(-eta)), which the Hessian (XF.T * mu(1 - mu)) @ XF
reuses. Both products are faster on XF, and numpy's vectorized exp is ~3x
faster than scipy's expit at 8,000 rows. exp(-eta) overflows to inf below
eta = -709.78, giving the exact mean 0, so fit_logistic and
LogisticModel.predict ignore overflow, once per call. The gradient's
X.T @ (y - mu) stays on the row-major X: on XF its sums round differently,
and some fits that end by the stall stop (below) end by the gradient test.
The bit-for-bit reference test follows these layouts. The log-likelihood
takes one softplus max(t, 0) + log1p(exp(-|t|)) per row, with
t = (1 - 2y) * eta.

A fit converges when the gradient norm is at most GRAD_TOL, or when the full
Newton step is rejected while its predicted gain grad @ step is at most
STALL_GAIN * |ll|: ll can no longer resolve that gain, so the fit takes the
step (near the optimum, the exact minimizer of the quadratic model) and stops.
When the gradient test passes after at least one Newton step, the fit first
takes a finishing step solve(H, grad) on the Hessian H of the previous
iteration, so it lands on the optimum rather than up to GRAD_TOL short of it.
A step that leaves theta bitwise unchanged ends the loop with converged=False,
as the remaining iterations would repeat it exactly. Linear fits are ridge
least squares with the penalty on slopes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import Interval, arm_intervals

RIDGE = 1e-8
MAX_ITER = 100
GRAD_TOL = 1e-8
STALL_GAIN = 1e-13
DEFAULT_CLIP = 1e-3


class NumericalError(RuntimeError):
    """Raised in strict mode when an iterative fit fails to converge."""


def _check_finite(*arrays) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError("non-finite values in model input")


def _design(features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return np.hstack([np.ones((features.shape[0], 1)), features])


@dataclass(frozen=True)
class LogisticModel:
    intercept: float
    coefficients: np.ndarray
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    @np.errstate(over="ignore")  # for logistic_mean
    def predict(self, features: np.ndarray, clip: float = DEFAULT_CLIP) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        eta = self.intercept + features @ self.coefficients
        return np.clip(logistic_mean(eta), clip, 1.0 - clip)


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return self.intercept + features @ self.coefficients


@dataclass(frozen=True)
class ConstantModel:
    """Fallback model for empty cells; also handy for synthetic configurations."""

    value: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(features)), self.value)


def logistic_mean(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)); callers ignore exp's overflow, whose mean 0 is exact."""
    return 1.0 / (1.0 + np.exp(-eta))


def penalized_loglik(theta: np.ndarray, eta: np.ndarray, sign: np.ndarray) -> float:
    """Bernoulli log-likelihood at eta = X @ theta, with sign = 1 - 2y, minus
    RIDGE * ||theta||^2."""
    t = sign * eta
    # -log expit(eta) for y=1, -log(1-expit(eta)) for y=0: one softplus of t per row
    ll = -(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))).sum()
    return float(ll - RIDGE * theta @ theta)


def loglik_gradient(
    theta: np.ndarray, eta: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score of penalized_loglik at theta (eta = X @ theta), and the fitted means it used."""
    mu = logistic_mean(eta)
    return X.T @ (y - mu) - 2.0 * RIDGE * theta, mu


@np.errstate(over="ignore")  # for logistic_mean
def fit_logistic(features: np.ndarray, labels: np.ndarray) -> LogisticModel:
    """Ridge-penalized logistic regression via Newton/IRLS with step-halving."""
    X = _design(features)
    y = np.asarray(labels, dtype=float).ravel()
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be 0/1")
    _check_finite(X, y)
    sign = 1.0 - 2.0 * y
    XF = np.asfortranarray(X)  # for X @ theta and the Hessian; see the module docstring

    n, p = X.shape
    positives = float(y.sum())
    theta = np.zeros(p)
    theta[0] = np.log((positives + 0.5) / (n - positives + 0.5))  # the labels' own log-odds
    eta = theta @ XF.T
    ridge = 2.0 * RIDGE * np.eye(p)
    ll = penalized_loglik(theta, eta, sign)
    converged = False
    hess = None
    for _ in range(MAX_ITER):
        grad, mu = loglik_gradient(theta, eta, X, y)
        if math.sqrt(grad @ grad) <= GRAD_TOL:
            if hess is not None:
                # finishing step on the previous Hessian: the optimum, not GRAD_TOL from it
                theta = theta + np.linalg.solve(hess, grad)
            converged = True
            break
        hess = (XF.T * (mu * (1.0 - mu))) @ XF + ridge
        step = np.linalg.solve(hess, grad)
        # step-halving: Newton step can overshoot when probabilities saturate
        scale = 1.0
        for _ in range(40):
            candidate = theta + scale * step
            cand_eta = candidate @ XF.T
            cand_ll = penalized_loglik(candidate, cand_eta, sign)
            if cand_ll >= ll - 1e-14:
                break
            if scale == 1.0 and grad @ step <= STALL_GAIN * abs(ll):
                # stall: ll cannot resolve the gain, so the full step is the optimum
                converged = True
                break
            scale *= 0.5
        else:
            break
        if converged or (candidate == theta).all():
            # a stall, or a fixed point every later iteration would repeat exactly
            theta = candidate
            break
        theta, eta, ll = candidate, cand_eta, cand_ll
    else:
        converged = np.linalg.norm(loglik_gradient(theta, eta, X, y)[0]) <= GRAD_TOL

    return LogisticModel(intercept=float(theta[0]), coefficients=theta[1:], converged=converged)


def fit_linear(features: np.ndarray, targets: np.ndarray) -> LinearModel:
    """Ridge least squares (penalty RIDGE on slopes, intercept unpenalized)."""
    X = _design(features)
    y = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    _check_finite(X, y)

    p = X.shape[1]
    # augmented least squares encodes the slope-only ridge penalty
    penalty = np.sqrt(RIDGE) * np.eye(p)[1:]
    aug_X = np.vstack([X, penalty])
    aug_y = np.concatenate([y, np.zeros(p - 1)])
    theta, *_ = np.linalg.lstsq(aug_X, aug_y, rcond=None)
    return LinearModel(intercept=float(theta[0]), coefficients=theta[1:])


def _instrument_at(pz, pa: dict, H: np.ndarray) -> tuple:
    """P(Z=+1|H) and [P(A=+1|H,Z=-1), P(A=+1|H,Z=+1)] as pz and pa predict them."""
    return pz.predict(H), [pa[z0].predict(H) for z0 in (-1, 1)]


@dataclass(frozen=True, eq=False)
class NuisanceSet:
    """Fitted conditional models for one stage and one outcome variable.

    pz models P(Z=+1|H); pa[z] models P(A=+1|H,Z=z); mu[(z, a)] models
    E[Y|H,Z=z,A=a] with predictions clipped to outcome_range (a logistic model's
    also to DEFAULT_CLIP). Compared and hashed by identity, so a set is a key of
    its StageModels' memo.
    """

    pz: object
    pa: dict          # keys -1, +1
    mu: dict          # keys (z, a) for z, a in {-1, +1}
    outcome_range: tuple[float, float]
    empty_cells: tuple = ()
    converged: bool = True

    def cells_at(self, H: np.ndarray) -> dict:
        """Keys (z, a): each cell's prediction at H, clipped to outcome_range."""
        return {cell: np.clip(model.predict(H), *self.outcome_range)
                for cell, model in self.mu.items()}

    def intervals_at(self, H: np.ndarray) -> tuple[Interval, Interval, int]:
        """arm_intervals at histories H, every model predicted there once."""
        return arm_intervals(*_instrument_at(self.pz, self.pa, H), self.cells_at(H),
                             self.outcome_range)


@dataclass(frozen=True)
class StageModels:
    """Stage k's histories H, instruments z, actions a, rewards r, reward range
    [low_k, high_k] and tail range (sums of the ranges of stages k..K).

    pz models P(Z=+1|H), pa[z] models P(A=+1|H,Z=z) and reward holds the reward
    cells on reward_range; each is fitted on first read. They depend on the data
    alone, so every outcome vector bounded at the stage shares them, as it does
    order, cells and instrument, each computed on first read.

    The private memo holds each NuisanceSet fit_stage_nuisance made here, keyed by
    the bytes of its outcome vector and range and its outcome kind, and each set's
    intervals on both arms at H. dataclasses.replace (a cross-fitting complement)
    makes an instance with an empty memo, which no full-sample fit reaches."""

    H: np.ndarray
    z: np.ndarray
    a: np.ndarray
    r: np.ndarray
    reward_range: tuple[float, float]
    tail: tuple[float, float]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def pz(self):
        return fit_logistic(self.H, (self.z == 1.0).astype(float))

    @cached_property
    def pa(self) -> dict:
        """Keys -1, +1; an instrument arm without rows gets ConstantModel(0.5)."""
        pa: dict = {}
        for z0 in (-1, 1):
            rows = self.z == z0
            pa[z0] = (fit_logistic(self.H.compress(rows, axis=0),
                                   (self.a.compress(rows) == 1.0).astype(float))
                      if np.any(rows) else ConstantModel(0.5))
        return pa

    @property
    def empty_cells(self) -> tuple:
        return tuple(("pa", z0) for z0 in (-1, 1) if not (self.z == z0).any())

    @property
    def converged(self) -> bool:
        return all(getattr(m, "converged", True) for m in (self.pz, self.pa[1], self.pa[-1]))

    @cached_property
    def order(self) -> np.ndarray:
        """Row j is the stable argsort of H's column j, for fit_weighted_tree."""
        return np.argsort(self.H.T, axis=1, kind="stable")

    @cached_property
    def cells(self) -> dict:
        """Keys (z, a) for z, a in {-1, +1}: the cell's row mask and H at those rows."""
        masks = {(z0, a0): (self.z == z0) & (self.a == a0) for z0 in (-1, 1) for a0 in (-1, 1)}
        return {cell: (rows, self.H.compress(rows, axis=0)) for cell, rows in masks.items()}

    @cached_property
    def instrument(self) -> tuple:
        """P(Z=+1|H) and [P(A=+1|H,Z=-1), P(A=+1|H,Z=+1)]."""
        return _instrument_at(self.pz, self.pa, self.H)

    def intervals(self, nuisance: NuisanceSet) -> tuple[Interval, Interval, int]:
        """nuisance.intervals_at(H) for a set fitted on these models, computed once
        per set: its cells are bounded on the models' instrument predictions."""
        if nuisance not in self._memo:
            self._memo[nuisance] = arm_intervals(*self.instrument, nuisance.cells_at(self.H),
                                                 nuisance.outcome_range)
        return self._memo[nuisance]

    @cached_property
    def reward(self) -> NuisanceSet:
        """The reward cells E[R|H,Z,A] on reward_range."""
        r = np.clip(self.r, *self.reward_range)
        return fit_stage_nuisance(self, r, self.reward_range,
                                  is_binary_outcome(r, self.reward_range))


def fit_stage_models(dataset, reward_bounds) -> tuple[StageModels, ...]:
    """StageModels for every stage of a dataset (entry k-1 is stage k), after
    reward_bounds.check(dataset); the fits wait for their first read."""
    reward_bounds.check(dataset)
    return tuple(
        StageModels(H=dataset.histories(k), z=dataset.instruments(k), a=dataset.actions(k),
                    r=dataset.rewards(k), reward_range=reward_bounds.stage(k),
                    tail=reward_bounds.tail(k))
        for k in range(1, dataset.num_stages + 1)
    )


def is_binary_outcome(y: np.ndarray, outcome_range: tuple[float, float]) -> bool:
    """True when the outcomes are 0/1 on the range [0, 1]: cells then get logistic fits."""
    return tuple(outcome_range) == (0.0, 1.0) and bool(np.all((y == 0.0) | (y == 1.0)))


def fit_mu_cells(
    models: StageModels,
    y: np.ndarray,
    outcome_range: tuple[float, float],
    binary_outcome: bool,
) -> tuple[dict, tuple]:
    """Per-(z,a)-cell outcome regressions on the stage's data; empty cells fall back to midpoint."""
    fit = fit_logistic if binary_outcome else fit_linear
    midpoint = ConstantModel(0.5 * (outcome_range[0] + outcome_range[1]))
    mu = {cell: fit(H_rows, y.compress(rows)) if rows.any() else midpoint
          for cell, (rows, H_rows) in models.cells.items()}
    return mu, tuple(cell for cell, model in mu.items() if model is midpoint)


def fit_stage_nuisance(
    models: StageModels,
    y: np.ndarray,
    outcome_range: tuple[float, float],
    binary_outcome: bool,
) -> NuisanceSet:
    """Outcome cells for y on top of one stage's instrument and treatment models,
    fitted once per distinct (y, outcome_range, binary_outcome) on the models.

    y must already lie inside outcome_range (up to 1e-9); callers clip
    pseudo-outcomes into their certified range before fitting.
    """
    y = np.asarray(y, dtype=float).ravel()
    lo, hi = outcome_range
    if np.min(y) < lo - 1e-9 or np.max(y) > hi + 1e-9:
        raise ValueError(
            f"outcomes [{np.min(y)}, {np.max(y)}] outside declared range [{lo}, {hi}]"
        )
    key = (y.tobytes(), np.asarray(outcome_range, dtype=float).tobytes(), bool(binary_outcome))
    if key not in models._memo:
        mu, mu_empty = fit_mu_cells(models, y, outcome_range, binary_outcome)
        models._memo[key] = NuisanceSet(
            pz=models.pz, pa=models.pa, mu=mu,
            outcome_range=(float(lo), float(hi)),
            empty_cells=models.empty_cells + mu_empty,
            converged=models.converged and all(getattr(m, "converged", True) for m in mu.values()),
        )
    return models._memo[key]
