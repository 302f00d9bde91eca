"""Parametric nuisance models: logistic and linear regression fit from scratch.

These are the "simple parametric models" used to estimate every conditional
quantity the partial-identification bounds need:
  P(Z=+1|H), P(A=+1|H,Z=z) for z in {-1,+1}, and E[Y|H,Z=z,A=a] per (z,a) cell.

Logistic fits use Newton/IRLS with step-halving on a ridge-penalized
log-likelihood (penalty RIDGE * ||theta||^2 over all parameters, intercept
included, so separated or single-class designs stay finite). Linear fits are
ridge least squares with the penalty on slopes only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import expit

RIDGE = 1e-8
MAX_ITER = 100
GRAD_TOL = 1e-8
DEFAULT_CLIP = 1e-3


class NumericalError(RuntimeError):
    """Raised in strict mode when an iterative fit fails to converge."""


def _check_finite(*arrays) -> None:
    for arr in arrays:
        if arr is not None and not np.all(np.isfinite(arr)):
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

    def predict(self, features: np.ndarray, clip: float = DEFAULT_CLIP) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        eta = self.intercept + features @ self.coefficients
        return np.clip(expit(eta), clip, 1.0 - clip)


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

    def predict(self, features: np.ndarray, clip: float | None = None) -> np.ndarray:
        n = np.atleast_2d(np.asarray(features, dtype=float)).shape[0]
        out = np.full(n, self.value)
        if clip is not None:
            out = np.clip(out, clip, 1.0 - clip)
        return out


def penalized_loglik(theta: np.ndarray, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Weighted Bernoulli log-likelihood minus RIDGE * ||theta||^2."""
    eta = X @ theta
    # log expit / log(1-expit) via logaddexp for numerical stability
    ll = np.sum(w * (y * -np.logaddexp(0.0, -eta) + (1.0 - y) * -np.logaddexp(0.0, eta)))
    return float(ll - RIDGE * theta @ theta)


def loglik_gradient(theta: np.ndarray, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    mu = expit(X @ theta)
    return X.T @ (w * (y - mu)) - 2.0 * RIDGE * theta


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> LogisticModel:
    """Ridge-penalized logistic regression via Newton/IRLS with step-halving."""
    X = _design(features)
    y = np.asarray(labels, dtype=float).ravel()
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float).ravel()
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    _check_finite(X, y, w)

    p = X.shape[1]
    theta = np.zeros(p)
    ll = penalized_loglik(theta, X, y, w)
    converged = False
    for _ in range(MAX_ITER):
        grad = loglik_gradient(theta, X, y, w)
        if np.linalg.norm(grad) <= GRAD_TOL:
            converged = True
            break
        mu = expit(X @ theta)
        s = w * mu * (1.0 - mu)
        hess = X.T @ (s[:, None] * X) + 2.0 * RIDGE * np.eye(p)
        step = np.linalg.solve(hess, grad)
        # step-halving: Newton step can overshoot when probabilities saturate
        scale = 1.0
        for _ in range(40):
            candidate = theta + scale * step
            cand_ll = penalized_loglik(candidate, X, y, w)
            if cand_ll >= ll - 1e-14:
                theta, ll = candidate, cand_ll
                break
            scale *= 0.5
        else:
            break
    else:
        converged = np.linalg.norm(loglik_gradient(theta, X, y, w)) <= GRAD_TOL

    return LogisticModel(intercept=float(theta[0]), coefficients=theta[1:], converged=converged)


def predict_prob(model, h: np.ndarray, clip: float = DEFAULT_CLIP) -> float:
    """Clipped probability prediction at a single history vector."""
    if not 0.0 < clip < 0.5:
        raise ValueError(f"clip must be in (0, 0.5), got {clip}")
    return float(model.predict(np.atleast_2d(h), clip=clip)[0])


def fit_linear(
    features: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> LinearModel:
    """Ridge least squares (penalty RIDGE on slopes, intercept unpenalized)."""
    X = _design(features)
    y = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float).ravel()
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    _check_finite(X, y, w)

    sw = np.sqrt(w)
    p = X.shape[1]
    # augmented least squares encodes the slope-only ridge penalty
    penalty = np.sqrt(RIDGE) * np.eye(p)[1:]
    aug_X = np.vstack([sw[:, None] * X, penalty])
    aug_y = np.concatenate([sw * y, np.zeros(p - 1)])
    theta, *_ = np.linalg.lstsq(aug_X, aug_y, rcond=None)
    return LinearModel(intercept=float(theta[0]), coefficients=theta[1:])


@dataclass(frozen=True)
class NuisanceSet:
    """Fitted conditional models for one stage and one outcome variable.

    pz models P(Z=+1|H); pa[z] models P(A=+1|H,Z=z); mu[(z, a)] models
    E[Y|H,Z=z,A=a] with predictions clipped to outcome_range.
    """

    pz: object
    pa: dict          # keys -1, +1
    mu: dict          # keys (z, a) for z, a in {-1, +1}
    outcome_range: tuple[float, float]
    binary_outcome: bool
    clip: float = DEFAULT_CLIP
    empty_cells: tuple = ()
    converged: bool = True

    def pz_pos(self, H: np.ndarray) -> np.ndarray:
        return self.pz.predict(H, clip=self.clip)

    def pa_pos(self, H: np.ndarray, z: int) -> np.ndarray:
        return self.pa[int(z)].predict(H, clip=self.clip)

    def prob_a(self, H: np.ndarray, a: int, z: int) -> np.ndarray:
        """P(A = a | H, Z = z), from the single P(A=+1|.) fit per z arm."""
        pos = self.pa_pos(H, z)
        return pos if a == 1 else 1.0 - pos

    def mu_val(self, H: np.ndarray, z: int, a: int) -> np.ndarray:
        model = self.mu[(int(z), int(a))]
        if isinstance(model, LogisticModel):
            pred = model.predict(H, clip=self.clip)
        else:
            pred = model.predict(H)
        return np.clip(pred, self.outcome_range[0], self.outcome_range[1])

    def with_mu(self, mu: dict, outcome_range: tuple[float, float],
                binary_outcome: bool, empty_cells: tuple = ()) -> "NuisanceSet":
        """Same pz/pa fits, different outcome regressions."""
        return replace(self, mu=mu, outcome_range=outcome_range,
                       binary_outcome=binary_outcome, empty_cells=empty_cells)


def is_binary_outcome(y: np.ndarray, outcome_range: tuple[float, float]) -> bool:
    """True when the outcomes are 0/1 on the range [0, 1]: cells then get logistic fits."""
    return tuple(outcome_range) == (0.0, 1.0) and bool(np.all((y == 0.0) | (y == 1.0)))


def fit_mu_cells(
    histories: np.ndarray,
    z: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    outcome_range: tuple[float, float],
    binary_outcome: bool,
) -> tuple[dict, tuple]:
    """Per-(z,a)-cell outcome regressions; empty cells fall back to midpoint."""
    mu: dict = {}
    empty = []
    midpoint = 0.5 * (outcome_range[0] + outcome_range[1])
    for z0 in (-1, 1):
        for a0 in (-1, 1):
            rows = (z == z0) & (a == a0)
            if not np.any(rows):
                mu[(z0, a0)] = ConstantModel(midpoint)
                empty.append((z0, a0))
            elif binary_outcome:
                mu[(z0, a0)] = fit_logistic(histories[rows], y[rows])
            else:
                mu[(z0, a0)] = fit_linear(histories[rows], y[rows])
    return mu, tuple(empty)


def fit_stage_nuisance(
    histories: np.ndarray,
    z: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    outcome_range: tuple[float, float],
    binary_outcome: bool,
    clip: float = DEFAULT_CLIP,
) -> NuisanceSet:
    """Fit all six conditional models for one stage.

    y must already lie inside outcome_range (up to 1e-9); callers clip
    pseudo-outcomes into their certified range before fitting.
    """
    H = np.atleast_2d(np.asarray(histories, dtype=float))
    z = np.asarray(z, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = H.shape[0]
    if n == 0:
        raise ValueError("need at least one row")
    if not (len(z) == len(a) == len(y) == n):
        raise ValueError("histories, z, a, y must have equal length")
    if not np.all(np.isin(z, (-1.0, 1.0))) or not np.all(np.isin(a, (-1.0, 1.0))):
        raise ValueError("z and a must be +/-1")
    lo, hi = outcome_range
    if np.min(y) < lo - 1e-9 or np.max(y) > hi + 1e-9:
        raise ValueError(
            f"outcomes [{np.min(y)}, {np.max(y)}] outside declared range [{lo}, {hi}]"
        )

    pz = fit_logistic(H, (z == 1.0).astype(float))
    pa: dict = {}
    empty: list = []
    for z0 in (-1, 1):
        rows = z == z0
        if np.any(rows):
            pa[z0] = fit_logistic(H[rows], (a[rows] == 1.0).astype(float))
        else:
            pa[z0] = ConstantModel(0.5)
            empty.append(("pa", z0))
    mu, mu_empty = fit_mu_cells(H, z, a, y, outcome_range, binary_outcome)
    empty.extend(mu_empty)

    models = [pz] + [pa[1], pa[-1]] + list(mu.values())
    converged = all(getattr(m, "converged", True) for m in models)
    return NuisanceSet(
        pz=pz, pa=pa, mu=mu,
        outcome_range=(float(lo), float(hi)),
        binary_outcome=binary_outcome,
        clip=clip,
        empty_cells=tuple(empty),
        converged=converged,
    )


def synthetic_nuisance(
    pz_pos: float,
    pa_pos_by_z: dict,
    mu_by_cell: dict,
    outcome_range: tuple[float, float],
    clip: float = 0.0,
) -> NuisanceSet:
    """NuisanceSet with constant conditional quantities, unclipped by default;
    used to pin population-level formula values in tests."""
    return NuisanceSet(
        pz=ConstantModel(pz_pos),
        pa={z: ConstantModel(p) for z, p in pa_pos_by_z.items()},
        mu={cell: ConstantModel(v) for cell, v in mu_by_cell.items()},
        outcome_range=(float(outcome_range[0]), float(outcome_range[1])),
        binary_outcome=False,
        clip=clip,
    )
