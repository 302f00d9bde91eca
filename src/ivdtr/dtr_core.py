"""Backward-induction weighted Q-learning and tree-structured policies.

Step I fits, stage by stage from the last to the first, partial-identification
intervals for each action's (pseudo-)outcome, combines them with the stage
weight into a scalar Q value, and records the contrast between the two
actions. Step II projects each stage's sign-of-contrast rule onto depth-limited
classification trees by weighted 0/1 loss.

Sign ties resolve to +1; only a contrast_sign stage read from JSON may carry
another tie sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import Interval, RewardBounds, WeightSpec, mp_bounds_matrix, weighted_q
from .data import Dataset
from .nuisance import (
    ConstantModel,
    LinearModel,
    LogisticModel,
    NuisanceSet,
    fit_stage_nuisance,
    is_binary_outcome,
)

DEFAULT_TIE_SIGN = 1
MIN_LEAF_WEIGHT_FRACTION = 0.01


def sign_with_tie(values: np.ndarray, tie_sign: int = DEFAULT_TIE_SIGN) -> np.ndarray:
    """Elementwise sign in {-1,+1}; zeros map to tie_sign."""
    out = np.where(values > 0, 1, -1)
    return np.where(values == 0, tie_sign, out).astype(int)


# ------------------------- weighted classification tree -------------------------


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class TreeNode:
    feature: int
    threshold: float
    left: Union["TreeNode", Leaf]   # taken when h[feature] < threshold
    right: Union["TreeNode", Leaf]


@dataclass(frozen=True)
class TreeRule:
    root: Union[TreeNode, Leaf]
    max_depth: int
    degenerate: bool = False  # set when all training weights were zero

    def decide(self, H: np.ndarray) -> np.ndarray:
        H = np.atleast_2d(np.asarray(H, dtype=float))
        out = np.empty(H.shape[0], dtype=int)
        self._fill(self.root, H, np.arange(H.shape[0]), out)
        return out

    def _fill(self, node, H, idx, out) -> None:
        if isinstance(node, Leaf):
            out[idx] = node.label
            return
        go_left = H[idx, node.feature] < node.threshold
        self._fill(node.left, H, idx[go_left], out)
        self._fill(node.right, H, idx[~go_left], out)

    def depth(self) -> int:
        def _d(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(_d(node.left), _d(node.right))

        return _d(self.root)


def weighted_loss(tree: TreeRule, X: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
    pred = tree.decide(X)
    return float(np.sum(weights * (pred != labels)))


def _leaf_stats(labels: np.ndarray, weights: np.ndarray) -> tuple[int, float]:
    """Weighted-majority leaf label (tie -> +1) and its misclassified mass."""
    w_pos = float(np.sum(weights[labels > 0]))
    w_neg = float(np.sum(weights[labels < 0]))
    if w_pos >= w_neg:
        return 1, w_neg
    return -1, w_pos


def _best_split(X, labels, weights, min_leaf_weight):
    """Exhaustive (feature, adjacent-midpoint) search minimizing weighted loss.

    Returns (loss, imbalance, feature, threshold) or None when no admissible
    split exists. Ties break toward the most count-balanced split, then on
    (feature, threshold), so impure nodes with zero-gain splits still shatter
    within the depth budget.
    """
    n, d = X.shape
    w_pos = np.where(labels > 0, weights, 0.0)
    w_neg = np.where(labels < 0, weights, 0.0)
    best = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cum_pos = np.cumsum(w_pos[order])
        cum_neg = np.cumsum(w_neg[order])
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        left_pos, left_neg = cum_pos[cut], cum_neg[cut]
        right_pos = cum_pos[-1] - left_pos
        right_neg = cum_neg[-1] - left_neg
        admissible = ((left_pos + left_neg) >= min_leaf_weight) & (
            (right_pos + right_neg) >= min_leaf_weight
        )
        if not np.any(admissible):
            continue
        loss = np.minimum(left_pos, left_neg) + np.minimum(right_pos, right_neg)
        loss = np.where(admissible, loss, np.inf)
        imbalance = np.abs(2 * (cut + 1) - n)
        i = int(np.argmin(np.where(loss == np.min(loss), imbalance, np.inf)))
        threshold = 0.5 * (xs[cut[i]] + xs[cut[i] + 1])
        candidate = (float(loss[i]), int(imbalance[i]), j, threshold)
        if best is None or candidate < best:
            best = candidate
    return best


def _grow(X, labels, weights, depth, min_leaf_weight):
    label, node_loss = _leaf_stats(labels, weights)
    if depth <= 0 or node_loss <= 0.0:
        return Leaf(label)
    found = _best_split(X, labels, weights, min_leaf_weight)
    if found is None or found[0] > node_loss:
        return Leaf(label)
    _, _, feature, threshold = found
    go_left = X[:, feature] < threshold
    left = _grow(X[go_left], labels[go_left], weights[go_left], depth - 1, min_leaf_weight)
    right = _grow(X[~go_left], labels[~go_left], weights[~go_left], depth - 1, min_leaf_weight)
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def fit_weighted_tree(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    depth: int,
    min_leaf_weight: Optional[float] = None,
) -> TreeRule:
    """Greedy CART-style tree minimizing sum_i w_i * 1{pred(x_i) != label_i}.

    min_leaf_weight defaults to 1% of the total weight.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +/-1")
    total = float(np.sum(weights))
    if total <= 0.0:
        return TreeRule(root=Leaf(1), max_depth=depth, degenerate=True)
    if min_leaf_weight is None:
        min_leaf_weight = MIN_LEAF_WEIGHT_FRACTION * total
    root = _grow(X, labels, weights, depth, min_leaf_weight)
    return TreeRule(root=root, max_depth=depth)


# ------------------------------ policy stages ------------------------------


@dataclass(frozen=True)
class ConstantRule:
    label: int

    def decide(self, H: np.ndarray) -> np.ndarray:
        H = np.atleast_2d(np.asarray(H, dtype=float))
        return np.full(H.shape[0], self.label, dtype=int)


@dataclass(frozen=True)
class StageContrastEvaluator:
    """Weighted-Q contrast at a fitted stage, evaluable on new histories."""

    nuisance: NuisanceSet
    tail: tuple[float, float]
    lam: float

    def intervals(self, H: np.ndarray) -> tuple[Interval, Interval, int]:
        """Per-row intervals for actions +1 and -1, and the total repair count."""
        low_p, up_p, rep_p = mp_bounds_matrix(self.nuisance, H, +1, self.tail)
        low_n, up_n, rep_n = mp_bounds_matrix(self.nuisance, H, -1, self.tail)
        return Interval(low_p, up_p), Interval(low_n, up_n), rep_p + rep_n

    def contrast(self, H: np.ndarray) -> np.ndarray:
        plus, minus, _ = self.intervals(H)
        return weighted_q(plus, self.lam) - weighted_q(minus, self.lam)


@dataclass(frozen=True)
class SignOfContrast:
    evaluator: StageContrastEvaluator
    tie_sign: int = DEFAULT_TIE_SIGN

    def decide(self, H: np.ndarray) -> np.ndarray:
        return sign_with_tie(self.evaluator.contrast(H), self.tie_sign)


PolicyStage = Union[TreeRule, ConstantRule, SignOfContrast]


@dataclass(frozen=True)
class Dtr:
    """A K-stage policy; stage k maps the stage-k history vector to +/-1."""

    stages: tuple[PolicyStage, ...]
    kind: str = "constant"
    lam: Optional[WeightSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def action_matrix(self, k: int, H: np.ndarray) -> np.ndarray:
        if not 1 <= k <= self.num_stages:
            raise ValueError(f"stage index {k} out of range 1..{self.num_stages}")
        return self.stages[k - 1].decide(H)

    def action(self, k: int, h: np.ndarray) -> int:
        return int(self.action_matrix(k, np.atleast_2d(h))[0])


def constant_dtr(label: int, num_stages: int, kind: str = "constant") -> Dtr:
    return Dtr(stages=tuple(ConstantRule(label) for _ in range(num_stages)), kind=kind)


def evaluate_policy_stage(policy: PolicyStage, h: np.ndarray) -> int:
    """Deterministic single-history evaluation of one stage rule."""
    return int(policy.decide(np.atleast_2d(h))[0])


# ------------------------------ Q-learning ------------------------------


@dataclass(frozen=True)
class StageQEstimate:
    """Per-sample fit results at one stage, plus the evaluator behind them."""

    stage: int
    lower_pos: np.ndarray
    upper_pos: np.ndarray
    lower_neg: np.ndarray
    upper_neg: np.ndarray
    q_pos: np.ndarray
    q_neg: np.ndarray
    contrast: np.ndarray
    action: np.ndarray
    value: np.ndarray
    evaluator: StageContrastEvaluator
    n_repaired: int

    @property
    def nuisance(self) -> NuisanceSet:
        return self.evaluator.nuisance

    @property
    def converged(self) -> bool:
        return self.nuisance.converged


def pseudo_outcomes(rewards_k: np.ndarray, next_values: np.ndarray) -> np.ndarray:
    """Stage-k regression target: reward plus next-stage estimated value."""
    rewards_k = np.asarray(rewards_k, dtype=float).ravel()
    next_values = np.asarray(next_values, dtype=float).ravel()
    if rewards_k.shape != next_values.shape:
        raise ValueError(
            f"length mismatch: {rewards_k.shape[0]} rewards vs {next_values.shape[0]} values"
        )
    return rewards_k + next_values


def fit_stage(
    histories: np.ndarray,
    z: np.ndarray,
    a: np.ndarray,
    outcomes: np.ndarray,
    tail_bounds: tuple[float, float],
    lambda_k: float,
    clip: float = 1e-3,
    stage: int = 0,
) -> StageQEstimate:
    """One stage of Step I: nuisance fit, intervals at +/-1, contrast, value."""
    tail = (float(tail_bounds[0]), float(tail_bounds[1]))
    outcomes = np.asarray(outcomes, dtype=float).ravel()
    nuisance = fit_stage_nuisance(
        histories, z, a, outcomes, outcome_range=tail,
        binary_outcome=is_binary_outcome(outcomes, tail), clip=clip,
    )
    evaluator = StageContrastEvaluator(nuisance=nuisance, tail=tail, lam=float(lambda_k))
    plus, minus, n_repaired = evaluator.intervals(histories)
    q_pos, q_neg = weighted_q(plus, evaluator.lam), weighted_q(minus, evaluator.lam)
    contrast = q_pos - q_neg
    action = sign_with_tie(contrast)
    value = np.where(action == 1, q_pos, q_neg)
    return StageQEstimate(
        stage=stage,
        lower_pos=plus.lower, upper_pos=plus.upper, lower_neg=minus.lower, upper_neg=minus.upper,
        q_pos=q_pos, q_neg=q_neg, contrast=contrast, action=action, value=value,
        evaluator=evaluator, n_repaired=n_repaired,
    )


def backward_induct(
    dataset: Dataset,
    reward_bounds: RewardBounds,
    lam: WeightSpec,
    clip: float = 1e-3,
) -> tuple[list[StageQEstimate], Dtr]:
    """Step I over k = K..1; returns stage estimates and the sign-rule policy."""
    reward_bounds.check(dataset)
    K = dataset.num_stages
    estimates: list[Optional[StageQEstimate]] = [None] * K
    next_value: Optional[np.ndarray] = None
    for k in range(K, 0, -1):
        rewards = dataset.rewards(k)
        outcomes = rewards if k == K else pseudo_outcomes(rewards, next_value)
        tail = reward_bounds.tail(k)
        outcomes = np.clip(outcomes, tail[0], tail[1])
        est = fit_stage(
            dataset.histories(k), dataset.instruments(k), dataset.actions(k),
            outcomes, tail, lam.at(k), clip=clip, stage=k,
        )
        estimates[k - 1] = est
        next_value = est.value
    stages = tuple(SignOfContrast(evaluator=est.evaluator) for est in estimates)
    q_rule = Dtr(stages=stages, kind="iv_optimal", lam=lam)
    return list(estimates), q_rule


def project_policy(
    stage_estimates: Sequence[StageQEstimate],
    dataset: Dataset,
    depth: int,
    lam: Optional[WeightSpec] = None,
    kind: str = "iv_optimal",
) -> Dtr:
    """Step II: fit one depth-limited tree per stage to the contrast signs."""
    stages = tuple(
        fit_weighted_tree(dataset.histories(est.stage), est.action, np.abs(est.contrast), depth)
        for est in stage_estimates
    )
    return Dtr(stages=stages, kind=kind, lam=lam)


# ------------------------------ serialization ------------------------------


def _model_to_json(model) -> dict:
    if isinstance(model, LogisticModel):
        return {
            "kind": "logistic",
            "intercept": model.intercept,
            "coefficients": list(map(float, model.coefficients)),
            "converged": bool(model.converged),
        }
    if isinstance(model, LinearModel):
        return {
            "kind": "linear",
            "intercept": model.intercept,
            "coefficients": list(map(float, model.coefficients)),
        }
    if isinstance(model, ConstantModel):
        return {"kind": "constant", "value": model.value}
    raise TypeError(f"cannot serialize model {type(model)!r}")


def _model_from_json(doc: dict):
    kind = doc["kind"]
    if kind == "logistic":
        return LogisticModel(
            intercept=float(doc["intercept"]),
            coefficients=np.asarray(doc["coefficients"], dtype=float),
            converged=bool(doc.get("converged", True)),
        )
    if kind == "linear":
        return LinearModel(
            intercept=float(doc["intercept"]),
            coefficients=np.asarray(doc["coefficients"], dtype=float),
        )
    if kind == "constant":
        return ConstantModel(value=float(doc["value"]))
    raise ValueError(f"unknown model kind '{kind}'")


def _nuisance_to_json(ns: NuisanceSet) -> dict:
    return {
        "pz": _model_to_json(ns.pz),
        "pa": {str(z): _model_to_json(m) for z, m in ns.pa.items()},
        "mu": {f"{z},{a}": _model_to_json(m) for (z, a), m in ns.mu.items()},
        "outcome_range": list(ns.outcome_range),
        "binary_outcome": bool(ns.binary_outcome),
        "clip": ns.clip,
        "empty_cells": [list(c) if isinstance(c, tuple) else c for c in ns.empty_cells],
    }


def _nuisance_from_json(doc: dict) -> NuisanceSet:
    empty = []
    for cell in doc.get("empty_cells", []):
        empty.append(tuple(cell) if isinstance(cell, list) else cell)
    return NuisanceSet(
        pz=_model_from_json(doc["pz"]),
        pa={int(z): _model_from_json(m) for z, m in doc["pa"].items()},
        mu={
            tuple(int(v) for v in key.split(",")): _model_from_json(m)
            for key, m in doc["mu"].items()
        },
        outcome_range=tuple(float(v) for v in doc["outcome_range"]),
        binary_outcome=bool(doc["binary_outcome"]),
        clip=float(doc["clip"]),
        empty_cells=tuple(empty),
    )


def _tree_nodes_to_json(node, nodes: list) -> dict:
    """Flatten the tree into a node array; children are leaves or node indices."""
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    entry = {"feature": node.feature, "threshold": node.threshold}
    index = len(nodes)
    nodes.append(entry)
    entry["left"] = _tree_nodes_to_json(node.left, nodes)
    entry["right"] = _tree_nodes_to_json(node.right, nodes)
    return {"node": index}


def _tree_from_json(doc: dict, ref: dict, nodes: list):
    if "leaf" in ref:
        return Leaf(int(ref["leaf"]))
    entry = nodes[ref["node"]]
    return TreeNode(
        feature=int(entry["feature"]),
        threshold=float(entry["threshold"]),
        left=_tree_from_json(doc, entry["left"], nodes),
        right=_tree_from_json(doc, entry["right"], nodes),
    )


def _stage_to_json(stage: PolicyStage) -> dict:
    if isinstance(stage, ConstantRule):
        return {"type": "constant", "label": stage.label}
    if isinstance(stage, TreeRule):
        nodes: list = []
        root = _tree_nodes_to_json(stage.root, nodes)
        return {
            "type": "tree",
            "nodes": nodes,
            "root": root,
            "max_depth": stage.max_depth,
            "degenerate": stage.degenerate,
        }
    if isinstance(stage, SignOfContrast):
        ev = stage.evaluator
        return {
            "type": "contrast_sign",
            "lambda": ev.lam,
            "tail": list(ev.tail),
            "tie_sign": stage.tie_sign,
            "nuisance": _nuisance_to_json(ev.nuisance),
        }
    raise TypeError(f"cannot serialize stage {type(stage)!r}")


def _stage_from_json(doc: dict) -> PolicyStage:
    kind = doc["type"]
    if kind == "constant":
        return ConstantRule(label=int(doc["label"]))
    if kind == "tree":
        root = _tree_from_json(doc, doc["root"], doc["nodes"])
        return TreeRule(
            root=root,
            max_depth=int(doc["max_depth"]),
            degenerate=bool(doc.get("degenerate", False)),
        )
    if kind == "contrast_sign":
        evaluator = StageContrastEvaluator(
            nuisance=_nuisance_from_json(doc["nuisance"]),
            tail=tuple(float(v) for v in doc["tail"]),
            lam=float(doc["lambda"]),
        )
        return SignOfContrast(evaluator=evaluator, tie_sign=int(doc.get("tie_sign", 1)))
    raise ValueError(f"unknown stage type '{kind}'")


def dtr_to_json(dtr: Dtr) -> dict:
    lam = dtr.lam
    lam_doc = None
    if lam is not None:
        lam_doc = lam.values if isinstance(lam.values, float) else list(lam.values)
    return {
        "kind": dtr.kind,
        "lambda": lam_doc,
        "stages": [_stage_to_json(s) for s in dtr.stages],
    }


def dtr_from_json(doc: dict) -> Dtr:
    lam_doc = doc.get("lambda")
    lam = None
    if lam_doc is not None:
        lam = WeightSpec(lam_doc if isinstance(lam_doc, float) else tuple(lam_doc))
    stages = tuple(_stage_from_json(s) for s in doc["stages"])
    return Dtr(stages=stages, kind=str(doc.get("kind", "constant")), lam=lam)
