"""Backward-induction weighted Q-learning and tree-structured policies.

Step I fits, stage by stage from the last to the first, partial-identification
intervals for each action's (pseudo-)outcome, combines them with the stage
weight into a scalar Q value, and records the contrast between the two
actions. Step II projects the sign of each stage's contrast onto depth-limited
classification trees by weighted 0/1 loss; a tree sorts its features only at an
impure root that may split (_column_order), and each child that may split
partitions its parent's sorted rows. Both steps read the stage models
(fit_stage_models) as their only data.

Sign ties resolve to +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import WeightSpec, weighted_q
from .data import DataError
from .nuisance import NuisanceSet, StageModels, fit_stage_nuisance, is_binary_outcome

MIN_LEAF_WEIGHT_FRACTION = 0.01
TIE_TOL = 1e-9  # tree losses and leaf masses this close, relative to the tree's weight, tie


def sign_with_tie(values: np.ndarray) -> np.ndarray:
    """Elementwise sign in {-1,+1}; zeros map to +1."""
    return np.where(values >= 0, 1, -1).astype(int)


# ------------------------- weighted classification tree -------------------------


@dataclass(frozen=True)
class Leaf:
    label: int


Child = Union[Leaf, int]  # a leaf, or the index of a node in its tree's node array


@dataclass(frozen=True)
class TreeRule:
    """A tree as its node array: nodes[i] is (feature, threshold, left, right), and
    left is taken when h[feature] < threshold. Every node index, the root's and
    each child's, points past its parent's, so parents come before children."""

    nodes: tuple[tuple[int, float, Child, Child], ...]
    root: Child
    max_depth: int
    degenerate: bool = False  # set when all training weights were zero

    def decide(self, H: np.ndarray) -> np.ndarray:
        H = np.atleast_2d(np.asarray(H, dtype=float))
        for feature, _, _, _ in self.nodes:
            if feature >= H.shape[1]:
                raise DataError(f"tree feature {feature} is past a {H.shape[1]}-column history")
        out = np.empty(H.shape[0], dtype=int)
        stack = [(self.root, np.arange(H.shape[0]))]
        while stack:
            child, idx = stack.pop()
            if isinstance(child, Leaf):
                out[idx] = child.label
            elif idx.size:
                feature, threshold, left, right = self.nodes[child]
                go_left = H[idx, feature] < threshold
                stack += [(left, idx[go_left]), (right, idx[~go_left])]
        return out

    def depth(self) -> int:
        below: list[int] = [0] * len(self.nodes)  # each node's subtree depth, filled last to first
        for i in reversed(range(len(self.nodes))):
            below[i] = 1 + max(0 if isinstance(c, Leaf) else below[c] for c in self.nodes[i][2:])
        return 0 if isinstance(self.root, Leaf) else below[self.root]


def _leaf_stats(labels: np.ndarray, weights: np.ndarray, tol: float) -> tuple[int, float]:
    """Weighted-majority leaf label (masses within tol -> +1) and its misclassified mass."""
    w_pos = float(weights[labels > 0].sum())
    w_neg = float(weights[labels < 0].sum())
    if w_pos >= w_neg - tol:
        return 1, w_neg
    return -1, w_pos


def _best_split(X, order, labels, weights, min_leaf_weight, tol):
    """Exhaustive (feature, adjacent-midpoint) search minimizing weighted loss, in
    one pass over a node's rows: row j of order holds them sorted by feature j,
    and row j, column i of each matrix is the cut after the (i+1)-th smallest
    value of feature j. Returns (loss, feature, threshold) or None when no
    admissible split exists. Losses within tol of the least count as tied, so
    that rounding never picks among splits that tie in exact arithmetic. Ties
    break toward the most count-balanced split, then the lowest (feature,
    threshold), so impure nodes with zero-gain splits still shatter within the
    depth budget.
    """
    n = order.shape[1]
    xs = np.take_along_axis(X.T, order, axis=1)
    cum_pos = np.cumsum(np.where(labels > 0, weights, 0.0)[order], axis=1)
    cum_neg = np.cumsum(np.where(labels < 0, weights, 0.0)[order], axis=1)
    left_pos, left_neg = cum_pos[:, :-1], cum_neg[:, :-1]
    right_pos, right_neg = cum_pos[:, -1:] - left_pos, cum_neg[:, -1:] - left_neg
    admissible = ((xs[:, :-1] < xs[:, 1:]) & (left_pos + left_neg >= min_leaf_weight)
                  & (right_pos + right_neg >= min_leaf_weight))
    if not admissible.any():
        return None
    loss = np.minimum(left_pos, left_neg) + np.minimum(right_pos, right_neg)
    loss[~admissible] = np.inf
    imbalance = np.where(loss <= loss.min() + tol, np.abs(2 * np.arange(1, n) - n), n + 1)
    # the first in feature-major order: the lowest (feature, threshold) of the most balanced
    j, i = divmod(int(np.argmin(imbalance)), n - 1)
    return float(loss[j, i]), j, 0.5 * (xs[j, i] + xs[j, i + 1])


def _column_order(X: np.ndarray) -> np.ndarray:
    """np.argsort(X.T, axis=1, kind="stable"), exactly, at a fraction of its cost: a
    column of at most two distinct values by a stable (radix) sort of whether each row
    is above its least; any other by numpy's default, unstable argsort when the sorted
    values strictly increase, as that permutation is unique, else (ties, NaN) stably."""
    order = np.empty(X.T.shape, dtype=np.intp)
    for j, col in enumerate(np.ascontiguousarray(X.T) if len(X) else ()):
        above = col != col.min()
        if (~above | (col == col.max())).all():
            order[j] = np.argsort(above, kind="stable")
        else:
            fast = np.argsort(col)
            xs = col[fast]
            order[j] = fast if (xs[1:] > xs[:-1]).all() else np.argsort(col, kind="stable")
    return order


def _grow(X, labels, weights, rows, order, depth, min_leaf_weight, tol, nodes: list) -> Child:
    """Append the subtree of X's rows (ascending) to nodes, each node before its
    children; return its root. order is the rows sorted by each feature (None at
    the root, which sorts only if it is impure and may split), and a child that may
    split gets its parent's, stably partitioned."""
    label, node_loss = _leaf_stats(labels[rows], weights[rows], tol)
    if depth <= 0 or node_loss <= 0.0:
        return Leaf(label)
    if order is None:
        order = _column_order(X)
    found = _best_split(X, order, labels, weights, min_leaf_weight, tol)
    if found is None or found[0] > node_loss + tol:
        return Leaf(label)
    _, feature, threshold = found
    go_left = X[:, feature] < threshold
    index = len(nodes)
    nodes.append(None)
    left, right = (_grow(X, labels, weights, rows[side[rows]],
                         order[side[order]].reshape(order.shape[0], -1) if depth > 1 else None,
                         depth - 1, min_leaf_weight, tol, nodes)
                   for side in (go_left, ~go_left))
    nodes[index] = (feature, threshold, left, right)
    return index


def fit_weighted_tree(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    depth: int,
    min_leaf_weight: Optional[float] = None,
) -> TreeRule:
    """Greedy CART-style tree minimizing sum_i w_i * 1{pred(x_i) != label_i}.

    min_leaf_weight defaults to 1% of the total weight. Losses and leaf masses
    within TIE_TOL times the total weight tie (see _best_split and _leaf_stats).
    A root that is impure and may split sorts the features once (_column_order).
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if not len(labels) == len(weights) == X.shape[0]:
        raise ValueError(f"features have {X.shape[0]} rows, labels {len(labels)} and "
                         f"weights {len(weights)}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
    if not ((labels == 1.0) | (labels == -1.0)).all():
        raise ValueError("labels must be +/-1")
    total = float(weights.sum())
    if total <= 0.0:
        return TreeRule(nodes=(), root=Leaf(1), max_depth=depth, degenerate=True)
    if min_leaf_weight is None:
        min_leaf_weight = MIN_LEAF_WEIGHT_FRACTION * total
    nodes: list = []
    root = _grow(X, labels, weights, np.arange(X.shape[0]), None, depth, min_leaf_weight,
                 TIE_TOL * total, nodes)
    return TreeRule(nodes=tuple(nodes), root=root, max_depth=depth)


# ------------------------------ policy stages ------------------------------


@dataclass(frozen=True)
class Dtr:
    """A K-stage policy; stage k maps the stage-k history vector to +/-1."""

    stages: tuple[TreeRule, ...]
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


def constant_dtr(label: int, num_stages: int, kind: str = "constant") -> Dtr:
    leaf = TreeRule(nodes=(), root=Leaf(label), max_depth=0)
    return Dtr(stages=(leaf,) * num_stages, kind=kind)


# ------------------------------ Q-learning ------------------------------


@dataclass(frozen=True)
class StageQEstimate:
    """One stage's fit: its nuisance and weight, per-sample contrast, interval
    widths (arm +1's, then arm -1's) and repair count."""

    stage: int
    nuisance: NuisanceSet
    lam: float
    contrast: np.ndarray
    widths: np.ndarray
    n_repaired: int

    @property
    def converged(self) -> bool:
        return self.nuisance.converged

    def contrast_at(self, H: np.ndarray) -> np.ndarray:
        """The weighted-Q contrast at histories H, on the nuisance's outcome_range."""
        plus, minus, _ = self.nuisance.intervals_at(H)
        return weighted_q(plus, self.lam) - weighted_q(minus, self.lam)


def fit_stage(
    models: StageModels,
    nuisance: NuisanceSet,
    lambda_k: float,
    stage: int,
) -> tuple[StageQEstimate, np.ndarray]:
    """Step I at one stage: intervals at +/-1 on the models' rows (once per nuisance)
    and their contrast; returns the estimate and each sample's value under its sign."""
    lam = float(lambda_k)
    plus, minus, n_repaired = models.intervals(nuisance)
    q_pos, q_neg = weighted_q(plus, lam), weighted_q(minus, lam)
    contrast = q_pos - q_neg
    widths = np.concatenate([plus.upper - plus.lower, minus.upper - minus.lower])
    estimate = StageQEstimate(stage=stage, nuisance=nuisance, lam=lam, contrast=contrast,
                              widths=widths, n_repaired=n_repaired)
    return estimate, np.where(contrast >= 0, q_pos, q_neg)


def backward_induct(
    models: Sequence[StageModels],
    lam: WeightSpec,
) -> list[StageQEstimate]:
    """Step I over k = K..1 on fit_stage_models(dataset, reward_bounds) (entry
    k-1 for stage k); returns the stage estimates.

    Stage K bounds the reward with the models' reward cells.
    """
    K = len(models)
    estimates: list[Optional[StageQEstimate]] = [None] * K
    next_value: Optional[np.ndarray] = None
    for k in range(K, 0, -1):
        stage = models[k - 1]
        if k == K:
            nuisance = stage.reward
        else:
            tail = stage.tail
            outcomes = np.clip(stage.r + next_value, tail[0], tail[1])
            nuisance = fit_stage_nuisance(stage, outcomes, tail,
                                          is_binary_outcome(outcomes, tail))
        estimates[k - 1], next_value = fit_stage(stage, nuisance, lam.at(k), k)
    return list(estimates)


# ------------------------------ serialization ------------------------------


def _is_a(value, kind) -> bool:
    """Whether a JSON value is a kind (int, or int or float) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _label_from_json(label) -> int:
    if not _is_a(label, (int, float)) or label not in (-1, 1):
        raise ValueError(f"label must be +/-1, got {label!r}")
    return int(label)


def _child_to_json(child: Child) -> dict:
    return {"leaf": child.label} if isinstance(child, Leaf) else {"node": child}


def _child_from_json(ref: dict, parent: int, size: int) -> Child:
    """A leaf, or a node index past its parent's (-1 at the root) and below size; so
    no reference is out of range or cyclic."""
    if "leaf" in ref:
        return Leaf(_label_from_json(ref["leaf"]))
    index = ref["node"]
    if not _is_a(index, int) or not parent < index < size:
        raise ValueError(f"node {index!r} is not an index in {parent + 1}..{size - 1}")
    return index


def _stage_to_json(stage: TreeRule) -> dict:
    return {
        "type": "tree",
        "nodes": [{"feature": feature, "threshold": threshold, "left": _child_to_json(left),
                   "right": _child_to_json(right)}
                  for feature, threshold, left, right in stage.nodes],
        "root": _child_to_json(stage.root),
        "max_depth": stage.max_depth,
        "degenerate": stage.degenerate,
    }


def _stage_from_json(doc: dict) -> TreeRule:
    kind = doc["type"]
    if kind == "constant":  # the older form of a one-leaf tree
        return TreeRule(nodes=(), root=Leaf(_label_from_json(doc["label"])), max_depth=0)
    if kind != "tree":
        raise ValueError(f"unknown stage type '{kind}'")
    entries, nodes = doc["nodes"], []
    for i, entry in enumerate(entries):
        feature, threshold = entry["feature"], entry["threshold"]
        if not _is_a(feature, int) or feature < 0:
            raise ValueError(f"feature must be a nonnegative integer, got {feature!r}")
        if not _is_a(threshold, (int, float)) or not math.isfinite(threshold):
            raise ValueError(f"threshold must be a finite number, got {threshold!r}")
        nodes.append((feature, float(threshold), _child_from_json(entry["left"], i, len(entries)),
                      _child_from_json(entry["right"], i, len(entries))))
    tree = TreeRule(nodes=tuple(nodes), root=_child_from_json(doc["root"], -1, len(entries)),
                    max_depth=doc["max_depth"], degenerate=doc.get("degenerate", False))
    if not _is_a(tree.max_depth, int) or tree.max_depth < tree.depth():
        raise ValueError(f"max_depth must be an integer >= the tree's depth {tree.depth()}, "
                         f"got {tree.max_depth!r}")
    if not isinstance(tree.degenerate, bool):
        raise ValueError(f"degenerate must be true or false, got {tree.degenerate!r}")
    return tree


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
    stages = tuple(_stage_from_json(s) for s in doc["stages"])
    lam, kind = doc.get("lambda"), doc.get("kind", "constant")
    if lam is not None:
        per_stage = isinstance(lam, list) and len(lam) == len(stages)
        if not all(_is_a(v, (int, float)) for v in (lam if per_stage else [lam])):
            raise ValueError(f"lambda must be null, a number or one number per stage, got {lam!r}")
        lam = WeightSpec(tuple(lam) if per_stage else lam)
    if not isinstance(kind, str):
        raise ValueError(f"kind must be a string, got {kind!r}")
    return Dtr(stages=stages, kind=kind, lam=lam)
