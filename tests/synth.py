"""Shared generators for randomized nuisance configurations and datasets,
and the test-only helpers built on the shipped code."""

import csv
import dataclasses
import os
import tempfile

import numpy as np

from ivdtr.bounds import Interval, mp_bounds_matrix
from ivdtr.data import dataset_from_arrays, expected_header, load_csv, save_csv
from ivdtr.dtr_core import (MIN_LEAF_WEIGHT_FRACTION, TIE_TOL, Leaf, TreeRule, _leaf_stats,
                            backward_induct)
from ivdtr.nuisance import DEFAULT_CLIP, ConstantModel, LogisticModel, NuisanceSet
from ivdtr.sim import _r1_prob, _r2_prob


def synthetic_nuisance(pz_pos, pa_pos_by_z, mu_by_cell, outcome_range):
    """NuisanceSet with constant, unclipped conditional quantities; used to pin
    population-level formula values."""
    return NuisanceSet(
        pz=ConstantModel(pz_pos),
        pa={z: ConstantModel(p) for z, p in pa_pos_by_z.items()},
        mu={cell: ConstantModel(v) for cell, v in mu_by_cell.items()},
        outcome_range=(float(outcome_range[0]), float(outcome_range[1])),
    )


def reference_arm_intervals(nuisance, H, instrument=None):
    """Reference for NuisanceSet.intervals_at and StageModels.intervals on the
    sets the pipeline fits: P(Z=+1|H) and P(A=+1|H,Z=z) clipped to
    [DEFAULT_CLIP, 1 - DEFAULT_CLIP], each cell's prediction (a logistic one so
    clipped too) clipped to the outcome range, and both arms bounded by
    mp_bounds_matrix. instrument, when given, is (P(Z=+1|H),
    [P(A=+1|H,Z=-1), P(A=+1|H,Z=+1)]) predicted elsewhere, used in their place."""
    def pz_pos(H):
        return np.clip(nuisance.pz.predict(H), DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)

    def pa_pos(H, z):
        return np.clip(nuisance.pa[z].predict(H), DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)

    def mu_val(H, z, a):
        model = nuisance.mu[(z, a)]
        pred = (model.predict(H, clip=DEFAULT_CLIP) if isinstance(model, LogisticModel)
                else model.predict(H))
        return np.clip(pred, nuisance.outcome_range[0], nuisance.outcome_range[1])

    pz, pa = instrument or (pz_pos(H), [pa_pos(H, z) for z in (-1, 1)])
    bounded = [mp_bounds_matrix(pz, tuple(p if a == 1 else 1.0 - p for p in pa),
                                tuple(mu_val(H, z, a) for z in (-1, 1)), nuisance.outcome_range)
               for a in (1, -1)]
    plus, minus = (Interval(lower, upper) for lower, upper, _ in bounded)
    return plus, minus, bounded[0][2] + bounded[1][2]


def weighted_loss(tree, X, labels, weights):
    """Weighted 0/1 loss of a tree's decisions against labels."""
    pred = tree.decide(X)
    return float(np.sum(weights * (pred != labels)))


def reference_best_split(X, labels, weights, min_leaf_weight, tol):
    """Reference for dtr_core._best_split: the same search, one feature at a time.

    Returns (loss, feature, threshold) or None when no admissible split exists;
    losses within tol of the least tie, and ties go to the most count-balanced
    split, then the lowest (feature, threshold).
    """
    n, d = X.shape
    w_pos = np.where(labels > 0, weights, 0.0)
    w_neg = np.where(labels < 0, weights, 0.0)
    scans = []  # (feature, sorted values, cut positions, cut losses) per splittable feature
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
        if np.any(admissible):
            loss = np.minimum(left_pos, left_neg) + np.minimum(right_pos, right_neg)
            scans.append((j, xs, cut, np.where(admissible, loss, np.inf)))
    if not scans:
        return None
    tied_below = min(float(np.min(loss)) for _, _, _, loss in scans) + tol
    best = None
    for j, xs, cut, loss in scans:
        imbalance = np.where(loss <= tied_below, np.abs(2 * (cut + 1) - n), n + 1)
        i = int(np.argmin(imbalance))  # the first, so the lowest threshold, of the most balanced
        if imbalance[i] <= n and (best is None or imbalance[i] < best[0]):
            best = (int(imbalance[i]), float(loss[i]), j, 0.5 * (xs[cut[i]] + xs[cut[i] + 1]))
    return best[1:]


def _sorting_best_split(X, labels, weights, min_leaf_weight, tol):
    """The one-pass split search on a node's own rows, sorted here."""
    n = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    cum_pos = np.cumsum(np.where(labels > 0, weights, 0.0)[order], axis=0)
    cum_neg = np.cumsum(np.where(labels < 0, weights, 0.0)[order], axis=0)
    left_pos, left_neg = cum_pos[:-1], cum_neg[:-1]
    right_pos, right_neg = cum_pos[-1:] - left_pos, cum_neg[-1:] - left_neg
    admissible = ((xs[:-1] < xs[1:]) & (left_pos + left_neg >= min_leaf_weight)
                  & (right_pos + right_neg >= min_leaf_weight))
    if not admissible.any():
        return None
    loss = np.minimum(left_pos, left_neg) + np.minimum(right_pos, right_neg)
    loss[~admissible] = np.inf
    imbalance = np.where(loss <= loss.min() + tol, np.abs(2 * np.arange(1, n) - n)[:, None], n + 1)
    j, i = divmod(int(np.argmin(imbalance.T)), n - 1)
    return float(loss[i, j]), j, 0.5 * (xs[i, j] + xs[i + 1, j])


def reference_fit_weighted_tree(features, labels, weights, depth, min_leaf_weight=None):
    """Reference for dtr_core.fit_weighted_tree on valid input: the same greedy
    tree, each node slicing its own rows and sorting them afresh."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    total = float(np.sum(weights))
    if total <= 0.0:
        return TreeRule(nodes=(), root=Leaf(1), max_depth=depth, degenerate=True)
    if min_leaf_weight is None:
        min_leaf_weight = MIN_LEAF_WEIGHT_FRACTION * total
    tol, nodes = TIE_TOL * total, []

    def grow(X, labels, weights, depth):
        label, node_loss = _leaf_stats(labels, weights, tol)
        if depth <= 0 or node_loss <= 0.0:
            return Leaf(label)
        found = _sorting_best_split(X, labels, weights, min_leaf_weight, tol)
        if found is None or found[0] > node_loss + tol:
            return Leaf(label)
        _, feature, threshold = found
        go_left = X[:, feature] < threshold
        index = len(nodes)
        nodes.append(None)
        left, right = (grow(X[rows], labels[rows], weights[rows], depth - 1)
                       for rows in (go_left, ~go_left))
        nodes[index] = (feature, threshold, left, right)
        return index

    root = grow(X, labels, weights, depth)
    return TreeRule(nodes=tuple(nodes), root=root, max_depth=depth)


def reference_crossfit_stage_contrasts(models, batch, lam):
    """Reference for crossfit.crossfit_stage_contrasts on labels that fill 0..m-1:
    the same backward inductions, each complement's and held-out batch's rows
    selected by boolean mask."""
    m = int(np.max(batch)) + 1
    out = [np.zeros(len(stage.r)) for stage in models]
    fits = []
    for j in range(m):
        held, rows = batch == j, batch != j
        complement = tuple(dataclasses.replace(s, H=s.H[rows], z=s.z[rows], a=s.a[rows],
                                               r=s.r[rows]) for s in models)
        estimates = backward_induct(complement, lam)
        fits += estimates
        for stage, contrast, est in zip(models, out, estimates):
            contrast[held] = est.contrast_at(stage.H[held])
    return tuple(out), fits


def reference_integrand(policy, config, x):
    """Reference for sim._integrand: the latent expectation as nested loops over
    u1, r1 and u2, summed in that order."""
    xi, n = config.xi, x.shape[0]
    x1 = x[:, 0]
    a1 = policy.action_matrix(1, x).astype(float)
    a2_by_r1 = {}
    for r1_val in (0.0, 1.0):
        h2 = np.column_stack([x, a1, np.full(n, r1_val)])
        a2_by_r1[r1_val] = policy.action_matrix(2, h2).astype(float)
    total = np.zeros(n)
    for u1 in (0.0, 1.0):
        p_r1 = _r1_prob(x1, a1, u1, xi, config.stage1_signal_threshold)
        for r1_val in (0.0, 1.0):
            p_branch = p_r1 if r1_val == 1.0 else 1.0 - p_r1
            stage2 = np.zeros(n)
            for u2 in (0.0, 1.0):
                stage2 += 0.5 * _r2_prob(x1, r1_val, a1, a2_by_r1[r1_val], u2, xi)
            total += 0.5 * p_branch * (r1_val + stage2)
    return total


def loads_csv(text):
    """load_csv on CSV text, through a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_csv(path)


def dumps_csv(dataset):
    """The text save_csv writes for a dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        save_csv(dataset, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def save_csv_rowwise(dataset, path):
    """Reference writer for save_csv: one csv.writer row per trajectory."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(expected_header(dataset.num_stages, dataset.covariate_dims))
        covariates = [c.tolist() for c in dataset.covariates]
        z, a, r = dataset.z.tolist(), dataset.a.tolist(), dataset.r.tolist()
        for i in range(dataset.n):
            row: list = []
            for k, x in enumerate(covariates):
                row.extend(map(repr, x[i]))
                row.extend([int(z[i][k]), int(a[i][k]), repr(r[i][k])])
            writer.writerow(row)


def interval_at(nuisance, h, a):
    """Interval for action a at one history: row 0 of intervals_at's plus or minus."""
    plus, minus, _ = nuisance.intervals_at(np.atleast_2d(h))
    lower, upper = plus if a == 1 else minus
    return Interval(float(lower[0]), float(upper[0]))


def random_nuisance(rng, outcome_range=(0.0, 1.0)):
    """NuisanceSet with random constant conditional quantities."""
    lo, hi = outcome_range
    return synthetic_nuisance(
        pz_pos=rng.uniform(0.05, 0.95),
        pa_pos_by_z={-1: rng.uniform(0.0, 1.0), 1: rng.uniform(0.0, 1.0)},
        mu_by_cell={(z, a): rng.uniform(lo, hi) for z in (-1, 1) for a in (-1, 1)},
        outcome_range=outcome_range,
    )


def random_single_stage_dataset(rng, n=300):
    """One-stage trajectories with an informative instrument."""
    x = rng.uniform(-1, 1, size=(n, 1))
    z = rng.choice([-1.0, 1.0], size=n)
    comply = rng.uniform(0.6, 0.95)
    a = np.where(rng.random(n) < np.where(z == 1, comply, 1 - comply), 1.0, -1.0)
    effect = rng.uniform(-0.3, 0.3)
    p = 0.5 + effect * (a == 1) + 0.15 * x[:, 0]
    y = (rng.random(n) < np.clip(p, 0.05, 0.95)).astype(float)
    return dataset_from_arrays([x], [z], [a], [y])


def random_two_stage_dataset(rng, n=500):
    """Two-stage trajectories with strong instruments at both stages."""
    x = rng.uniform(-1, 1, size=(n, 2))
    z1 = rng.choice([-1.0, 1.0], size=n)
    a1 = np.where(rng.random(n) < np.where(z1 == 1, 0.85, 0.15), 1.0, -1.0)
    r1 = (rng.random(n) < np.clip(0.4 + 0.2 * (a1 == 1) * x[:, 0], 0.05, 0.95)).astype(float)
    z2 = rng.choice([-1.0, 1.0], size=n)
    a2 = np.where(rng.random(n) < np.where(z2 == 1, 0.85, 0.15), 1.0, -1.0)
    p2 = 0.3 + 0.2 * (a2 == 1) * (0.5 + r1 - x[:, 0]) + 0.1 * r1
    r2 = (rng.random(n) < np.clip(p2, 0.05, 0.95)).astype(float)
    return dataset_from_arrays(
        covariates=[x, np.empty((n, 0))],
        instruments=[z1, z2],
        actions=[a1, a2],
        rewards=[r1, r2],
    )
