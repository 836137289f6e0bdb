"""Exact-enumeration oracles shared by the risk tests and the acceptance gate.

A finite discrete distribution is a list of (x, y, prob) triples with probs
summing to 1.  Everything here evaluates expectations by direct summation,
independently of the estimator implementations under test.  Also here are
the independent helpers that only tests use: the margin form of the
absolute error, the linear-odd detector, and the trial-record parser.
"""

from __future__ import annotations

import json
import math
from itertools import combinations_with_replacement

import numpy as np

from ordsemi.bench import TrialResult
from ordsemi.core import OrdinalDataset, OrdinalModel, margins_matrix
from ordsemi.losses import TaskSurrogate, binary_loss, surrogate_values

# Probe grid for detecting whether ell(z) - ell(-z) is exactly -C*z.
_ODD_PROBE = np.array([0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0])


def absolute_error_from_margins(margin_vec: np.ndarray, y: int) -> float:
    """Absolute error |y - predicted| computed from threshold margins alone.

    Counts thresholds on the wrong side of the score for label y: margins
    with index below y that are >= 0, plus margins with index >= y that
    are < 0.  Equals |y - predict_batch(...)| exactly, ties included.
    """
    m = np.asarray(margin_vec, dtype=float)
    n_classes = m.size + 1
    if not 1 <= y <= n_classes:
        raise ValueError(f"label {y} out of range 1..{n_classes}")
    below = int(np.sum(m[: y - 1] >= 0))
    above = int(np.sum(m[y - 1 :] < 0))
    return float(below + above)


def linear_odd_constant(kind: str, tol: float = 1e-9) -> float | None:
    """C > 0 with ell(z) - ell(-z) = -C*z on the probe grid, or None.

    Surrogates with this property keep the labeled difference terms of the
    semi-supervised risk linear, which preserves convexity of the training
    objective.
    """
    diff = binary_loss(kind, _ODD_PROBE)[0] - binary_loss(kind, -_ODD_PROBE)[0]
    c = -diff / _ODD_PROBE
    if np.all(np.abs(diff + c[0] * _ODD_PROBE) <= tol) and c[0] > 0:
        return float(c[0])
    return None


def trial_result_from_json(line: str) -> TrialResult:
    """Inverse of ``TrialResult.to_json``."""
    return TrialResult(**json.loads(line))


def population_surrogate_risk(model: OrdinalModel, psi: TaskSurrogate, dist) -> float:
    """E[psi(margins(X), Y)] summed over the finite support."""
    return sum(
        p * surrogate_values(psi, margins_matrix(model, [x]), y)[0] for x, y, p in dist
    )


def class_priors(dist, n_classes: int) -> np.ndarray:
    pri = np.zeros(n_classes)
    for _, y, p in dist:
        pri[y - 1] += p
    return pri


def population_lu_risk(model: OrdinalModel, psi: TaskSurrogate, dist, k: int, n_classes: int) -> float:
    """The labeled-unlabeled rewrite of the surrogate risk, summed exactly.

    Kept-class conditional terms plus the marginal expectation of the
    removed-class surrogate, minus the bias-cancel term.
    """
    pri = class_priors(dist, n_classes)
    value = 0.0
    # sum_{y != k} pi_y E[psi(.,y) | Y=y]  and  - sum_{y != k} pi_y E[psi(.,k) | Y=y]
    for x, y, p in dist:
        if y != k:
            value += p * surrogate_values(psi, margins_matrix(model, [x]), y)[0]
            value -= p * surrogate_values(psi, margins_matrix(model, [x]), k)[0]
    # + E_marginal[psi(., k)]
    for x, _, p in dist:
        value += p * surrogate_values(psi, margins_matrix(model, [x]), k)[0]
    return value


def _weighted_multisets(points: list[np.ndarray], probs: list[float], size: int):
    """All size-``size`` multisets from the support with multinomial weights."""
    idx = range(len(points))
    for combo in combinations_with_replacement(idx, size):
        weight = math.factorial(size)
        prob = 1.0
        for i in set(combo):
            count = combo.count(i)
            weight //= math.factorial(count)
            prob *= probs[i] ** count
        rows = np.vstack([points[i] for i in combo])
        yield rows, weight * prob


def conditional_support(dist, y: int):
    """Support points and renormalized probabilities of X | Y = y."""
    pts = [(x, p) for x, yy, p in dist if yy == y and p > 0]
    total = sum(p for _, p in pts)
    return [x for x, _ in pts], [p / total for _, p in pts]


def marginal_support(dist):
    """Support points and probabilities of the X marginal (merged by value)."""
    seen: dict[tuple, float] = {}
    order: list[np.ndarray] = []
    for x, _, p in dist:
        key = tuple(np.asarray(x).tolist())
        if key not in seen:
            seen[key] = 0.0
            order.append(np.asarray(x, dtype=float))
        seen[key] += p
    return order, [seen[tuple(x.tolist())] for x in order]


def enumerate_lu_mean(model, psi, dist, n_classes, class_sizes, n_unlabeled, k, lu_fn):
    """Exact E[estimate] over all stratified draws of the given sizes.

    ``class_sizes[y-1]`` labeled points are drawn i.i.d. from X | Y = y and
    ``n_unlabeled`` from the marginal; ``lu_fn(dataset)`` maps each assembled
    dataset to the scalar estimate being averaged.
    """
    per_class = []
    for y in range(1, n_classes + 1):
        pts, probs = conditional_support(dist, y)
        per_class.append(list(_weighted_multisets(pts, probs, class_sizes[y - 1])))
    m_pts, m_probs = marginal_support(dist)
    unl = list(_weighted_multisets(m_pts, m_probs, n_unlabeled))

    def recurse(y, rows, ys, weight):
        if y > n_classes:
            total = 0.0
            for u_rows, u_w in unl:
                ds = OrdinalDataset(np.vstack(rows), np.array(ys), u_rows, n_classes)
                total += weight * u_w * lu_fn(ds)
            return total
        total = 0.0
        for c_rows, c_w in per_class[y - 1]:
            total += recurse(
                y + 1,
                rows + [c_rows],
                ys + [y] * c_rows.shape[0],
                weight * c_w,
            )
        return total

    return recurse(1, [], [], 1.0)
