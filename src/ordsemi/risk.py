"""Empirical risk estimators over labeled and unlabeled data.

Three estimators of the task surrogate risk:

* supervised      -- plain mean over labeled pairs.
* labeled-unlabeled (LU) -- for a removed class k, the labeled mean over the
  other classes, plus the unlabeled mean of the class-k surrogate, minus a
  labeled bias-cancellation term.  Unbiased for the same risk but fed by
  unlabeled data.
* combined (SEMI) -- convex mixture gamma * LU + (1 - gamma) * supervised;
  unbiased at every gamma.

The LU bracket (unlabeled term minus bias correction) estimates a
non-negative population quantity, so an optional non-negativity correction
clamps it at zero.  Gradients follow the sign-flip rule when the clamp is
active: the step descends on the negated bracket instead of a zero gradient,
so the estimator can recover instead of stalling.

:class:`RiskEvaluator` stacks every row an estimator reads, a validation
set's included, into one block, so a training step's objective, gradients
and validation risk come from one margin matmul and one surrogate call.

Also here: class-prior estimation, removed-class selection strategies, the
log-barrier penalty that keeps thresholds ordered, and the bootstrap
variance-ratio experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import OrdinalDataset, OrdinalModel, margins_matrix
from .losses import TaskSurrogate, surrogate_values, surrogate_values_grads
from .models import ScoreModel, with_weights

STRATEGIES = ("smallest", "bound")


@dataclass(frozen=True)
class RiskSpec:
    """Everything that parameterizes the combined risk estimator."""

    surrogate: TaskSurrogate
    removed_class: int
    priors: np.ndarray
    gamma: float = 0.8
    mu: float = 10.0
    non_negative: bool = True

    def __post_init__(self):
        pri = np.asarray(self.priors, dtype=float)
        if pri.ndim != 1 or pri.size < 2:
            raise ValueError("priors must be a 1-D vector with one entry per class")
        if np.any(pri < 0) or abs(pri.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be non-negative and sum to 1")
        if not 1 <= self.removed_class <= pri.size:
            raise ValueError(f"removed_class {self.removed_class} out of 1..{pri.size}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        object.__setattr__(self, "priors", pri)

    @property
    def n_classes(self) -> int:
        return self.priors.size


@dataclass(frozen=True)
class RiskBreakdown:
    """The estimator's pieces alongside the combined total.

    ``labeled_main`` and ``bias_correction`` are the two labeled sums of the
    LU estimator, ``unlabeled`` its unlabeled term, ``supervised`` the plain
    labeled mean.  When gamma = 0 the LU pieces are not computed and report
    0.0.
    """

    labeled_main: float
    unlabeled: float
    bias_correction: float
    supervised: float
    total: float


def estimate_priors(dataset: OrdinalDataset) -> np.ndarray:
    """Class priors as labeled class frequencies n_y / n_labeled."""
    counts = dataset.class_counts()
    return counts / counts.sum()


def select_removed_class(counts: np.ndarray, strategy: str) -> int:
    """Pick the class whose labeled term the LU estimator replaces.

    ``smallest`` removes the class with the fewest labeled points (its
    labeled average is the noisiest); ``bound`` removes the most populous
    class, which minimizes the estimation-error bound; ``fixed:<k>`` forces
    class k.  Ties break toward the smallest class index.
    """
    counts = np.asarray(counts, dtype=int)
    n_classes = counts.size
    if strategy == "smallest":
        return int(np.argmin(counts)) + 1
    if strategy == "bound":
        return int(np.argmax(counts)) + 1
    if strategy.startswith("fixed:"):
        k = int(strategy.split(":", 1)[1])
        if not 1 <= k <= n_classes:
            raise ValueError(f"fixed class {k} out of 1..{n_classes}")
        return k
    raise ValueError(f"unknown strategy {strategy!r}")


def threshold_penalty(thresholds: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """Log-barrier penalty encouraging strictly increasing thresholds, and
    its gradient in the thresholds.

    mu * max(0, sum of -log(gap)) over consecutive threshold gaps; the max
    clamps the whole sum, not individual gaps, and a clamped sum has zero
    gradient.  With fewer than two thresholds the sum is empty and the
    penalty is 0.  A non-positive gap makes the penalty infinite and raises
    ``ValueError``.
    """
    gaps = thresholds[1:] - thresholds[:-1]
    barrier = math.inf if (gaps <= 0.0).any() else float(-np.log(gaps).sum())
    penalty = mu * max(0.0, barrier)
    if not math.isfinite(penalty):
        raise ValueError("thresholds are not strictly increasing; penalty is infinite")
    grad_t = np.zeros_like(thresholds)
    if mu != 0.0 and not barrier <= 0.0:  # a NaN barrier is not clamped either
        inv = mu / gaps
        grad_t[:-1] += inv
        grad_t[1:] -= inv
    return penalty, grad_t


# Index of each estimator term, in the RiskBreakdown field order.
_L1, _U, _L2, _SV = range(4)


class Evaluation(NamedTuple):
    """One stacked call's results: the training part's combined risk (no order
    penalty), its gradients (on the negated bracket when the clamp is
    active), and the validation part's combined risk (None without one)."""

    risk: float
    grad_w: np.ndarray
    grad_t: np.ndarray
    val_risk: float | None


class RiskEvaluator:
    """Risk and gradient evaluation over one stacked row block.

    The block holds the dataset's labeled rows under their own labels and,
    for the LU terms, under the removed class k, plus the unlabeled pool
    under k.  An optional validation set adds a second part stacked the same
    way; it shares the pool rows when its pool is the same.  The block is
    built once, so each evaluation is one margin matmul and one surrogate
    call.  Each part's four terms are weighted sums over row ranges, listed
    once in ``sums``; breakdowns and gradients use the same weights.  With
    gamma = 0 the LU rows are left out.
    """

    def __init__(self, dataset: OrdinalDataset, spec: RiskSpec, score_model: ScoreModel,
                 val_dataset: OrdinalDataset | None = None):
        self.spec = spec
        k = spec.removed_class
        blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (features, labels)

        def add_rows(phi, ys) -> slice:
            start = sum(len(b[0]) for b in blocks)
            blocks.append((phi, np.broadcast_to(ys, phi.shape[:1])))
            return slice(start, start + len(phi))

        # Per part, (term, rows, weights); a float weight 1/n is a plain
        # mean, summed and divided as np.mean does, so that the supervised
        # term equals supervised_risk exactly.
        self.sums: list[list[tuple[int, slice, float | np.ndarray]]] = []
        for part, ds in enumerate([dataset] if val_dataset is None else [dataset, val_dataset]):
            if ds.n_classes != spec.n_classes:
                raise ValueError("spec priors length does not match the dataset classes")
            if score_model.input_dim != ds.n_features:
                raise ValueError("score model input dim does not match the dataset")
            phi = score_model.features(ds.labeled_x)
            own = add_rows(phi, ds.labeled_y)
            self.sums.append([(_SV, own, 1.0 / ds.n_labeled)])
            if spec.gamma > 0.0:
                counts = ds.class_counts()
                missing = [y for y in range(1, ds.n_classes + 1) if y != k and counts[y - 1] == 0]
                if missing:
                    raise ValueError(
                        f"classes {missing} have no labeled data but are kept by the "
                        f"LU estimator (removed class is {k})"
                    )
                if ds.n_unlabeled < 1:
                    raise ValueError("the LU estimator needs at least one unlabeled point")
                # per-row weight pi_y / n_y; zero for rows of the removed class
                coeff = spec.priors[ds.labeled_y - 1] / counts[ds.labeled_y - 1]
                coeff[ds.labeled_y == k] = 0.0
                if part == 0 or not np.array_equal(ds.unlabeled_x, dataset.unlabeled_x):
                    pool = add_rows(score_model.features(ds.unlabeled_x), k)
                self.sums[part] += [
                    (_L1, own, coeff),
                    (_U, pool, 1.0 / ds.n_unlabeled),
                    (_L2, add_rows(phi, k), coeff),
                ]
        self.phi = np.vstack([b[0] for b in blocks])
        self.labels = np.concatenate([b[1] for b in blocks])

        # Training-part row weights of gamma * (l1 + s * (u - l2)) +
        # (1 - gamma) * sv: s = 1, then the clamp's sign flip s = -1.
        g = spec.gamma
        n_train = max(rows.stop for _, rows, _ in self.sums[0])
        self._grad_weights = [np.zeros(n_train), np.zeros(n_train)]
        for term, rows, w in self.sums[0]:
            for weights, s in zip(self._grad_weights, (1.0, -1.0)):
                weights[rows] += {_L1: g, _U: g * s, _L2: -g * s, _SV: 1.0 - g}[term] * w

    def _margins(self, weights: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        # Filled one threshold at a time: broadcasting the short threshold
        # row against the score column is several times slower.
        scores = self.phi @ weights
        margins = np.empty((scores.size, thresholds.size))
        for j, t in enumerate(thresholds):
            np.subtract(t, scores, out=margins[:, j])
        return margins

    def _terms(self, values: np.ndarray) -> np.ndarray:
        """Each part's four terms from the block's surrogate values."""
        terms = np.zeros((len(self.sums), 4))
        for part, sums in enumerate(self.sums):
            for term, rows, w in sums:
                v = values[rows]
                terms[part, term] = v.sum() / v.size if isinstance(w, float) else w @ v
        return terms

    def _combine(self, terms: np.ndarray, gamma: float) -> RiskBreakdown:
        l1, u, l2, sv = (float(x) for x in terms)
        bracket = max(0.0, u - l2) if self.spec.non_negative else u - l2
        return RiskBreakdown(l1, u, l2, sv, gamma * (l1 + bracket) + (1.0 - gamma) * sv)

    def values(self, weights: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Surrogate value of every block row; ``sums`` gives each term's rows."""
        margins = self._margins(weights, thresholds)
        return surrogate_values(self.spec.surrogate, margins, self.labels)

    def breakdown(self, weights: np.ndarray, thresholds: np.ndarray) -> RiskBreakdown:
        """Combined-estimator breakdown on the training part."""
        return self._combine(self._terms(self.values(weights, thresholds))[0], self.spec.gamma)

    def lu_breakdown(self, weights: np.ndarray, thresholds: np.ndarray) -> RiskBreakdown:
        """Labeled-unlabeled breakdown alone (the gamma = 1 total)."""
        if self.spec.gamma == 0.0:
            raise ValueError("evaluator was built without the labeled-unlabeled terms")
        return self._combine(self._terms(self.values(weights, thresholds))[0], 1.0)

    def evaluate(self, weights: np.ndarray, thresholds: np.ndarray) -> Evaluation:
        """Training risk, its gradients and the validation risk in one call."""
        margins = self._margins(weights, thresholds)
        values, grads = surrogate_values_grads(self.spec.surrogate, margins, self.labels)
        terms = self._terms(values)
        train = self._combine(terms[0], self.spec.gamma)
        clamped = self.spec.non_negative and train.unlabeled - train.bias_correction < 0.0
        row_weights = self._grad_weights[clamped]
        # margins = thresholds - phi @ w, so d/dw picks up -phi and
        # d/dthreshold_j is the j-th margin gradient itself.
        n = row_weights.size
        grads = grads[:n]
        grad_w = -self.phi[:n].T @ (row_weights * (grads @ np.ones(grads.shape[1])))
        val = self._combine(terms[1], self.spec.gamma).total if len(terms) > 1 else None
        return Evaluation(train.total, grad_w, grads.T @ row_weights, val)

    def penalized(
        self, point: Evaluation, thresholds: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """(objective, d/dweights, d/dthresholds): ``point`` plus the order
        penalty at ``thresholds``; ``ValueError`` if they are unordered."""
        penalty, grad_t = threshold_penalty(thresholds, self.spec.mu)
        return point.risk + penalty, point.grad_w, point.grad_t + grad_t

    def objective_grad(
        self, weights: np.ndarray, thresholds: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective (combined risk + order penalty) and its gradients.

        Returns (value, d/dweights, d/dthresholds).  The reported value uses
        the clamped bracket; when the clamp is active the gradient instead
        descends on the negated bracket (sign-flip rule).
        """
        return self.penalized(self.evaluate(weights, thresholds), thresholds)


def supervised_risk(
    model: OrdinalModel, labeled_x: np.ndarray, labeled_y: np.ndarray, psi: TaskSurrogate
) -> float:
    """Mean surrogate loss over labeled pairs."""
    labeled_x = np.asarray(labeled_x, dtype=float)
    labeled_y = np.asarray(labeled_y, dtype=int)
    if labeled_x.ndim != 2 or labeled_x.shape[0] == 0:
        raise ValueError("labeled set must be non-empty")
    return float(np.mean(surrogate_values(psi, margins_matrix(model, labeled_x), labeled_y)))


def lu_risk(model: OrdinalModel, dataset: OrdinalDataset, spec: RiskSpec) -> RiskBreakdown:
    """LU estimator at the model's parameters (gamma plays no role here)."""
    ev = RiskEvaluator(dataset, replace(spec, gamma=1.0), model.score)
    return ev.lu_breakdown(model.score.weights, model.thresholds)


def variance_ratio(
    dataset: OrdinalDataset,
    spec: RiskSpec,
    model: OrdinalModel,
    resamples: int,
    sizes: tuple[int, int],
    seed: int = 0,
) -> float:
    """Var[LU estimator] / Var[supervised estimator] at a fixed model.

    Each resample bootstraps ``sizes`` = (n_labeled, n_unlabeled) points with
    replacement from the dataset's pools and evaluates both estimators on the
    same labeled draw.  Priors are re-estimated per draw, the clamp is off,
    and draws missing a kept class are rejected and redrawn.  A ratio below 1
    means the unlabeled data stabilizes the risk estimate.

    The model is fixed, so every pool row's surrogate values are computed
    once per call; each resample reweights its rows' cached values, with the
    same arithmetic as :func:`lu_risk` and :func:`supervised_risk`.
    """
    if resamples < 2:
        raise ValueError("need at least two resamples to estimate a variance")
    n_lab, n_unl = sizes
    if n_lab > dataset.n_labeled or n_unl > dataset.n_unlabeled:
        raise ValueError("dataset is smaller than the requested resample sizes")
    if n_unl < 1:
        raise ValueError("the LU estimator needs at least one unlabeled point")
    ev = RiskEvaluator(dataset, replace(spec, gamma=1.0), model.score)
    values = ev.values(model.score.weights, model.thresholds)
    rows = {term: values[r] for term, r, _ in ev.sums[0]}
    own, unl, own_k = rows[_SV], rows[_U], rows[_L2]  # own label; pool and labeled under k
    rng = np.random.default_rng(seed)
    kept = np.delete(np.arange(1, dataset.n_classes + 1), spec.removed_class - 1)
    lu_vals, sv_vals = np.empty((2, resamples))
    for r in range(resamples):
        for _ in range(100):
            lab_idx = rng.integers(0, dataset.n_labeled, size=n_lab)
            ys = dataset.labeled_y[lab_idx]
            counts = np.bincount(ys, minlength=dataset.n_classes + 1)[1:]
            if np.all(counts[kept - 1] > 0):
                break
        else:
            raise ValueError("could not draw a labeled resample covering all kept classes")
        unl_idx = rng.integers(0, dataset.n_unlabeled, size=n_unl)
        coeff = (counts / counts.sum())[ys - 1] / counts[ys - 1]  # re-estimated pi_y / n_y
        coeff[ys == spec.removed_class] = 0.0
        lab, pool = own[lab_idx], unl[unl_idx]
        lu_vals[r] = coeff @ lab + (pool.sum() / n_unl - coeff @ own_k[lab_idx])
        sv_vals[r] = np.mean(lab)
    var_sv = float(np.var(sv_vals, ddof=1))
    if var_sv <= 0.0:
        raise ValueError("supervised risk variance is zero (degenerate resamples)")
    return float(np.var(lu_vals, ddof=1)) / var_sv


def replace_params(model: OrdinalModel, weights: np.ndarray, thresholds: np.ndarray) -> OrdinalModel:
    """Model copy with fresh weights and thresholds."""
    return OrdinalModel(with_weights(model.score, weights), np.asarray(thresholds, dtype=float))
