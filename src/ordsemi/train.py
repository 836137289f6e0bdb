"""Full-batch gradient descent with early stopping and grid-search selection.

Training minimizes the combined risk plus the order penalty.  Weight decay
applies to the score weights only; pulling thresholds toward zero would fight
the ordering penalty.  The validation signal is the same combined estimator
evaluated on held-out labeled data plus all unlabeled data, so unlabeled data
also stabilizes model selection.

A fit stacks its training and validation rows into one ``RiskEvaluator``
block and evaluates each parameter point once: the evaluation after a step
gives the epoch's validation risk and the next step's gradients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import OrdinalDataset, OrdinalModel
from .models import init_model, median_bandwidth_candidates
from .risk import RiskEvaluator, RiskSpec, replace_params


class TrainingDiverged(RuntimeError):
    """The objective became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    patience: int = 20
    weight_decay: float = 0.0
    max_epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one training run.

    ``train_curve`` holds (epoch, objective at the epoch's start) and
    ``val_curve`` (epoch, validation risk after the epoch's step); ``model``
    carries the parameters that achieved ``best_val``.
    """

    model: OrdinalModel
    train_curve: list[tuple[int, float]] = field(repr=False)
    val_curve: list[tuple[int, float]] = field(repr=False)
    stopped_epoch: int
    best_val: float


def fit(
    train_ds: OrdinalDataset,
    val_ds: OrdinalDataset,
    spec: RiskSpec,
    config: TrainConfig,
    model0: OrdinalModel,
) -> FitReport:
    """Gradient-descend the combined objective; return the best-validation model.

    Stops once the validation risk has not improved for ``patience``
    consecutive epochs, or at ``max_epochs``.  Raises
    :class:`TrainingDiverged` if the objective leaves the reals and
    ``ValueError`` if an epoch would step from thresholds that are not
    strictly increasing (the initial ones included).
    """
    evaluator = RiskEvaluator(train_ds, spec, model0.score, val_dataset=val_ds)
    weights = model0.score.weights.astype(float).copy()
    thresholds = model0.thresholds.astype(float).copy()

    train_curve: list[tuple[int, float]] = []
    val_curve: list[tuple[int, float]] = []
    best_val = np.inf
    best_params = (weights.copy(), thresholds.copy())
    best_epoch = 0
    epoch = 0

    point = evaluator.evaluate(weights, thresholds)
    for epoch in range(1, config.max_epochs + 1):
        objective, grad_w, grad_t = evaluator.penalized(point, thresholds)
        if not np.isfinite(objective):
            raise TrainingDiverged(
                f"objective became {objective} at epoch {epoch}; "
                "reduce the learning rate or check the threshold ordering"
            )
        train_curve.append((epoch, objective))
        weights = weights - config.learning_rate * (grad_w + config.weight_decay * weights)
        thresholds = thresholds - config.learning_rate * grad_t

        point = evaluator.evaluate(weights, thresholds)
        val = point.val_risk
        val_curve.append((epoch, val))
        if val < best_val:
            best_val = val
            best_params = (weights.copy(), thresholds.copy())
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break

    model = replace_params(model0, *best_params)
    if np.any(np.diff(model.thresholds) <= 0):
        warnings.warn(
            "trained thresholds are not strictly increasing; "
            "predictions may skip labels",
            stacklevel=2,
        )
    return FitReport(
        model=model,
        train_curve=train_curve,
        val_curve=val_curve,
        stopped_epoch=epoch,
        best_val=float(best_val),
    )


_SPLIT_ATTEMPTS = 10


def _split_labeled(
    dataset: OrdinalDataset, spec: RiskSpec, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """2:1 labeled hold-out; both parts must cover the classes the spec keeps."""
    n = dataset.n_labeled
    n_train = (2 * n) // 3
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"cannot split {n} labeled points 2:1")
    kept = range(1, dataset.n_classes + 1) if spec.gamma > 0 else ()
    required = [y for y in kept if y != spec.removed_class]
    for attempt in range(_SPLIT_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        perm = rng.permutation(n)
        tr, va = perm[:n_train], perm[n_train:]
        ys_tr, ys_va = dataset.labeled_y[tr], dataset.labeled_y[va]
        if all(np.any(ys_tr == y) and np.any(ys_va == y) for y in required):
            return tr, va
    raise ValueError(
        f"could not split 2:1 with classes {required} in both parts "
        f"after {_SPLIT_ATTEMPTS} attempts"
    )


def _subset(dataset: OrdinalDataset, idx: np.ndarray) -> OrdinalDataset:
    return OrdinalDataset(
        dataset.labeled_x[idx], dataset.labeled_y[idx], dataset.unlabeled_x, dataset.n_classes
    )


def select_hyperparams(
    dataset: OrdinalDataset,
    spec: RiskSpec,
    config: TrainConfig,
    model_kind: str = "linear",
    bandwidths: list[float] | None = None,
    weight_decays: tuple[float, ...] = (0.1, 0.01, 0.001),
) -> tuple[float | None, float, FitReport]:
    """Hold-out grid search over bandwidths x weight decays, then refit.

    The labeled data splits 2:1; every grid point trains on the 2-part and is
    scored by the combined validation risk on the 1-part (all unlabeled data
    included).  The winner (first on ties, in grid order) is refit on the
    full labeled set, still monitored on the held-out 1-part for early
    stopping.  Returns (bandwidth or None, weight decay, refit report).
    """
    if model_kind == "kernel" and bandwidths is None:
        bandwidths = median_bandwidth_candidates(dataset.labeled_x)
    grid_bw: list[float | None] = list(bandwidths) if model_kind == "kernel" else [None]

    tr_idx, va_idx = _split_labeled(dataset, spec, config.seed)
    train_part = _subset(dataset, tr_idx)
    val_part = _subset(dataset, va_idx)

    def fit_point(part: OrdinalDataset, bw: float | None, wd: float) -> FitReport:
        model0 = init_model(
            model_kind,
            dataset.n_features,
            dataset.n_classes,
            centers=part.labeled_x if model_kind == "kernel" else None,
            bandwidth=bw,
            seed=config.seed,
        )
        return fit(part, val_part, spec, replace(config, weight_decay=wd), model0)

    best: tuple[float, int] | None = None  # (val risk, flat grid index)
    grid = [(bw, wd) for bw in grid_bw for wd in weight_decays]
    for i, (bw, wd) in enumerate(grid):
        report = fit_point(train_part, bw, wd)
        if best is None or report.best_val < best[0]:
            best = (report.best_val, i)

    best_bw, best_wd = grid[best[1]]
    refit = fit_point(dataset, best_bw, best_wd)
    return best_bw, best_wd, refit
