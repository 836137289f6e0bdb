"""Domain types, the threshold predictor, task losses, and evaluation metrics.

Labels are integers 1..n_classes.  A model scores an input with a real-valued
function f and converts the score to a label by counting how many of the
n_classes-1 thresholds it strictly exceeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ScoreModel, score_batch

TASK_LOSS_KINDS = ("absolute", "zero_one", "squared")

# Display names used by the benchmark harness.
METRIC_NAMES = {"absolute": "MAE", "zero_one": "MZE", "squared": "MSE"}


@dataclass(frozen=True)
class OrdinalModel:
    """A score model plus the threshold vector that discretizes its output.

    ``thresholds`` has length n_classes - 1.  Ordering of the thresholds is
    not enforced at construction: during training it is only encouraged by
    the order penalty, and prediction evaluates the literal threshold count
    either way.  A finalized trained model should be ordered.
    """

    score: ScoreModel
    thresholds: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thresholds, dtype=float)
        if th.ndim != 1 or th.size < 1:
            raise ValueError("thresholds must be a 1-D vector of length >= 1")
        object.__setattr__(self, "thresholds", th)

    @property
    def n_classes(self) -> int:
        return self.thresholds.size + 1

    @property
    def input_dim(self) -> int:
        return self.score.input_dim


@dataclass(frozen=True)
class OrdinalDataset:
    """Labeled pairs plus unlabeled inputs sharing one feature space.

    ``labeled_y`` entries are in 1..n_classes and n_labeled >= 1; the
    unlabeled block may be empty.
    """

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    n_classes: int

    def __post_init__(self):
        lx = np.asarray(self.labeled_x, dtype=float)
        ly = np.asarray(self.labeled_y, dtype=int)
        ux = np.asarray(self.unlabeled_x, dtype=float)
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if lx.ndim != 2 or lx.shape[0] < 1:
            raise ValueError("labeled_x must be a non-empty 2-D array")
        if ux.ndim != 2:
            ux = ux.reshape(0, lx.shape[1]) if ux.size == 0 else ux
        if ux.shape[0] > 0 and ux.shape[1] != lx.shape[1]:
            raise ValueError(
                f"unlabeled feature dim {ux.shape[1]} != labeled dim {lx.shape[1]}"
            )
        if ly.shape != (lx.shape[0],):
            raise ValueError("labeled_y must have one label per labeled row")
        if ly.min() < 1 or ly.max() > self.n_classes:
            raise ValueError(f"labels must lie in 1..{self.n_classes}")
        object.__setattr__(self, "labeled_x", lx)
        object.__setattr__(self, "labeled_y", ly)
        object.__setattr__(self, "unlabeled_x", ux)

    @property
    def n_labeled(self) -> int:
        return self.labeled_x.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled_x.shape[0]

    @property
    def n_features(self) -> int:
        return self.labeled_x.shape[1]

    def class_counts(self) -> np.ndarray:
        """Number of labeled rows per class, length n_classes."""
        return np.bincount(self.labeled_y, minlength=self.n_classes + 1)[1:]


def predict_batch(model: OrdinalModel, inputs: np.ndarray) -> np.ndarray:
    """Label per row of ``inputs``: 1 + thresholds strictly below its score.

    A tie score == threshold does not cross the threshold.
    """
    inputs = np.asarray(inputs, dtype=float)
    f = score_batch(model.score, inputs)
    return 1 + np.sum(f[:, None] > model.thresholds[None, :], axis=1)


def margins_matrix(model: OrdinalModel, inputs: np.ndarray) -> np.ndarray:
    """Threshold margins, thresholds minus the score, per row of ``inputs``.

    Shape (n, n_classes - 1).  Entry i is negative exactly when the score
    clears threshold i, so the margin signs determine the predicted label.
    """
    inputs = np.asarray(inputs, dtype=float)
    f = score_batch(model.score, inputs)
    return model.thresholds[None, :] - f[:, None]


def task_loss_batch(kind: str, predicted: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluation loss per pair of predicted and true labels."""
    predicted = np.asarray(predicted, dtype=int)
    y = np.asarray(y, dtype=int)
    if predicted.min() < 1 or y.min() < 1:
        raise ValueError("labels must be >= 1")
    if kind == "absolute":
        return np.abs(y - predicted).astype(float)
    if kind == "zero_one":
        return (predicted != y).astype(float)
    if kind == "squared":
        return ((y - predicted) ** 2).astype(float)
    raise ValueError(f"unknown task loss kind {kind!r}; choose from {TASK_LOSS_KINDS}")


def evaluate_metric(
    model: OrdinalModel, test_x: np.ndarray, test_y: np.ndarray, kind: str
) -> float:
    """Mean task loss of the model's predictions over a test set."""
    test_x = np.asarray(test_x, dtype=float)
    test_y = np.asarray(test_y, dtype=int)
    if test_x.ndim != 2 or test_x.shape[0] == 0:
        raise ValueError("test set must be non-empty")
    predicted = predict_batch(model, test_x)
    return float(np.mean(task_loss_batch(kind, predicted, test_y)))
