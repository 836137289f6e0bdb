"""Score-function families: linear-in-input and Gaussian-kernel models.

Both families are linear in their trainable weights, so every model exposes a
feature map phi with score(x) = phi(x) . weights.  Kernel centers and the
bandwidth are fixed at construction and never trained.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

BANDWIDTH_FACTORS = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class LinearScore:
    """f(x) = w . x + b, with the bias stored as the last weight entry."""

    weights: np.ndarray  # length n_features + 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("linear weights must be 1-D with length >= 2")
        object.__setattr__(self, "weights", w)

    @property
    def kind(self) -> str:
        return "linear"

    @property
    def input_dim(self) -> int:
        return self.weights.size - 1

    def features(self, inputs: np.ndarray) -> np.ndarray:
        inputs = _check_batch(inputs, self.input_dim)
        return np.hstack([inputs, np.ones((inputs.shape[0], 1))])


@dataclass(frozen=True)
class KernelScore:
    """f(x) = sum_i w_i exp(-||x - c_i||^2 / (2 sigma^2)); no bias term."""

    weights: np.ndarray  # one per center
    centers: np.ndarray  # (n_centers, n_features)
    bandwidth: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("kernel model needs at least one center")
        if w.shape != (c.shape[0],):
            raise ValueError("kernel weights must match the number of centers")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    @property
    def kind(self) -> str:
        return "kernel"

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    def features(self, inputs: np.ndarray) -> np.ndarray:
        inputs = _check_batch(inputs, self.input_dim)
        sq = (
            np.sum(inputs**2, axis=1)[:, None]
            + np.sum(self.centers**2, axis=1)[None, :]
            - 2.0 * inputs @ self.centers.T
        )
        np.maximum(sq, 0.0, out=sq)  # clip tiny negatives from cancellation
        return np.exp(-sq / (2.0 * self.bandwidth**2))


ScoreModel = Union[LinearScore, KernelScore]


def _check_batch(inputs: np.ndarray, dim: int) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != dim:
        raise ValueError(f"inputs have shape {inputs.shape}, expected (n, {dim})")
    return inputs


def score_batch(model: ScoreModel, inputs: np.ndarray) -> np.ndarray:
    """Scores for every row of ``inputs``."""
    return model.features(inputs) @ model.weights


def with_weights(model: ScoreModel, weights: np.ndarray) -> ScoreModel:
    """Copy of the model with replaced weights."""
    return replace(model, weights=np.asarray(weights, dtype=float))


def median_bandwidth_candidates(inputs: np.ndarray) -> list[float]:
    """Bandwidth grid: fixed factors times the median pairwise distance.

    The median runs over unordered pairs i < j (self-pairs excluded).  All
    inputs identical would give a zero median, which is rejected.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] < 2:
        raise ValueError("need at least two inputs for the median heuristic")
    sq = (
        np.sum(inputs**2, axis=1)[:, None]
        + np.sum(inputs**2, axis=1)[None, :]
        - 2.0 * inputs @ inputs.T
    )
    np.maximum(sq, 0.0, out=sq)
    iu = np.triu_indices(inputs.shape[0], k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (identical inputs)")
    return [f * med for f in BANDWIDTH_FACTORS]


def init_model(
    kind: str,
    n_features: int,
    n_classes: int,
    centers: np.ndarray | None = None,
    bandwidth: float | None = None,
    seed: int = 0,
    weight_scale: float = 0.0,
):
    """Fresh model: zero (or small random) weights, evenly spaced thresholds.

    Thresholds are set to -1 + 2*i/n_classes for i = 1..n_classes-1, which is
    strictly increasing, so the order penalty starts finite.  With
    ``weight_scale`` > 0 the weights are drawn N(0, weight_scale^2) from a
    generator seeded with ``seed``; the default is exact zeros.
    """
    from .core import OrdinalModel

    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if kind == "linear":
        n_weights = n_features + 1
    elif kind == "kernel":
        if centers is None or bandwidth is None:
            raise ValueError("kernel model needs centers and a bandwidth")
        centers = np.asarray(centers, dtype=float)
        n_weights = centers.shape[0]
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    if weight_scale > 0.0:
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, weight_scale, size=n_weights)
    else:
        weights = np.zeros(n_weights)

    if kind == "linear":
        score_model: ScoreModel = LinearScore(weights)
    else:
        score_model = KernelScore(weights, centers, float(bandwidth))
    thresholds = -1.0 + 2.0 * np.arange(1, n_classes) / n_classes
    return OrdinalModel(score_model, thresholds)


def _fmt(value: float) -> str:
    # repr of a float is the shortest string that round-trips bit-exactly
    return repr(float(value))


def save_model(model, path: str | Path) -> None:
    """Write a model in the flat text format (one record per line)."""
    Path(path).write_text(serialize_model(model))


def serialize_model(model) -> str:
    sm = model.score
    lines = [
        sm.kind,
        str(model.input_dim),
        str(model.n_classes),
        ",".join(_fmt(t) for t in model.thresholds),
        ",".join(_fmt(w) for w in sm.weights),
    ]
    if sm.kind == "kernel":
        lines.append(_fmt(sm.bandwidth))
        for c in sm.centers:
            lines.append(",".join(_fmt(v) for v in c))
    return "\n".join(lines) + "\n"


def load_model(path: str | Path):
    """Read a model written by :func:`save_model`."""
    return deserialize_model(Path(path).read_text())


def deserialize_model(text: str):
    from .core import OrdinalModel

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 5:
        raise ValueError("model file is truncated")
    kind = lines[0].strip()
    n_features = int(lines[1])
    n_classes = int(lines[2])
    thresholds = np.array([float(v) for v in lines[3].split(",")])
    weights = np.array([float(v) for v in lines[4].split(",")])
    if thresholds.size != n_classes - 1:
        raise ValueError("threshold count does not match the class count")
    if kind == "linear":
        if weights.size != n_features + 1:
            raise ValueError("linear weight count does not match the feature dim")
        return OrdinalModel(LinearScore(weights), thresholds)
    if kind == "kernel":
        if len(lines) < 6:
            raise ValueError("model file is truncated")
        bandwidth = float(lines[5])
        centers = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[6 : 6 + weights.size]]
        )
        if centers.shape != (weights.size, n_features):
            raise ValueError("center block does not match the weight count")
        return OrdinalModel(KernelScore(weights, centers, bandwidth), thresholds)
    raise ValueError(f"unknown model kind {kind!r}")
