"""Binary surrogate losses and the task surrogates built on top of them.

Binary surrogates stand in for the 0-1 loss 1[z < 0].  Task surrogates map a
margin vector (thresholds minus score) and a label to a non-negative value:

* ``at``  -- sums a binary surrogate over every threshold, oriented by which
  side of the label the threshold falls on ("all thresholds").
* ``it``  -- only the two thresholds immediately around the label
  ("immediate thresholds"); boundary terms drop at the extreme labels.
* ``ls``  -- squared regression-style loss on the first margin.
* ``lad`` -- absolute-deviation counterpart of ``ls``.  Its labeled
  difference terms are only piecewise linear, so the semi-supervised
  objective is convex on each cell where the signs of the bias-correction
  terms are fixed, not everywhere.

Each task surrogate comes with its margin gradients from one fused kernel,
:func:`surrogate_values_grads`; :func:`binary_loss` accepts scalars or arrays
for z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BINARY_KINDS = ("logistic", "squared", "hinge", "exponential", "double_hinge")
TASK_KINDS = ("at", "it", "ls", "lad")


@dataclass(frozen=True)
class TaskSurrogate:
    """Choice of task surrogate; ``binary`` matters only for at/it."""

    kind: str
    binary: str = "logistic"

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task surrogate {self.kind!r}")
        if self.kind in ("at", "it") and self.binary not in BINARY_KINDS:
            raise ValueError(f"unknown binary surrogate {self.binary!r}")


def binary_loss(kind: str, z):
    """Value (>= 0) and derivative in z of the binary surrogate at margin z.

    Accepts scalars or arrays for z.  Logistic is computed without overflow
    for any z; exponential raises ``ValueError`` where e^-z overflows, below
    about z = -709.  At the kinks a fixed subgradient is returned: hinge
    picks 0 at z = 1; double_hinge picks 0 at z = 1 and -1 at z = -1.
    """
    z = np.asarray(z, dtype=float)
    if kind == "logistic":
        # log(1 + e^-z) as max(0, -z) + log1p(e^-|z|) to avoid overflow; the
        # derivative -sigmoid(-z) is computed stably on both tails
        t = np.exp(-np.abs(z))
        grad = np.where(z >= 0, -t / (1.0 + t), -1.0 / (1.0 + t))
        return np.maximum(0.0, -z) + np.log1p(t), grad
    if kind == "squared":
        one_minus = 1.0 - z
        return one_minus**2, -2.0 * one_minus
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - z), np.where(z < 1.0, -1.0, 0.0)
    if kind == "exponential":
        with np.errstate(over="ignore"):
            e = np.exp(-z)
        if np.isinf(e).any():
            raise ValueError(f"exponential loss overflows at margin {float(z.min())!r}")
        return e, -e
    if kind == "double_hinge":
        grad = np.where(z <= -1.0, -1.0, np.where(z < 1.0, -0.5, 0.0))
        return np.maximum(-z, np.maximum(0.0, 0.5 - 0.5 * z)), grad
    raise ValueError(f"unknown binary surrogate {kind!r}")


def surrogate_values_grads(
    psi: TaskSurrogate, margins: np.ndarray, ys
) -> tuple[np.ndarray, np.ndarray]:
    """Task surrogate value per row of ``margins`` and its margin gradients.

    ``margins`` has shape (n, n_classes - 1); ``ys`` is one label per row or
    a single label applied to every row.  The gradients have the shape of
    ``margins``: margins absent from the surrogate get 0 (ls/lad only touch
    the first margin), and the lad kink at 0 returns 0.
    """
    margins = np.atleast_2d(np.asarray(margins, dtype=float))
    n, m = margins.shape
    n_classes = m + 1
    ys = np.broadcast_to(np.asarray(ys, dtype=int), (n,))
    if ys.min() < 1 or ys.max() > n_classes:
        raise ValueError(f"labels must lie in 1..{n_classes}")

    if psi.kind == "at":
        signs = np.where(np.arange(m)[None, :] < (ys - 1)[:, None], -1.0, 1.0)
        values, grads = binary_loss(psi.binary, signs * margins)
        return values.sum(axis=1), signs * grads
    if psi.kind == "it":
        values = np.zeros(n)
        grads = np.zeros((n, m))
        rows = np.flatnonzero(ys >= 2)
        v, g = binary_loss(psi.binary, -margins[rows, ys[rows] - 2])
        values[rows] = v
        grads[rows, ys[rows] - 2] = -g
        rows = np.flatnonzero(ys <= n_classes - 1)
        v, g = binary_loss(psi.binary, margins[rows, ys[rows] - 1])
        values[rows] += v
        grads[rows, ys[rows] - 1] += g
        return values, grads
    grads = np.zeros((n, m))
    a = ys + margins[:, 0] - 1.5
    if psi.kind == "ls":
        grads[:, 0] = 2.0 * a
        return a**2, grads
    if psi.kind == "lad":
        grads[:, 0] = np.sign(a)
        return np.abs(a), grads
    raise ValueError(f"unknown task surrogate {psi.kind!r}")


def surrogate_values(psi: TaskSurrogate, margins: np.ndarray, ys) -> np.ndarray:
    """The values of :func:`surrogate_values_grads` alone."""
    return surrogate_values_grads(psi, margins, ys)[0]
