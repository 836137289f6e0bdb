"""Semi-supervised ordinal regression by unbiased risk estimation.

Train threshold-based ordinal regressors on a few labeled points plus a pool
of unlabeled inputs: the combined risk estimator stays unbiased for the task
surrogate risk while the unlabeled data shrinks its variance.
"""

from .core import OrdinalDataset, OrdinalModel, evaluate_metric, predict_batch
from .data import RawTable, SplitSpec, TrainTestSplit, load_csv, make_splits, merge_classes
from .losses import TaskSurrogate
from .models import KernelScore, LinearScore, load_model, save_model
from .risk import RiskSpec, estimate_priors, select_removed_class
from .train import FitReport, TrainConfig, select_hyperparams

__all__ = [
    "FitReport",
    "KernelScore",
    "LinearScore",
    "OrdinalDataset",
    "OrdinalModel",
    "RawTable",
    "RiskSpec",
    "SplitSpec",
    "TaskSurrogate",
    "TrainConfig",
    "TrainTestSplit",
    "estimate_priors",
    "evaluate_metric",
    "load_csv",
    "load_model",
    "make_splits",
    "merge_classes",
    "predict_batch",
    "save_model",
    "select_hyperparams",
    "select_removed_class",
]

__version__ = "0.1.0"
