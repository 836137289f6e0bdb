"""Multi-trial benchmark and variance-ratio experiment runners.

A method name is "<estimator>-<model>" where the estimator is one of

* ``sv``    -- supervised only (gamma forced to 0; unlabeled data untouched),
* ``semi1`` -- combined risk, removing the class with the fewest labels,
* ``semi2`` -- combined risk, removing the class with the most labels,

and the model is ``linear`` or ``kernel``.  Each trial reshuffles the whole
split with a derived seed (base seed + trial index), trains every requested
method on that split, and scores the metric paired with the surrogate.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import METRIC_NAMES, evaluate_metric
from .data import RawTable, SplitSpec, make_splits
from .losses import TaskSurrogate
from .models import init_model
from .risk import (
    RiskSpec,
    estimate_priors,
    select_removed_class,
    variance_ratio,
)
from .train import TrainConfig, TrainingDiverged, select_hyperparams

ESTIMATORS = ("sv", "semi1", "semi2")
METRIC_FOR_SURROGATE = {"at": "absolute", "it": "zero_one", "ls": "squared", "lad": "absolute"}
_STRATEGY_FOR_ESTIMATOR = {"semi1": "smallest", "semi2": "bound"}


@dataclass(frozen=True)
class TrialResult:
    dataset: str
    method: str
    surrogate: str
    metric: str
    value: float
    seed: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("metric values are non-negative")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "TrialResult":
        return cls(**json.loads(line))


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    method: str
    surrogate: str
    metric: str
    mean: float
    stderr: float
    n_trials: int
    n_failed: int = 0
    t_vs_sv: float | None = None


def parse_method(name: str, default_model: str = "linear") -> tuple[str, str]:
    """Split "semi2-linear" into ("semi2", "linear"); bare names use the default model."""
    parts = name.split("-")
    estimator = parts[0]
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown method {name!r}; estimators are {ESTIMATORS}")
    if len(parts) == 1:
        return estimator, default_model
    if len(parts) == 2 and parts[1] in ("linear", "kernel"):
        return estimator, parts[1]
    raise ValueError(f"unknown method {name!r}")


def build_spec(
    train_ds,
    estimator: str,
    surrogate: TaskSurrogate,
    gamma: float,
    mu: float,
    non_negative: bool,
    strategy: str | None = None,
) -> RiskSpec:
    """Risk spec for one method: priors from the full labeled pool, removed
    class from the estimator's strategy (or an explicit override)."""
    priors = estimate_priors(train_ds)
    if estimator == "sv":
        return RiskSpec(surrogate, 1, priors, gamma=0.0, mu=mu, non_negative=non_negative)
    chosen = strategy or _STRATEGY_FOR_ESTIMATOR[estimator]
    k = select_removed_class(train_ds.class_counts(), chosen)
    return RiskSpec(surrogate, k, priors, gamma=gamma, mu=mu, non_negative=non_negative)


def run_trial(
    table: RawTable,
    dataset_name: str,
    method: str,
    surrogate: TaskSurrogate,
    metric_kind: str,
    split_spec: SplitSpec,
    config: TrainConfig,
    gamma: float,
    mu: float,
    non_negative: bool,
    weight_decays: tuple[float, ...],
    strategy: str | None = None,
    bandwidths: list[float] | None = None,
) -> TrialResult:
    """Split, select hyperparameters, train one method, score it on the test part."""
    estimator, model_kind = parse_method(method)
    splits = make_splits(table, split_spec)
    spec = build_spec(splits.train, estimator, surrogate, gamma, mu, non_negative, strategy)
    _, _, report = select_hyperparams(
        splits.train, spec, config, model_kind, bandwidths, weight_decays
    )
    value = evaluate_metric(report.model, splits.test_x, splits.test_y, metric_kind)
    return TrialResult(
        dataset=dataset_name,
        method=method,
        surrogate=surrogate.kind,
        metric=METRIC_NAMES[metric_kind],
        value=value,
        seed=split_spec.seed,
    )


def run_benchmark(
    table: RawTable,
    dataset_name: str,
    methods: list[str],
    surrogate: TaskSurrogate,
    metric_kind: str,
    trials: int,
    seed: int,
    split_spec: SplitSpec,
    config: TrainConfig,
    gamma: float = 0.8,
    mu: float = 10.0,
    non_negative: bool = True,
    weight_decays: tuple[float, ...] = (0.1, 0.01, 0.001),
    strategy: str | None = None,
    bandwidths: list[float] | None = None,
    sink=None,
) -> tuple[list[TrialResult], list[dict]]:
    """Run every method for ``trials`` reshuffled splits.

    Returns the successful trial results plus error records (dicts with an
    ``error`` field).  ``sink`` receives one JSON line per record as it
    completes.
    """
    results: list[TrialResult] = []
    errors: list[dict] = []
    for t in range(1, trials + 1):
        trial_seed = seed + t
        trial_split = replace(split_spec, seed=trial_seed)
        trial_config = replace(config, seed=trial_seed)
        for method in methods:
            try:
                res = run_trial(
                    table,
                    dataset_name,
                    method,
                    surrogate,
                    metric_kind,
                    trial_split,
                    trial_config,
                    gamma,
                    mu,
                    non_negative,
                    weight_decays,
                    strategy,
                    bandwidths,
                )
            except (ValueError, TrainingDiverged) as exc:  # training failures become rows
                record = {
                    "dataset": dataset_name,
                    "method": method,
                    "surrogate": surrogate.kind,
                    "metric": METRIC_NAMES[metric_kind],
                    "error": str(exc),
                    "seed": trial_seed,
                }
                errors.append(record)
                if sink is not None:
                    sink.write(json.dumps(record) + "\n")
                continue
            results.append(res)
            if sink is not None:
                sink.write(res.to_json() + "\n")
    return results, errors


def summarize(results: list[TrialResult], errors: list[dict] | None = None) -> list[SummaryRow]:
    """Mean and standard error per (dataset, method, surrogate, metric) group.

    The t column compares each method against the sv baseline with the same
    model kind via Welch's statistic; positive favors the method.  A group
    whose every trial failed still gets a row: n_trials 0, its n_failed,
    NaN mean and stderr, and no t.
    """
    errors = errors or []
    groups: dict[tuple, list[float]] = {}
    for r in results:
        groups.setdefault((r.dataset, r.method, r.surrogate, r.metric), []).append(r.value)
    failed: dict[tuple, int] = {}
    for e in errors:
        key = (e["dataset"], e["method"], e["surrogate"], e["metric"])
        failed[key] = failed.get(key, 0) + 1

    stats: dict[tuple, tuple[float, float, int]] = {}
    for key, values in groups.items():
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        stats[key] = (float(arr.mean()), stderr, arr.size)

    rows = []
    for key in sorted(stats.keys() | failed.keys()):
        dataset, method, surrogate, metric = key
        mean, stderr, n = stats.get(key, (math.nan, math.nan, 0))
        _, model_kind = parse_method(method)
        base = stats.get((dataset, f"sv-{model_kind}", surrogate, metric))
        t_stat = None
        if n and base is not None and method != f"sv-{model_kind}":
            denom = math.sqrt(base[1] ** 2 + stderr**2)
            if denom > 0:
                t_stat = (base[0] - mean) / denom
        rows.append(
            SummaryRow(
                dataset, method, surrogate, metric, mean, stderr, n,
                n_failed=failed.get(key, 0), t_vs_sv=t_stat,
            )
        )
    return rows


def write_summary_csv(rows: list[SummaryRow], handle) -> None:
    handle.write("dataset,method,surrogate,metric,mean,stderr,n_trials,t_vs_sv,n_failed\n")
    for r in rows:
        t = "" if r.t_vs_sv is None else repr(r.t_vs_sv)
        handle.write(
            f"{r.dataset},{r.method},{r.surrogate},{r.metric},"
            f"{r.mean!r},{r.stderr!r},{r.n_trials},{t},{r.n_failed}\n"
        )


def run_variance_experiment(
    table: RawTable,
    dataset_name: str,
    surrogates: list[str],
    split_spec: SplitSpec,
    sizes: tuple[int, int],
    resamples: int,
    seed: int,
    binary: str = "logistic",
    strategy: str = "bound",
    sink=None,
) -> list[tuple[str, str, float]]:
    """Variance ratio rows for each surrogate at a random linear model.

    The model's weights are drawn once per surrogate from the seeded
    generator; the thresholds start evenly spaced.  Rows are
    (surrogate, dataset, ratio).
    """
    train = make_splits(table, split_spec).train
    rows = []
    for s in surrogates:
        surrogate = TaskSurrogate(s, binary)
        priors = estimate_priors(train)
        k = select_removed_class(train.class_counts(), strategy)
        spec = RiskSpec(surrogate, k, priors, gamma=1.0, mu=0.0, non_negative=False)
        model = init_model("linear", train.n_features, train.n_classes, seed=seed, weight_scale=1.0)
        ratio = variance_ratio(train, spec, model, resamples, sizes, seed=seed)
        rows.append((s, dataset_name, ratio))
        if sink is not None:
            sink.write(f"{s},{dataset_name},{ratio!r}\n")
    return rows


def print_reference_ratios(handle=None) -> None:
    """Published reference magnitudes for the variance experiment (not asserted:
    they depend on the original benchmark datasets)."""
    handle = handle or sys.stderr
    handle.write(
        "reference ratios (original benchmark data): at/car 0.108, it/car 0.109, "
        "ls/car 0.157; at ratios ranged 0.04-0.36\n"
    )
