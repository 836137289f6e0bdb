"""The benchmark's workloads: set-up, one trial, and the check of its output.

Every input comes from ``ordsemi.data.synthetic_ordinal_table``, and every
run of a workload runs the same number of trials, ``trials``.  Trial ``t``
uses table ``t % N_TABLES``.

- The c08 workloads run a fixed panel: tables seeded 0 to 3 and split and
  training seed ``t``, whatever ``--seed`` is.  A c08 trial runs anywhere
  from about 300 to 8000 GD epochs depending on its split, so a
  seed-derived trial set of a size that fits a run would change the run's
  work by more than any bound from one seed to the next.
- The c07 workload derives its tables and models from ``--seed``: every
  c07 trial does the same amount of work.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

import ordsemi.bench
import ordsemi.risk
import ordsemi.train
from ordsemi.core import OrdinalDataset, predict_batch
from ordsemi.data import RawTable, SplitSpec, TrainTestSplit, make_splits, synthetic_ordinal_table
from ordsemi.losses import TaskSurrogate
from ordsemi.models import init_model
from ordsemi.risk import RiskSpec

from spans import patched

# The `ordsemi bench` defaults: gamma 0.8, mu 10, clamp on, three weight
# decays; TrainConfig's defaults are the CLI's lr 0.01, patience 20 and
# 2000-epoch cap.
AT_LOGISTIC = TaskSurrogate("at", "logistic")
GAMMA, MU, NON_NEGATIVE = 0.8, 10.0, True
WEIGHT_DECAYS = (0.1, 0.01, 0.001)
N_CLASSES = 3
# Tables per run.  Result quality differs from one generated table to the
# next by more than one run's trials average away on a single table.
N_TABLES = 4

# c07: resamples per variance ratio.  Fewer than c07's 1000 so that a run
# averages the ratio over many random models; the ratio varies far more
# between models than between resample sets.  C07_TRIALS is a multiple of
# 12 so that every (table, removed class) pair is drawn equally often.
C07_RESAMPLES = 200
C07_TRIALS = 84
C07_SURROGATES = ("at", "it", "ls")


def trial_seed(seed: int, t: int) -> int:
    return 1_000_003 * seed + t


def table_seeds(seed: int) -> list[int]:
    return [N_TABLES * seed + i for i in range(N_TABLES)]


@dataclass
class Outcome:
    quality: float  # test MAE, or the geometric mean of the trial's variance ratios
    error: str | None  # the failed checks, None when all hold


class Capture:
    """The grid point and model ``select_hyperparams`` chose in a trial.

    ``run_trial`` returns only the score, so the benchmark wraps
    ``ordsemi.bench.select_hyperparams``, the name ``run_trial`` resolves,
    to check the trial's model.  The wrapper runs once per trial.
    """

    def __init__(self):
        self.selected = None

    def _select(self, fn):
        def select_hyperparams(*args, **kwargs):
            self.selected = fn(*args, **kwargs)
            return self.selected

        return select_hyperparams

    def installed(self):
        self.selected = None
        return patched(ordsemi.bench, "select_hyperparams", self._select)


@dataclass
class C08State:
    tables: list[RawTable]
    first_split: TrainTestSplit


class C08:
    """The c08 setup: ``bench.run_trial`` for one method at the CLI defaults,
    on the fixed panel described at the top of this module."""

    average = staticmethod(statistics.fmean)  # of the trials' test MAE

    def __init__(self, method: str, trials: int):
        self.method, self.trials = method, trials

    @staticmethod
    def split_spec(t: int) -> SplitSpec:
        return SplitSpec(30, N_CLASSES, 0.5, seed=t)

    def setup(self, seed: int) -> C08State:
        del seed  # the panel is the same for every seed
        tables = [synthetic_ordinal_table(2030, 5, N_CLASSES, label_noise=0.1, seed=s)
                  for s in range(N_TABLES)]
        return C08State(tables, make_splits(tables[0], self.split_spec(0)))

    def run(self, state: C08State, t: int):
        spec = self.split_spec(t)
        return ordsemi.bench.run_trial(
            state.tables[t % N_TABLES], "c08", self.method, AT_LOGISTIC, "absolute", spec,
            ordsemi.train.TrainConfig(seed=spec.seed), GAMMA, MU, NON_NEGATIVE,
            WEIGHT_DECAYS,
        )

    def check(self, state: C08State, t: int, result, capture: Capture) -> Outcome:
        if capture.selected is None:
            return Outcome(result.value, "no model was selected")
        splits = state.first_split if t == 0 else make_splits(
            state.tables[t % N_TABLES], self.split_spec(t)
        )
        bandwidth, decay, report = capture.selected
        thresholds = report.model.thresholds
        predicted = predict_batch(report.model, splits.test_x)
        mae = float(np.mean(np.abs(predicted - splits.test_y)))
        problems = []
        if not (np.all(np.isfinite(thresholds)) and np.all(np.diff(thresholds) > 0)):
            problems.append(f"thresholds {thresholds} are not finite and increasing")
        if predicted.min() < 1 or predicted.max() > N_CLASSES:
            problems.append(f"predictions leave 1..{N_CLASSES}")
        if bandwidth is not None or decay not in WEIGHT_DECAYS:
            problems.append(f"({bandwidth}, {decay}) is not on the grid")
        if abs(mae - result.value) > 1e-12:
            problems.append(f"reported MAE {result.value} but the model scores {mae}")
        return Outcome(result.value, "; ".join(problems) or None)


@dataclass
class C07State:
    seed: int
    pools: list[OrdinalDataset]
    priors: list[np.ndarray]


class C07:
    """The c07 setup: ``risk.variance_ratio`` at a seeded random linear model.

    c07 removes the most populous class, which on a three-class table with
    near-equal counts is an accident of the seed, and the ratio depends on
    it far more than on the model.  Trial ``t`` removes class
    ``1 + (t // N_TABLES) % 3`` instead, so every run averages over all
    three on every table.  A few models have ratios several times the
    typical one, so ratios are averaged geometrically: across seeds the
    arithmetic mean moved twice as much.
    """

    average = staticmethod(statistics.geometric_mean)
    trials = C07_TRIALS

    def setup(self, seed: int) -> C07State:
        pools = []
        for s in table_seeds(seed):
            table = synthetic_ordinal_table(4000, 5, N_CLASSES, label_noise=0.1, seed=s)
            pools.append(make_splits(table, SplitSpec(2000, N_CLASSES, 0.9, seed=s)).train)
        return C07State(seed, pools, [ordsemi.risk.estimate_priors(p) for p in pools])

    def run(self, state: C07State, t: int):
        s = trial_seed(state.seed, t)
        pool, priors = state.pools[t % N_TABLES], state.priors[t % N_TABLES]
        removed = 1 + (t // N_TABLES) % N_CLASSES
        model = init_model("linear", pool.n_features, N_CLASSES, seed=s, weight_scale=1.0)
        ratios = []
        for kind in C07_SURROGATES:
            spec = RiskSpec(TaskSurrogate(kind, "logistic"), removed, priors,
                            gamma=1.0, mu=0.0, non_negative=False)
            ratios.append(ordsemi.risk.variance_ratio(
                pool, spec, model, C07_RESAMPLES, (30, 1000), seed=s))
        return ratios

    def check(self, state: C07State, t: int, ratios, capture: Capture) -> Outcome:
        bad = [r for r in ratios if not (math.isfinite(r) and r > 0.0)]
        error = f"variance ratios {bad} are not finite and positive" if bad else None
        quality = statistics.geometric_mean(ratios) if error is None else math.nan
        return Outcome(quality, error)


# Trials per set, sized so that a run takes about 20 to 30 s on a 2-vCPU VM.
WORKLOADS = {
    "c08-semi2-linear": C08("semi2-linear", trials=12),
    "c08-sv-linear": C08("sv-linear", trials=24),
    "c07-variance": C07(),
}
