"""In-memory spans for the traced benchmark run, and the per-layer metrics.

Wrappers are installed from the benchmark's own files on the names the
program's callers resolve at call time (module globals and class
attributes), so nothing under ``src/`` changes.  Each call records a span
(name, start, end, parent, trial) plus an optional work figure; a span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import ExitStack, contextmanager

import ordsemi.bench
import ordsemi.risk
import ordsemi.train
from ordsemi.models import KernelScore, LinearScore
from ordsemi.risk import RiskEvaluator

FIELDS = ("name", "start_s", "end_s", "parent", "trial", "work")


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _margin_elems(args, result):
    return args[1].size  # surrogate_*(psi, margins, ys)


def _feature_bytes(args, result):
    return result.shape[0] * result.shape[1] * 8


def _fit_work(args, result):
    # (epochs run, hit the cap, best epoch); fit(train, val, spec, config, model0)
    best_epoch = min(result.val_curve, key=lambda e: e[1])[0] if result.val_curve else 0
    return (result.stopped_epoch, int(result.stopped_epoch == args[3].max_epochs), best_epoch)


# (owner, attribute, span name, work figure computed from (args, result))
TRACED = (
    (ordsemi.risk, "surrogate_values_grads", "losses.values_grads", _margin_elems),
    (ordsemi.risk, "surrogate_values", "losses.values", _margin_elems),
    (RiskEvaluator, "__init__", "risk.evaluator_init", None),
    (RiskEvaluator, "objective_grad", "risk.objective_grad", None),
    (RiskEvaluator, "breakdown", "risk.breakdown", None),
    (RiskEvaluator, "lu_breakdown", "risk.lu_breakdown", None),
    (ordsemi.risk, "lu_risk", "risk.lu_risk", None),
    (ordsemi.risk, "supervised_risk", "risk.supervised_risk", None),
    (ordsemi.risk, "variance_ratio", "risk.variance_ratio", None),
    (LinearScore, "features", "models.features", _feature_bytes),
    (KernelScore, "features", "models.features", _feature_bytes),
    (ordsemi.train, "fit", "train.fit", _fit_work),
    (ordsemi.bench, "run_trial", "bench.run_trial", None),
    (ordsemi.bench, "select_hyperparams", "train.select_hyperparams", None),
    (ordsemi.bench, "make_splits", "data.make_splits", None),
    (ordsemi.bench, "evaluate_metric", "core.evaluate_metric", None),
)


class Tracer:
    """Records one span per call of every name in ``TRACED`` while installed."""

    def __init__(self):
        self.spans: list[list] = []  # one list per span, laid out as FIELDS
        self.trial = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.trial, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[5] = work(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for owner, attr, name, work in TRACED:
                stack.enter_context(
                    patched(owner, attr, lambda fn, n=name, w=work: self._wrap(n, fn, w))
                )
            yield self

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole trial."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def write(self, path, provenance: dict) -> int:
        """Write the spans as JSON, read the file back, return the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"provenance": provenance, "fields": FIELDS, "spans": self.spans}, handle)
        with path.open() as handle:
            loaded = json.load(handle)
        if loaded["fields"] != list(FIELDS) or len(loaded["spans"]) != len(self.spans):
            raise ValueError(f"{path} does not read back as written")
        return len(loaded["spans"])


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile; 0.0 when there are fewer than two values."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer figures over every span recorded in the run."""
    own = _self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    work: dict[str, list] = {}
    fits_under_select = 0
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own[i]
        durations.setdefault(name, []).append(dur)
        if s[5] is not None:
            work.setdefault(name, []).append(s[5])
        if name == "train.fit" and s[3] >= 0 and spans[s[3]][0] == "train.select_hyperparams":
            fits_under_select += 1

    def n(name):
        return calls.get(name, 0)

    def tot(name):
        return total.get(name, 0.0)

    def own_s(name):
        return self_s.get(name, 0.0)

    loss_names = ("losses.values_grads", "losses.values")
    elems = sum(sum(work.get(k, [])) for k in loss_names)
    loss_self = sum(own_s(k) for k in loss_names)
    fits = work.get("train.fit", [])
    epochs = sum(f[0] for f in fits)
    selects = n("train.select_hyperparams")
    objective_us = [d * 1e6 for d in durations.get("risk.objective_grad", [])]
    trial_s = durations.get("bench.run_trial", [])
    return {
        "losses.values_grads.calls": (n("losses.values_grads"), "count"),
        "losses.values.calls": (n("losses.values"), "count"),
        "losses.calls_per_epoch": (_ratio(sum(n(k) for k in loss_names), epochs), "count"),
        "losses.elems": (elems, "count"),
        "losses.self_s": (loss_self, "s"),
        "losses.ns_per_elem": (_ratio(loss_self * 1e9, elems), "ns"),
        "risk.objective_grad.calls": (n("risk.objective_grad"), "count"),
        "risk.objective_grad.self_s": (own_s("risk.objective_grad"), "s"),
        "risk.objective_grad.us.p50": (_quantile(objective_us, 50), "us"),
        "risk.objective_grad.us.p99": (_quantile(objective_us, 99), "us"),
        "risk.breakdown.calls": (n("risk.breakdown"), "count"),
        "risk.breakdown.self_s": (own_s("risk.breakdown"), "s"),
        "risk.evaluator_init.calls": (n("risk.evaluator_init"), "count"),
        "risk.evaluator_init.s": (tot("risk.evaluator_init"), "s"),
        "risk.lu_risk.calls": (n("risk.lu_risk"), "count"),
        "risk.variance_ratio.s": (tot("risk.variance_ratio"), "s"),
        "models.features.calls": (n("models.features"), "count"),
        "models.features.s": (tot("models.features"), "s"),
        "models.features.bytes": (sum(work.get("models.features", [])), "B"),
        "train.fit.calls": (n("train.fit"), "count"),
        "train.fit.self_s": (own_s("train.fit"), "s"),
        "train.fit.epochs": (epochs, "count"),
        "train.fit.capped": (sum(f[1] for f in fits), "count"),
        "train.fit.us_per_epoch": (_ratio(tot("train.fit") * 1e6, epochs), "us"),
        "train.fit.useful_epoch_ratio": (_ratio(sum(f[2] for f in fits), epochs), "ratio"),
        "train.select_hyperparams.s": (tot("train.select_hyperparams"), "s"),
        "train.grid_points": (_ratio(fits_under_select - selects, selects), "count"),
        "bench.run_trial.s": (tot("bench.run_trial"), "s"),
        "bench.run_trial.s.p50": (statistics.median(trial_s) if trial_s else 0.0, "s"),
        "data.make_splits.calls": (n("data.make_splits"), "count"),
        "data.make_splits.s": (tot("data.make_splits"), "s"),
        "core.evaluate_metric.s": (tot("core.evaluate_metric"), "s"),
    }
