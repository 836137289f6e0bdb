"""Gradient-descent trainer, early stopping, and hyperparameter selection."""

import numpy as np
import pytest

import ordsemi.risk as risk_mod
from ordsemi.core import OrdinalDataset, evaluate_metric
from ordsemi.losses import TaskSurrogate
from ordsemi.models import init_model
from ordsemi.risk import RiskEvaluator, RiskSpec, estimate_priors, replace_params, threshold_penalty
from ordsemi.train import (
    TrainConfig,
    TrainingDiverged,
    fit,
    select_hyperparams,
)

AT_LOG = TaskSurrogate("at", "logistic")


def separable_dataset(n_per_class=8, seed=0):
    """1-D three-class data with wide gaps between the class intervals."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for y, lo in ((1, 0.0), (2, 2.0), (3, 4.0)):
        xs.append(lo + rng.uniform(0, 1, size=(n_per_class, 1)))
        ys.extend([y] * n_per_class)
    x = np.vstack(xs)
    u = rng.uniform(0, 5, size=(30, 1))
    return OrdinalDataset(x, np.array(ys), u, 3)


def gaussian_dataset(seed=0, n_per_class=6, n_unlabeled=40, d=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3 * n_per_class, d))
    y = np.repeat([1, 2, 3], n_per_class)
    u = rng.normal(size=(n_unlabeled, d))
    return OrdinalDataset(x, y, u, 3)


def breakdown(model, ds, spec):
    return RiskEvaluator(ds, spec, model.score).breakdown(model.score.weights, model.thresholds)


def spec_for(ds, gamma=0.8, mu=10.0, nn=True, k=None):
    counts = ds.class_counts()
    removed = k if k is not None else int(np.argmax(counts)) + 1
    return RiskSpec(AT_LOG, removed, estimate_priors(ds), gamma=gamma, mu=mu, non_negative=nn)


class TestFit:
    def test_separable_reaches_zero_training_error(self):
        ds = separable_dataset()
        spec = spec_for(ds, gamma=0.0, mu=0.0)
        config = TrainConfig(learning_rate=0.05, patience=4000, max_epochs=4000, seed=0)
        report = fit(ds, ds, spec, config, init_model("linear", 1, 3))
        mae = evaluate_metric(report.model, ds.labeled_x, ds.labeled_y, "absolute")
        assert mae == 0.0

    def test_zero_learning_rate_stops_by_patience(self):
        ds = gaussian_dataset(1)
        spec = spec_for(ds)
        config = TrainConfig(learning_rate=0.0, patience=7, max_epochs=500, seed=1)
        model0 = init_model("linear", 3, 3)
        report = fit(ds, ds, spec, config, model0)
        assert report.stopped_epoch == 8  # first epoch improves, then 7 flat
        np.testing.assert_array_equal(report.model.score.weights, model0.score.weights)
        np.testing.assert_array_equal(report.model.thresholds, model0.thresholds)

    def test_objective_monotone_for_small_lr(self):
        # convex objective (linear-odd binary, clamp off): plain descent
        # with a small step never increases it
        ds = gaussian_dataset(2)
        spec = spec_for(ds, nn=False)
        config = TrainConfig(learning_rate=1e-3, patience=400, max_epochs=400, seed=2)
        report = fit(ds, ds, spec, config, init_model("linear", 3, 3))
        objectives = [v for _, v in report.train_curve]
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-9)

    def test_best_val_is_curve_minimum(self):
        ds = gaussian_dataset(3)
        val = gaussian_dataset(33, n_per_class=3)
        spec = spec_for(ds)
        config = TrainConfig(max_epochs=300, seed=3)
        report = fit(ds, val, spec, config, init_model("linear", 3, 3))
        assert report.best_val == min(v for _, v in report.val_curve)
        recomputed = breakdown(report.model, val, spec).total
        assert recomputed == pytest.approx(report.best_val, abs=1e-12)

    def test_deterministic(self):
        ds = gaussian_dataset(4)
        val = gaussian_dataset(44, n_per_class=3)
        spec = spec_for(ds)
        config = TrainConfig(max_epochs=200, seed=4)
        a = fit(ds, val, spec, config, init_model("linear", 3, 3))
        b = fit(ds, val, spec, config, init_model("linear", 3, 3))
        np.testing.assert_array_equal(a.model.score.weights, b.model.score.weights)
        np.testing.assert_array_equal(a.model.thresholds, b.model.thresholds)
        assert a.train_curve == b.train_curve
        assert a.val_curve == b.val_curve

    def test_thresholds_ordered_after_training(self):
        for seed in range(4):
            ds = gaussian_dataset(seed)
            spec = spec_for(ds, mu=10.0)
            config = TrainConfig(max_epochs=500, seed=seed)
            report = fit(ds, ds, spec, config, init_model("linear", 3, 3))
            assert np.all(np.diff(report.model.thresholds) > 0)

    def test_nn_objective_floor(self):
        # reported objective never drops below the unclamped floor terms
        ds = gaussian_dataset(5)
        spec = spec_for(ds, nn=True)
        model0 = init_model("linear", 3, 3)
        config = TrainConfig(max_epochs=150, seed=5)
        report = fit(ds, ds, spec, config, model0)
        b = breakdown(report.model, ds, spec)
        floor = spec.gamma * b.labeled_main + (1 - spec.gamma) * b.supervised
        assert b.total + threshold_penalty(report.model.thresholds, spec.mu)[0] >= floor - 1e-12

    def test_infeasible_initial_thresholds_error(self):
        ds = gaussian_dataset(6)
        spec = spec_for(ds)
        model0 = init_model("linear", 3, 3)
        bad = type(model0)(model0.score, np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            fit(ds, ds, spec, TrainConfig(seed=6), bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        ds = gaussian_dataset(7)
        spec = RiskSpec(
            TaskSurrogate("at", "exponential"),
            2,
            estimate_priors(ds),
            gamma=0.0,
            mu=0.0,
            non_negative=False,
        )
        config = TrainConfig(learning_rate=1e4, patience=50, max_epochs=50, seed=7)
        with pytest.raises((TrainingDiverged, ValueError)):
            fit(ds, ds, spec, config, init_model("linear", 3, 3))

    def test_exponential_overflow_is_named(self):
        # a score of 1000 puts every label-1 margin near -1000, where e^-z
        # overflows: the fit reports the overflow, not a divergence
        ds = gaussian_dataset(7)
        spec = RiskSpec(TaskSurrogate("at", "exponential"), 2, estimate_priors(ds), gamma=0.8)
        model0 = init_model("linear", 3, 3)
        far = replace_params(model0, np.array([0.0, 0.0, 0.0, 1000.0]), model0.thresholds)
        with pytest.raises(ValueError, match="exponential loss overflows"):
            fit(ds, ds, spec, TrainConfig(seed=7), far)


class TestFitEvaluations:
    @pytest.mark.parametrize("gamma", [0.0, 0.8])
    def test_one_surrogate_call_per_epoch(self, monkeypatch, gamma):
        calls = {"values_grads": [], "values": []}
        for name in calls:
            original = getattr(risk_mod, f"surrogate_{name}")

            def counted(psi, margins, ys, original=original, name=name):
                calls[name].append(np.shape(margins)[0])
                return original(psi, margins, ys)

            monkeypatch.setattr(risk_mod, f"surrogate_{name}", counted)
        ds = gaussian_dataset(9, n_per_class=6, n_unlabeled=40)
        other = gaussian_dataset(19, n_per_class=3)
        val = OrdinalDataset(other.labeled_x, other.labeled_y, ds.unlabeled_x, 3)
        spec = spec_for(ds, gamma=gamma)
        report = fit(ds, val, spec, TrainConfig(max_epochs=30, seed=9), init_model("linear", 3, 3))
        epochs = report.stopped_epoch
        assert len(calls["values_grads"]) == epochs + 1
        assert calls["values"] == []
        # labeled rows under their own labels (and under k), the shared pool once
        rows = 18 + 9 if gamma == 0.0 else 2 * (18 + 9) + 40
        assert set(calls["values_grads"]) == {rows}

    def test_unordered_step_raises_only_when_used(self):
        # ls moves only the first threshold; one large step carries it past
        # the second.  Validation scores the unordered point; the epoch that
        # would step from it raises.
        rng = np.random.default_rng(12)
        ds = OrdinalDataset(
            rng.normal(size=(30, 2)), np.array([1] * 28 + [2, 3]), rng.normal(size=(10, 2)), 3
        )
        spec = RiskSpec(TaskSurrogate("ls"), 1, estimate_priors(ds), gamma=0.0, mu=0.0)
        model0 = init_model("linear", 2, 3)
        with pytest.warns(UserWarning, match="not strictly increasing"):
            report = fit(ds, ds, spec, TrainConfig(learning_rate=1.0, max_epochs=1), model0)
        assert report.stopped_epoch == 1
        with pytest.raises(ValueError, match="penalty is infinite"):
            fit(ds, ds, spec, TrainConfig(learning_rate=1.0, max_epochs=2), model0)


class TestSelectHyperparams:
    def test_grid_of_one(self):
        ds = gaussian_dataset(8, n_per_class=6)
        spec = spec_for(ds)
        config = TrainConfig(max_epochs=60, seed=8)
        bw, wd, report = select_hyperparams(ds, spec, config, "linear", weight_decays=(0.01,))
        assert bw is None and wd == 0.01
        assert report.model.input_dim == 3

    def test_identical_grid_points_take_first(self):
        ds = gaussian_dataset(9, n_per_class=6)
        spec = spec_for(ds)
        config = TrainConfig(max_epochs=60, seed=9)
        _, wd, _ = select_hyperparams(ds, spec, config, "linear", weight_decays=(0.05, 0.05))
        assert wd == 0.05

    def test_selection_is_deterministic(self):
        ds = gaussian_dataset(10, n_per_class=8)
        spec = spec_for(ds)
        config = TrainConfig(max_epochs=120, seed=10)
        decays = (0.1, 0.01, 0.001)
        first = select_hyperparams(ds, spec, config, "linear", weight_decays=decays)
        second = select_hyperparams(ds, spec, config, "linear", weight_decays=decays)
        assert first[1] == second[1] and first[1] in decays
        np.testing.assert_array_equal(
            first[2].model.score.weights, second[2].model.score.weights
        )

    def test_kernel_grid_uses_bandwidths(self):
        ds = gaussian_dataset(11, n_per_class=5, n_unlabeled=15)
        spec = spec_for(ds)
        config = TrainConfig(max_epochs=40, seed=11)
        bw, wd, report = select_hyperparams(
            ds, spec, config, "kernel", bandwidths=[0.8, 1.6], weight_decays=(0.01,)
        )
        assert bw in (0.8, 1.6)
        assert report.model.score.kind == "kernel"
        # refit centers are the full labeled set
        assert report.model.score.centers.shape[0] == ds.n_labeled

    def test_degenerate_split_errors(self):
        # a single point of a kept class can never appear in both parts
        x = np.random.default_rng(12).normal(size=(13, 2))
        y = np.array([1] * 6 + [2] * 6 + [3])
        ds = OrdinalDataset(x, y, np.zeros((5, 2)), 3)
        spec = RiskSpec(AT_LOG, 1, estimate_priors(ds), gamma=0.8, mu=10.0, non_negative=True)
        with pytest.raises(ValueError, match="split"):
            select_hyperparams(ds, spec, TrainConfig(seed=12), "linear")

    def test_supervised_ignores_degenerate_classes(self):
        # gamma = 0 has no kept-class requirement, so the same data splits fine
        x = np.random.default_rng(13).normal(size=(13, 2))
        y = np.array([1] * 6 + [2] * 6 + [3])
        ds = OrdinalDataset(x, y, np.zeros((5, 2)), 3)
        spec = RiskSpec(AT_LOG, 1, estimate_priors(ds), gamma=0.0, mu=10.0, non_negative=True)
        config = TrainConfig(max_epochs=30, seed=13)
        _, _, report = select_hyperparams(ds, spec, config, "linear", weight_decays=(0.01,))
        assert report.stopped_epoch >= 1
