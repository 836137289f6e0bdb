"""Threshold prediction, task losses, and metric evaluation."""

import numpy as np
import pytest

from ordsemi.core import (
    OrdinalDataset,
    OrdinalModel,
    absolute_error_from_margins,
    evaluate_metric,
    margins_matrix,
    predict_batch,
    task_loss_batch,
)
from ordsemi.models import LinearScore


def linear_model(weights, bias, thresholds):
    return OrdinalModel(LinearScore(np.array([*weights, bias])), np.array(thresholds))


def scalar_model(value, thresholds):
    """Model whose score is the constant ``value`` on 1-D zero input."""
    return linear_model([0.0], value, thresholds)


class TestPredict:
    def test_middle_band(self):
        model = scalar_model(0.0, [-1.0, 1.0])
        assert predict_batch(model, np.zeros((1, 1)))[0] == 2

    def test_above_all_thresholds(self):
        model = scalar_model(2.0, [-1.0, 1.0])
        assert predict_batch(model, np.zeros((1, 1)))[0] == 3

    def test_below_all_thresholds(self):
        model = scalar_model(-2.0, [-1.0, 1.0])
        assert predict_batch(model, np.zeros((1, 1)))[0] == 1

    def test_tie_does_not_cross(self):
        model = scalar_model(1.0, [1.0, 2.0])
        assert predict_batch(model, np.zeros((1, 1)))[0] == 1

    def test_dimension_mismatch(self):
        model = linear_model([1.0, 2.0], 0.0, [0.0])
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros((1, 3)))

    def test_monotone_in_score(self):
        thresholds = [-0.7, 0.1, 1.9]
        scores = np.linspace(-3, 3, 201)
        labels = [
            predict_batch(scalar_model(f, thresholds), np.zeros((1, 1)))[0] for f in scores
        ]
        assert all(a <= b for a, b in zip(labels, labels[1:]))


class TestMargins:
    def test_direct_subtraction(self):
        model = scalar_model(0.5, [0.0, 1.0])
        np.testing.assert_allclose(margins_matrix(model, np.zeros((1, 1)))[0], [-0.5, 0.5])

    def test_zero_case(self):
        model = scalar_model(0.0, [0.0, 0.0])
        np.testing.assert_allclose(margins_matrix(model, np.zeros((1, 1)))[0], [0.0, 0.0])

    def test_negative(self):
        model = scalar_model(3.0, [-1.0, 2.0])
        np.testing.assert_allclose(margins_matrix(model, np.zeros((1, 1)))[0], [-4.0, -1.0])


class TestTaskLoss:
    @pytest.mark.parametrize(
        "kind,predicted,y,expected",
        [
            ("absolute", 3, 1, 2.0),
            ("zero_one", 2, 2, 0.0),
            ("zero_one", 1, 2, 1.0),
            ("squared", 1, 3, 4.0),
        ],
    )
    def test_values(self, kind, predicted, y, expected):
        assert task_loss_batch(kind, [predicted], [y])[0] == expected

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            task_loss_batch("hamming", [1], [1])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            task_loss_batch("absolute", [0], [1])

    def test_zero_one_threshold_form(self):
        # 1[pred != y] equals 1[f <= theta_{y-1}] + 1[f > theta_y] with
        # sentinel thresholds -inf and +inf at the ends
        rng = np.random.default_rng(1)
        for _ in range(300):
            n_classes = int(rng.integers(2, 6))
            thresholds = np.sort(rng.normal(size=n_classes - 1))
            f = float(rng.normal(scale=2))
            y = int(rng.integers(1, n_classes + 1))
            model = scalar_model(f, thresholds)
            pred = predict_batch(model, np.zeros((1, 1)))[0]
            padded = np.concatenate([[-np.inf], thresholds, [np.inf]])
            direct = float(f <= padded[y - 1]) + float(f > padded[y])
            assert task_loss_batch("zero_one", [pred], [y])[0] == direct


class TestAbsoluteErrorFromMargins:
    def test_zero_when_label_matches(self):
        assert absolute_error_from_margins(np.array([-0.5, 0.5]), 2) == 0.0

    def test_both_positive_label_three(self):
        # both margins >= 0 with y=3 puts both thresholds in the first sum
        assert absolute_error_from_margins(np.array([0.5, 0.5]), 3) == 2.0

    def test_both_negative_label_one(self):
        assert absolute_error_from_margins(np.array([-1.0, -1.0]), 1) == 2.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            absolute_error_from_margins(np.array([0.0, 0.0]), 4)

    def test_matches_prediction_identity(self):
        # |y - predict| computed both ways, ties included
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n_classes = int(rng.integers(2, 7))
            thresholds = np.sort(rng.normal(size=n_classes - 1))
            f = float(rng.normal(scale=2))
            y = int(rng.integers(1, n_classes + 1))
            model = scalar_model(f, thresholds)
            x = np.zeros((1, 1))
            direct = abs(y - predict_batch(model, x)[0])
            via_margins = absolute_error_from_margins(margins_matrix(model, x)[0], y)
            assert direct == via_margins


class TestEvaluateMetric:
    def setup_method(self):
        self.model = scalar_model(0.0, [-1.0, 1.0])  # predicts 2 everywhere

    def test_perfect_predictor(self):
        x = np.zeros((4, 1))
        y = np.full(4, 2)
        for kind in ("absolute", "zero_one", "squared"):
            assert evaluate_metric(self.model, x, y, kind) == 0.0

    def test_constant_predictor_absolute(self):
        x = np.zeros((2, 1))
        y = np.array([1, 3])
        assert evaluate_metric(self.model, x, y, "absolute") == 1.0

    def test_constant_predictor_squared(self):
        x = np.zeros((2, 1))
        y = np.array([1, 3])
        assert evaluate_metric(self.model, x, y, "squared") == 1.0

    def test_empty_test_set(self):
        with pytest.raises(ValueError):
            evaluate_metric(self.model, np.zeros((0, 1)), np.zeros(0, dtype=int), "absolute")

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        model = linear_model([0.8, -0.3], 0.1, [-0.2, 0.9])
        x = rng.normal(size=(40, 2))
        y = rng.integers(1, 4, size=40)
        perm = rng.permutation(40)
        a = evaluate_metric(model, x, y, "absolute")
        b = evaluate_metric(model, x[perm], y[perm], "absolute")
        assert a == b


class TestOrdinalDataset:
    def test_valid(self):
        ds = OrdinalDataset(np.zeros((3, 2)), np.array([1, 2, 3]), np.zeros((5, 2)), 3)
        assert ds.n_labeled == 3 and ds.n_unlabeled == 5 and ds.n_features == 2
        assert ds.class_counts().tolist() == [1, 1, 1]

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            OrdinalDataset(np.zeros((2, 2)), np.array([1, 4]), np.zeros((0, 2)), 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            OrdinalDataset(np.zeros((2, 2)), np.array([1, 2]), np.zeros((3, 5)), 3)

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            OrdinalDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((3, 2)), 3)
