"""Binary surrogates, task surrogates, and their gradients."""

import math

import numpy as np
import pytest

from ordsemi.losses import (
    BINARY_KINDS,
    TaskSurrogate,
    binary_loss,
    linear_odd_constant,
    surrogate_values,
    surrogate_values_grads,
)


class TestBinaryValue:
    def test_logistic_at_zero(self):
        assert binary_loss("logistic", 0.0)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_squared_margin_one(self):
        assert binary_loss("squared", 1.0)[0] == 0.0

    def test_double_hinge_by_cases(self):
        # hand oracle: max(-z, max(0, 1/2 - z/2))
        for z in (-2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 3.0):
            expected = max(-z, max(0.0, 0.5 - 0.5 * z))
            assert binary_loss("double_hinge", z)[0] == pytest.approx(expected, abs=1e-15)
        assert binary_loss("double_hinge", -2.0)[0] == 2.0

    def test_logistic_overflow_safe(self):
        assert np.isfinite(binary_loss("logistic", -1e4)[0])
        assert binary_loss("logistic", 1e4)[0] == 0.0
        assert binary_loss("logistic", -1e4)[0] == pytest.approx(1e4)

    def test_all_nonnegative(self):
        z = np.linspace(-30, 30, 301)
        for kind in BINARY_KINDS:
            assert np.all(binary_loss(kind, z)[0] >= 0)

    def test_all_convex_midpoint(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(scale=3, size=(2, 500))
        for kind in BINARY_KINDS:
            mid = binary_loss(kind, (a + b) / 2)[0]
            avg = (binary_loss(kind, a)[0] + binary_loss(kind, b)[0]) / 2
            assert np.all(mid <= avg + 1e-9)


class TestBinaryGrad:
    def test_logistic_at_zero(self):
        assert binary_loss("logistic", 0.0)[1] == pytest.approx(-0.5, abs=1e-12)

    def test_squared_at_zero(self):
        assert binary_loss("squared", 0.0)[1] == -2.0

    def test_kink_choices(self):
        assert binary_loss("hinge", 1.0)[1] == 0.0
        assert binary_loss("double_hinge", 1.0)[1] == 0.0
        assert binary_loss("double_hinge", -1.0)[1] == -1.0

    def test_finite_differences(self):
        # central differences, avoiding the kink neighborhoods
        rng = np.random.default_rng(1)
        h = 1e-6
        for kind in BINARY_KINDS:
            z = rng.uniform(-8, 8, size=100)
            z = z[np.all(np.abs(z[:, None] - np.array([[-1.0, 1.0]])) > 1e-3, axis=1)]
            fd = (binary_loss(kind, z + h)[0] - binary_loss(kind, z - h)[0]) / (2 * h)
            np.testing.assert_allclose(binary_loss(kind, z)[1], fd, rtol=1e-5, atol=1e-5)


class TestLinearOdd:
    def test_constants(self):
        assert linear_odd_constant("logistic") == pytest.approx(1.0, abs=1e-9)
        assert linear_odd_constant("squared") == pytest.approx(4.0, abs=1e-9)
        assert linear_odd_constant("double_hinge") == pytest.approx(1.0, abs=1e-9)

    def test_absent(self):
        assert linear_odd_constant("hinge") is None
        assert linear_odd_constant("exponential") is None


class TestTaskSurrogateValue:
    def test_at_logistic_middle(self):
        psi = TaskSurrogate("at", "logistic")
        value = surrogate_values(psi, np.zeros(2), 2)[0]
        assert value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_ls_zero(self):
        assert surrogate_values(TaskSurrogate("ls"), np.array([-0.5, 0.0]), 2)[0] == 0.0

    def test_lad_zero(self):
        assert surrogate_values(TaskSurrogate("lad"), np.array([0.5, 0.0]), 1)[0] == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            surrogate_values(TaskSurrogate("at", "logistic"), np.zeros(2), 4)

    def test_it_boundary_labels(self):
        psi = TaskSurrogate("it", "logistic")
        m = np.array([0.3, -0.4])
        assert surrogate_values(psi, m, 1)[0] == pytest.approx(
            binary_loss("logistic", m[0])[0]
        )
        assert surrogate_values(psi, m, 3)[0] == pytest.approx(
            binary_loss("logistic", -m[1])[0]
        )
        assert surrogate_values(psi, m, 2)[0] == pytest.approx(
            binary_loss("logistic", -m[0])[0] + binary_loss("logistic", m[1])[0]
        )

    def test_it_two_classes_single_term(self):
        psi = TaskSurrogate("it", "squared")
        m = np.array([0.7])
        assert surrogate_values(psi, m, 1)[0] == pytest.approx((1 - 0.7) ** 2)
        assert surrogate_values(psi, m, 2)[0] == pytest.approx((1 + 0.7) ** 2)

    def test_all_nonnegative(self):
        rng = np.random.default_rng(2)
        for kind in ("at", "it", "ls", "lad"):
            psi = TaskSurrogate(kind, "logistic")
            m = rng.normal(scale=2, size=(200, 3))
            ys = rng.integers(1, 5, size=200)
            assert np.all(surrogate_values(psi, m, ys) >= 0)

    def test_at_with_indicator_matches_absolute_error(self):
        # substituting 1[z < 0] for the binary surrogate turns the
        # all-threshold sum into the margin form of the absolute error
        from ordsemi.core import absolute_error_from_margins

        rng = np.random.default_rng(3)
        for _ in range(1000):
            n_classes = int(rng.integers(2, 7))
            m = rng.normal(scale=2, size=n_classes - 1)
            y = int(rng.integers(1, n_classes + 1))
            signs = np.where(np.arange(n_classes - 1) < y - 1, -1.0, 1.0)
            at_with_indicator = float(np.sum((signs * m) < 0))
            assert at_with_indicator == absolute_error_from_margins(m, y)

    def test_convex_in_margins(self):
        rng = np.random.default_rng(4)
        for kind in ("at", "it"):
            psi = TaskSurrogate(kind, "logistic")
            a = rng.normal(scale=2, size=(1000, 2))
            b = rng.normal(scale=2, size=(1000, 2))
            ys = rng.integers(1, 4, size=1000)
            mid = surrogate_values(psi, (a + b) / 2, ys)
            avg = (surrogate_values(psi, a, ys) + surrogate_values(psi, b, ys)) / 2
            assert np.all(mid <= avg + 1e-9)


class TestTaskSurrogateGrad:
    def test_at_squared_label_one(self):
        psi = TaskSurrogate("at", "squared")
        np.testing.assert_allclose(
            surrogate_values_grads(psi, np.zeros(2), 1)[1][0], [-2.0, -2.0]
        )

    def test_ls_touches_first_margin_only(self):
        grad = surrogate_values_grads(TaskSurrogate("ls"), np.zeros(2), 2)[1][0]
        np.testing.assert_allclose(grad, [1.0, 0.0])

    def test_lad_kink_returns_zero(self):
        grad = surrogate_values_grads(TaskSurrogate("lad"), np.array([0.5, 0.0]), 1)[1][0]
        np.testing.assert_allclose(grad, [0.0, 0.0])

    def test_finite_differences_all_kinds(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for kind in ("at", "it", "ls", "lad"):
            for binary in BINARY_KINDS:
                psi = TaskSurrogate(kind, binary)
                checked = 0
                while checked < 40:
                    n_classes = int(rng.integers(2, 6))
                    m = rng.normal(scale=2, size=n_classes - 1)
                    y = int(rng.integers(1, n_classes + 1))
                    # stay away from the hinge, double-hinge and lad kinks
                    hinged = binary in ("hinge", "double_hinge")
                    if hinged and np.any(np.abs(np.abs(m) - 1) < 1e-3):
                        continue
                    if kind == "lad" and abs(y + m[0] - 1.5) < 1e-3:
                        continue
                    grad = surrogate_values_grads(psi, m, y)[1][0]
                    fd = np.empty_like(m)
                    for i in range(m.size):
                        up, dn = m.copy(), m.copy()
                        up[i] += h
                        dn[i] -= h
                        fd[i] = (
                            surrogate_values(psi, up, y)[0]
                            - surrogate_values(psi, dn, y)[0]
                        ) / (2 * h)
                    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)
                    checked += 1


class TestRiskDifferenceStructure:
    """The surrogate gap psi(m, y) - psi(m, k) for the bias-cancel terms."""

    def test_at_linear_odd_closed_form(self):
        # for linear-odd binaries the gap is exactly +-C * sum of the
        # margins between the two labels
        rng = np.random.default_rng(7)
        for binary in ("logistic", "squared", "double_hinge"):
            c = linear_odd_constant(binary)
            psi = TaskSurrogate("at", binary)
            for _ in range(200):
                n_classes = int(rng.integers(2, 7))
                m = rng.normal(scale=2, size=n_classes - 1)
                y, k = rng.integers(1, n_classes + 1, size=2)
                gap = surrogate_values(psi, m, int(y))[0] - surrogate_values(
                    psi, m, int(k)
                )[0]
                if y < k:
                    expected = -c * m[y - 1 : k - 1].sum()
                elif y > k:
                    expected = c * m[k - 1 : y - 1].sum()
                else:
                    expected = 0.0
                assert gap == pytest.approx(expected, abs=1e-9)

    def test_ls_lad_gap_depends_on_first_margin_only(self):
        rng = np.random.default_rng(8)
        for kind in ("ls", "lad"):
            psi = TaskSurrogate(kind)
            for _ in range(200):
                m = rng.normal(scale=2, size=3)
                other = m.copy()
                other[1:] = rng.normal(scale=2, size=2)
                y, k = rng.integers(1, 5, size=2)
                gap = surrogate_values(psi, m, int(y))[0] - surrogate_values(
                    psi, m, int(k)
                )[0]
                gap_other = surrogate_values(psi, other, int(y))[0] - surrogate_values(
                    psi, other, int(k)
                )[0]
                assert gap == pytest.approx(gap_other, abs=1e-12)

    def test_ls_gap_linear_in_first_margin(self):
        psi = TaskSurrogate("ls")
        rng = np.random.default_rng(9)
        for _ in range(200):
            m = rng.normal(size=2)
            y, k = rng.integers(1, 4, size=2)
            step = rng.uniform(0.1, 2.0)
            values = []
            for t in (-step, 0.0, step):
                shifted = m.copy()
                shifted[0] += t
                values.append(
                    surrogate_values(psi, shifted, int(y))[0]
                    - surrogate_values(psi, shifted, int(k))[0]
                )
            second_diff = values[0] - 2 * values[1] + values[2]
            assert second_diff == pytest.approx(0.0, abs=1e-9)
