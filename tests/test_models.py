"""Score models, bandwidth heuristic, initialization, and serialization."""

import math

import numpy as np
import pytest

from ordsemi.models import (
    KernelScore,
    LinearScore,
    deserialize_model,
    init_model,
    load_model,
    median_bandwidth_candidates,
    save_model,
    score_batch,
    serialize_model,
)


class TestLinearScore:
    def test_zero_weights(self):
        model = LinearScore(np.zeros(3))
        assert score_batch(model, np.array([[5.0, -2.0]]))[0] == 0.0

    def test_bias_is_last(self):
        model = LinearScore(np.array([0.0, 0.0, 7.0]))
        assert score_batch(model, np.array([[1.0, 1.0]]))[0] == 7.0

    def test_grad_params(self):
        model = LinearScore(np.zeros(3))
        np.testing.assert_allclose(
            model.features(np.array([[2.0, 3.0]]))[0], [2.0, 3.0, 1.0]
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            score_batch(LinearScore(np.zeros(3)), np.zeros((1, 5)))


class TestKernelScore:
    def test_center_hit(self):
        c = np.array([[1.0, 2.0]])
        model = KernelScore(np.array([1.0]), c, 0.7)
        assert score_batch(model, c[:1])[0] == pytest.approx(1.0)

    def test_known_distance(self):
        sigma = 0.9
        c = np.array([[0.0]])
        x = np.array([math.sqrt(2) * sigma])
        model = KernelScore(np.array([1.0]), c, sigma)
        assert score_batch(model, x[None, :])[0] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_grad_entry_one_at_center(self):
        c = np.array([[0.5, 0.5], [3.0, 3.0]])
        model = KernelScore(np.zeros(2), c, 1.0)
        grad = model.features(c[:1])[0]
        assert grad[0] == pytest.approx(1.0)
        assert 0 < grad[1] < 1

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(4, 3))
        w = rng.normal(size=4)
        model = KernelScore(w, c, 1.3)
        x = rng.normal(size=3)
        grad = model.features(x[None, :])[0]
        h = 1e-6
        for i in range(4):
            up, dn = w.copy(), w.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                score_batch(KernelScore(up, c, 1.3), x[None, :])[0]
                - score_batch(KernelScore(dn, c, 1.3), x[None, :])[0]
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_invariant_under_center_permutation(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=(5, 2))
        w = rng.normal(size=5)
        x = rng.normal(size=(10, 2))
        perm = rng.permutation(5)
        a = score_batch(KernelScore(w, c, 0.8), x)
        b = score_batch(KernelScore(w[perm], c[perm], 0.8), x)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelScore(np.ones(1), np.zeros((1, 2)), 0.0)


class TestLinearityInWeights:
    def test_both_kinds(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 3))
        centers = rng.normal(size=(4, 3))
        makers = [lambda w: LinearScore(w), lambda w: KernelScore(w, centers, 1.1)]
        for make in makers:
            w1, w2 = rng.normal(size=(2, 4))
            a, b = 0.37, -1.4
            combined = score_batch(make(a * w1 + b * w2), x)
            separate = a * score_batch(make(w1), x) + b * score_batch(make(w2), x)
            np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestMedianBandwidth:
    def test_hand_enumerated(self):
        # pairwise distances {1, 2, 3}, median 2
        inputs = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(
            median_bandwidth_candidates(inputs), [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
        )

    def test_two_points(self):
        inputs = np.array([[0.0], [4.0]])
        np.testing.assert_allclose(
            median_bandwidth_candidates(inputs), [0.5, 1.0, 2.0, 4.0, 6.0, 8.0]
        )

    def test_identical_points_error(self):
        with pytest.raises(ValueError):
            median_bandwidth_candidates(np.ones((3, 2)))

    def test_single_point_error(self):
        with pytest.raises(ValueError):
            median_bandwidth_candidates(np.ones((1, 2)))

    def test_strictly_increasing_positive(self):
        rng = np.random.default_rng(3)
        cands = median_bandwidth_candidates(rng.normal(size=(30, 4)))
        assert all(c > 0 for c in cands)
        assert all(a < b for a, b in zip(cands, cands[1:]))


class TestInitModel:
    def test_three_class_thresholds(self):
        model = init_model("linear", 2, 3)
        np.testing.assert_allclose(model.thresholds, [-1 / 3, 1 / 3])

    def test_two_class_threshold(self):
        model = init_model("linear", 2, 2)
        np.testing.assert_allclose(model.thresholds, [0.0])

    def test_zero_weights_constant_prediction(self):
        from ordsemi.core import predict_batch

        model = init_model("linear", 3, 4)
        labels = predict_batch(model, np.random.default_rng(0).normal(size=(20, 3)))
        assert len(set(labels.tolist())) == 1

    def test_random_weights_seeded(self):
        a = init_model("linear", 3, 3, seed=9, weight_scale=1.0)
        b = init_model("linear", 3, 3, seed=9, weight_scale=1.0)
        np.testing.assert_array_equal(a.score.weights, b.score.weights)
        assert np.any(a.score.weights != 0)

    def test_kernel_requires_centers(self):
        with pytest.raises(ValueError):
            init_model("kernel", 2, 3)


class TestSerialization:
    def test_linear_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        model = init_model("linear", 4, 3)
        model = type(model)(LinearScore(rng.normal(size=5)), rng.normal(size=2))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score.weights, model.score.weights)
        np.testing.assert_array_equal(loaded.thresholds, model.thresholds)
        assert loaded.score.kind == "linear"

    def test_kernel_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(6, 3))
        model = init_model("kernel", 3, 4, centers=centers, bandwidth=1.234567890123)
        model = type(model)(
            KernelScore(rng.normal(size=6), centers, 1.234567890123), model.thresholds
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score.weights, model.score.weights)
        np.testing.assert_array_equal(loaded.score.centers, model.score.centers)
        assert loaded.score.bandwidth == model.score.bandwidth
        np.testing.assert_array_equal(loaded.thresholds, model.thresholds)

    def test_text_roundtrip(self):
        model = init_model("linear", 2, 3, seed=1, weight_scale=0.5)
        again = deserialize_model(serialize_model(model))
        np.testing.assert_array_equal(again.score.weights, model.score.weights)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            deserialize_model("linear\n2\n")
