"""Risk estimators, the order penalty, class strategies, and gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

import ordsemi.risk as risk_mod
from ordsemi.core import OrdinalDataset, OrdinalModel
from ordsemi.losses import TaskSurrogate, surrogate_values_grads
from ordsemi.models import LinearScore, init_model
from ordsemi.risk import (
    Evaluation,
    RiskEvaluator,
    RiskSpec,
    estimate_priors,
    lu_risk,
    replace_params,
    select_removed_class,
    supervised_risk,
    threshold_penalty,
    variance_ratio,
)
from oracles import population_lu_risk, population_surrogate_risk

AT_LOG = TaskSurrogate("at", "logistic")


def small_dataset(seed=0, n_per_class=4, n_unlabeled=12, d=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3 * n_per_class, d))
    y = np.repeat([1, 2, 3], n_per_class)
    u = rng.normal(size=(n_unlabeled, d))
    return OrdinalDataset(x, y, u, 3)


def random_model(seed=0, d=3, n_classes=3, scale=0.5):
    rng = np.random.default_rng(seed)
    model = init_model("linear", d, n_classes, seed=seed, weight_scale=scale)
    thresholds = np.sort(rng.normal(0, 0.8, size=n_classes - 1))
    thresholds[1:] = np.maximum(thresholds[1:], thresholds[:-1] + 0.2)
    return replace_params(model, model.score.weights, thresholds)


class TestEstimatePriors:
    def test_equal_counts(self):
        ds = small_dataset(n_per_class=10)
        np.testing.assert_allclose(estimate_priors(ds), [1 / 3, 1 / 3, 1 / 3])

    def test_degenerate_counts(self):
        ds = OrdinalDataset(np.zeros((30, 1)), np.ones(30, dtype=int), np.zeros((0, 1)), 3)
        np.testing.assert_allclose(estimate_priors(ds), [1.0, 0.0, 0.0])

    def test_mixed_counts(self):
        y = np.array([1] * 5 + [2] * 10 + [3] * 15)
        ds = OrdinalDataset(np.zeros((30, 1)), y, np.zeros((0, 1)), 3)
        np.testing.assert_allclose(estimate_priors(ds), [1 / 6, 1 / 3, 1 / 2])

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        y = rng.integers(1, 4, size=47)
        y[:3] = [1, 2, 3]
        ds = OrdinalDataset(np.zeros((47, 1)), y, np.zeros((0, 1)), 3)
        assert abs(estimate_priors(ds).sum() - 1.0) < 1e-12


class TestSupervisedRisk:
    def test_all_zero_terms(self):
        # constant score 0.5 gives first margin -0.5, so the squared
        # regression surrogate vanishes on label 2 everywhere
        model = OrdinalModel(LinearScore(np.array([0.0, 0.5])), np.array([0.0, 9.0]))
        x = np.zeros((3, 1))
        y = np.array([2, 2, 2])
        assert supervised_risk(model, x, y, TaskSurrogate("ls")) == 0.0

    def test_at_logistic_zero_margins(self):
        model = OrdinalModel(LinearScore(np.array([0.0, 0.0])), np.array([0.0, 0.0]))
        x = np.zeros((5, 1))
        y = np.array([1, 2, 3, 2, 1])
        assert supervised_risk(model, x, y, AT_LOG) == pytest.approx(
            2 * math.log(2), abs=1e-12
        )

    def test_prior_weighted_decomposition(self):
        ds = small_dataset(2)
        model = random_model(2)
        pri = estimate_priors(ds)
        total = supervised_risk(model, ds.labeled_x, ds.labeled_y, AT_LOG)
        by_class = 0.0
        for y in (1, 2, 3):
            rows = ds.labeled_y == y
            by_class += pri[y - 1] * supervised_risk(
                model, ds.labeled_x[rows], ds.labeled_y[rows], AT_LOG
            )
        assert total == pytest.approx(by_class, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            supervised_risk(random_model(), np.zeros((0, 3)), np.zeros(0, dtype=int), AT_LOG)


def make_spec(ds, k=2, gamma=0.8, mu=10.0, nn=False, psi=AT_LOG):
    return RiskSpec(psi, k, estimate_priors(ds), gamma=gamma, mu=mu, non_negative=nn)


def breakdown(model, ds, spec):
    return RiskEvaluator(ds, spec, model.score).breakdown(model.score.weights, model.thresholds)


def gradients(model, ds, spec):
    ev = RiskEvaluator(ds, spec, model.score)
    return ev.objective_grad(model.score.weights, model.thresholds)[1:]


class TestLuRisk:
    def test_constant_loss_cancellation(self, monkeypatch):
        # with psi identically c the three pieces collapse and total = c
        c = 3.7
        monkeypatch.setattr(
            risk_mod, "surrogate_values", lambda psi, m, ys: np.full(np.atleast_2d(m).shape[0], c)
        )
        ds = small_dataset(3)
        b = lu_risk(random_model(3), ds, make_spec(ds))
        assert b.labeled_main == pytest.approx(c * 2 / 3, abs=1e-12)
        assert b.unlabeled == pytest.approx(c, abs=1e-12)
        assert b.bias_correction == pytest.approx(c * 2 / 3, abs=1e-12)
        assert b.total == pytest.approx(c, abs=1e-12)

    def test_identical_inputs_reduce_to_pointwise_identity(self):
        # every feature vector equal: the estimator must equal the
        # prior-weighted surrogate at that single point
        x0 = np.array([0.4, -1.0, 2.0])
        ds = OrdinalDataset(
            np.tile(x0, (9, 1)), np.repeat([1, 2, 3], 3), np.tile(x0, (4, 1)), 3
        )
        model = random_model(4)
        for k in (1, 2, 3):
            b = lu_risk(model, ds, make_spec(ds, k=k))
            sv = supervised_risk(model, ds.labeled_x, ds.labeled_y, AT_LOG)
            assert b.total == pytest.approx(sv, abs=1e-12)

    def test_gamma_plays_no_role(self):
        ds = small_dataset(5)
        model = random_model(5)
        assert lu_risk(model, ds, make_spec(ds, gamma=0.0)) == lu_risk(model, ds, make_spec(ds))

    def test_lu_breakdown_needs_lu_rows(self):
        ds = small_dataset(5)
        model = random_model(5)
        ev = RiskEvaluator(ds, make_spec(ds, gamma=0.0), model.score)
        with pytest.raises(ValueError, match="without the labeled-unlabeled terms"):
            ev.lu_breakdown(model.score.weights, model.thresholds)

    def test_missing_kept_class_errors(self):
        ds = OrdinalDataset(
            np.zeros((6, 2)), np.array([1, 1, 1, 2, 2, 2]), np.zeros((3, 2)), 3
        )
        model = init_model("linear", 2, 3)
        with pytest.raises(ValueError, match="no labeled data"):
            lu_risk(model, ds, make_spec(ds, k=1))
        # but removing the missing class itself is fine
        lu_risk(model, ds, make_spec(ds, k=3))

    def test_empty_unlabeled_errors(self):
        ds = OrdinalDataset(np.zeros((6, 2)), np.repeat([1, 2, 3], 2), np.zeros((0, 2)), 3)
        with pytest.raises(ValueError, match="unlabeled"):
            lu_risk(init_model("linear", 2, 3), ds, make_spec(ds))


class TestPopulationIdentity:
    """The labeled-unlabeled rewrite equals the plain surrogate risk exactly."""

    def distributions(self):
        d1 = [
            (np.array([0.0, 1.0]), 1, 0.25),
            (np.array([1.0, -1.0]), 2, 0.35),
            (np.array([-1.0, 0.5]), 3, 0.40),
        ]
        d2 = [
            (np.array([0.0]), 1, 0.1),
            (np.array([0.0]), 2, 0.2),
            (np.array([1.5]), 2, 0.3),
            (np.array([1.5]), 3, 0.15),
            (np.array([-2.0]), 1, 0.25),
        ]
        d3 = [
            (np.array([2.0, 0.0, 1.0]), 1, 0.5),
            (np.array([0.0, 1.0, -1.0]), 2, 0.125),
            (np.array([1.0, 1.0, 1.0]), 3, 0.125),
            (np.array([-1.0, 2.0, 0.0]), 2, 0.25),
        ]
        return [d1, d2, d3]

    def test_every_removed_class_and_surrogate(self):
        for dist in self.distributions():
            d = dist[0][0].size
            model = random_model(5, d=d)
            for psi in (
                AT_LOG,
                TaskSurrogate("at", "squared"),
                TaskSurrogate("it", "logistic"),
                TaskSurrogate("ls"),
                TaskSurrogate("lad"),
            ):
                target = population_surrogate_risk(model, psi, dist)
                for k in (1, 2, 3):
                    rewritten = population_lu_risk(model, psi, dist, k, 3)
                    assert rewritten == pytest.approx(target, abs=1e-12)


class TestSemiRisk:
    def test_gamma_zero_equals_supervised(self):
        ds = small_dataset(6)
        model = random_model(6)
        b = breakdown(model, ds, make_spec(ds, gamma=0.0))
        sv = supervised_risk(model, ds.labeled_x, ds.labeled_y, AT_LOG)
        assert b.total == sv
        assert (b.labeled_main, b.unlabeled, b.bias_correction) == (0.0, 0.0, 0.0)

    def test_gamma_one_equals_lu(self):
        ds = small_dataset(7)
        model = random_model(7)
        assert breakdown(model, ds, make_spec(ds, gamma=1.0)).total == pytest.approx(
            lu_risk(model, ds, make_spec(ds, gamma=1.0)).total, abs=1e-15
        )

    def test_breakdown_mixture_identity(self):
        ds = small_dataset(8)
        model = random_model(8)
        for nn in (False, True):
            spec = make_spec(ds, gamma=0.8, nn=nn)
            b = breakdown(model, ds, spec)
            bracket = b.unlabeled - b.bias_correction
            if nn:
                bracket = max(0.0, bracket)
            expected = 0.8 * (b.labeled_main + bracket) + 0.2 * b.supervised
            assert b.total == pytest.approx(expected, abs=1e-14)

    def test_nonnegative_bracket_clamped(self):
        ds = small_dataset(9)
        model = random_model(9, scale=2.0)
        spec = make_spec(ds, nn=True)
        b = breakdown(model, ds, spec)
        assert max(0.0, b.unlabeled - b.bias_correction) >= 0.0
        if b.unlabeled >= b.bias_correction:
            plain = breakdown(model, ds, replace(spec, non_negative=False))
            assert b.total == pytest.approx(plain.total, abs=1e-15)

    def test_nn_total_at_least_clamped_floor(self):
        ds = small_dataset(10)
        for seed in range(5):
            model = random_model(seed, scale=1.5)
            b = breakdown(model, ds, make_spec(ds, nn=True))
            assert b.total >= 0.8 * b.labeled_main + 0.2 * b.supervised - 1e-12


class TestUnbiasedness:
    """Exhaustive small-sample enumeration reproduces the population risk."""

    def toy_distribution(self):
        # four feature points, uniform class priors, varied conditionals
        return [
            (np.array([0.0]), 1, 4 / 12),
            (np.array([1.0]), 2, 2 / 12),
            (np.array([2.5]), 2, 2 / 12),
            (np.array([1.0]), 3, 1 / 12),
            (np.array([4.0]), 3, 3 / 12),
        ]

    def test_lu_and_semi_unbiased(self):
        from oracles import enumerate_lu_mean

        dist = self.toy_distribution()
        model = random_model(11, d=1)
        psi = AT_LOG
        target = population_surrogate_risk(model, psi, dist)
        pri = np.array([1 / 3, 1 / 3, 1 / 3])
        for gamma in (1.0, 0.6):
            for k in (1, 3):
                spec = RiskSpec(psi, k, pri, gamma=gamma, mu=0.0, non_negative=False)

                def estimate(ds, spec=spec):
                    b = breakdown(model, ds, spec)
                    return b.total

                mean = enumerate_lu_mean(
                    model, psi, dist, 3, class_sizes=(2, 2, 2), n_unlabeled=2, k=k, lu_fn=estimate
                )
                assert mean == pytest.approx(target, abs=1e-10)


class TestThresholdPenalty:
    def test_unit_gap_is_free(self):
        assert threshold_penalty(np.array([0.0, 1.0]), 10.0)[0] == 0.0

    def test_half_gap(self):
        val = threshold_penalty(np.array([0.0, 0.5]), 10.0)[0]
        assert val == pytest.approx(-10 * math.log(0.5), rel=1e-12)

    def test_wide_gap_clamped(self):
        assert threshold_penalty(np.array([0.0, 10.0]), 10.0)[0] == 0.0

    def test_single_threshold_zero(self):
        assert threshold_penalty(np.array([0.3]), 10.0)[0] == 0.0

    def test_infeasible_is_infinite(self):
        for thresholds in ([1.0, 0.5], [1.0, 1.0], [1.0, 0.0]):
            with pytest.raises(ValueError, match="penalty is infinite"):
                threshold_penalty(np.array(thresholds), 10.0)

    def test_whole_sum_clamped_not_per_gap(self):
        # one tight gap, one wide gap: the negative log of the wide gap may
        # cancel the positive log of the tight one inside a single max
        thresholds = np.array([0.0, 0.5, 20.0])
        total = -math.log(0.5) - math.log(19.5)
        assert total < 0
        assert threshold_penalty(thresholds, 10.0)[0] == 0.0

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-7
        for _ in range(50):
            th = np.sort(rng.uniform(-1, 1, size=4))
            th[1:] = np.maximum(th[1:], th[:-1] + 0.05)
            s = -np.log(np.diff(th)).sum()
            if abs(s) < 1e-3:
                continue
            grad = threshold_penalty(th, 10.0)[1]
            for i in range(4):
                up, dn = th.copy(), th.copy()
                up[i] += h
                dn[i] -= h
                fd = (threshold_penalty(up, 10.0)[0] - threshold_penalty(dn, 10.0)[0]) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize(
        "thresholds, penalty, grad",
        [
            ([0.0, 0.5], -10 * math.log(0.5), [20.0, -20.0]),  # ordered
            ([0.0, 10.0], 0.0, [0.0, 0.0]),  # clamped
            ([0.3], 0.0, [0.0]),  # single threshold
        ],
        ids=["ordered", "clamped", "single"],
    )
    def test_is_what_penalized_adds(self, thresholds, penalty, grad):
        th = np.array(thresholds)
        ds = small_dataset(12)
        spec = make_spec(ds, mu=10.0)
        ev = RiskEvaluator(ds, spec, init_model("linear", 3, 3).score)
        point = Evaluation(0.0, np.zeros(4), np.zeros_like(th), None)
        objective, _, grad_t = ev.penalized(point, th)
        value, grad_penalty = threshold_penalty(th, spec.mu)
        assert (objective, grad_t.tolist()) == (value, grad_penalty.tolist())
        assert value == pytest.approx(penalty, rel=1e-12)
        np.testing.assert_allclose(grad_penalty, grad, rtol=1e-12)


class TestSelectRemovedClass:
    def test_smallest(self):
        assert select_removed_class(np.array([5, 10, 15]), "smallest") == 1

    def test_bound(self):
        assert select_removed_class(np.array([5, 10, 15]), "bound") == 3

    def test_tie_break(self):
        assert select_removed_class(np.array([10, 10, 10]), "smallest") == 1
        assert select_removed_class(np.array([10, 10, 10]), "bound") == 1

    def test_fixed(self):
        assert select_removed_class(np.array([1, 2, 3]), "fixed:2") == 2

    def test_fixed_out_of_range(self):
        with pytest.raises(ValueError):
            select_removed_class(np.array([1, 2, 3]), "fixed:4")

    def test_all_permutations_of_distinct_counts(self):
        from itertools import permutations

        for perm in permutations([3, 8, 20]):
            counts = np.array(perm)
            assert counts[select_removed_class(counts, "smallest") - 1] == 3
            assert counts[select_removed_class(counts, "bound") - 1] == 20


def objective(model, ds, spec):
    b = breakdown(model, ds, spec)
    return b.total + threshold_penalty(model.thresholds, spec.mu)[0]


class TestRiskGrad:
    def test_matches_finite_differences(self):
        ds = small_dataset(13, n_per_class=3, n_unlabeled=10)
        h = 1e-6
        for seed, psi in enumerate(
            (AT_LOG, TaskSurrogate("it", "squared"), TaskSurrogate("ls"), TaskSurrogate("lad"))
        ):
            model = random_model(20 + seed)
            spec = make_spec(ds, psi=psi, nn=False)
            gw, gt = gradients(model, ds, spec)
            w, th = model.score.weights, model.thresholds
            for i in range(w.size):
                up, dn = w.copy(), w.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    objective(replace_params(model, up, th), ds, spec)
                    - objective(replace_params(model, dn, th), ds, spec)
                ) / (2 * h)
                assert gw[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
            for i in range(th.size):
                up, dn = th.copy(), th.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    objective(replace_params(model, w, up), ds, spec)
                    - objective(replace_params(model, w, dn), ds, spec)
                ) / (2 * h)
                assert gt[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_gamma_zero_mu_zero_equals_supervised_grad(self):
        ds = small_dataset(14)
        model = random_model(14)
        spec = make_spec(ds, gamma=0.0, mu=0.0)
        gw, gt = gradients(model, ds, spec)
        ev = RiskEvaluator(ds, spec, model.score)
        # supervised-only evaluator gives the same gradients
        _, gw2, gt2 = ev.objective_grad(model.score.weights, model.thresholds)
        np.testing.assert_allclose(gw, gw2, atol=1e-15)
        np.testing.assert_allclose(gt, gt2, atol=1e-15)

    def test_constant_loss_gives_zero_lu_gradient(self, monkeypatch):
        c = 2.5
        monkeypatch.setattr(
            risk_mod,
            "surrogate_values_grads",
            lambda psi, m, ys: (
                np.full(np.atleast_2d(m).shape[0], c),
                np.zeros(np.atleast_2d(m).shape),
            ),
        )
        ds = small_dataset(15)
        model = random_model(15)
        spec = make_spec(ds, gamma=1.0, mu=0.0)
        gw, gt = gradients(model, ds, spec)
        np.testing.assert_allclose(gw, 0.0, atol=1e-15)
        np.testing.assert_allclose(gt, 0.0, atol=1e-15)

    def test_sign_flip_rule_when_clamped(self):
        # find a configuration with a negative bracket; the returned gradient
        # must match finite differences of gamma*(l1 + |u - l2|) + rest
        ds = small_dataset(16, n_per_class=3, n_unlabeled=8)
        found = False
        for seed in range(200):
            model = random_model(seed, scale=1.5)
            spec = make_spec(ds, nn=True, mu=0.0)
            b = breakdown(model, ds, spec)
            if b.unlabeled - b.bias_correction < -0.05:
                found = True
                break
        assert found, "no clamped configuration sampled"
        gw, gt = gradients(model, ds, spec)

        def descent_surface(m):
            bb = breakdown(m, ds, replace(spec, non_negative=False))
            return (
                spec.gamma * (bb.labeled_main + abs(bb.unlabeled - bb.bias_correction))
                + (1 - spec.gamma) * bb.supervised
            )

        h = 1e-6
        w, th = model.score.weights, model.thresholds
        for i in range(w.size):
            up, dn = w.copy(), w.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                descent_surface(replace_params(model, up, th))
                - descent_surface(replace_params(model, dn, th))
            ) / (2 * h)
            assert gw[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_infeasible_thresholds_error(self):
        ds = small_dataset(17)
        model = replace_params(random_model(17), np.zeros(4), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            gradients(model, ds, make_spec(ds))


class TestAffineDifferenceAndConvexity:
    def test_labeled_difference_affine_in_parameters(self):
        # l1 - l2 for a linear-odd binary has zero second difference along
        # random parameter lines when the score is linear in its weights
        ds = small_dataset(18)
        model0 = init_model("linear", 3, 3)
        spec = make_spec(ds, gamma=1.0, mu=0.0)
        ev = RiskEvaluator(ds, spec, model0.score)
        rng = np.random.default_rng(18)

        def labeled_diff(w, th):
            b = ev.breakdown(w, th)
            return b.labeled_main - b.bias_correction

        for _ in range(100):
            w = rng.normal(size=4)
            th = np.sort(rng.normal(size=2))
            dw = rng.normal(size=4)
            dth = rng.normal(size=2)
            vals = [labeled_diff(w + t * dw, th + t * dth) for t in (-0.5, 0.0, 0.5)]
            assert vals[0] - 2 * vals[1] + vals[2] == pytest.approx(0.0, abs=1e-9)

    def test_midpoint_convexity_at_logistic(self):
        ds = small_dataset(19)
        model0 = init_model("linear", 3, 3)
        spec = make_spec(ds, gamma=0.8, mu=10.0)
        ev = RiskEvaluator(ds, spec, model0.score)
        rng = np.random.default_rng(19)

        def j(w, th):
            return ev.breakdown(w, th).total + threshold_penalty(th, spec.mu)[0]

        for _ in range(300):
            wa, wb = rng.normal(size=(2, 4))
            tha = np.sort(rng.uniform(-2, 2, size=2))
            thb = np.sort(rng.uniform(-2, 2, size=2))
            tha[1] = max(tha[1], tha[0] + 1e-3)
            thb[1] = max(thb[1], thb[0] + 1e-3)
            mid = j((wa + wb) / 2, (tha + thb) / 2)
            avg = (j(wa, tha) + j(wb, thb)) / 2
            assert mid <= avg + 1e-9


class TestVarianceRatio:
    def pool(self, seed=21):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(600, 3))
        scores = x @ np.array([1.0, 0.5, -0.5])
        cuts = np.quantile(scores, [1 / 3, 2 / 3])
        y = 1 + np.sum(scores[:, None] > cuts[None, :], axis=1)
        return OrdinalDataset(x[:300], y[:300], x[300:], 3)

    def test_deterministic(self):
        ds = self.pool()
        model = random_model(21, scale=1.0)
        spec = make_spec(ds, gamma=1.0, mu=0.0)
        a = variance_ratio(ds, spec, model, 50, (20, 100), seed=3)
        b = variance_ratio(ds, spec, model, 50, (20, 100), seed=3)
        assert a == b

    def test_requires_two_resamples(self):
        ds = self.pool()
        with pytest.raises(ValueError):
            variance_ratio(ds, make_spec(ds), random_model(21), 1, (20, 100))

    def test_degenerate_constant_risk_errors(self):
        # every labeled pair identical: all resamples produce the same
        # supervised risk, so the ratio is undefined
        x0 = np.tile(np.array([1.0, 2.0, 3.0]), (30, 1))
        ds = OrdinalDataset(x0, np.ones(30, dtype=int), np.tile(x0[0], (50, 1)), 2)
        model = replace_params(random_model(22), np.zeros(4), np.array([0.0]))
        spec = RiskSpec(AT_LOG, 2, np.array([1.0, 0.0]), gamma=1.0, mu=0.0, non_negative=False)
        with pytest.raises(ValueError, match="variance"):
            variance_ratio(ds, spec, model, 20, (10, 20), seed=0)

    def test_oversized_request_errors(self):
        ds = self.pool()
        with pytest.raises(ValueError):
            variance_ratio(ds, make_spec(ds), random_model(21), 10, (1000, 100))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["at", "it", "ls", "lad"])
    def test_equals_per_resample_reference(self, kind, k):
        # four labeled draws often miss a kept class, so the rejection loop redraws
        ds = self.pool()
        spec = make_spec(ds, k=k, nn=True, psi=TaskSurrogate(kind, "logistic"))
        model = random_model(21, scale=1.0)
        expected, redraws = _reference_variance_ratio(ds, spec, model, 40, (4, 50), seed=7)
        assert redraws > 0
        assert variance_ratio(ds, spec, model, 40, (4, 50), seed=7) == expected

    def test_no_unlabeled_draw_errors(self):
        ds = self.pool()
        with pytest.raises(ValueError, match="unlabeled"):
            variance_ratio(ds, make_spec(ds), random_model(21), 10, (20, 0))

    def test_pool_missing_kept_class_errors(self):
        ds = self.pool()
        keep = ds.labeled_y != 3
        ds = OrdinalDataset(ds.labeled_x[keep], ds.labeled_y[keep], ds.unlabeled_x, 3)
        spec = RiskSpec(AT_LOG, 2, np.array([0.5, 0.5, 0.0]), gamma=1.0, mu=0.0)
        with pytest.raises(ValueError, match="kept"):
            variance_ratio(ds, spec, random_model(21), 10, (20, 100))


def _reference_variance_ratio(ds, spec, model, resamples, sizes, seed):
    """variance_ratio one resample at a time: a sub-dataset per draw, scored by
    lu_risk (re-estimated priors, clamp off) and supervised_risk.  Also
    returns how many draws the rejection loop threw away."""
    rng = np.random.default_rng(seed)
    kept = [y for y in range(1, ds.n_classes + 1) if y != spec.removed_class]
    lu, sv, redraws = [], [], 0
    for _ in range(resamples):
        lab_idx = rng.integers(0, ds.n_labeled, size=sizes[0])
        while not all(np.any(ds.labeled_y[lab_idx] == y) for y in kept):
            redraws += 1
            lab_idx = rng.integers(0, ds.n_labeled, size=sizes[0])
        unl_idx = rng.integers(0, ds.n_unlabeled, size=sizes[1])
        sub = OrdinalDataset(
            ds.labeled_x[lab_idx], ds.labeled_y[lab_idx], ds.unlabeled_x[unl_idx], ds.n_classes
        )
        sub_spec = replace(spec, priors=estimate_priors(sub), non_negative=False)
        lu.append(lu_risk(model, sub, sub_spec).total)
        sv.append(supervised_risk(model, sub.labeled_x, sub.labeled_y, spec.surrogate))
    return float(np.var(lu, ddof=1)) / float(np.var(sv, ddof=1)), redraws


def _reference_part(ds, spec, phi_of, w, th):
    """Each estimator term as (value, d/dw, d/dthresholds), one surrogate call per term."""
    psi, k = spec.surrogate, spec.removed_class
    ys = ds.labeled_y
    counts = ds.class_counts()
    c = spec.priors[ys - 1] / counts[ys - 1]
    c[ys == k] = 0.0
    phi_l, phi_u = phi_of(ds.labeled_x), phi_of(ds.unlabeled_x)

    def term(phi, labels, weights):
        vals, grads = surrogate_values_grads(psi, th[None, :] - (phi @ w)[:, None], labels)
        return weights @ vals, -phi.T @ (weights * grads.sum(axis=1)), grads.T @ weights

    n, n_u = ds.n_labeled, ds.n_unlabeled
    return {
        "sv": term(phi_l, ys, np.full(n, 1.0 / n)),
        "l1": term(phi_l, ys, c),
        "l2": term(phi_l, k, c),
        "u": term(phi_u, k, np.full(n_u, 1.0 / n_u)),
    }


def _reference_combined(terms, spec):
    """gamma * (l1 + clamp(u - l2)) + (1 - gamma) * sv, its sign-flip gradient,
    and whether the clamp was active."""
    g = spec.gamma
    bracket = terms["u"][0] - terms["l2"][0]
    clamped = spec.non_negative and bracket < 0.0
    flip = -1.0 if clamped else 1.0
    reported = max(0.0, bracket) if spec.non_negative else bracket
    value = g * (terms["l1"][0] + reported) + (1 - g) * terms["sv"][0]
    grads = [
        g * (terms["l1"][i] + flip * (terms["u"][i] - terms["l2"][i])) + (1 - g) * terms["sv"][i]
        for i in (1, 2)
    ]
    return value, grads[0], grads[1], clamped


class TestStackedEvaluation:
    """The one-call evaluation against a term-by-term reference."""

    @pytest.mark.parametrize("shared_pool", [True, False])
    @pytest.mark.parametrize("nn", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize(
        "psi", [AT_LOG, TaskSurrogate("it", "squared"), TaskSurrogate("ls"), TaskSurrogate("lad")],
        ids=lambda p: p.kind,
    )
    def test_matches_term_by_term_reference(self, psi, gamma, nn, shared_pool):
        # an unlabeled pool drawn around the removed class's labeled rows
        # makes the LU bracket negative at some of the models below
        labeled = small_dataset(30, n_per_class=4)
        noise = np.random.default_rng(3).normal(0.0, 0.1, size=(12, 3))
        pool = np.repeat(labeled.labeled_x[labeled.labeled_y == 1], 3, axis=0) + noise
        train = OrdinalDataset(labeled.labeled_x, labeled.labeled_y, pool, 3)
        other = small_dataset(31, n_per_class=2, n_unlabeled=7)
        val_pool = pool if shared_pool else other.unlabeled_x
        val = OrdinalDataset(other.labeled_x, other.labeled_y, val_pool, 3)
        spec = make_spec(train, k=1, gamma=gamma, nn=nn, psi=psi)
        clamped_seen = []
        for seed in range(12):
            model = random_model(seed, scale=1.5)
            w, th = model.score.weights, model.thresholds
            ev = RiskEvaluator(train, spec, model.score, val_dataset=val)
            point = ev.evaluate(w, th)
            value, gw, gt, clamped = _reference_combined(
                _reference_part(train, spec, model.score.features, w, th), spec
            )
            val_value = _reference_combined(
                _reference_part(val, spec, model.score.features, w, th), spec
            )[0]
            assert point.risk == pytest.approx(value, abs=1e-12)
            np.testing.assert_allclose(point.grad_w, gw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(point.grad_t, gt, rtol=0, atol=1e-12)
            assert point.val_risk == pytest.approx(val_value, abs=1e-12)
            # the values-only path reads the same terms
            assert ev.breakdown(w, th).total == point.risk
            clamped_seen.append(clamped)
        if nn and gamma > 0:
            assert any(clamped_seen) and not all(clamped_seen)
