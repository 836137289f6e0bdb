"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines alongside pytest's own pass/fail report.  Expected values were computed
with the independent enumeration oracles in ``oracles.py`` or verified by
hand; tolerances are fixed here and nowhere else.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ordsemi.cli import main as cli_main
from ordsemi.core import (
    OrdinalDataset,
    OrdinalModel,
    absolute_error_from_margins,
    evaluate_metric,
    margins_matrix,
    predict_batch,
)
from ordsemi.data import SplitSpec, make_splits, synthetic_ordinal_table
from ordsemi.losses import TaskSurrogate, linear_odd_constant, surrogate_values
from ordsemi.models import LinearScore, init_model
from ordsemi.risk import (
    RiskEvaluator,
    RiskSpec,
    estimate_priors,
    replace_params,
    risk_grad,
    select_removed_class,
    semi_risk,
    supervised_risk,
    threshold_penalty,
    variance_ratio,
)
from ordsemi.train import TrainConfig, fit, select_hyperparams
from ordsemi.bench import build_spec
from oracles import (
    enumerate_lu_mean,
    population_lu_risk,
    population_surrogate_risk,
)

AT_LOG = TaskSurrogate("at", "logistic")


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def scalar_model(value: float, thresholds) -> OrdinalModel:
    return OrdinalModel(LinearScore(np.array([0.0, value])), np.asarray(thresholds, float))


def test_c01_absolute_error_margin_identity():
    """|y - predicted| equals the margin-count form, exactly, ties included."""
    rng = np.random.default_rng(101)
    for n_classes in (2, 3, 4, 5, 6):
        for _ in range(1000):
            thresholds = np.sort(rng.normal(scale=1.5, size=n_classes - 1))
            f = float(rng.normal(scale=2.0))
            y = int(rng.integers(1, n_classes + 1))
            model = scalar_model(f, thresholds)
            x = np.zeros((1, 1))
            direct = abs(y - predict_batch(model, x)[0])
            decomposed = absolute_error_from_margins(margins_matrix(model, x)[0], y)
            assert direct == decomposed
    _report(1, "absolute-error margin identity")


def _finite_distributions():
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
        (np.array([2.0, 0.0]), 1, 0.5),
        (np.array([0.0, 1.0]), 2, 0.125),
        (np.array([1.0, 1.0]), 3, 0.125),
        (np.array([-1.0, 2.0]), 2, 0.25),
    ]
    return [d1, d2, d3]


def test_c02_population_rewrite_identity():
    """On finite distributions the labeled-unlabeled rewrite equals the
    surrogate risk, for every removed class and surrogate, to 1e-12."""
    surrogates = [
        TaskSurrogate("at", "logistic"),
        TaskSurrogate("at", "squared"),
        TaskSurrogate("at", "double_hinge"),
        TaskSurrogate("it", "logistic"),
        TaskSurrogate("it", "squared"),
        TaskSurrogate("ls"),
        TaskSurrogate("lad"),
    ]
    rng = np.random.default_rng(102)
    for dist in _finite_distributions():
        d = dist[0][0].size
        weights = rng.normal(size=d + 1)
        thresholds = np.sort(rng.normal(size=2))
        model = OrdinalModel(LinearScore(weights), thresholds)
        for psi in surrogates:
            target = population_surrogate_risk(model, psi, dist)
            for k in (1, 2, 3):
                value = population_lu_risk(model, psi, dist, k, 3)
                assert value == pytest.approx(target, abs=1e-12)
    _report(2, "population rewrite identity")


def _toy_four_point_distribution():
    # four feature points, uniform priors and a uniform marginal
    return [
        (np.array([0.0]), 1, 3 / 12),
        (np.array([1.0]), 1, 1 / 12),
        (np.array([1.0]), 2, 2 / 12),
        (np.array([2.5]), 2, 2 / 12),
        (np.array([2.5]), 3, 1 / 12),
        (np.array([4.0]), 3, 3 / 12),
    ]


def test_c03_estimator_unbiasedness_by_enumeration():
    """Exhaustive (2,2,2) labeled + 3 unlabeled draws: the mean estimate
    equals the population risk to 1e-10 with the clamp off."""
    dist = _toy_four_point_distribution()
    rng = np.random.default_rng(103)
    model = OrdinalModel(
        LinearScore(rng.normal(size=2)), np.sort(rng.normal(size=2))
    )
    target = population_surrogate_risk(model, AT_LOG, dist)
    pri = np.array([1 / 3, 1 / 3, 1 / 3])
    for k in (1, 2, 3):
        spec = RiskSpec(AT_LOG, k, pri, gamma=1.0, mu=0.0, non_negative=False)

        def estimate(ds, spec=spec):
            return semi_risk(model, ds, spec).total

        mean = enumerate_lu_mean(
            model, AT_LOG, dist, 3, class_sizes=(2, 2, 2), n_unlabeled=3, k=k, lu_fn=estimate
        )
        assert mean == pytest.approx(target, abs=1e-10)
    _report(3, "estimator unbiasedness by exhaustive enumeration")


def _gradient_config(rng, psi_kind, binary, model_kind, nn):
    d, n_classes, n_lab, n_unl = 3, 3, 9, 20
    while True:
        x = rng.normal(size=(n_lab, d))
        y = np.repeat([1, 2, 3], 3)
        u = rng.normal(size=(n_unl, d))
        ds = OrdinalDataset(x, y, u, n_classes)
        psi = TaskSurrogate(psi_kind, binary)
        spec = RiskSpec(
            psi, 2, estimate_priors(ds), gamma=0.8, mu=10.0, non_negative=nn
        )
        if model_kind == "linear":
            model = init_model("linear", d, n_classes, seed=int(rng.integers(1 << 31)), weight_scale=0.5)
        else:
            model = init_model(
                "kernel", d, n_classes, centers=x, bandwidth=1.2,
                seed=int(rng.integers(1 << 31)), weight_scale=0.5,
            )
        th = np.sort(rng.normal(0, 0.8, size=n_classes - 1))
        th[1] = max(th[1], th[0] + 0.2)
        model = replace_params(model, model.score.weights, th)

        # keep every probe away from non-differentiable points
        from ordsemi.core import margins_matrix

        all_margins = np.vstack([margins_matrix(model, x), margins_matrix(model, u)])
        if binary == "double_hinge" and np.any(np.abs(np.abs(all_margins) - 1.0) < 1e-3):
            continue
        if psi_kind == "lad":
            shifted = np.add.outer(np.array([1.0, 2.0, 3.0]) - 1.5, all_margins[:, 0])
            if np.any(np.abs(shifted) < 1e-3):
                continue
        gap_sum = -np.log(np.diff(th)).sum()
        if abs(gap_sum) < 1e-3:
            continue
        b = semi_risk(model, ds, spec)
        bracket = b.unlabeled - b.bias_correction
        if nn and bracket < 0.05:
            continue  # clamp boundary: resample
        return ds, spec, model


def test_c04_gradient_matches_finite_differences():
    """Analytic gradients match central differences within 1e-4 relative."""
    rng = np.random.default_rng(104)
    h = 1e-6
    combos = [
        (p, b, m, nn)
        for p in ("at", "it", "ls", "lad")
        for b in ("logistic", "squared", "double_hinge")
        for m in ("linear", "kernel")
        for nn in (False, True)
    ]
    combos += [("at", "logistic", "linear", False), ("ls", "logistic", "kernel", True)]
    assert len(combos) == 50

    def objective(model, ds, spec):
        b = semi_risk(model, ds, spec)
        return b.total + threshold_penalty(model.thresholds, spec.mu)

    for psi_kind, binary, model_kind, nn in combos:
        ds, spec, model = _gradient_config(rng, psi_kind, binary, model_kind, nn)
        gw, gt = risk_grad(model, ds, spec)
        w, th = model.score.weights, model.thresholds
        for i in range(w.size):
            up, dn = w.copy(), w.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                objective(replace_params(model, up, th), ds, spec)
                - objective(replace_params(model, dn, th), ds, spec)
            ) / (2 * h)
            assert abs(gw[i] - fd) <= 1e-4 * max(1.0, abs(fd), abs(gw[i]))
        for i in range(th.size):
            up, dn = th.copy(), th.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                objective(replace_params(model, w, up), ds, spec)
                - objective(replace_params(model, w, dn), ds, spec)
            ) / (2 * h)
            assert abs(gt[i] - fd) <= 1e-4 * max(1.0, abs(fd), abs(gt[i]))
    _report(4, "gradients match finite differences (50 configurations)")


def _convexity_problem(seed=105):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(12, 3))
    y = np.repeat([1, 2, 3], 4)
    u = rng.normal(size=(30, 3))
    return OrdinalDataset(x, y, u, 3)


def _midpoint_convexity_violations(psi, n_pairs=1000, seed=106, cell=None):
    """Count random pairs whose midpoint breaks convexity of the objective.

    With ``cell`` (a signature of the parameters), the second endpoint of
    each pair is first halved toward the first until both share the first
    endpoint's signature, so only convexity within that cell is checked.
    """
    ds = _convexity_problem()
    spec = RiskSpec(psi, 2, estimate_priors(ds), gamma=0.8, mu=10.0, non_negative=False)
    model0 = init_model("linear", 3, 3)
    ev = RiskEvaluator(ds, spec, model0.score)
    rng = np.random.default_rng(seed)

    def j(w, th):
        return ev.breakdown(w, th).total + threshold_penalty(th, spec.mu)

    worst = -np.inf
    violations = 0
    for _ in range(n_pairs):
        wa, wb = rng.normal(size=(2, 4))
        tha = np.sort(rng.uniform(-2, 2, size=2))
        thb = np.sort(rng.uniform(-2, 2, size=2))
        tha[1] = max(tha[1], tha[0] + 1e-3)
        thb[1] = max(thb[1], thb[0] + 1e-3)
        if cell is not None:
            home = cell(ev, wa, tha)
            while not np.array_equal(cell(ev, wb, thb), home):
                wb, thb = (wa + wb) / 2, (tha + thb) / 2
        gap = j((wa + wb) / 2, (tha + thb) / 2) - (j(wa, tha) + j(wb, thb)) / 2
        worst = max(worst, gap)
        if gap > 1e-9:
            violations += 1
    return violations, worst


def _lad_sign_cell(ev, w, th):
    """Signs of k + m_1 - 1.5 over the labeled rows the LU estimator keeps.

    With these signs fixed the bias correction -sum c_i |k + m_1(x_i) - 1.5|
    is linear in (w, t_1), so the lad objective is convex on the cell.
    """
    k = ev.spec.removed_class
    kept = ev.ys != k
    m1 = th[0] - ev.phi_labeled[kept] @ w
    return np.sign(k + m1 - 1.5)


def test_c05_linear_odd_detector():
    """Detector finds the linear-odd constants and rejects the others."""
    assert linear_odd_constant("logistic") == pytest.approx(1.0, abs=1e-9)
    assert linear_odd_constant("squared") == pytest.approx(4.0, abs=1e-9)
    assert linear_odd_constant("double_hinge") == pytest.approx(1.0, abs=1e-9)
    assert linear_odd_constant("hinge") is None
    assert linear_odd_constant("exponential") is None
    _report(5, "linear-odd detector (constants and rejections)")


def test_c05_objective_convexity_at_logistic():
    violations, worst = _midpoint_convexity_violations(AT_LOG)
    assert violations == 0, f"worst midpoint gap {worst:.3e}"
    _report(5, "midpoint convexity, all-threshold with logistic")


def test_c05_objective_convexity_ls():
    violations, worst = _midpoint_convexity_violations(TaskSurrogate("ls"))
    assert violations == 0, f"worst midpoint gap {worst:.3e}"
    _report(5, "midpoint convexity, squared regression surrogate")


def test_c05_objective_convexity_lad():
    """The lad bias correction is only piecewise linear, so the objective is
    convex on each sign cell of the kept labeled rows, not everywhere."""
    violations, worst = _midpoint_convexity_violations(TaskSurrogate("lad"), cell=_lad_sign_cell)
    assert violations == 0, (
        f"{violations} of 1000 same-cell pairs violate midpoint convexity "
        f"(worst gap {worst:.3e})"
    )
    _report(5, "midpoint convexity on each sign cell, absolute-deviation surrogate")


def test_c06_risk_difference_linearity():
    """The surrogate gap psi(m,y) - psi(m,k) has zero second difference
    along random margin directions (piecewise for lad, probed off-kink)."""
    rng = np.random.default_rng(107)
    step = 0.25

    def second_diff(psi, m, y, k, v):
        vals = [
            surrogate_values(psi, m + t * v, y)[0] - surrogate_values(psi, m + t * v, k)[0]
            for t in (-step, 0.0, step)
        ]
        return vals[0] - 2 * vals[1] + vals[2]

    linear_odd = [TaskSurrogate("at", b) for b in ("logistic", "squared", "double_hinge")]
    for psi in [*linear_odd, TaskSurrogate("ls")]:
        for _ in range(100):
            n_classes = int(rng.integers(2, 6))
            m = rng.normal(scale=2, size=n_classes - 1)
            v = rng.normal(size=n_classes - 1)
            y, k = (int(t) for t in rng.integers(1, n_classes + 1, size=2))
            assert abs(second_diff(psi, m, y, k, v)) <= 1e-9

    psi = TaskSurrogate("lad")
    done = 0
    while done < 100:
        n_classes = int(rng.integers(2, 6))
        m = rng.normal(scale=2, size=n_classes - 1)
        v = rng.normal(size=n_classes - 1)
        y, k = (int(t) for t in rng.integers(1, n_classes + 1, size=2))
        # probes must not straddle the absolute-value kinks
        ok = all(
            np.sign(lbl + m[0] - step * abs(v[0]) - 1.5)
            == np.sign(lbl + m[0] + step * abs(v[0]) - 1.5)
            for lbl in (y, k)
        )
        if not ok:
            continue
        assert abs(second_diff(psi, m, y, k, v)) <= 1e-9
        done += 1
    _report(6, "risk-difference linearity (zero second differences)")


def test_c07_variance_reduction_on_synthetic_data():
    """Bootstrap variance ratio, averaged over random linear models, is
    below one for the all-threshold and immediate-threshold surrogates."""
    table = synthetic_ordinal_table(4000, 5, 3, label_noise=0.1, seed=3)
    splits = make_splits(table, SplitSpec(n_labeled=2000, n_classes=3, unlabeled_fraction=0.9, seed=0))
    pool = splits.train
    k = select_removed_class(pool.class_counts(), "bound")
    print(
        "reference ratios from the original benchmark data (not asserted): "
        "at/car 0.108, it/car 0.109, at range 0.04-0.36"
    )
    for kind in ("at", "it"):
        psi = TaskSurrogate(kind, "logistic")
        spec = RiskSpec(psi, k, estimate_priors(pool), gamma=1.0, mu=0.0, non_negative=False)
        ratios = []
        for model_seed in range(10):
            model = init_model("linear", 5, 3, seed=model_seed, weight_scale=1.0)
            ratios.append(
                variance_ratio(pool, spec, model, resamples=1000, sizes=(30, 1000), seed=5)
            )
        mean_ratio = float(np.mean(ratios))
        print(f"variance ratio {kind}: mean {mean_ratio:.3f} over 10 random models")
        assert mean_ratio < 1.0
    _report(7, "variance reduction on synthetic data (at, it)")


def test_c08_end_to_end_benefit_direction():
    """20-trial benchmark on the synthetic generator: the bound-based
    removal strategy should not lose to supervised or to the count-based
    strategy on mean absolute error."""
    table = synthetic_ordinal_table(2030, 5, 3, label_noise=0.1, seed=42)
    maes = {m: [] for m in ("sv", "semi1", "semi2")}
    for t in range(20):
        splits = make_splits(table, SplitSpec(30, 3, 0.5, seed=t))
        config = TrainConfig(seed=t)
        for est in maes:
            spec = build_spec(splits.train, est, AT_LOG, 0.8, 10.0, True)
            _, _, report = select_hyperparams(splits.train, spec, config, "linear")
            maes[est].append(
                evaluate_metric(report.model, splits.test_x, splits.test_y, "absolute")
            )
    means = {m: float(np.mean(v)) for m, v in maes.items()}
    print(f"mean MAE over 20 trials: {means}")
    problems = []
    if means["semi2"] > means["sv"]:
        problems.append(f"semi2 mean MAE {means['semi2']:.4f} > sv {means['sv']:.4f}")
    if means["semi2"] > means["semi1"]:
        problems.append(f"semi2 mean MAE {means['semi2']:.4f} > semi1 {means['semi1']:.4f}")
    assert not problems, "; ".join(problems)
    _report(8, "end-to-end benefit direction (semi2 <= sv, semi2 <= semi1)")


def test_c09_risk_decay_with_unlabeled_size():
    """Excess risk of models trained on the unlabeled-fed estimator
    decreases in the unlabeled pool size (one inversion allowed)."""
    sizes = (100, 400, 1600, 6400)
    n_lab = 300
    excess = {n: [] for n in sizes}
    for seed in range(10):
        table = synthetic_ordinal_table(
            n_lab + 6400 + 8000 + 4000, 5, 3, label_noise=0.1, seed=100 + seed
        )
        x, y = table.features, table.labels
        lab = slice(0, n_lab)
        unl = slice(n_lab, n_lab + 6400)
        ev = slice(n_lab + 6400, n_lab + 14400)
        ref = slice(n_lab + 14400, n_lab + 18400)
        config = TrainConfig(0.01, 10**9, 0.001, 2000, seed)  # fixed budget, no early stop

        ref_ds = OrdinalDataset(x[ref], y[ref], x[unl][:10], 3)
        ref_spec = RiskSpec(
            AT_LOG, 1, estimate_priors(ref_ds), gamma=0.0, mu=10.0, non_negative=True
        )
        ref_report = fit(ref_ds, ref_ds, ref_spec, config, init_model("linear", 5, 3))
        ref_risk = supervised_risk(ref_report.model, x[ev], y[ev], AT_LOG)

        for n_u in sizes:
            ds = OrdinalDataset(x[lab], y[lab], x[unl][:n_u], 3)
            k = select_removed_class(ds.class_counts(), "bound")
            spec = RiskSpec(
                AT_LOG, k, estimate_priors(ds), gamma=1.0, mu=10.0, non_negative=True
            )
            report = fit(ds, ds, spec, config, init_model("linear", 5, 3))
            excess[n_u].append(
                supervised_risk(report.model, x[ev], y[ev], AT_LOG) - ref_risk
            )
    means = [float(np.mean(excess[n])) for n in sizes]
    print(
        "mean excess risk by unlabeled size: "
        + ", ".join(f"{n}: {m:.5f}" for n, m in zip(sizes, means))
    )
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    assert inversions <= 1, f"{inversions} inversions in {means}"
    _report(9, "excess risk decays with the unlabeled pool size")


def test_c10_cli_determinism(tmp_path):
    """Identical bench invocations produce byte-identical outputs."""
    table = synthetic_ordinal_table(200, 3, 3, label_noise=0.05, seed=11)
    csv_path = tmp_path / "toy.csv"
    rows = [
        ",".join(map(repr, row)) + f",{label}"
        for row, label in zip(table.features.tolist(), table.labels.tolist())
    ]
    csv_path.write_text("\n".join(rows) + "\n")

    outputs = []
    for run in (1, 2):
        out = tmp_path / f"bench{run}.jsonl"
        code = cli_main([
            "bench", "--data", str(csv_path), "--methods", "sv-linear,semi2-linear",
            "--trials", "2", "--seed", "5", "--n-labeled", "24",
            "--max-epochs", "60", "--lr", "0.05", "--weight-decays", "0.01",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(
            (out.read_bytes(), out.with_suffix(".summary.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]
    lines = outputs[0][0].decode().strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        parsed = json.loads(line)
        assert set(parsed) == {"dataset", "method", "surrogate", "metric", "value", "seed"}
        assert parsed["dataset"] == "toy"
    _report(10, "CLI byte-level determinism")
