"""Benchmark harness: method parsing, summaries, and the supervised firewall."""

import json
import math

import numpy as np
import pytest

from ordsemi.bench import (
    SummaryRow,
    TrialResult,
    build_spec,
    parse_method,
    run_benchmark,
    run_trial,
    summarize,
    write_summary_csv,
)
from ordsemi.core import OrdinalDataset, evaluate_metric
from ordsemi.data import SplitSpec, make_splits, synthetic_ordinal_table
from ordsemi.losses import TaskSurrogate
from ordsemi.train import TrainConfig, select_hyperparams
from oracles import trial_result_from_json

AT_LOG = TaskSurrogate("at", "logistic")
FAST = TrainConfig(learning_rate=0.05, patience=20, max_epochs=60, seed=0)


class TestParseMethod:
    def test_full_names(self):
        assert parse_method("semi2-kernel") == ("semi2", "kernel")
        assert parse_method("sv-linear") == ("sv", "linear")

    def test_default_model(self):
        assert parse_method("semi1") == ("semi1", "linear")
        assert parse_method("semi1", default_model="kernel") == ("semi1", "kernel")

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_method("semi3-linear")
        with pytest.raises(ValueError):
            parse_method("sv-quadratic")


class TestBuildSpec:
    def table_ds(self):
        y = np.array([1] * 4 + [2] * 6 + [3] * 10)
        return OrdinalDataset(np.zeros((20, 2)), y, np.zeros((5, 2)), 3)

    def test_sv_forces_gamma_zero(self):
        spec = build_spec(self.table_ds(), "sv", AT_LOG, 0.8, 10.0, True)
        assert spec.gamma == 0.0

    def test_semi1_removes_smallest(self):
        spec = build_spec(self.table_ds(), "semi1", AT_LOG, 0.8, 10.0, True)
        assert spec.removed_class == 1 and spec.gamma == 0.8

    def test_semi2_removes_largest(self):
        spec = build_spec(self.table_ds(), "semi2", AT_LOG, 0.8, 10.0, True)
        assert spec.removed_class == 3

    def test_strategy_override(self):
        spec = build_spec(self.table_ds(), "semi2", AT_LOG, 0.8, 10.0, True, strategy="fixed:2")
        assert spec.removed_class == 2


class TestTrialResult:
    def test_json_roundtrip_lossless(self):
        r = TrialResult("cars", "semi2-linear", "at", "MAE", 0.12345678901234567, 7)
        again = trial_result_from_json(r.to_json())
        assert again == r

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            TrialResult("d", "sv-linear", "at", "MAE", -0.1, 0)


class TestSummarize:
    def results(self):
        values = {"sv-linear": [0.5, 0.6, 0.7], "semi2-linear": [0.3, 0.4, 0.5]}
        out = []
        for method, vals in values.items():
            for t, v in enumerate(vals):
                out.append(TrialResult("toy", method, "at", "MAE", v, t))
        return out

    def test_mean_exact(self):
        rows = summarize(self.results())
        by_method = {r.method: r for r in rows}
        assert abs(by_method["sv-linear"].mean - 0.6) < 1e-12
        assert abs(by_method["semi2-linear"].mean - 0.4) < 1e-12

    def test_stderr_formula(self):
        rows = summarize(self.results())
        expected = np.std([0.5, 0.6, 0.7], ddof=1) / math.sqrt(3)
        by_method = {r.method: r for r in rows}
        assert by_method["sv-linear"].stderr == pytest.approx(expected, abs=1e-15)

    def test_single_trial_zero_stderr(self):
        rows = summarize([TrialResult("toy", "sv-linear", "at", "MAE", 0.5, 0)])
        assert rows[0].stderr == 0.0 and rows[0].n_trials == 1

    def test_t_statistic_against_sv(self):
        rows = summarize(self.results())
        by_method = {r.method: r for r in rows}
        assert by_method["sv-linear"].t_vs_sv is None
        assert by_method["semi2-linear"].t_vs_sv > 0  # semi2 is better here

    def test_failed_trials_counted(self):
        errors = [{"dataset": "toy", "method": "sv-linear", "surrogate": "at",
                   "metric": "MAE", "error": "boom", "seed": 9}]
        rows = summarize(self.results(), errors)
        by_method = {r.method: r for r in rows}
        assert by_method["sv-linear"].n_failed == 1

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "summary.csv"
        with path.open("w") as handle:
            write_summary_csv(summarize(self.results()), handle)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dataset,method,surrogate,metric,mean,stderr,n_trials,t_vs_sv,n_failed"
        assert len(lines) == 3

    def test_csv_counts_failed_trials(self, tmp_path):
        errors = [{"dataset": "toy", "method": "sv-linear", "surrogate": "at",
                   "metric": "MAE", "error": "boom", "seed": 9}]
        path = tmp_path / "summary.csv"
        with path.open("w") as handle:
            write_summary_csv(summarize(self.results(), errors), handle)
        header, *rows = path.read_text().strip().splitlines()
        assert header.split(",")[-1] == "n_failed"
        failed = {row.split(",")[1]: row.split(",")[-1] for row in rows}
        assert failed == {"semi2-linear": "0", "sv-linear": "1"}

    def test_group_with_only_failures_kept(self):
        ok = [TrialResult("toy", "sv-linear", "at", "MAE", 0.5, 1)]
        errors = [{"dataset": "toy", "method": "semi2-linear", "surrogate": "at",
                   "metric": "MAE", "error": "boom", "seed": 1}]
        rows = summarize(ok, errors)
        assert [(r.method, r.n_trials, r.n_failed) for r in rows] == [
            ("semi2-linear", 0, 1),
            ("sv-linear", 1, 0),
        ]
        assert math.isnan(rows[0].mean) and rows[0].t_vs_sv is None


class TestRunBenchmark:
    def test_small_run_produces_all_rows(self, tmp_path):
        table = synthetic_ordinal_table(150, 3, 3, seed=0)
        sink_path = tmp_path / "trials.jsonl"
        with sink_path.open("w") as sink:
            results, errors = run_benchmark(
                table,
                "synth",
                ["sv-linear", "semi2-linear"],
                AT_LOG,
                "absolute",
                trials=2,
                seed=3,
                split_spec=SplitSpec(18, 3, 0.5, seed=3),
                config=FAST,
                weight_decays=(0.01,),
                sink=sink,
            )
        assert len(results) + len(errors) == 4
        lines = sink_path.read_text().strip().splitlines()
        assert len(lines) == 4
        parsed = [json.loads(ln) for ln in lines]
        assert {p["seed"] for p in parsed} == {4, 5}

    def test_trial_seeds_rerunnable_in_isolation(self):
        table = synthetic_ordinal_table(150, 3, 3, seed=1)
        base = SplitSpec(18, 3, 0.5, seed=10)
        results, _ = run_benchmark(
            table, "synth", ["sv-linear"], AT_LOG, "absolute",
            trials=2, seed=10, split_spec=base, config=FAST, weight_decays=(0.01,),
        )
        lone = run_trial(
            table, "synth", "sv-linear", AT_LOG, "absolute",
            SplitSpec(18, 3, 0.5, seed=11),
            TrainConfig(FAST.learning_rate, FAST.patience, FAST.weight_decay, FAST.max_epochs, 11),
            0.8, 10.0, True, (0.01,),
        )
        second = [r for r in results if r.seed == 11][0]
        assert lone.value == second.value


class TestFailureRows:
    @pytest.mark.filterwarnings("ignore:labeled subset is missing a class")
    def test_failed_trials_become_error_rows(self, tmp_path):
        # a single row of class 3 in the whole table: the combined methods
        # cannot hold out that class on both sides of the 2:1 split, while
        # the supervised baseline is unaffected
        rng = np.random.default_rng(8)
        features = rng.normal(size=(61, 3))
        labels = np.array([1, 2] * 30 + [3])
        from ordsemi.data import RawTable

        table = RawTable(features, labels)
        sink_path = tmp_path / "trials.jsonl"
        with sink_path.open("w") as sink:
            results, errors = run_benchmark(
                table, "rare", ["sv-linear", "semi2-linear"], AT_LOG, "absolute",
                trials=2, seed=0, split_spec=SplitSpec(12, 3, 0.5, seed=0),
                config=FAST, weight_decays=(0.01,), sink=sink,
            )
        assert len(errors) == 2 and all(e["method"] == "semi2-linear" for e in errors)
        assert len(results) == 2 and all(r.method == "sv-linear" for r in results)
        rows = summarize(results, errors)
        semi_rows = [r for r in rows if r.method == "semi2-linear"]
        assert [(r.n_trials, r.n_failed) for r in semi_rows] == [(0, 2)]
        lines = sink_path.read_text().strip().splitlines()
        error_lines = [json.loads(ln) for ln in lines if "error" in json.loads(ln)]
        assert len(error_lines) == 2


    def test_programming_errors_propagate(self, monkeypatch):
        # only training failures become rows; a bug stops the run
        import ordsemi.bench as bench_mod

        def broken(*args, **kwargs):
            raise TypeError("broken trial")

        monkeypatch.setattr(bench_mod, "run_trial", broken)
        table = synthetic_ordinal_table(120, 3, 3, seed=2)
        with pytest.raises(TypeError, match="broken trial"):
            run_benchmark(
                table, "toy", ["sv-linear"], AT_LOG, "absolute", trials=1, seed=0,
                split_spec=SplitSpec(12, 3, 0.5, seed=0), config=FAST,
            )


class TestSupervisedFirewall:
    def test_sv_results_unchanged_by_poisoned_unlabeled(self):
        # after the split, the supervised pipeline must never read unlabeled
        # feature values: poisoning them with NaN cannot change anything
        table = synthetic_ordinal_table(200, 3, 3, seed=5)
        splits = make_splits(table, SplitSpec(18, 3, 0.5, seed=5))
        clean = splits.train
        poisoned = OrdinalDataset(
            clean.labeled_x,
            clean.labeled_y,
            np.full_like(clean.unlabeled_x, np.nan),
            clean.n_classes,
        )
        outputs = []
        for ds in (clean, poisoned):
            spec = build_spec(ds, "sv", AT_LOG, 0.8, 10.0, True)
            _, wd, report = select_hyperparams(
                ds, spec, FAST, "linear", weight_decays=(0.1, 0.01)
            )
            value = evaluate_metric(report.model, splits.test_x, splits.test_y, "absolute")
            outputs.append((wd, value, report.model.score.weights.tolist()))
        assert outputs[0] == outputs[1]
