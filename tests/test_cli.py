"""Command-line interface contracts."""

import json

import numpy as np
import pytest

from ordsemi.cli import main
from ordsemi.data import synthetic_ordinal_table


@pytest.fixture()
def toy_csv(tmp_path):
    table = synthetic_ordinal_table(160, 3, 3, label_noise=0.05, seed=9)
    path = tmp_path / "toy.csv"
    rows = [
        ",".join(map(repr, row)) + f",{label}"
        for row, label in zip(table.features.tolist(), table.labels.tolist())
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


FAST_FLAGS = ["--n-labeled", "18", "--max-epochs", "50", "--lr", "0.05",
              "--weight-decays", "0.01"]


class TestTrain:
    def test_json_contract(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = main([
            "train", "--data", str(toy_csv), "--method", "semi2-linear",
            "--surrogate", "at", "--seed", "7", "--out", str(out), *FAST_FLAGS,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["dataset"] == "toy"
        assert payload["method"] == "semi2-linear"
        assert payload["metric"] == "MAE"
        assert payload["seed"] == 7
        assert payload["value"] >= 0
        assert out.exists()
        log = out.with_suffix(out.suffix + ".log.csv")
        assert log.read_text().startswith("epoch,objective,val_risk")

    def test_kernel_method(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = main([
            "train", "--data", str(toy_csv), "--method", "semi2-kernel",
            "--seed", "1", "--out", str(out), "--n-labeled", "15",
            "--max-epochs", "25", "--lr", "0.05", "--weight-decays", "0.01",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["method"] == "semi2-kernel"
        assert payload["bandwidth"] > 0

    def test_fixed_strategy_override(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = main([
            "train", "--data", str(toy_csv), "--method", "semi1-linear",
            "--strategy", "fixed:2", "--metric", "mse",
            "--out", str(out), *FAST_FLAGS,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["metric"] == "MSE"

    def test_hinge_binary_loss(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = main([
            "train", "--data", str(toy_csv), "--method", "semi2-linear",
            "--binary-loss", "hinge", "--out", str(out), *FAST_FLAGS,
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out.strip())["value"] >= 0

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "gone.csv")])
        assert code != 0
        assert "gone.csv" in capsys.readouterr().err

    def test_gamma_out_of_range(self, toy_csv, capsys):
        code = main(["train", "--data", str(toy_csv), "--gamma", "1.5"])
        assert code != 0
        assert "range" in capsys.readouterr().err


class TestEval:
    def test_roundtrip(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        assert main([
            "train", "--data", str(toy_csv), "--method", "sv-linear",
            "--out", str(out), *FAST_FLAGS,
        ]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(toy_csv), "--model-file", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["metric"] == "MAE" and payload["n_rows"] == 160

    def test_truncated_kernel_file(self, toy_csv, tmp_path, capsys):
        model_file = tmp_path / "model.txt"
        model_file.write_text("kernel\n3\n3\n-0.3,0.3\n0.1,0.2\n")  # ends after the weights
        code = main(["eval", "--data", str(toy_csv), "--model-file", str(model_file)])
        assert code == 2
        assert capsys.readouterr().err == "error: model file is truncated\n"


class TestVariance:
    def test_rows_and_determinism(self, toy_csv, capsys):
        args = [
            "variance", "--data", str(toy_csv), "--surrogates", "at",
            "--n-labeled", "18", "--n-unlabeled", "30", "--resamples", "40",
            "--seed", "3",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        surrogate, dataset, ratio = first.strip().splitlines()[-1].split(",")
        assert surrogate == "at" and dataset == "toy"
        assert float(ratio) > 0


class TestBench:
    def test_outputs_and_determinism(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "bench.jsonl"
        args = [
            "bench", "--data", str(toy_csv), "--methods", "sv-linear,semi2-linear",
            "--trials", "2", "--seed", "4", "--out", str(out), *FAST_FLAGS,
        ]
        assert main(args) == 0
        first = out.read_bytes()
        rows = [json.loads(ln) for ln in first.decode().strip().splitlines()]
        assert len(rows) == 4
        assert {r["dataset"] for r in rows} == {"toy"}
        assert {r["method"] for r in rows} == {"sv-linear", "semi2-linear"}
        summary = out.with_suffix(".summary.csv")
        header = summary.read_text().splitlines()[0]
        assert header == "dataset,method,surrogate,metric,mean,stderr,n_trials,t_vs_sv,n_failed"
        assert main(args) == 0
        assert out.read_bytes() == first
