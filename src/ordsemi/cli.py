"""Command-line front end: train, eval, variance, and bench subcommands.

All errors exit nonzero with a one-line reason on stderr.  Outputs are JSON
lines (one object per run or trial) and, for bench, a summary CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench
from .core import METRIC_NAMES, evaluate_metric
from .data import SplitSpec, load_csv, make_splits, merge_classes
from .losses import BINARY_KINDS, TaskSurrogate
from .models import load_model, save_model
from .train import TrainConfig, select_hyperparams


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file: features then an integer label")
    p.add_argument("--has-header", action="store_true", help="skip the first CSV line")
    p.add_argument("--k-classes", type=int, default=3)
    p.add_argument("--n-labeled", type=int, default=30)
    p.add_argument("--unlabeled-fraction", type=float, default=0.5)
    p.add_argument(
        "--binary-loss",
        choices=tuple(kind.replace("_", "-") for kind in BINARY_KINDS),
        default="logistic",
    )
    p.add_argument("--strategy", default=None, help="smallest | bound | fixed:K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surrogate", choices=("at", "it", "ls", "lad"), default="at")
    p.add_argument("--model", choices=("linear", "kernel"), default="linear")
    p.add_argument("--gamma", type=float, default=0.8)
    p.add_argument("--mu", type=float, default=10.0)
    p.add_argument(
        "--non-negative",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="clamp the unlabeled bracket at zero (--no-non-negative disables)",
    )
    p.add_argument("--metric", choices=("mae", "mze", "mse"), default=None,
                   help="override the metric paired with the surrogate")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--max-epochs", type=int, default=2000)
    p.add_argument("--weight-decays", default="0.1,0.01,0.001")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsemi",
        description="Semi-supervised ordinal regression by unbiased risk estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one method and report its test metric")
    _add_common_flags(p_train)
    _add_training_flags(p_train)
    p_train.add_argument("--method", default="semi2-linear",
                         help="{sv|semi1|semi2}[-{linear|kernel}]")

    p_eval = sub.add_parser("eval", help="score a saved model on a labeled CSV")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--has-header", action="store_true")
    p_eval.add_argument("--model-file", required=True)
    p_eval.add_argument("--metric", choices=("mae", "mze", "mse"), default="mae")

    p_var = sub.add_parser("variance", help="bootstrap variance-ratio experiment")
    _add_common_flags(p_var)
    p_var.add_argument("--surrogates", default="at,it,ls",
                       help="comma list drawn from at,it,ls,lad")
    p_var.add_argument("--n-unlabeled", type=int, default=1000)
    p_var.add_argument("--resamples", type=int, default=1000)

    p_bench = sub.add_parser("bench", help="multi-trial benchmark with summary statistics")
    _add_common_flags(p_bench)
    _add_training_flags(p_bench)
    p_bench.add_argument("--methods", default="sv-linear,semi1-linear,semi2-linear",
                         help="comma list of {sv|semi1|semi2}-{linear|kernel}")
    p_bench.add_argument("--trials", type=int, default=20)
    return parser


_METRIC_KINDS = {"mae": "absolute", "mze": "zero_one", "mse": "squared"}


def _metric_kind(args) -> str:
    if args.metric:
        return _METRIC_KINDS[args.metric]
    return bench.METRIC_FOR_SURROGATE[args.surrogate]


def _validate_ranges(args) -> None:
    if not 0.0 <= args.gamma <= 1.0:
        raise ValueError(f"--gamma {args.gamma} out of range [0, 1]")
    if args.mu < 0:
        raise ValueError(f"--mu {args.mu} must be >= 0")


def _prepare_table(args):
    table = load_csv(args.data, has_header=args.has_header)
    return merge_classes(table, args.k_classes)


def _split_spec(args) -> SplitSpec:
    return SplitSpec(
        n_labeled=args.n_labeled,
        n_classes=args.k_classes,
        unlabeled_fraction=args.unlabeled_fraction,
        seed=args.seed,
    )


def _surrogate(args) -> TaskSurrogate:
    return TaskSurrogate(args.surrogate, args.binary_loss.replace("-", "_"))


def _weight_decays(args) -> tuple[float, ...]:
    return tuple(float(v) for v in args.weight_decays.split(","))


def cmd_train(args) -> int:
    _validate_ranges(args)
    table = _prepare_table(args)
    name = Path(args.data).stem
    method = args.method if "-" in args.method else f"{args.method}-{args.model}"
    metric_kind = _metric_kind(args)
    split_spec = _split_spec(args)
    config = TrainConfig(args.lr, args.patience, 0.0, args.max_epochs, args.seed)

    estimator, model_kind = bench.parse_method(method)
    splits = make_splits(table, split_spec)
    spec = bench.build_spec(
        splits.train, estimator, _surrogate(args), args.gamma, args.mu,
        args.non_negative, args.strategy,
    )
    bw, wd, report = select_hyperparams(
        splits.train, spec, config, model_kind, None, _weight_decays(args)
    )
    value = evaluate_metric(report.model, splits.test_x, splits.test_y, metric_kind)

    out = Path(args.out) if args.out else Path("model.txt")
    save_model(report.model, out)
    with out.with_suffix(out.suffix + ".log.csv").open("w") as log:
        log.write("epoch,objective,val_risk\n")
        for (epoch, obj), (_, val) in zip(report.train_curve, report.val_curve):
            log.write(f"{epoch},{obj!r},{val!r}\n")

    print(json.dumps({
        "dataset": name,
        "method": method,
        "surrogate": args.surrogate,
        "metric": METRIC_NAMES[metric_kind],
        "value": value,
        "seed": args.seed,
        "bandwidth": bw,
        "weight_decay": wd,
        "model_file": str(out),
    }))
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model_file)
    table = load_csv(args.data, has_header=args.has_header)
    if table.labels.max() > model.n_classes:
        table = merge_classes(table, model.n_classes)
    kind = _METRIC_KINDS[args.metric]
    value = evaluate_metric(model, table.features, table.labels, kind)
    print(json.dumps({
        "dataset": Path(args.data).stem,
        "metric": METRIC_NAMES[kind],
        "value": value,
        "n_rows": int(table.n_rows),
    }))
    return 0


def cmd_variance(args) -> int:
    table = _prepare_table(args)
    name = Path(args.data).stem
    surrogates = [s.strip() for s in args.surrogates.split(",") if s.strip()]
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        bench.print_reference_ratios()
        bench.run_variance_experiment(
            table,
            name,
            surrogates,
            _split_spec(args),
            sizes=(args.n_labeled, args.n_unlabeled),
            resamples=args.resamples,
            seed=args.seed,
            binary=args.binary_loss.replace("-", "_"),
            strategy=args.strategy or "bound",
            sink=sink,
        )
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def cmd_bench(args) -> int:
    _validate_ranges(args)
    table = _prepare_table(args)
    name = Path(args.data).stem
    methods = []
    for method in (m.strip() for m in args.methods.split(",")):
        if not method:
            continue
        estimator, model_kind = bench.parse_method(method, default_model=args.model)
        methods.append(f"{estimator}-{model_kind}")
    out = Path(args.out) if args.out else Path("bench.jsonl")
    config = TrainConfig(args.lr, args.patience, 0.0, args.max_epochs, args.seed)
    with out.open("w") as sink:
        results, errors = bench.run_benchmark(
            table,
            name,
            methods,
            _surrogate(args),
            _metric_kind(args),
            trials=args.trials,
            seed=args.seed,
            split_spec=_split_spec(args),
            config=config,
            gamma=args.gamma,
            mu=args.mu,
            non_negative=args.non_negative,
            weight_decays=_weight_decays(args),
            strategy=args.strategy,
            sink=sink,
        )
    rows = bench.summarize(results, errors)
    summary_path = out.with_suffix(".summary.csv")
    with summary_path.open("w") as handle:
        bench.write_summary_csv(rows, handle)
    if errors:
        sys.stderr.write(f"{len(errors)} trial(s) failed and were excluded; see {out}\n")
    sys.stderr.write(f"wrote {out} and {summary_path}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "variance": cmd_variance,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
