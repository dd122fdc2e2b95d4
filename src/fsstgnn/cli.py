"""Command-line interface: data synthesis, filter inspection, training,
evaluation and sweep reporting.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric/convergence error. Outputs contain no timestamps, so repeated
invocations with identical flags are byte-identical.
"""

import argparse
import sys
from dataclasses import fields

from .data import ingest_csv, synthesize_dataset
from .errors import (
    ConvergenceError,
    DataError,
    DefinitenessError,
    FsstgnnError,
    NumericError,
    ParameterError,
    ParseError,
    RangeError,
)
from .filtering import FILTER_METHODS, FilterConfig, apply_filter
from .graphs import GRAPH_KINDS
from .linalg import correlation_from_rows, is_positive_definite, write_matrix
from .pipeline import (
    MODELS,
    SWEEP_AXES,
    ExperimentConfig,
    evaluate_experiment,
    format_table,
    report_records,
    run_experiment,
    sweep,
    write_records,
)

# Keys accepted in a --config file; each maps to the matching flag.
CONFIG_FILE_KEYS = {
    "model": str,
    "graph_kind": str,
    "lookback": int,
    "train_fraction": float,
    "seeds": "seed_list",
    "lstm_hidden": int,
    "embed_dim": int,
    "gat_heads": int,
    "mlp_hidden": int,
    "activation": str,
    "learning_rate": float,
    "epochs": int,
    "patience": int,
    "batch_size": int,
    "val_fraction": float,
    "use_differences": "bool",
    "filter_method": str,
    "alpha": float,
    "lambda": float,
    "min_clique": int,
    "max_clique": int,
    "mfcf_gain_threshold": float,
    "cv_folds": int,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ParameterError so
    the CLI can map them to exit code 1."""

    def error(self, message):
        raise ParameterError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _parse_seed_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ParameterError(f"seeds must be comma-separated integers, got {text!r}") from None


def read_config_file(path) -> dict:
    """Parse `key = value` lines; unknown keys are rejected by name."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw.rstrip()!r}", line=line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_FILE_KEYS:
                raise ParameterError(f"unknown configuration key {key!r} (line {line_no})")
            kind = CONFIG_FILE_KEYS[key]
            if kind == "bool":
                values[key] = _parse_bool(value)
            elif kind == "seed_list":
                values[key] = _parse_seed_list(value)
            else:
                try:
                    values[key] = kind(value)
                except ValueError:
                    raise ParameterError(f"bad value {value!r} for key {key!r} (line {line_no})") from None
    return values


def _add_experiment_flags(parser) -> None:
    parser.add_argument("--config", help="key=value configuration file; flags override it")
    parser.add_argument("--model", choices=MODELS, help="forecasting model")
    parser.add_argument("--graph", dest="graph_kind", choices=GRAPH_KINDS, help="graph fed to the GNN")
    parser.add_argument("--filter", dest="filter_method", choices=FILTER_METHODS,
                        help="correlation filtering method")
    parser.add_argument("--alpha", type=float, help="shrinkage weight in [0,1]; omit to select by CV")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="glasso penalty >= 0; omit to select by CV")
    parser.add_argument("--threshold", dest="mfcf_gain_threshold", type=float,
                        help="clique-forest gain threshold (squared correlation scale)")
    parser.add_argument("--min-clique", type=int, help="minimum clique size")
    parser.add_argument("--max-clique", type=int, help="maximum clique size")
    parser.add_argument("--cv-folds", type=int, help="folds for hyperparameter selection")
    parser.add_argument("--lookback", type=int, help="look-back window length")
    parser.add_argument("--train-fraction", type=float, help="chronological train split fraction")
    parser.add_argument("--seeds", type=str, help="comma-separated run seeds")
    parser.add_argument("--lstm-hidden", type=int, help="LSTM hidden width")
    parser.add_argument("--embed-dim", type=int, help="GNN embedding width")
    parser.add_argument("--gat-heads", type=int, help="attention heads")
    parser.add_argument("--mlp-hidden", type=int, help="readout hidden width")
    parser.add_argument("--activation", choices=("relu", "tanh", "none"), help="GNN activation")
    parser.add_argument("--learning-rate", type=float, help="Adam learning rate")
    parser.add_argument("--epochs", type=int, help="training epochs")
    parser.add_argument("--patience", type=int, help="early-stopping patience")
    parser.add_argument("--batch-size", type=int, help="minibatch size")
    parser.add_argument("--val-fraction", type=float, help="tail fraction of training targets held out")
    parser.add_argument("--use-differences", action="store_const", const=True, default=None,
                        help="estimate correlations on first differences")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes over items (graph building) and (item, seed) "
                             "units (training); 1 = fully serial")


# Experiment flags are named after their ExperimentConfig field.
_CONFIG_FLAGS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "filter")

_FLAG_TO_FILTER = {
    "filter_method": "method",
    "alpha": "alpha",
    "lam": "lam",
    "min_clique": "min_clique",
    "max_clique": "max_clique",
    "mfcf_gain_threshold": "mfcf_gain_threshold",
    "cv_folds": "cv_folds",
}


def build_experiment_config(args) -> ExperimentConfig:
    """Merge defaults, config-file values and explicit flags (in that order)."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    config_kwargs = {}
    filter_kwargs = {}
    for key, value in file_values.items():
        if key in _FLAG_TO_FILTER:
            filter_kwargs[_FLAG_TO_FILTER[key]] = value
        elif key == "lambda":
            filter_kwargs["lam"] = value
        else:
            config_kwargs[key] = value
    for flag in _CONFIG_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            config_kwargs[flag] = _parse_seed_list(value) if flag == "seeds" else value
    for flag, target in _FLAG_TO_FILTER.items():
        value = getattr(args, flag, None)
        if value is not None:
            filter_kwargs[target] = value
    return ExperimentConfig(filter=FilterConfig(**filter_kwargs), **config_kwargs)


def _cmd_gen_data(args) -> int:
    dataset = synthesize_dataset(
        args.stores, args.items, args.days, args.seed,
        factor_loading=args.factor_loading,
        n_groups=args.groups,
        noise_scale=args.noise_scale,
    )
    rows = dataset.to_csv(args.out)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_filter(args) -> int:
    dataset = ingest_csv(args.input)
    panel = dataset.panel(args.item)
    if args.window is None:
        start, stop = max(0, panel.n_steps - 14), panel.n_steps
    else:
        try:
            start_text, stop_text = args.window.split(":")
            start, stop = int(start_text), int(stop_text)
        except ValueError:
            raise ParameterError(f"--window must be START:STOP, got {args.window!r}") from None
    rows = panel.window(start, stop)
    corr = correlation_from_rows(rows)
    filt = FilterConfig(
        method=args.method,
        alpha=args.alpha,
        lam=args.lam,
        min_clique=args.min_clique if args.min_clique is not None else 4,
        max_clique=args.max_clique if args.max_clique is not None else 4,
        mfcf_gain_threshold=args.threshold if args.threshold is not None else 0.0,
    )
    if filt.method == "shrinkage" and filt.alpha is None:
        raise ParameterError("filter method shrinkage needs --alpha")
    if filt.method == "glasso" and filt.lam is None:
        raise ParameterError("filter method glasso needs --lambda")
    result = apply_filter(corr, filt)
    write_matrix(f"{args.out}.correlation.txt", result.correlation.entries)
    write_matrix(f"{args.out}.precision.txt", result.precision.entries)
    pd_ok = is_positive_definite(result.precision.entries)
    print(f"sparsity={result.sparsity:.3f}")
    print(f"positive_definite={'true' if pd_ok else 'false'}")
    if result.jitter:
        print(f"jitter={result.jitter:.1e}")
    return 0


def _print_report(report, graph_label: str, filter_label: str, records_path, extra=None) -> None:
    print(format_table([(graph_label, filter_label, report, None)]))
    if records_path:
        write_records(records_path, report_records(report, extra))
        print(f"records: {records_path}")


def _filter_label(config: ExperimentConfig) -> str:
    if config.model == "lstm" or config.graph_kind not in ("correlation", "inverse-correlation"):
        return "/"
    return config.filter.method


def _graph_label(config: ExperimentConfig) -> str:
    return "/" if config.model == "lstm" else config.graph_kind


def _cmd_train(args) -> int:
    config = build_experiment_config(args)
    dataset = ingest_csv(args.input)
    report = run_experiment(dataset, config, jobs=args.jobs, checkpoint_dir=args.checkpoints)
    _print_report(report, _graph_label(config), _filter_label(config), args.records)
    if args.checkpoints:
        print(f"checkpoints: {args.checkpoints}")
    return 0


def _cmd_evaluate(args) -> int:
    config = build_experiment_config(args)
    dataset = ingest_csv(args.input)
    report = evaluate_experiment(dataset, config, args.checkpoints, jobs=args.jobs)
    _print_report(report, _graph_label(config), _filter_label(config), args.records)
    return 0


def _parse_sweep_values(axis: str, text: str) -> list:
    values = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ParameterError("sweep needs a nonempty comma-separated --values list")
    if axis == "sparsity":
        try:
            return [float(v) for v in values]
        except ValueError:
            raise ParameterError(f"sparsity sweep values must be numbers, got {text!r}") from None
    return values


def _cmd_sweep(args) -> int:
    config = build_experiment_config(args)
    dataset = ingest_csv(args.input)
    values = _parse_sweep_values(args.axis, args.values)
    rows = sweep(dataset, config, args.axis, values, jobs=args.jobs)
    table_rows = []
    records = []
    for row in rows:
        if args.axis == "graph-kind":
            graph_label, filter_label = row.label, _filter_label(config)
        elif args.axis == "filter-method":
            graph_label, filter_label = config.graph_kind, row.label
        else:
            graph_label, filter_label = config.graph_kind, f"{config.filter.method}@{row.label}"
        if row.failed:
            table_rows.append((graph_label, filter_label, None, row.error))
        else:
            table_rows.append((graph_label, filter_label, row.report, None))
            records.extend(report_records(row.report, {"axis": args.axis, "axis_value": row.label}))
    print(format_table(table_rows, title=f"sweep over {args.axis}"))
    if args.records:
        write_records(args.records, records)
        print(f"records: {args.records}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fsstgnn",
        description="Correlation-filtered sparse graphs driving a spatial-temporal GNN forecaster.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="synthesize a sales CSV",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    gen.add_argument("--stores", type=int, default=10, help="number of stores")
    gen.add_argument("--items", type=int, default=5, help="number of items")
    gen.add_argument("--days", type=int, default=730, help="number of days")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--factor-loading", type=float, default=1.0,
                     help="strength of the shared store factor (0 = independent stores)")
    gen.add_argument("--groups", type=int, default=2, help="number of correlated store groups")
    gen.add_argument("--noise-scale", type=float, default=8.0, help="idiosyncratic noise level")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=_cmd_gen_data)

    filt = sub.add_parser("filter", help="inspect one filtered window",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    filt.add_argument("--input", required=True, help="sales CSV path")
    filt.add_argument("--item", type=int, required=True, help="item id")
    filt.add_argument("--window", help="row window START:STOP (default: last 14 rows)")
    filt.add_argument("--method", choices=FILTER_METHODS, required=True, help="filter method")
    filt.add_argument("--alpha", type=float, help="shrinkage weight")
    filt.add_argument("--lambda", dest="lam", type=float, help="glasso penalty")
    filt.add_argument("--threshold", type=float, help="clique-forest gain threshold")
    filt.add_argument("--min-clique", type=int, help="minimum clique size")
    filt.add_argument("--max-clique", type=int, help="maximum clique size")
    filt.add_argument("--out", required=True, help="output path prefix for matrix fixtures")
    filt.set_defaults(func=_cmd_filter)

    train = sub.add_parser("train", help="train and evaluate on the test segment",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    train.add_argument("--input", required=True, help="sales CSV path")
    train.add_argument("--records", help="write per-seed JSONL records here")
    train.add_argument("--checkpoints", help="directory for per-(item, seed) checkpoints")
    _add_experiment_flags(train)
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="score saved checkpoints on the test segment",
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    evaluate.add_argument("--input", required=True, help="sales CSV path")
    evaluate.add_argument("--records", help="write per-seed JSONL records here")
    evaluate.add_argument("--checkpoints", required=True, help="checkpoint directory from train")
    _add_experiment_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="run one experiment per axis value",
                        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sw.add_argument("--input", required=True, help="sales CSV path")
    sw.add_argument("--axis", choices=SWEEP_AXES, required=True, help="sweep axis")
    sw.add_argument("--values", required=True, help="comma-separated axis values")
    sw.add_argument("--records", help="write per-seed JSONL records here")
    _add_experiment_flags(sw)
    sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError, RangeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (DefinitenessError, ConvergenceError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except FsstgnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
