"""Command-line interface: data synthesis, filter inspection, training,
evaluation and sweep reporting.

``train``, ``evaluate`` and ``sweep`` take one flag per field of
``ExperimentConfig`` and of ``FilterConfig``, derived from the fields and
their metadata. ``--config`` names a file of ``key = value`` lines that
set the same fields; ``#`` starts a comment. The key is the field name,
except ``filter_method`` for the filter method and ``lambda`` for the
glasso penalty. A value is parsed by the field's type: booleans as
true/false, yes/no, on/off or 1/0, and seeds as comma-separated
integers. Flags override the file, which overrides the defaults.

A sweep value that makes no valid config, or that repeats an earlier
value's config, exits 1 before anything runs; a sweep whose look-back
and splits do not fit the data's segments exits 2, also before anything
runs.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric/convergence error. Outputs contain no timestamps, so repeated
invocations with identical flags are byte-identical.
"""

import argparse
import functools
import sys
from dataclasses import fields
from typing import Optional

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
from .linalg import correlation_from_rows, is_positive_definite, write_matrix
from .pipeline import (
    SWEEP_AXES,
    ExperimentConfig,
    evaluate_experiment,
    format_table,
    report_records,
    run_experiment,
    run_labels,
    sweep,
    write_records,
)


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


def _config_fields() -> list:
    """The fields a run is configured by, in order, with those of
    FilterConfig in place of ExperimentConfig.filter."""
    return [g for f in fields(ExperimentConfig)
            for g in (fields(FilterConfig) if f.name == "filter" else (f,))]


def _value_parser(f):
    """The function that parses a flag or file value of field ``f``. The
    ParameterError of the seed list parser passes through argparse to main."""
    return {bool: _parse_bool, tuple: _parse_seed_list, Optional[float]: float}.get(f.type, f.type)


_FILE_KEYS = {f.metadata.get("key", f.name): f for f in _config_fields()}


def read_config_file(path) -> dict:
    """Parse `key = value` lines into field values by field name; unknown
    keys are rejected by name."""
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
            if key not in _FILE_KEYS:
                raise ParameterError(f"unknown configuration key {key!r} (line {line_no})")
            f = _FILE_KEYS[key]
            try:
                values[f.name] = _value_parser(f)(value)
            except ValueError:
                raise ParameterError(f"bad value {value!r} for key {key!r} (line {line_no})") from None
    return values


def _add_experiment_flags(parser) -> None:
    parser.add_argument("--input", required=True, help="sales CSV path")
    parser.add_argument("--records", help="write per-seed JSONL records here")
    parser.add_argument("--config", help="key=value configuration file; flags override it")
    for f in _config_fields():
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        kwargs = {"help": f.metadata["help"]}
        if "choices" in f.metadata:
            kwargs["choices"] = f.metadata["choices"]
        if f.type is bool:
            kwargs.update(action="store_const", const=True)
        else:
            kwargs["type"] = _value_parser(f)
        parser.add_argument(flag, dest=f.name, **kwargs)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes over items (graph building) and (item, seed) "
                             "units (training); 1 = fully serial")


def _given(args, settings) -> dict:
    """Field name -> value of each flag in ``args`` that was given."""
    return {f.name: getattr(args, f.name) for f in settings if getattr(args, f.name, None) is not None}


def build_experiment_config(args) -> ExperimentConfig:
    """Merge defaults, config-file values and explicit flags (in that order)."""
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    values.update(_given(args, _config_fields()))
    filter_names = {f.name for f in fields(FilterConfig)}
    return ExperimentConfig(
        filter=FilterConfig(**{k: v for k, v in values.items() if k in filter_names}),
        **{k: v for k, v in values.items() if k not in filter_names},
    )


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
    result = apply_filter(corr, FilterConfig(**_given(args, fields(FilterConfig))))
    write_matrix(f"{args.out}.correlation.txt", result.correlation.entries)
    write_matrix(f"{args.out}.precision.txt", result.precision.entries)
    pd_ok = is_positive_definite(result.precision.entries)
    print(f"sparsity={result.sparsity:.3f}")
    print(f"positive_definite={'true' if pd_ok else 'false'}")
    if result.jitter:
        print(f"jitter={result.jitter:.1e}")
    return 0


def _print_report(report, records_path) -> None:
    print(format_table([(*run_labels(report.config), report, None)]))
    if records_path:
        write_records(records_path, report_records(report))
        print(f"records: {records_path}")


def _cmd_train(args) -> int:
    config = build_experiment_config(args)
    report = run_experiment(ingest_csv(args.input), config, jobs=args.jobs, checkpoint_dir=args.checkpoints)
    _print_report(report, args.records)
    if args.checkpoints:
        print(f"checkpoints: {args.checkpoints}")
    return 0


def _cmd_evaluate(args) -> int:
    config = build_experiment_config(args)
    report = evaluate_experiment(ingest_csv(args.input), config, args.checkpoints, jobs=args.jobs)
    _print_report(report, args.records)
    return 0


def _parse_sweep_values(axis: str, text: str) -> list:
    values = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    try:
        return [float(v) for v in values] if axis == "sparsity" else values
    except ValueError:
        raise ParameterError(f"sparsity sweep values must be numbers, got {text!r}") from None


def _cmd_sweep(args) -> int:
    config = build_experiment_config(args)
    dataset = ingest_csv(args.input)
    rows = sweep(dataset, config, args.axis, _parse_sweep_values(args.axis, args.values), jobs=args.jobs)
    table_rows, records = [], []
    for row in rows:
        graph_label, filter_label = run_labels(row.config)
        if args.axis == "sparsity" and filter_label != "/":
            filter_label += f"@{row.label}"
        table_rows.append((graph_label, filter_label, row.report, row.error))
        if not row.failed:
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
    add_command = functools.partial(sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    gen = add_command("gen-data", help="synthesize a sales CSV")
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

    filt = add_command("filter", help="inspect one filtered window")
    filt.add_argument("--input", required=True, help="sales CSV path")
    filt.add_argument("--item", type=int, required=True, help="item id")
    filt.add_argument("--window", help="row window START:STOP (default: last 14 rows)")
    filt.add_argument("--method", choices=FILTER_METHODS, required=True, help="filter method")
    filt.add_argument("--alpha", type=float, help="shrinkage weight")
    filt.add_argument("--lambda", dest="lam", type=float, help="glasso penalty")
    filt.add_argument("--threshold", dest="mfcf_gain_threshold", metavar="THRESHOLD", type=float,
                      help="clique-forest gain threshold")
    filt.add_argument("--max-clique", type=int, help="maximum clique size")
    filt.add_argument("--out", required=True, help="output path prefix for matrix fixtures")
    filt.set_defaults(func=_cmd_filter)

    train = add_command("train", help="train and evaluate on the test segment")
    train.add_argument("--checkpoints", help="directory for per-(item, seed) checkpoints")
    _add_experiment_flags(train)
    train.set_defaults(func=_cmd_train)

    evaluate = add_command("evaluate", help="score saved checkpoints on the test segment")
    evaluate.add_argument("--checkpoints", required=True, help="checkpoint directory from train")
    _add_experiment_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    sw = add_command("sweep", help="run one experiment per axis value")
    sw.add_argument("--axis", choices=SWEEP_AXES, required=True, help="sweep axis")
    sw.add_argument("--values", required=True, help="comma-separated axis values")
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
