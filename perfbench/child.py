"""One repeat of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/child.py WORKLOAD CSV WORKDIR plain|traced|setup

``run.py`` starts this with single-threaded BLAS. It ingests the CSV,
runs the workload's experiment calls and checks what they return. In
``traced`` mode it also records spans and measures the layers alone; in
``setup`` mode it only times the ingest. In every mode the speed probe
(``speed.py``) runs while the work does.
"""

import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from fsstgnn import data, pipeline  # noqa: E402
from fsstgnn.filtering import FilterConfig  # noqa: E402
from fsstgnn.neural import autodiff as ad  # noqa: E402
from fsstgnn.neural.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from fsstgnn.neural.models import SpatialTemporalModel  # noqa: E402

import speed  # noqa: E402
from metrics import layer_metrics, per_method_timings  # noqa: E402
from tracer import Recorder, instrumented  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INGEST_REPEATS = 5
PROBE_REPEATS = 5
# A trained model must not be much worse than forecasting each store's
# training mean; garbage predictions are far worse than this.
NAIVE_RMSE_FACTOR = 1.5


def experiment_config(workload) -> pipeline.ExperimentConfig:
    return pipeline.ExperimentConfig(
        model=workload.model,
        filter=FilterConfig(method=workload.filter_method),
        seeds=workload.seeds,
        epochs=workload.epochs,
    )


def run_workload(workload, dataset, config, workdir):
    """The timed experiment calls; returns [(label, report, error)] and
    the evaluated report, if the workload evaluates."""
    if workload.sweep_axis:
        rows = pipeline.sweep(dataset, config, workload.sweep_axis, workload.sweep_values,
                              jobs=workload.jobs)
        return [(row.label, row.report, row.error) for row in rows], None
    ckpt = os.path.join(workdir, f"ckpt-{os.getpid()}") if workload.checkpoints else None
    report = pipeline.run_experiment(dataset, config, jobs=workload.jobs, checkpoint_dir=ckpt)
    evaluated = (pipeline.evaluate_experiment(dataset, config, ckpt, jobs=workload.jobs)
                 if ckpt else None)
    return [(workload.filter_method, report, None)], evaluated


def naive_rmse(dataset, config) -> float:
    """RMSE of forecasting every test target by its store's training mean."""
    errors = []
    for item in dataset.items:
        values = dataset.panel(item).values
        train_rows = int(round(values.shape[0] * config.train_fraction))
        errors.append((values[train_rows:] - values[:train_rows].mean(axis=0)).ravel())
    return float(np.sqrt(np.mean(np.concatenate(errors) ** 2)))


def check(workload, config, dataset, reports, evaluated) -> list:
    """What is wrong with one repeat's outputs, as messages."""
    problems = []
    n = len(dataset.stores)
    mfcf_sparsity = 1.0 - (6 * n - 12) / (n * (n - 1))
    rmse_bound = NAIVE_RMSE_FACTOR * naive_rmse(dataset, config)
    for label, report, error in reports:
        if report is None:
            problems.append(f"{label}: failed: {error}")
            continue
        if len(report.per_seed) != len(workload.seeds):
            problems.append(f"{label}: {len(report.per_seed)} seed rows, expected {len(workload.seeds)}")
        if len(report.units) != workload.items * len(workload.seeds):
            problems.append(f"{label}: {len(report.units)} units")
        for unit in report.units:
            if unit.epochs_ran != config.epochs:
                problems.append(f"{label}: unit {unit.item}/{unit.seed} ran {unit.epochs_ran} "
                                f"epochs, expected {config.epochs}")
        for row in report.per_seed:
            numbers = [row[k] for k in ("rmse", "mae", "mape", "sparsity")]
            if not all(math.isfinite(v) for v in numbers):
                problems.append(f"{label}: non-finite metrics in {row}")
            elif not 0.0 <= row["sparsity"] <= 1.0:
                problems.append(f"{label}: sparsity {row['sparsity']} outside [0, 1]")
            elif (workload.filter_method == "mfcf" and row["fallbacks"] == 0
                  and abs(row["sparsity"] - mfcf_sparsity) > 1e-9):
                problems.append(f"{label}: MFCF sparsity {row['sparsity']}, a clique forest "
                                f"of 4-cliques gives {mfcf_sparsity}")
        if not report.aggregate["rmse_mean"] < rmse_bound:
            problems.append(f"{label}: test RMSE {report.aggregate['rmse_mean']} is not below "
                            f"{rmse_bound} ({NAIVE_RMSE_FACTOR} x the training-mean forecast)")
    if evaluated is not None:
        trained = pipeline.report_records(reports[0][1])
        scored = pipeline.report_records(evaluated)
        if trained != scored:
            problems.append("evaluate_experiment does not reproduce run_experiment's records")
    return problems


def probe_layers(workload, config, n_series, workdir) -> dict:
    """Each layer's backward alone, and a checkpoint save and load, at the
    workload's training batch shape; medians in milliseconds."""
    rng = np.random.default_rng(0)
    model = SpatialTemporalModel(
        n_series, gnn="gcn" if workload.model == "fsst-gcn" else "gat",
        lstm_hidden=config.lstm_hidden, embed_dim=config.embed_dim, gat_heads=config.gat_heads,
        mlp_hidden=config.mlp_hidden, activation=config.activation, rng=rng,
    )
    batch, steps = config.batch_size, config.lookback
    sequences = rng.normal(size=(batch * n_series, steps, 1))
    weights = rng.uniform(-0.5, 0.5, size=(batch, n_series, n_series))
    weights = 0.5 * (weights + weights.transpose(0, 2, 1))
    masks = np.ones((batch, n_series, n_series), dtype=bool)
    features = rng.normal(size=(batch, n_series, 4))
    temporal = rng.normal(size=(batch, n_series, config.lstm_hidden))
    spatial = rng.normal(size=(batch, n_series, config.embed_dim))
    graph = weights if workload.model == "fsst-gcn" else masks

    def backward_ms(forward):
        times = []
        for _ in range(PROBE_REPEATS):
            loss = ad.tensor_sum(forward())
            start = time.perf_counter()
            loss.backward()
            times.append(time.perf_counter() - start)
        return 1000.0 * statistics.median(times)

    def timed_ms(call):
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return 1000.0 * statistics.median(times)

    path = os.path.join(workdir, f"probe-{os.getpid()}.ckpt")
    params = model.parameters()
    return {
        "neural.lstm.bwd_ms": backward_ms(lambda: model.lstm(ad.Tensor(sequences))),
        "neural.gnn.bwd_ms": backward_ms(lambda: model.gnn(graph, features)),
        "neural.readout.bwd_ms": backward_ms(lambda: model.readout(
            ad.Tensor(temporal, requires_grad=True), ad.Tensor(spatial, requires_grad=True))),
        "neural.checkpoint.save_ms": timed_ms(lambda: save_checkpoint(path, params)),
        "neural.checkpoint.load_ms": timed_ms(lambda: load_checkpoint(path)),
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its finished
    children (the pool workers); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def ingest(csv_path):
    """The dataset and the time of each of INGEST_REPEATS ingests."""
    times = []
    for _ in range(INGEST_REPEATS):
        start = time.perf_counter()
        dataset = data.ingest_csv(csv_path)
        times.append(time.perf_counter() - start)
    return dataset, times


def main(argv) -> int:
    name, csv_path, workdir, mode = argv
    workload = WORKLOADS[name]
    if mode == "setup":
        with speed.Probe() as probe:
            setup = ingest(csv_path)[1]
        print(json.dumps({"mode": mode, "setup_s": setup, "probe_s": probe.mean_s()}))
        return 0
    traced = mode == "traced"
    config = experiment_config(workload)
    recorder = Recorder()
    with instrumented(recorder) if traced else contextlib.nullcontext(), speed.Probe() as probe:
        dataset, setup = ingest(csv_path)
        start = time.perf_counter()
        reports, evaluated = run_workload(workload, dataset, config, workdir)
        wall = time.perf_counter() - start
    ok = [report for _, report, _ in reports if report is not None]
    result = {
        "mode": mode,
        "setup_s": setup,
        "wall_s": wall,
        "probe_s": probe.mean_s(),
        "peak_rss_mb": peak_rss_mb(),
        "records": [pipeline.report_records(report, {"label": label})
                    for label, report, _ in reports if report is not None],
        "problems": check(workload, config, dataset, reports, evaluated),
        "test": {key: float(np.mean([r.aggregate[f"{key}_mean"] for r in ok])) if ok else math.nan
                 for key in ("rmse", "mae", "mape")},
    }
    if traced:
        layers = layer_metrics(recorder.spans, workload.filter_method)
        layers.update(probe_layers(workload, config, len(dataset.stores), workdir))
        layers["neural.epochs_ran"] = sum(u.epochs_ran for r in ok for u in r.units)
        result["layers"] = layers
        result["per_method"] = per_method_timings(recorder.spans)
        result["spans"] = [span.to_dict() for span in recorder.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
