"""Metric names, units and directions, and the per-layer metrics computed from spans.

``END_TO_END`` and ``PER_LAYER`` are the single list of what the benchmark
reports. ``BENCHMARK.json`` repeats them for the tools that run it, and a
test keeps the two in step. Each per-layer entry names the end-to-end
metric and workload it should move.
"""

import statistics

import numpy as np

from tracer import covered

# name -> (unit, bound on how much worse the median may get)
END_TO_END = {
    "setup_s": ("s", 0.25),
    "wall_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
    "test_rmse": ("sales", 0.05),
    "test_mae": ("sales", 0.05),
    "test_mape": ("%", 0.05),
}

# name -> (unit, which direction is better, what it should move)
PER_LAYER = {
    "data.ingest_s": ("s", "lower", "setup_s on every workload"),
    "linalg.cholesky_calls": ("count", "lower", "wall_s on glasso-cv-gat and train-mfcf-gcn"),
    "linalg.cholesky_s": ("s", "lower", "wall_s on glasso-cv-gat and train-mfcf-gcn"),
    "linalg.invert_spd_calls": ("count", "lower", "wall_s on glasso-cv-gat and train-mfcf-gcn"),
    "linalg.invert_spd_s": ("s", "lower", "wall_s on glasso-cv-gat and train-mfcf-gcn"),
    "linalg.correlation_s": ("s", "lower", "wall_s on every workload (small on all)"),
    "filtering.cv_s": ("s", "lower", "wall_s on glasso-cv-gat"),
    "filtering.cv_glasso_calls": ("count", "lower", "wall_s on glasso-cv-gat"),
    "filtering.windows": ("count", "lower", "wall_s on every workload"),
    "filtering.glasso.windows": ("count", "lower", "wall_s on glasso-cv-gat"),
    "filtering.mfcf.windows": ("count", "lower", "wall_s on train-mfcf-gcn and sweep-graph-kind"),
    "filtering.window_ms_p50": ("ms", "lower", "wall_s: glasso on glasso-cv-gat, mfcf on the others"),
    "filtering.window_ms_p90": ("ms", "lower", "wall_s: glasso on glasso-cv-gat, mfcf on the others"),
    "filtering.busy_s": ("s", "lower", "wall_s: glasso on glasso-cv-gat, mfcf on the others"),
    "filtering.glasso.sweeps_mean": ("count", "lower", "wall_s on glasso-cv-gat (a warm start lowers it)"),
    "filtering.repeat_ratio": ("ratio", "lower", "wall_s on sweep-graph-kind, and on train-mfcf-gcn, whose "
                               "evaluation filters every window again (a graph cache brings it to 1)"),
    "filtering.fallback_frac": ("fraction", "lower", "test_rmse"),
    "filtering.jitter_windows": ("count", "lower", "test_rmse"),
    "graphs.build_s": ("s", "lower", "wall_s"),
    "neural.features_s": ("s", "lower", "wall_s"),
    "neural.train_steps": ("count", "lower", "wall_s on train-mfcf-gcn"),
    "neural.step_ms_p50": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.step_ms_p90": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.lstm.fwd_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.gnn.fwd_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.readout.fwd_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.backward_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.optim.step_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.lstm.bwd_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.gnn.bwd_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.readout.bwd_ms": ("ms", "lower", "wall_s on train-mfcf-gcn, not glasso-cv-gat"),
    "neural.epochs_ran": ("count", "lower", "wall_s on train-mfcf-gcn"),
    "neural.checkpoint.save_ms": ("ms", "lower", "wall_s on train-mfcf-gcn"),
    "neural.checkpoint.load_ms": ("ms", "lower", "wall_s on train-mfcf-gcn (evaluation)"),
    "neural.predict_ms": ("ms", "lower", "wall_s on train-mfcf-gcn (evaluation)"),
    "pipeline.prepare_s": ("s", "lower", "wall_s on sweep-graph-kind"),
    "pipeline.pool_busy_frac": ("fraction", "higher", "wall_s on sweep-graph-kind"),
    "pipeline.self_s": ("s", "lower", "wall_s on sweep-graph-kind"),
    "trace.overhead_frac": ("fraction", "lower", "none; traced against untraced wall_s"),
}

# Per-method filter timings. They are printed, with n/a where the method
# did not run, but kept out of the result line: a time that is 0 on every
# run of a workload is not a measurement.
PER_METHOD = ("window_ms_p50", "window_ms_p90", "busy_s")
WINDOW_METHODS = ("glasso", "mfcf")


def _ms(seconds) -> float:
    return 1000.0 * seconds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def layer_metrics(spans, filter_method: str) -> dict:
    """Per-layer metrics of one traced repeat, except those that need the
    report, the isolated probes or the untraced run."""
    by_name = {}
    children = {}
    by_id = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        children.setdefault(span.parent, []).append(span)
        by_id[span.id] = span

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def under(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    windows = [s for s in named("filtering.apply") if s.attrs["method"] == filter_method]
    window_ms = [_ms(s.duration) for s in windows]
    glasso_sweeps = [s.attrs["sweeps"] for s in windows if s.attrs.get("sweeps") is not None]

    # A training step runs from the model forward to the end of the
    # optimizer step that follows it; every other model forward scores.
    train_forwards = set()
    steps_ms = []
    for pid in {s.pid for s in named("neural.optim.step")}:
        events = sorted((s for s in named("neural.model.fwd") + named("neural.optim.step")
                         if s.pid == pid), key=lambda s: s.start)
        last_forward = None
        for span in events:
            if span.name == "neural.model.fwd":
                last_forward = span
            elif last_forward is not None:
                train_forwards.add(last_forward.id)
                steps_ms.append(_ms(span.end - last_forward.start))
                last_forward = None

    def train_fwd_ms(name):
        return _median([_ms(s.duration) for s in named(name) if s.parent in train_forwards])

    pool = named("pipeline.run_units")
    pool_capacity = sum(s.attrs["jobs"] * s.duration for s in pool)
    pipeline_spans = [s for s in spans if s.name.startswith("pipeline.")]

    metrics = {
        "data.ingest_s": _median([s.duration for s in named("data.ingest_csv")]),
        "linalg.cholesky_calls": len(named("linalg.cholesky")),
        "linalg.cholesky_s": total("linalg.cholesky"),
        "linalg.invert_spd_calls": len(named("linalg.invert_spd")),
        "linalg.invert_spd_s": total("linalg.invert_spd"),
        "linalg.correlation_s": total("linalg.correlation"),
        "filtering.cv_s": total("filtering.cv"),
        "filtering.cv_glasso_calls": sum(1 for s in named("filtering.glasso") if under(s, "filtering.cv")),
        "filtering.windows": len(windows),
        "filtering.window_ms_p50": _median(window_ms),
        "filtering.window_ms_p90": _p90(window_ms),
        "filtering.busy_s": sum(s.duration for s in windows),
        "filtering.glasso.sweeps_mean": float(np.mean(glasso_sweeps)) if glasso_sweeps else 0.0,
        "filtering.repeat_ratio": len(windows) / max(1, len({s.attrs["key"] for s in windows})),
        "filtering.fallback_frac": sum(1 for s in windows if "error" in s.attrs) / max(1, len(windows)),
        "filtering.jitter_windows": sum(1 for s in windows if s.attrs.get("jitter", 0.0) > 0.0),
        "graphs.build_s": total("graphs.build"),
        "neural.features_s": total("neural.features"),
        "neural.train_steps": len(named("neural.optim.step")),
        "neural.step_ms_p50": _median(steps_ms),
        "neural.step_ms_p90": _p90(steps_ms),
        "neural.lstm.fwd_ms": train_fwd_ms("neural.lstm.fwd"),
        "neural.gnn.fwd_ms": train_fwd_ms("neural.gnn.fwd"),
        "neural.readout.fwd_ms": train_fwd_ms("neural.readout.fwd"),
        "neural.backward_ms": _median([_ms(s.duration) for s in named("neural.backward")]),
        "neural.optim.step_ms": _median([_ms(s.duration) for s in named("neural.optim.step")]),
        "neural.predict_ms": _median([_ms(s.duration) for s in named("neural.model.fwd")
                                      if s.id not in train_forwards]),
        "pipeline.prepare_s": total("pipeline.prepare"),
        "pipeline.pool_busy_frac": total("pipeline.unit") / pool_capacity if pool_capacity else 0.0,
        "pipeline.self_s": sum(s.duration - covered(s, children.get(s.id, ()))
                               for s in pipeline_spans),
    }
    for method in WINDOW_METHODS:
        metrics[f"filtering.{method}.windows"] = sum(
            1 for s in named("filtering.apply") if s.attrs["method"] == method)
    return metrics


def per_method_timings(spans) -> dict:
    """``filtering.<method>.<timing>`` for each window method, None where it did not run."""
    out = {}
    for method in WINDOW_METHODS:
        ms = [_ms(s.duration) for s in spans
              if s.name == "filtering.apply" and s.attrs["method"] == method]
        values = (_median(ms), _p90(ms), sum(ms) / 1000.0) if ms else (None, None, None)
        for timing, value in zip(PER_METHOD, values):
            out[f"filtering.{method}.{timing}"] = value
    return out
