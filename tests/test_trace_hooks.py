"""The benchmark's tracer (``perfbench/tracer.py``) times this package by
wrapping its functions and methods by name. These tests enter and leave
the tracer as a traced benchmark run does, so that a renamed or deleted
hook fails here and not only in a ``--trace 1`` run."""

import importlib.util
import os

from fsstgnn import data, filtering, graphs, linalg, pipeline
from fsstgnn.neural import autodiff, checkpoint, features, layers, models, optim

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py")

# Every (owner, name) the tracer wraps.
HOOKS = [
    (data, "ingest_csv"),
    (linalg, "cholesky_lower"),
    (linalg, "invert_spd"),
    (linalg, "correlation_from_rows"),
    (filtering, "apply_filter"),
    (filtering, "glasso"),
    (filtering, "mfcf"),
    (pipeline, "resolve_filter"),
    (graphs, "from_filter_result"),
    (graphs, "benchmark_graph"),
    (features, "window_moments"),
    (models.SpatialTemporalModel, "forward"),
    (layers.LstmCell, "forward"),
    (layers.GcnLayer, "forward"),
    (layers.GatLayer, "forward"),
    (layers.NodeReadout, "forward"),
    (autodiff, "backward"),
    (optim.Adam, "step"),
    (checkpoint, "save_checkpoint"),
    (checkpoint, "load_checkpoint"),
    (pipeline, "run_experiment"),
    (pipeline, "evaluate_experiment"),
    (pipeline, "sweep"),
    (pipeline, "_prepare_units"),
    (pipeline, "_run_units"),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_hook_is_patched_and_then_restored():
    tracer = load_tracer()
    originals = {(owner, name): vars(owner)[name] for owner, name in HOOKS}
    with tracer.instrumented(tracer.Recorder()):
        for (owner, name), original in originals.items():
            wrapper = vars(owner)[name]
            # a recorder span around the original, or around an adapter of it
            assert wrapper is not original and hasattr(wrapper, "__wrapped__"), name
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, name
