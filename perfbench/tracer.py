"""In-memory spans around fsstgnn's layer functions, recorded from outside.

``instrumented`` wraps functions and methods of the program without
changing its files: it replaces every reference to a wrapped function in
the loaded ``fsstgnn`` modules, so calls made through ``from .linalg
import cholesky_lower`` are timed too, and it restores them on exit.
Spans stay in memory until the benchmark writes them out. A pool worker
forked by the pipeline inherits the wrappers; it sends the spans of each
unit back with the unit's result.
"""

import contextlib
import functools
import hashlib
import itertools
import os
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    pid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Recorder:
    """Collects spans; each span's parent is the span open when it started."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn, describe=None):
        """Return ``fn`` timed as a span called ``name``.

        ``describe(args, kwargs, result)`` may add attributes to the
        span; ``result`` is None when ``fn`` raised.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder.stack
            span = Span(next(recorder._ids), stack[-1].id if stack else None, name,
                        time.perf_counter(), pid=os.getpid())
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
                if describe is not None:
                    span.attrs.update(describe(args, kwargs, result))

        return traced

    def adopt(self, spans, parent: int) -> None:
        """Take spans recorded elsewhere, renumbered, with their roots under ``parent``."""
        new_ids = {span.id: next(self._ids) for span in spans}
        for span in spans:
            span.id = new_ids[span.id]
            span.parent = new_ids.get(span.parent, parent)
            self.spans.append(span)


# The recorder a forked pool worker inherits; set only inside ``instrumented``.
_ACTIVE = None


def run_traced_unit(worker, args):
    """Run one pipeline unit under a fresh span list and return
    ``(result, spans)``, so spans recorded in a pool worker reach the parent."""
    recorder = _ACTIVE
    if recorder is None:
        return worker(args), []
    saved = recorder.spans, recorder.stack
    recorder.spans, recorder.stack = [], []
    try:
        result = recorder.wrap("pipeline.unit", worker)(args)
        return result, recorder.spans
    finally:
        recorder.spans, recorder.stack = saved


def _filter_call(args, kwargs, result):
    corr, config = args
    digest = hashlib.blake2b(corr.entries.tobytes(), digest_size=16).hexdigest()
    attrs = {"method": config.method, "key": f"{digest}:{config!r}"}
    if result is not None:
        attrs["jitter"] = result.jitter
        attrs["sweeps"] = result.sweeps
    return attrs


def _jobs(args, kwargs, result):
    worker, unit_args, jobs = args
    return {"jobs": jobs}


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Wrap the program's layer entry points for the duration of the block.

    Besides the public functions, two private pipeline hooks are used:
    ``_prepare_units`` (the serial work before any unit starts) and
    ``_run_units`` (the pool). A missing hook fails the traced run with
    its name rather than reporting zeros.
    """
    global _ACTIVE
    from fsstgnn import data, filtering, graphs, linalg, pipeline
    from fsstgnn.neural import autodiff, checkpoint, features, layers, models, optim

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "fsstgnn" or name.startswith("fsstgnn."))]
    patches = []

    def lookup(owner, attr):
        try:
            return getattr(owner, attr)
        except AttributeError:
            raise RuntimeError(f"trace hook {owner.__name__}.{attr} no longer exists") from None

    def function(owner, attr, name, describe=None, adapt=None):
        original = lookup(owner, attr)
        wrapper = recorder.wrap(name, adapt(original) if adapt else original, describe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def method(cls, name, attr="forward"):
        original = lookup(cls, attr)
        wrapper = recorder.wrap(name, original)
        for key in (attr, "__call__"):
            if cls.__dict__.get(key) is original:
                patches.append((cls, key, original))
                setattr(cls, key, wrapper)

    def run_units(original):
        def traced_pool(worker, unit_args, jobs):
            pairs = original(functools.partial(run_traced_unit, worker), unit_args, jobs)
            parent = recorder.stack[-1].id
            results = []
            for result, spans in pairs:
                recorder.adopt(spans, parent)
                results.append(result)
            return results
        return traced_pool

    try:
        function(data, "ingest_csv", "data.ingest_csv")
        function(linalg, "cholesky_lower", "linalg.cholesky")
        function(linalg, "invert_spd", "linalg.invert_spd")
        function(linalg, "correlation_from_rows", "linalg.correlation")
        function(filtering, "apply_filter", "filtering.apply", _filter_call)
        function(filtering, "glasso", "filtering.glasso")
        function(filtering, "mfcf", "filtering.mfcf")
        function(pipeline, "resolve_filter", "filtering.cv")
        function(graphs, "from_filter_result", "graphs.build")
        function(graphs, "benchmark_graph", "graphs.build")
        function(features, "window_moments", "neural.features")
        method(models.SpatialTemporalModel, "neural.model.fwd")
        method(layers.LstmCell, "neural.lstm.fwd")
        method(layers.GcnLayer, "neural.gnn.fwd")
        method(layers.GatLayer, "neural.gnn.fwd")
        method(layers.NodeReadout, "neural.readout.fwd")
        function(autodiff, "backward", "neural.backward")
        method(optim.Adam, "neural.optim.step", attr="step")
        function(checkpoint, "save_checkpoint", "neural.checkpoint.save")
        function(checkpoint, "load_checkpoint", "neural.checkpoint.load")
        function(pipeline, "run_experiment", "pipeline.run_experiment")
        function(pipeline, "evaluate_experiment", "pipeline.evaluate_experiment")
        function(pipeline, "sweep", "pipeline.sweep")
        function(pipeline, "_prepare_units", "pipeline.prepare")
        function(pipeline, "_run_units", "pipeline.run_units", _jobs, adapt=run_units)
        _ACTIVE = recorder
        yield recorder
    finally:
        _ACTIVE = None
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def covered(span: Span, children) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total
