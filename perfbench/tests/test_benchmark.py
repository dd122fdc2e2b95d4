"""Tests of the benchmark itself: its metric list, its inputs, its span
arithmetic, the --jobs contract it relies on, and its refusal to run
without the program.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from fsstgnn import data, pipeline  # noqa: E402
from fsstgnn.filtering import FilterConfig  # noqa: E402

import speed  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Recorder, Span, covered, instrumented  # noqa: E402
from workloads import WORKLOADS, Workload, generate_sales, write_csv  # noqa: E402


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}


def test_inputs_depend_only_on_the_seed():
    first = generate_sales(6, 2, 60, seed=3)
    assert np.array_equal(first, generate_sales(6, 2, 60, seed=3))
    assert not np.array_equal(first, generate_sales(6, 2, 60, seed=4))
    assert first.min() >= 1


def test_covered_counts_overlapping_children_once():
    parent = Span(1, None, "p", 0.0, 10.0)
    children = [Span(2, 1, "a", 1.0, 4.0), Span(3, 1, "b", 3.0, 6.0),
                Span(4, 1, "c", 8.0, 12.0)]
    assert covered(parent, children) == 3.0 + 2.0 + 2.0
    assert covered(parent, []) == 0.0


def test_speed_probe_samples_while_open_and_then_disarms():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.times) >= 5
    assert probe.mean_s() > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def _sweep_records(dataset, jobs):
    config = pipeline.ExperimentConfig(model="fsst-gcn", filter=FilterConfig(method="mfcf"),
                                       seeds=(0, 1), epochs=1)
    rows = pipeline.sweep(dataset, config, "graph-kind", ["correlation", "inverse-correlation"],
                          jobs=jobs)
    assert not any(row.failed for row in rows)
    return [pipeline.report_records(row.report, {"label": row.label}) for row in rows]


def test_jobs_and_tracing_do_not_change_sweep_records(tmp_path):
    small = Workload(name="small-sweep", why="", stores=6, items=2, days=100,
                     model="fsst-gcn", filter_method="mfcf", seeds=(0, 1), epochs=1, jobs=2)
    csv_path = str(tmp_path / "sales.csv")
    write_csv(csv_path, small, seed=5)
    dataset = data.ingest_csv(csv_path)
    serial = _sweep_records(dataset, jobs=1)
    assert _sweep_records(dataset, jobs=2) == serial

    recorder = Recorder()
    original = pipeline.sweep
    with instrumented(recorder):
        assert _sweep_records(dataset, jobs=2) == serial
    units = [s for s in recorder.spans if s.name == "pipeline.unit"]
    assert len(units) == 2 * 2 * 2
    assert {s.pid for s in units}.isdisjoint({os.getpid()})
    ids = {s.id for s in recorder.spans}
    assert len(ids) == len(recorder.spans)
    assert all(s.parent is None or s.parent in ids for s in recorder.spans)
    assert pipeline.sweep is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "glasso-cv-gat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
