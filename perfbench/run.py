"""The fsstgnn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a source tree. Writes the workload's sales CSV from
the seed, then runs repeats of the workload, each in a fresh process with
single-threaded BLAS, until the next repeat would overrun ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics: medians over the
repeats. A short process that only ingests the CSV follows each repeat,
because ingest time depends on the process it runs in. Every process
also times a fixed kernel from a timer signal while its work runs, and
``setup_s`` and ``wall_s`` are scaled by it to seconds at a reference
machine speed (``speed.py``), because the shared host's speed drifts by
more than their bounds. With ``--trace 1``
it alternates untraced and traced repeats and reports the per-layer
metrics, medians over the traced repeats, plus the tracing overhead.
Every repeat's outputs are checked; the run exits 1 if any check fails.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, write_csv  # noqa: E402

# perfbench/baseline.json also names a held-out seed for checking claims.
DEFAULT_SEED = 1
# A run must end within 180 s; this leaves time to report after the last repeat.
RUN_LIMIT_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def source_tree_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "fsstgnn", "__init__.py"))


def stamp() -> dict:
    """Where a result was measured: machine, interpreter, libraries, source."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_child(name, csv_path, workdir, mode, timeout):
    """One child.py process; returns its JSON or an error dict."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, csv_path, workdir, mode]
    # A session of its own lets a timeout or a SIGTERM stop the pool workers too.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"{mode} process did not finish in {timeout:.0f} s"}
    finally:
        if child.returncode is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    if child.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-5:]
        return {"mode": mode, "error": f"{mode} process exit {child.returncode}: " + " | ".join(tail)}
    return json.loads(out.strip().splitlines()[-1])


def run_repeats(workload, csv_path, workdir, seconds, trace):
    """Child processes until the next repeat would end after ``seconds``.

    There is at least one repeat, and with tracing at least one untraced
    and one traced. Without tracing, an ingest-only process follows each
    repeat.
    """
    started = time.perf_counter()
    processes = []
    durations = []
    while True:
        modes = ["traced" if trace and len(processes) % 2 == 1 else "plain"]
        if not trace:
            modes.append("setup")
        begin = time.perf_counter()
        for mode in modes:
            limit = RUN_LIMIT_S - (time.perf_counter() - started)
            processes.append(run_child(workload.name, csv_path, workdir, mode, max(limit, 1.0)))
        durations.append(time.perf_counter() - begin)
        if any("error" in p for p in processes[-len(modes):]):
            break
        if trace and len(processes) % 2 == 1:
            continue
        elapsed = time.perf_counter() - started
        if elapsed + max(durations[-2:]) * (2 if trace else 1) > seconds:
            break
    return processes


def median(values):
    return float(statistics.median(values))


def scale(process):
    """Factor that turns the process's seconds into seconds at the
    reference speed."""
    return speed.REFERENCE_S / process["probe_s"]


def scaled_wall(process):
    return process["wall_s"] * scale(process)


def summarize(workload, processes, trace):
    """(correct, attempted, failed, metrics, notes) of one run's processes.

    Each (item, seed) unit of a repeat counts as one attempt, and so does
    each ingest-only process.
    """
    notes = []
    attempted = failed = 0
    reference = None
    for number, process in enumerate(processes, start=1):
        weight = 1 if process["mode"] == "setup" else workload.units
        attempted += weight
        if "error" in process:
            notes.append(f"process {number}: {process['error']}")
            failed += weight
            continue
        values = [*process["setup_s"], process["probe_s"]]
        problems = []
        if process["mode"] != "setup":
            problems.extend(process["problems"])
            if reference is None:
                reference = process["records"]
            elif process["records"] != reference:
                problems.append("records differ from the first repeat's")
            values += [process["wall_s"], process["peak_rss_mb"], *process["test"].values()]
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"a measured value is not a positive finite number: {values}")
        if problems:
            failed += weight
            notes.extend(f"process {number}: {p}" for p in problems)
    good = [p for p in processes if "error" not in p]
    untraced = [p for p in good if p["mode"] == "plain"]
    traced = [p for p in good if p["mode"] == "traced"]
    metrics = {}
    if untraced and not trace:
        first = untraced[0]
        metrics = {
            "setup_s": median([s * scale(p) for p in good for s in p["setup_s"]]),
            "wall_s": median([scaled_wall(p) for p in untraced]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            "test_rmse": first["test"]["rmse"],
            "test_mae": first["test"]["mae"],
            "test_mape": first["test"]["mape"],
        }
    if trace and traced and untraced:
        for name in PER_LAYER:
            if name != "trace.overhead_frac":
                metrics[name] = median([p["layers"][name] for p in traced])
        plain = median([scaled_wall(p) for p in untraced])
        metrics["trace.overhead_frac"] = (median([scaled_wall(p) for p in traced]) - plain) / plain
        if metrics["pipeline.pool_busy_frac"] == 0.0:
            notes.append("no unit spans came back from the pool; the layers inside units are unseen")
    correct = failed == 0 and bool(metrics)
    return correct, attempted, failed, metrics, notes


def report_lines(processes, metrics, trace):
    lines = []
    untraced = sum(1 for p in processes if p["mode"] == "plain")
    if not trace:
        for name, (unit, bound) in END_TO_END.items():
            if name in metrics:
                lines.append(f"  {name:<16} {metrics[name]:>14.6f} {unit:<6} lower is better, "
                             f"bound {bound:.0%}, median of {untraced} repeats")
        done = [p for p in processes if "wall_s" in p]
        lines.append("  wall_s of each repeat, measured: "
                     + " ".join(f"{p['wall_s']:.3f}" for p in done))
        lines.append("  wall_s of each repeat, at the reference speed: "
                     + " ".join(f"{scaled_wall(p):.3f}" for p in done))
        return lines
    traced = [p for p in processes if p["mode"] == "traced" and "error" not in p]
    for name, (unit, better, moves) in PER_LAYER.items():
        if name in metrics:
            lines.append(f"  {name:<30} {metrics[name]:>14.6f} {unit:<8} {better} is better; moves {moves}")
    if traced:
        for name, value in traced[-1]["per_method"].items():
            shown = "n/a" if value is None else f"{value:.6f}"
            lines.append(f"  {name:<30} {shown:>14} (last traced repeat)")
    return lines


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    scratch = os.path.join(HERE, ".work")
    workdir = os.path.join(scratch, f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        csv_path = os.path.join(workdir, "sales.csv")
        write_csv(csv_path, workload, seed)
        processes = run_repeats(workload, csv_path, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics, notes = summarize(workload, processes, trace)
    traced = [p for p in processes if "spans" in p]
    if traced:
        spans_path = os.path.join(scratch, f"{name}-seed{seed}.spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in traced[-1]["spans"]:
                handle.write(json.dumps(span) + "\n")
        notes.append(f"spans of the last traced repeat: {os.path.relpath(spans_path, ROOT)}")
    repeats = sum(1 for p in processes if p["mode"] != "setup")
    print(f"workload {name} (seed {seed}, {repeats} repeats, trace {int(trace)}): "
          f"{workload.why}")
    for line in report_lines(processes, metrics, trace):
        print(line)
    for note in notes:
        print(f"  note: {note}")
    units = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not source_tree_present():
        print(f"no program source under {os.path.join(ROOT, 'src', 'fsstgnn')}; "
              "run from the root of an fsstgnn source tree", file=sys.stderr)
        return 2
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
