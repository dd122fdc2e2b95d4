"""Every CLI output of a fixed set of runs, pinned to ``pinned_outputs.txt``.

The runs cover ``gen-data``; ``train`` then ``evaluate`` for four setups;
one ``sweep`` per axis at ``--jobs 1`` and ``--jobs 2``; and ``filter``
for every method. Each run is made in process, in a fresh directory, with
the filter cache and the examples table empty, as a separate ``fsstgnn``
process would see them. The file holds the SHA-256 of each run's stdout
and of every file it writes (records, checkpoints, matrices), the table
lines it prints, and the numpy and BLAS versions that produced them.
The hashes hold only for those versions: on others the test fails and
names both.

A change that moves any number a run prints or writes fails the test,
which names every output that moved. Regenerate the file only on purpose,
and name the outputs that moved where the change is recorded:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from fsstgnn import cli, pipeline

PINNED = Path(__file__).with_name("pinned_outputs.txt")
DATA = ["--stores", "5", "--items", "2", "--days", "80", "--seed", "3"]
SMALL_RUN = ["--lookback", "7", "--epochs", "2", "--lstm-hidden", "4", "--embed-dim", "4",
             "--mlp-hidden", "4", "--seeds", "0,1"]
TRAINS = {
    "fsst-gcn-mfcf": ["--model", "fsst-gcn", "--filter", "mfcf"],
    "fsst-gat-glasso-cv": ["--model", "fsst-gat", "--filter", "glasso"],
    "shrinkage-cv-differences": ["--filter", "shrinkage", "--use-differences"],
    "lstm": ["--model", "lstm"],
}
SWEEPS = {"filter-method": "mfcf,glasso,empirical", "sparsity": "0.05,0.01",
          "graph-kind": "ones,correlation"}
FILTERS = {"empirical": [], "shrinkage": ["--alpha", "0.3"], "glasso": ["--lambda", "0.1"], "mfcf": []}


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _run(name: str, *argv) -> dict:
    """Run one CLI command in ``name``'s own directory under the current
    one; its stdout, the files it wrote and its table lines, by output."""
    os.makedirs(name)
    pipeline._FILTER_CACHE.clear()
    pipeline._EXAMPLES.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main([arg.replace("{dir}", name) for arg in argv]) == 0, name
    outputs = {(name, "stdout"): hashlib.sha256(out.getvalue().encode()).hexdigest()}
    for folder, dirs, files in sorted(os.walk(name)):
        dirs.sort()
        for file in sorted(files):
            path = os.path.join(folder, file)
            outputs[(name, os.path.relpath(path, name))] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    if argv[0] in ("train", "evaluate", "sweep"):
        # the table's body: everything printed after its rule, but the paths
        body = out.getvalue().splitlines()
        body = body[next(i for i, line in enumerate(body) if line.startswith("---")) + 1:]
        for i, line in enumerate(line for line in body if ": " not in line):
            outputs[(name, f"table:{i}")] = " ".join(line.split())
    return outputs


def pinned_outputs() -> dict:
    """(run, output) -> value for every run, made in the current directory."""
    outputs = {("versions", key): value for key, value in versions().items()}
    outputs.update(_run("gen-data", "gen-data", *DATA, "--out", "{dir}/sales.csv"))
    data = ["--input", "gen-data/sales.csv"]
    for setup, flags in TRAINS.items():
        outputs.update(_run(f"train/{setup}", "train", *data, *SMALL_RUN, *flags,
                            "--checkpoints", "{dir}/ckpt", "--records", "{dir}/records.jsonl"))
        outputs.update(_run(f"evaluate/{setup}", "evaluate", *data, *SMALL_RUN, *flags,
                            "--checkpoints", f"train/{setup}/ckpt", "--records", "{dir}/records.jsonl"))
    for axis, values in SWEEPS.items():
        for jobs in ("1", "2"):
            outputs.update(_run(f"sweep/{axis}/jobs{jobs}", "sweep", *data, *SMALL_RUN, "--axis", axis,
                                "--values", values, "--jobs", jobs, "--records", "{dir}/records.jsonl"))
    for method, flags in FILTERS.items():
        outputs.update(_run(f"filter/{method}", "filter", *data, "--item", "1", "--method", method,
                            *flags, "--out", "{dir}/window"))
    return outputs


def read_pinned() -> dict:
    outputs = {}
    for line in PINNED.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            run, output, value = line.split(" ", 2)
            outputs[(run, output)] = value
    return outputs


def write_pinned(outputs: dict) -> None:
    lines = ["# Pinned CLI outputs: run, output, SHA-256 or printed text.",
             "# Regenerate with: PYTHONPATH=src python tests/test_pinned_outputs.py"]
    lines += [f"{run} {output} {value}" for (run, output), value in outputs.items()]
    PINNED.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_cli_outputs_match_the_pinned_file(tmp_path, monkeypatch):
    pinned = read_pinned()
    made_with = {key: value for (run, key), value in pinned.items() if run == "versions"}
    assert made_with == versions(), (
        f"the pinned outputs were made with numpy {made_with.get('numpy')} and BLAS "
        f"{made_with.get('blas')}, but this is numpy {np.__version__} and BLAS {versions()['blas']}")
    monkeypatch.chdir(tmp_path)
    got = pinned_outputs()
    moved = [" ".join(key) for key in sorted(set(pinned) | set(got)) if pinned.get(key) != got.get(key)]
    assert not moved, "outputs that moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            outputs = pinned_outputs()
        finally:
            os.chdir(here)
    write_pinned(outputs)
    print(f"wrote {len(outputs)} pinned outputs to {PINNED}", file=sys.stderr)
