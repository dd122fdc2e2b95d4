"""Graphs consumed by the GNN: filtered (inverse) correlation graphs plus
the ones/zeros/identity benchmark graphs.

A graph is its symmetric (n, n) edge-weight array; a panel's graphs are
one (windows, n, n) stack. A zero off the diagonal is a missing edge;
negative weights (anti-correlations, negative partial correlations)
count as edges. The GCN convolves over the weights; the GAT attends over
their nonzero pattern plus every self-loop, so its softmaxes stay
well-defined even on the fully disconnected benchmarks.
"""

import numpy as np

from .errors import ParameterError
from .filtering import FilterResult

# Filtered graph kind -> the filter output it reads: the dense correlation
# (diagonal 1), or the precision, whose zeros become missing edges.
FILTERED_KINDS = {"correlation": "correlation", "inverse-correlation": "precision"}
BENCHMARK_KINDS = ("ones", "zeros", "identity")
GRAPH_KINDS = (*FILTERED_KINDS, *BENCHMARK_KINDS)


def from_filter_result(result: FilterResult, kind: str) -> np.ndarray:
    """The weights of the graph of a filtered kind: a copy of the filter
    output it reads, which the filter made symmetric."""
    if kind not in FILTERED_KINDS:
        raise ParameterError(f"filter results map to {tuple(FILTERED_KINDS)}, not {kind!r}")
    return getattr(result, FILTERED_KINDS[kind]).copy()


def benchmark_graph(n: int, kind: str) -> np.ndarray:
    """The weights of the ones / zeros / identity reference graphs.

    Zeros has no edge and zero weight everywhere, so convolution
    aggregates nothing while attention still sees each node's self-loop.
    """
    if n < 1:
        raise ParameterError(f"benchmark graph needs n >= 1, got {n}")
    if kind == "ones":
        return np.ones((n, n))
    if kind == "zeros":
        return np.zeros((n, n))
    if kind == "identity":
        return np.eye(n)
    raise ParameterError(f"unknown benchmark kind {kind!r}; expected one of {BENCHMARK_KINDS}")
