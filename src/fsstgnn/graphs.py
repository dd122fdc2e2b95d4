"""Graph objects consumed by the GNN: filtered (inverse) correlation
graphs plus the ones/zeros/identity benchmark graphs.

A graph is its symmetric edge-weight matrix: a zero off the diagonal is
a missing edge. Negative weights (anti-correlations, negative partial
correlations) pass through unchanged and count as edges. The GCN
convolves over the weights; the GAT attends over their nonzero pattern
plus every self-loop, so its softmaxes stay well-defined even on the
fully disconnected benchmarks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .filtering import FilterResult

GRAPH_KINDS = ("correlation", "inverse-correlation", "ones", "zeros", "identity")
BENCHMARK_KINDS = ("ones", "zeros", "identity")


def check_graphs(weights: np.ndarray, kind: str) -> None:
    """The FilteredGraph invariants, on one graph or a stack of them."""
    if np.max(np.abs(weights - weights.swapaxes(-1, -2)), initial=0.0) > 1e-12:
        raise ShapeError("graph weights must be symmetric")
    if kind not in GRAPH_KINDS:
        raise ParameterError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")


@dataclass(frozen=True)
class FilteredGraph:
    """Symmetric (n, n) edge-weight matrix over series nodes; its zeros
    off the diagonal are the missing edges."""

    n: int
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (self.n, self.n):
            raise ShapeError(f"graph weights must be {(self.n, self.n)}, got {weights.shape}")
        check_graphs(weights, self.kind)
        object.__setattr__(self, "weights", weights)


def from_filter_result(result: FilterResult, kind: str) -> FilteredGraph:
    """Turn a filter output into the graph of the requested kind.

    ``correlation`` uses the dense filtered correlation (diagonal 1);
    ``inverse-correlation`` uses the precision entries, whose zeros
    become missing edges.
    """
    if kind == "correlation":
        weights = result.correlation.entries.copy()
    elif kind == "inverse-correlation":
        weights = result.precision.entries.copy()
    else:
        raise ParameterError(f"filter results map to 'correlation' or 'inverse-correlation', not {kind!r}")
    return FilteredGraph(n=weights.shape[0], weights=weights, kind=kind)


def benchmark_graph(n: int, kind: str) -> FilteredGraph:
    """The ones / zeros / identity reference graphs.

    Zeros has no edge and zero weight everywhere, so convolution
    aggregates nothing while attention still sees each node's self-loop.
    """
    if n < 1:
        raise ParameterError(f"benchmark graph needs n >= 1, got {n}")
    if kind == "ones":
        weights = np.ones((n, n))
    elif kind == "zeros":
        weights = np.zeros((n, n))
    elif kind == "identity":
        weights = np.eye(n)
    else:
        raise ParameterError(f"unknown benchmark kind {kind!r}; expected one of {BENCHMARK_KINDS}")
    return FilteredGraph(n=n, weights=weights, kind=kind)
