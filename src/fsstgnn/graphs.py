"""Graph objects consumed by the GNN: filtered (inverse) correlation
graphs plus the ones/zeros/identity benchmark graphs.

A FilteredGraph pairs an edge-weight matrix with a boolean mask. The
mask diagonal is always true so every node attends to itself, which
keeps attention softmaxes well-defined even on the fully disconnected
benchmarks. Negative weights (anti-correlations, negative partial
correlations) pass through unchanged and count as edges.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .filtering import FilterResult

GRAPH_KINDS = ("correlation", "inverse-correlation", "ones", "zeros", "identity")
BENCHMARK_KINDS = ("ones", "zeros", "identity")


def _check_graphs(weights: np.ndarray, mask: np.ndarray, kind: str) -> None:
    """The FilteredGraph invariants, on one graph or a stack of them."""
    if np.max(np.abs(weights - weights.swapaxes(-1, -2)), initial=0.0) > 1e-12:
        raise ShapeError("graph weights must be symmetric")
    if not np.array_equal(mask, mask.swapaxes(-1, -2)):
        raise ShapeError("graph mask must be symmetric")
    if not np.all(mask.diagonal(axis1=-2, axis2=-1)):
        raise ShapeError("graph mask diagonal must be true (self-loops are retained)")
    diag = np.arange(mask.shape[-1])
    off_violation = (~mask) & (weights != 0.0)
    off_violation[..., diag, diag] = False
    if np.any(off_violation):
        raise ShapeError("unmasked off-diagonal entries must have zero weight")
    if kind not in GRAPH_KINDS:
        raise ParameterError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")


@dataclass(frozen=True)
class FilteredGraph:
    """Weighted graph over series nodes with an explicit edge mask."""

    n: int
    weights: np.ndarray
    mask: np.ndarray
    kind: str

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if weights.shape != (self.n, self.n) or mask.shape != (self.n, self.n):
            raise ShapeError(f"graph arrays must be {(self.n, self.n)}, got {weights.shape} and {mask.shape}")
        _check_graphs(weights, mask, self.kind)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mask", mask)

    def n_offdiag_edges(self) -> int:
        """Count of masked off-diagonal entries (directed count)."""
        mask = self.mask.copy()
        np.fill_diagonal(mask, False)
        return int(mask.sum())


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
    return FilteredGraph(n=weights.shape[0], weights=weights, mask=edge_masks(weights, kind), kind=kind)


def edge_masks(weights: np.ndarray, kind: str) -> np.ndarray:
    """Edge masks of a (k, n, n) stack of filtered weights, checked as
    FilteredGraph checks one: zeros off the diagonal become missing
    edges, and every node keeps its self-loop."""
    mask = weights != 0.0
    diag = np.arange(weights.shape[-1])
    mask[..., diag, diag] = True
    _check_graphs(weights, mask, kind)
    return mask


def benchmark_graph(n: int, kind: str) -> FilteredGraph:
    """The ones / zeros / identity reference graphs.

    Zeros keeps only self-loop mask entries (with zero weight everywhere)
    so attention stays well-defined while convolution aggregates nothing.
    """
    if n < 1:
        raise ParameterError(f"benchmark graph needs n >= 1, got {n}")
    if kind == "ones":
        weights = np.ones((n, n))
        mask = np.ones((n, n), dtype=bool)
    elif kind == "zeros":
        weights = np.zeros((n, n))
        mask = np.eye(n, dtype=bool)
    elif kind == "identity":
        weights = np.eye(n)
        mask = np.eye(n, dtype=bool)
    else:
        raise ParameterError(f"unknown benchmark kind {kind!r}; expected one of {BENCHMARK_KINDS}")
    return FilteredGraph(n=n, weights=weights, mask=mask, kind=kind)

