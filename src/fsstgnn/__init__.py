"""fsstgnn: correlation-filtered sparse graphs driving a spatial-temporal
GNN forecaster for multivariate sales series.

The package estimates (inverse) correlation matrices from look-back
windows, filters the windows of all panels as one stack by shrinkage,
graphical lasso or a greedy clique forest (or leaves them unfiltered),
turns the results into weighted graphs, and trains an
LSTM + GNN + MLP forecaster on top of a small reverse-mode autodiff
engine. A CLI exposes data synthesis, filter inspection, training,
evaluation and sweep reporting.
"""

from . import errors
from .data import SalesDataset, ingest_csv, synthesize_dataset
from .filtering import (
    ALPHA_GRID,
    LAMBDA_GRID,
    FilterConfig,
    FilterResult,
    apply_filter,
    glasso,
    mfcf,
    select_cv,
    sparsity,
)
from .graphs import benchmark_graph, from_filter_result
from .linalg import (
    CorrelationMatrix,
    TimeSeriesPanel,
    correlation_from_rows,
    invert_spd,
    is_positive_definite,
    symmetrize,
    write_matrix,
)
from .pipeline import (
    ExperimentConfig,
    MetricsReport,
    evaluate_experiment,
    format_table,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_GRID",
    "LAMBDA_GRID",
    "CorrelationMatrix",
    "ExperimentConfig",
    "FilterConfig",
    "FilterResult",
    "MetricsReport",
    "SalesDataset",
    "TimeSeriesPanel",
    "apply_filter",
    "benchmark_graph",
    "correlation_from_rows",
    "errors",
    "evaluate_experiment",
    "format_table",
    "from_filter_result",
    "glasso",
    "ingest_csv",
    "invert_spd",
    "is_positive_definite",
    "mfcf",
    "run_experiment",
    "select_cv",
    "sparsity",
    "sweep",
    "symmetrize",
    "synthesize_dataset",
    "write_matrix",
]
