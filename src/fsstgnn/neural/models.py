"""Model assemblies: the spatial-temporal forecaster and the
temporal-only baseline.

Both consume standardized look-back windows of shape (batch, time,
series) and emit one prediction per series. The spatial-temporal
variant additionally takes per-window graphs and node features; the
baseline ignores graphs entirely.
"""

import numpy as np

from ..errors import ParameterError
from . import autodiff as ad
from .autodiff import Tensor
from .layers import DenseReadout, GatLayer, GcnLayer, LstmCell, NodeReadout, _batched

N_MOMENT_FEATURES = 4


def _prefixed(**modules) -> dict[str, Tensor]:
    """Each module's parameters, named ``<module>.<parameter>``, in order."""
    return {f"{prefix}.{name}": p for prefix, module in modules.items()
            for name, p in module.parameters().items()}


class SpatialTemporalModel:
    """Per-series LSTM + GNN over (graph, moments) + shared node readout.

    The temporal branch regresses every series individually: one LSTM
    with shared weights consumes each column of the look-back window as
    a univariate sequence, so cross-series information enters only
    through the spatial branch. No weight depends on ``n_series``.
    """

    def __init__(self, n_series: int, *, gnn: str, lstm_hidden: int = 32, embed_dim: int = 16,
                 gat_heads: int = 4, mlp_hidden: int = 32, activation: str = "tanh", rng):
        if gnn not in ("gcn", "gat"):
            raise ParameterError(f"unknown gnn kind {gnn!r}; expected 'gcn' or 'gat'")
        self.lstm = LstmCell(1, lstm_hidden, rng=rng)
        if gnn == "gcn":
            self.gnn = GcnLayer(N_MOMENT_FEATURES, embed_dim, activation, rng=rng)
        else:
            self.gnn = GatLayer(N_MOMENT_FEATURES, embed_dim, heads=gat_heads,
                                activation=activation, rng=rng)
        self.readout = NodeReadout(lstm_hidden, embed_dim, mlp_hidden, rng=rng)

    def forward(self, windows, graphs, features) -> Tensor:
        """Predict the next value of every series.

        windows: (B, T, N) standardized history; graphs: (B, N, N) edge
        weights, which the GCN convolves over and the GAT attends over
        the nonzero pattern of; features: (B, N, 4) standardized moments.
        """
        win = _batched(windows, 3)
        batch, steps, n = win.values.shape
        per_node = ad.reshape(ad.swap_last(win), (batch * n, steps, 1))
        temporal = ad.reshape(self.lstm(per_node), (batch, n, -1))
        return self.readout(temporal, self.gnn(graphs, features))

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return _prefixed(lstm=self.lstm, gnn=self.gnn, readout=self.readout)


class TemporalOnlyModel:
    """Plain LSTM baseline: no graphical or spatial information."""

    def __init__(self, n_series: int, *, lstm_hidden: int = 32, mlp_hidden: int = 32, rng):
        self.lstm = LstmCell(n_series, lstm_hidden, rng=rng)
        self.readout = DenseReadout(lstm_hidden, mlp_hidden, n_series, rng=rng)

    def forward(self, windows, graphs=None, features=None) -> Tensor:
        return self.readout(self.lstm(windows))

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return _prefixed(lstm=self.lstm, readout=self.readout)


def mse_loss(predictions: Tensor, targets) -> Tensor:
    """Mean squared error against a constant target array."""
    diff = ad.sub(predictions, np.asarray(targets, dtype=float))
    return ad.mean(ad.mul(diff, diff))


def set_parameters(model, values: dict[str, np.ndarray]) -> None:
    """Load named arrays into a model's parameters in place."""
    params = model.parameters()
    missing = set(params) - set(values)
    extra = set(values) - set(params)
    if missing or extra:
        raise ParameterError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, p in params.items():
        arr = np.asarray(values[name], dtype=float)
        if arr.shape != p.values.shape:
            raise ParameterError(f"parameter {name!r} shape {arr.shape} != {p.values.shape}")
        p.values[...] = arr


def snapshot_parameters(model) -> dict[str, np.ndarray]:
    return {name: p.values.copy() for name, p in model.parameters().items()}
