"""Network components: graph convolution, masked multi-head graph
attention, an LSTM cell and the MLP readouts.

All layers operate on batched inputs with a leading batch axis and are
differentiable through :mod:`fsstgnn.neural.autodiff`. Weights are
initialized uniformly in +/- sqrt(6 / (fan_in + fan_out)) from an
explicit rng so runs are reproducible.
"""

import numpy as np

from ..errors import ParameterError, ShapeError
from . import autodiff as ad
from .autodiff import Tensor

# Negative-side slope of the LeakyReLU on the GAT's attention logits.
LEAKY_SLOPE = 0.2

ACTIVATIONS = {
    "relu": ad.relu,
    "tanh": ad.tanh,
    "none": lambda t: t,
}


def resolve_activation(name: str):
    if name not in ACTIVATIONS:
        raise ParameterError(f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[name]


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _ensure_batched(values, ndim: int):
    """Promote an unbatched array/tensor to batch size 1."""
    t = ad.as_tensor(values)
    if t.values.ndim == ndim - 1:
        t = ad.reshape(t, (1,) + t.values.shape)
    if t.values.ndim != ndim:
        raise ShapeError(f"expected {ndim - 1}-D or {ndim}-D input, got shape {t.values.shape}")
    return t


class GcnLayer:
    """Graph convolution with an edge-weighted neighborhood sum.

    Node update: h'_i = act(sum_j w_ij * (h_j W)), where w is the graph
    weight matrix (correlation or precision entries, self-loops included).
    The weights enter the aggregation directly; no degree normalization
    is applied because correlation coefficients arrive already scaled.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "tanh", *, rng):
        self.in_dim = in_dim
        self._act = resolve_activation(activation)
        self.weight = Tensor(glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim), requires_grad=True)

    def forward(self, graph_weights, features) -> Tensor:
        feats = _ensure_batched(features, 3)
        weights = _ensure_batched(graph_weights, 3)
        if feats.values.shape[-1] != self.in_dim:
            raise ShapeError(f"feature width {feats.values.shape[-1]} != layer input dim {self.in_dim}")
        if weights.values.shape[-1] != weights.values.shape[-2] or weights.values.shape[-1] != feats.values.shape[-2]:
            raise ShapeError(
                f"graph weights {weights.values.shape} incompatible with features {feats.values.shape}"
            )
        return self._act(ad.matmul(weights, ad.matmul(feats, self.weight)))

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight}


class GatLayer:
    """Multi-head graph attention masked to each node's neighborhood: every
    j with a nonzero graph weight w_ij (negative ones included), plus i.

    Per head (``_heads``): e_ij = LeakyReLU(a^T [W h_i || W h_j]) with slope
    ``LEAKY_SLOPE`` on neighboring pairs only, rows softmax-normalized; the
    head outputs are averaged before the activation. Weight magnitudes
    never enter, so a boolean adjacency works as the graph too.
    """

    def __init__(self, in_dim: int, head_dim: int, heads: int = 4, activation: str = "tanh", *, rng):
        if heads < 1:
            raise ParameterError("GAT needs at least one attention head")
        self.in_dim = in_dim
        self.head_dim = head_dim
        self.heads = heads
        self._act = resolve_activation(activation)
        self.head_weights = [
            Tensor(glorot_uniform(rng, (in_dim, head_dim), in_dim, head_dim), requires_grad=True)
            for _ in range(heads)
        ]
        self.head_attn = [
            Tensor(glorot_uniform(rng, (2 * head_dim, 1), 2 * head_dim, 1), requires_grad=True)
            for _ in range(heads)
        ]

    def _heads(self, graphs, features) -> list[tuple[Tensor, Tensor]]:
        """Check the inputs; per head, the projected features and the attention."""
        feats = _ensure_batched(features, 3)
        mask = np.asarray(graphs) != 0
        if mask.ndim == 2:
            mask = mask[None, :, :]
        if mask.shape[-1] != mask.shape[-2] or mask.shape[-1] != feats.values.shape[-2]:
            raise ShapeError(f"graph {mask.shape} incompatible with features {feats.values.shape}")
        if feats.values.shape[-1] != self.in_dim:
            raise ShapeError(f"feature width {feats.values.shape[-1]} != layer input dim {self.in_dim}")
        diag = np.arange(mask.shape[-1])
        mask[..., diag, diag] = True

        heads = []
        for weight, attn in zip(self.head_weights, self.head_attn):
            projected = ad.matmul(feats, weight)                      # (B, N, D)
            src = ad.matmul(projected, attn[: self.head_dim])         # (B, N, 1)
            dst = ad.matmul(projected, attn[self.head_dim:])          # (B, N, 1)
            logits = ad.leaky_relu(ad.add(src, ad.swap_last(dst)), LEAKY_SLOPE)
            alpha = ad.masked_softmax(logits, mask)                   # rows sum to 1 on neighborhoods
            heads.append((projected, alpha))
        return heads

    def forward(self, graphs, features) -> Tensor:
        combined = None
        for projected, alpha in self._heads(graphs, features):
            head_out = ad.matmul(alpha, projected)
            combined = head_out if combined is None else ad.add(combined, head_out)
        return self._act(ad.mul(combined, 1.0 / self.heads))

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        params = {}
        for k in range(self.heads):
            params[f"head{k}.weight"] = self.head_weights[k]
            params[f"head{k}.attn"] = self.head_attn[k]
        return params


class LstmCell:
    """Single-layer LSTM over a (batch, time, features) sequence.

    Gate order in the fused weight matrices is input, forget, cell, output.
    The forget-gate bias starts at 1 so early training does not wipe the
    cell state. Returns the final hidden state, computed as one fused tape
    node (``autodiff.lstm_sequence``) that keeps its gates gate-major and
    runs hand-written backpropagation through time. The unfused reference
    it must match, and the earlier fused op it equals bit for bit at input
    width 1, live in ``tests/_oracles.py``. Every cell in a thread leases
    its buffers from that thread's ``LstmWorkspace`` (see ``lstm_sequence``).
    """

    def __init__(self, input_dim: int, hidden_dim: int, *, rng):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = Tensor(
            glorot_uniform(rng, (input_dim, 4 * hidden_dim), input_dim, hidden_dim),
            requires_grad=True,
        )
        self.w_hidden = Tensor(
            glorot_uniform(rng, (hidden_dim, 4 * hidden_dim), hidden_dim, hidden_dim),
            requires_grad=True,
        )
        bias = np.zeros((1, 4 * hidden_dim))
        bias[0, hidden_dim: 2 * hidden_dim] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, sequence) -> Tensor:
        seq = _ensure_batched(sequence, 3)
        _, steps, width = seq.values.shape
        if width != self.input_dim:
            raise ShapeError(f"sequence width {width} != LSTM input dim {self.input_dim}")
        if steps < 1:
            raise ShapeError("LSTM needs at least one time step")
        return ad.lstm_sequence(seq, self.w_input, self.w_hidden, self.bias)

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return {"w_input": self.w_input, "w_hidden": self.w_hidden, "bias": self.bias}


class NodeReadout:
    """Two-layer MLP producing one scalar per node from its temporal
    (batch, nodes, width) and spatial embeddings, concatenated."""

    def __init__(self, temporal_dim: int, spatial_dim: int, hidden_dim: int, *, rng):
        in_dim = temporal_dim + spatial_dim
        self.temporal_dim = temporal_dim
        self.spatial_dim = spatial_dim
        self.w1 = Tensor(glorot_uniform(rng, (in_dim, hidden_dim), in_dim, hidden_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros((1, hidden_dim)), requires_grad=True)
        self.w2 = Tensor(glorot_uniform(rng, (hidden_dim, 1), hidden_dim, 1), requires_grad=True)
        self.b2 = Tensor(np.zeros((1, 1)), requires_grad=True)

    def forward(self, temporal, spatial) -> Tensor:
        temporal = ad.as_tensor(temporal)
        spatial = _ensure_batched(spatial, 3)
        if temporal.values.shape[-1] != self.temporal_dim:
            raise ShapeError(f"temporal width {temporal.values.shape[-1]} != {self.temporal_dim}")
        if spatial.values.shape[-1] != self.spatial_dim:
            raise ShapeError(f"spatial width {spatial.values.shape[-1]} != {self.spatial_dim}")
        batch, n_nodes, _ = spatial.values.shape
        if temporal.values.shape[:-1] != (batch, n_nodes):
            raise ShapeError(
                f"temporal block {temporal.values.shape} does not match spatial {spatial.values.shape}"
            )
        joined = ad.concat([temporal, spatial], axis=-1)
        hidden = ad.relu(ad.add(ad.matmul(joined, self.w1), self.b1))
        out = ad.add(ad.matmul(hidden, self.w2), self.b2)      # (B, N, 1)
        return ad.reshape(out, (batch, n_nodes))

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


class DenseReadout:
    """Two-layer MLP from a shared embedding to one output per series.

    Used by the temporal-only baseline, which has no per-node branch.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, *, rng):
        self.in_dim = in_dim
        self.w1 = Tensor(glorot_uniform(rng, (in_dim, hidden_dim), in_dim, hidden_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros((1, hidden_dim)), requires_grad=True)
        self.w2 = Tensor(glorot_uniform(rng, (hidden_dim, out_dim), hidden_dim, out_dim), requires_grad=True)
        self.b2 = Tensor(np.zeros((1, out_dim)), requires_grad=True)

    def forward(self, embedding) -> Tensor:
        embedding = ad.as_tensor(embedding)
        if embedding.values.ndim == 1:
            embedding = ad.reshape(embedding, (1, -1))
        if embedding.values.shape[-1] != self.in_dim:
            raise ShapeError(f"embedding width {embedding.values.shape[-1]} != {self.in_dim}")
        hidden = ad.relu(ad.add(ad.matmul(embedding, self.w1), self.b1))
        return ad.add(ad.matmul(hidden, self.w2), self.b2)

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

