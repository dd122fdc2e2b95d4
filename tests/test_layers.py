import gc
import multiprocessing
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fsstgnn.errors import ParameterError, RangeError, ShapeError
from fsstgnn.graphs import benchmark_graph
from fsstgnn.linalg import TimeSeriesPanel
from fsstgnn.neural import (
    Adam,
    DenseReadout,
    GatLayer,
    GcnLayer,
    LstmCell,
    NodeReadout,
    Tensor,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    window_moments,
)
from fsstgnn.neural import autodiff as ad
from fsstgnn.neural.models import SpatialTemporalModel, TemporalOnlyModel, set_parameters

from _oracles import gat_attention, lstm_fused_reference, lstm_reference, max_relative_error, numeric_grad


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestGcn:
    def test_identity_graph_is_linear_map(self):
        rng = np.random.default_rng(0)
        layer = GcnLayer(3, 2, activation="none", rng=rng)
        feats = rng.normal(size=(4, 3))
        graph = benchmark_graph(4, "identity")
        out = layer.forward(graph[None], feats[None]).values[0]
        assert np.abs(out - feats @ layer.weight.values).max() < 1e-12

    def test_zeros_graph_gives_zero_output(self):
        rng = np.random.default_rng(1)
        layer = GcnLayer(3, 2, activation="none", rng=rng)
        graph = benchmark_graph(4, "zeros")
        out = layer.forward(graph[None], rng.normal(size=(1, 4, 3))).values
        assert np.all(out == 0.0)

    def test_two_node_hand_example(self):
        layer = GcnLayer(2, 2, activation="none", rng=np.random.default_rng(0))
        layer.weight.values[...] = np.eye(2)
        weights = np.array([[1.0, 0.5], [0.5, 1.0]])
        feats = np.eye(2)
        out = layer.forward(weights[None], feats[None]).values[0]
        assert np.abs(out - np.array([[1.0, 0.5], [0.5, 1.0]])).max() < 1e-12

    def test_linear_in_graph_weights(self):
        rng = np.random.default_rng(2)
        layer = GcnLayer(3, 2, activation="none", rng=rng)
        weights = np.abs(rng.normal(size=(5, 5)))
        weights = 0.5 * (weights + weights.T)
        feats = rng.normal(size=(1, 5, 3))
        base = layer.forward(weights[None], feats).values
        scaled = layer.forward(4.0 * weights[None], feats).values
        assert np.abs(scaled - 4.0 * base).max() < 1e-10

    def test_dimension_mismatch(self):
        layer = GcnLayer(3, 2, rng=np.random.default_rng(3))
        with pytest.raises(ShapeError):
            layer.forward(np.eye(4)[None], np.ones((1, 4, 5)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        layer = GcnLayer(3, 2, rng=rng)
        weights = rng.normal(size=(5, 5))
        weights = 0.5 * (weights + weights.T)
        feats = rng.normal(size=(5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        base = layer.forward(weights[None], feats[None]).values[0]
        permuted = layer.forward(weights[np.ix_(perm, perm)][None], feats[perm][None]).values[0]
        assert np.abs(permuted - base[perm]).max() < 1e-12


class TestGat:
    def _path_mask(self):
        mask = np.eye(3, dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        mask[1, 2] = mask[2, 1] = True
        return mask

    def test_self_loop_only_attention_is_one(self):
        rng = np.random.default_rng(5)
        layer = GatLayer(3, 2, heads=2, activation="none", rng=rng)
        mask = np.eye(4, dtype=bool)[None]
        feats = rng.normal(size=(1, 4, 3))
        for alpha in gat_attention(layer, mask, feats):
            assert np.abs(np.diagonal(alpha[0]) - 1.0).max() <= 1e-12
            off = alpha[0] - np.diag(np.diagonal(alpha[0]))
            assert np.all(off == 0.0)

    def test_equal_logits_give_uniform_attention(self):
        rng = np.random.default_rng(6)
        layer = GatLayer(3, 2, heads=1, activation="none", rng=rng)
        layer.head_attn[0].values[...] = 0.0       # all logits become 0
        mask = np.ones((1, 3, 3), dtype=bool)
        alpha = gat_attention(layer, mask, rng.normal(size=(1, 3, 3)))[0][0]
        assert np.abs(alpha - 1.0 / 3.0).max() < 1e-12

    def test_three_node_path_hand_computation(self):
        layer = GatLayer(2, 2, heads=1, activation="none", rng=np.random.default_rng(7))
        w = np.array([[0.3, -0.2], [0.5, 0.4]])
        a = np.array([[0.7], [-0.3], [0.2], [0.6]])
        layer.head_weights[0].values[...] = w
        layer.head_attn[0].values[...] = a
        feats = np.array([[1.0, 0.5], [-0.4, 0.2], [0.3, -0.8]])
        mask = self._path_mask()

        hw = feats @ w
        src = hw @ a[:2, 0]
        dst = hw @ a[2:, 0]
        logits = src[:, None] + dst[None, :]
        logits = np.where(logits > 0, logits, 0.2 * logits)
        expapation = np.where(mask, np.exp(logits), 0.0)
        alpha_manual = expapation / expapation.sum(axis=1, keepdims=True)
        out_manual = alpha_manual @ hw

        alpha = gat_attention(layer, mask[None], feats[None])[0][0]
        out = layer.forward(mask[None], feats[None]).values[0]
        assert np.abs(alpha - alpha_manual).max() < 1e-10
        assert np.abs(out - out_manual).max() < 1e-10

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        layer = GatLayer(4, 3, heads=3, rng=rng)
        mask = rng.random((6, 6)) < 0.4
        mask |= mask.T
        np.fill_diagonal(mask, True)
        for alpha in gat_attention(layer, mask[None], rng.normal(size=(1, 6, 4))):
            sums = alpha[0].sum(axis=-1)
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_output_ignores_edge_weight_magnitudes(self):
        # same nonzero pattern, rescaled weights: bit-identical output
        rng = np.random.default_rng(9)
        layer = GatLayer(4, 3, heads=2, rng=rng)
        feats = rng.normal(size=(1, 5, 4))
        mask = rng.random((5, 5)) < 0.5
        mask |= mask.T
        weights = mask * rng.normal(size=(5, 5))
        weights = 0.5 * (weights + weights.T)[None]
        out_a = layer.forward(weights, feats).values
        out_b = layer.forward(17.5 * weights, feats).values
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(out_a, layer.forward(weights != 0.0, feats).values)

    @pytest.mark.parametrize("weights", [
        np.zeros((3, 3)),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 0.4, 0.0]]),     # zero diagonal
    ], ids=["all-zero", "zero-diagonal"])
    def test_node_without_edges_attends_only_to_itself(self, weights):
        layer = GatLayer(2, 2, heads=2, activation="none", rng=np.random.default_rng(10))
        feats = np.random.default_rng(13).normal(size=(1, 3, 2))
        for alpha in gat_attention(layer, weights[None], feats):
            assert alpha[0, 0, 0] == 1.0 and np.all(alpha[0, 0, 1:] == 0.0)
            assert np.all(np.diagonal(alpha[0]) > 0.0)
        # node 0 has no edge, so its output is its own projection averaged over heads
        out = layer.forward(weights[None], feats).values[0, 0]
        own = np.mean([feats[0, 0] @ w.values for w in layer.head_weights], axis=0)
        assert np.abs(out - own).max() < 1e-12

    def test_negative_weights_are_edges(self):
        rng = np.random.default_rng(14)
        layer = GatLayer(3, 2, heads=2, rng=rng)
        feats = rng.normal(size=(1, 4, 3))
        weights = np.array([[[0.0, -0.3, 0.0, 0.2],
                             [-0.3, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, -1e-9],
                             [0.2, 0.0, -1e-9, 0.0]]])
        pattern = weights != 0.0
        np.fill_diagonal(pattern[0], True)
        for got, want in zip(gat_attention(layer, weights, feats), gat_attention(layer, pattern, feats)):
            assert np.array_equal(got, want)
            assert np.array_equal(got > 0.0, pattern)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        layer = GatLayer(3, 2, heads=2, rng=rng)
        mask = rng.random((5, 5)) < 0.5
        mask |= mask.T
        np.fill_diagonal(mask, True)
        feats = rng.normal(size=(5, 3))
        perm = np.array([4, 2, 0, 3, 1])
        base = layer.forward(mask[None], feats[None]).values[0]
        permuted = layer.forward(mask[np.ix_(perm, perm)][None], feats[perm][None]).values[0]
        assert np.abs(permuted - base[perm]).max() < 1e-12

    def test_needs_at_least_one_head(self):
        with pytest.raises(ParameterError):
            GatLayer(2, 2, heads=0, rng=np.random.default_rng(12))


class TestLstm:
    def test_zero_weights_zero_input(self):
        cell = LstmCell(3, 4, rng=np.random.default_rng(13))
        for p in cell.parameters().values():
            p.values[...] = 0.0
        out = cell.forward(np.zeros((1, 5, 3))).values
        assert np.all(out == 0.0)

    def test_single_step_matches_gated_cell(self):
        rng = np.random.default_rng(14)
        cell = LstmCell(2, 3, rng=rng)
        x = rng.normal(size=(1, 1, 2))
        out = cell.forward(x).values[0]

        z = x[0, 0] @ cell.w_input.values + cell.bias.values[0]
        h = 3
        gate_i = _sigmoid(z[:h])
        gate_f = _sigmoid(z[h:2 * h])
        gate_g = np.tanh(z[2 * h:3 * h])
        gate_o = _sigmoid(z[3 * h:])
        c = gate_i * gate_g
        expected = gate_o * np.tanh(c)
        assert np.abs(out - expected).max() < 1e-12

    def test_three_steps_match_unrolled_recomputation(self):
        rng = np.random.default_rng(15)
        cell = LstmCell(2, 3, rng=rng)
        seq = rng.normal(size=(3, 2))
        out = cell.forward(seq[None]).values[0]

        h_state = np.zeros(3)
        c_state = np.zeros(3)
        for t in range(3):
            z = seq[t] @ cell.w_input.values + h_state @ cell.w_hidden.values + cell.bias.values[0]
            gate_i = _sigmoid(z[:3])
            gate_f = _sigmoid(z[3:6])
            gate_g = np.tanh(z[6:9])
            gate_o = _sigmoid(z[9:])
            c_state = gate_f * c_state + gate_i * gate_g
            h_state = gate_o * np.tanh(c_state)
        assert np.abs(out - h_state).max() < 1e-10

    def test_gate_activations_bounded(self):
        rng = np.random.default_rng(16)
        cell = LstmCell(2, 3, rng=rng)
        hidden = cell.forward(rng.normal(size=(4, 6, 2)) * 10.0).values
        assert np.all(np.abs(hidden) < 1.0)         # |h| = |o * tanh(c)| < 1
        assert np.all(np.isfinite(hidden))

    def test_width_mismatch(self):
        cell = LstmCell(2, 3, rng=np.random.default_rng(17))
        with pytest.raises(ShapeError):
            cell.forward(np.ones((1, 4, 5)))


class TestFusedLstm:
    """The fused sequence op against the per-op tape it replaced, and its
    place on the tape."""

    def _run(self, cell, build, values, mix):
        self._zero_grads(cell)
        seq = Tensor(values, requires_grad=True)
        out = build(seq)
        ad.tensor_sum(ad.mul(out, mix)).backward()
        grads = {name: p.grad.copy() for name, p in cell.parameters().items()}
        grads["sequence"] = seq.grad
        return out.values, grads

    @pytest.mark.parametrize("batch, steps, width", [
        (6, 14, 1),     # one series per sequence, as SpatialTemporalModel runs it
        (4, 7, 5),      # every series in one sequence, as TemporalOnlyModel runs it
        (3, 1, 2),      # a single step
        (1, 9, 3),      # a batch of one
    ])
    def test_matches_reference(self, batch, steps, width):
        rng = np.random.default_rng(40 + batch)
        cell = LstmCell(width, 5, rng=rng)
        cell.bias.values[...] = rng.normal(size=cell.bias.values.shape)
        values = rng.normal(size=(batch, steps, width))
        mix = rng.normal(size=(batch, 5))
        fused, fused_grads = self._run(cell, cell.forward, values, mix)
        ref, ref_grads = self._run(cell, lambda seq: lstm_reference(cell, seq), values, mix)
        assert np.abs(fused - ref).max() <= 1e-10
        for name, grad in ref_grads.items():
            assert max_relative_error(fused_grads[name], grad) <= 1e-10, name

    def test_reused_output_accumulates(self):
        rng = np.random.default_rng(50)
        cell = LstmCell(2, 3, rng=rng)
        values = rng.normal(size=(4, 5, 2))
        ad.tensor_sum(cell.forward(values)).backward()
        once = {name: p.grad.copy() for name, p in cell.parameters().items()}
        out = cell.forward(values)
        ad.tensor_sum(ad.add(out, out)).backward()  # on top of the first pass's gradients
        for name, p in cell.parameters().items():
            assert np.array_equal(p.grad, once[name] + 2.0 * once[name]), name

    def test_constant_sequence_gets_no_grad(self):
        rng = np.random.default_rng(51)
        cell = LstmCell(1, 3, rng=rng)
        seq = Tensor(rng.normal(size=(4, 6, 1)))
        ad.tensor_sum(cell.forward(seq)).backward()
        assert seq.grad is None
        assert np.any(cell.w_input.grad != 0.0)

    @staticmethod
    def _lease(out):
        """The buffers that ``out``'s backward closure holds."""
        return next(c.cell_contents for c in out._backward.__closure__
                    if isinstance(c.cell_contents, ad._Lease))

    @staticmethod
    def _addresses(lease):
        return [buf.__array_interface__["data"][0] for buf in lease]

    def _grads(self, cell):
        return {name: p.grad.copy() for name, p in cell.parameters().items()}

    @staticmethod
    def _zero_grads(cell):
        for p in cell.parameters().values():
            p.grad[...] = 0.0

    def test_free_graph_releases_the_workspace(self):
        rng = np.random.default_rng(52)
        cell = LstmCell(1, 3, rng=rng)
        values = rng.normal(size=(4, 6, 1))
        first = cell.forward(values)
        lease = self._lease(first)
        addresses, lease = self._addresses(lease), weakref.ref(lease)
        ad.tensor_sum(first).backward()
        assert first._backward is None and first._parents == ()
        assert lease() is None
        second = cell.forward(values)
        assert self._addresses(self._lease(second)) == addresses
        del second                                     # dropped without a backward
        smaller = cell.forward(values[:3, :5])
        assert self._addresses(self._lease(smaller))[0] == addresses[0]
        assert all(np.shares_memory(buf, ad._WORKSPACE._flat) for buf in self._lease(smaller))

    def test_lease_is_the_saved_state_rows_and_three_step_buffers(self):
        # gates, cells and their tanh, the [h | x_t | 1] rows, and the
        # pre-activation, scratch and d_z buffers: no (B, T, 4H) buffer
        batch, steps, h_dim = 640, 14, 32
        cell = LstmCell(1, h_dim, rng=np.random.default_rng(60))
        lease = self._lease(cell.forward(np.zeros((batch, steps, 1))))
        assert sum(buf.size for buf in lease) == (4 * steps * batch * h_dim + 2 * steps * batch * h_dim
                                                  + steps * batch * (h_dim + 2) + 3 * batch * 4 * h_dim)

    def test_cells_share_the_thread_workspace(self):
        rng = np.random.default_rng(56)
        first, second = LstmCell(1, 3, rng=rng), LstmCell(1, 3, rng=rng)
        values = rng.normal(size=(4, 6, 1))
        addresses = self._addresses(self._lease(first.forward(values)))    # dropped at once
        kept = second.forward(values)
        assert self._addresses(self._lease(kept)) == addresses
        assert all(np.shares_memory(buf, ad._WORKSPACE._flat) for buf in self._lease(kept))
        moved = first.forward(values)                  # the workspace is still leased to ``kept``
        assert not any(np.shares_memory(buf, ad._WORKSPACE._flat) for buf in self._lease(moved))

    def test_each_thread_leases_its_own_workspace(self):
        rng = np.random.default_rng(57)
        cell = LstmCell(1, 3, rng=rng)
        values = rng.normal(size=(4, 6, 1))
        kept = cell.forward(values)                    # leases this thread's workspace

        def forward_in_thread():
            out = cell.forward(values)
            return self._lease(out), ad._WORKSPACE._flat, out.values

        with ThreadPoolExecutor(max_workers=1) as pool:
            lease, flat, there = pool.submit(forward_in_thread).result()
        assert all(np.shares_memory(buf, flat) for buf in lease)
        assert not np.shares_memory(flat, ad._WORKSPACE._flat)
        assert all(np.shares_memory(buf, ad._WORKSPACE._flat) for buf in self._lease(kept))
        assert np.array_equal(there, kept.values)

    def test_forked_training_leaves_a_kept_tape_alone(self):
        # The workspace is mapped private: a forked process that frees the
        # kept tape and trains the same cell on other data writes to copies
        # of its pages, not to the buffers the parent's tape still reads.
        rng = np.random.default_rng(58)
        cell = LstmCell(1, 4, rng=rng)
        values, other = rng.normal(size=(2, 5, 7, 1))
        mix = rng.normal(size=(5, 4))
        kept = cell.forward(values)
        assert all(np.shares_memory(buf, ad._WORKSPACE._flat) for buf in self._lease(kept))
        loss = ad.tensor_sum(ad.mul(kept, mix))

        def train_on_other():
            loss.backward()                            # releases the lease in the child
            for _ in range(3):
                ad.tensor_sum(ad.mul(cell.forward(other), mix)).backward()
                for p in cell.parameters().values():
                    p.values -= 0.1 * p.grad

        child = multiprocessing.get_context("fork").Process(target=train_on_other, daemon=True)
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        loss.backward()
        kept_grads = self._grads(cell)
        self._zero_grads(cell)
        ad.tensor_sum(ad.mul(cell.forward(values), mix)).backward()
        for name, grad in self._grads(cell).items():
            assert np.array_equal(kept_grads[name], grad), name

    def test_kept_tape_backwards_again_after_another_forward(self):
        rng = np.random.default_rng(53)
        cell = LstmCell(1, 4, rng=rng)
        values, other = rng.normal(size=(2, 5, 7, 1))
        mix = rng.normal(size=(5, 4))
        kept = cell.forward(values)
        moved = cell.forward(other)                    # the workspace is still leased to ``kept``
        assert not any(np.shares_memory(a, b) for a in self._lease(kept) for b in self._lease(moved))
        ad.tensor_sum(ad.mul(moved, mix)).backward()
        self._zero_grads(cell)
        ad.tensor_sum(ad.mul(kept, mix)).backward()
        kept_grads = self._grads(cell)
        self._zero_grads(cell)
        ad.tensor_sum(ad.mul(cell.forward(values), mix)).backward()
        for name, grad in self._grads(cell).items():
            assert np.array_equal(kept_grads[name], grad), name

    def test_two_forwards_before_one_backward(self):
        rng = np.random.default_rng(54)
        cell = LstmCell(1, 4, rng=rng)
        values = rng.normal(size=(2, 6, 9, 1))
        mixes = rng.normal(size=(2, 6, 4))
        alone = []
        for v, mix in zip(values, mixes):
            self._zero_grads(cell)
            seq = Tensor(v, requires_grad=True)
            out = cell.forward(seq)
            ad.tensor_sum(ad.mul(out, mix)).backward()
            alone.append((out.values, seq.grad, self._grads(cell)))
        self._zero_grads(cell)
        seqs = [Tensor(v, requires_grad=True) for v in values]
        outs = [cell.forward(seq) for seq in seqs]
        ad.add(*(ad.tensor_sum(ad.mul(out, mix)) for out, mix in zip(outs, mixes))).backward()
        for out, seq, (want_out, want_grad, _) in zip(outs, seqs, alone):
            assert np.array_equal(out.values, want_out)
            assert np.array_equal(seq.grad, want_grad)
        for name, grad in self._grads(cell).items():
            assert np.array_equal(grad, alone[0][2][name] + alone[1][2][name]), name

    @pytest.mark.parametrize("gnn", ["gcn", "gat", "lstm"])
    def test_dropped_forward_leaves_no_cycles(self, gnn):
        # a dropped forward, and a backwarded tape, free without the gc
        rng = np.random.default_rng(55)
        if gnn == "lstm":
            model = TemporalOnlyModel(5, lstm_hidden=4, mlp_hidden=4, rng=rng)
        else:
            model = SpatialTemporalModel(5, gnn=gnn, lstm_hidden=4, embed_dim=3, mlp_hidden=4, rng=rng)
        inputs = (rng.normal(size=(3, 14, 5)), np.broadcast_to(np.eye(5), (3, 5, 5)),
                  rng.normal(size=(3, 5, 4)))
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                model.forward(*inputs)
            assert gc.collect() == 0
            mse_loss(model.forward(*inputs), np.zeros((3, 5))).backward()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLstmAgainstHoistedOp:
    """The one-GEMM-per-step op against the op with the hoisted input
    projection that it replaced: every value and gradient within 1e-12 of
    the reference array's largest magnitude. The ``is_bitwise`` cases held
    bit for bit while the op added the input term itself; their names are
    kept so that their history stays readable."""

    NAMES = ("output", "sequence", "w_input", "w_hidden", "bias")

    @staticmethod
    def _outputs(op, cell, values, mix):
        params = {name: Tensor(p.values.copy(), requires_grad=True)
                  for name, p in cell.parameters().items()}
        seq = Tensor(values, requires_grad=True)
        out = op(seq, params["w_input"], params["w_hidden"], params["bias"])
        ad.tensor_sum(ad.mul(out, mix)).backward()
        return [out.values, seq.grad] + [p.grad for p in params.values()]

    def _compare(self, batch, steps, width, hidden, seed, op=ad.lstm_sequence):
        rng = np.random.default_rng(seed)
        cell = LstmCell(width, hidden, rng=rng)
        cell.bias.values[...] = rng.normal(size=cell.bias.values.shape)
        values = rng.normal(size=(batch, steps, width))
        mix = rng.normal(size=(batch, hidden))
        return (self._outputs(op, cell, values, mix),
                self._outputs(lstm_fused_reference, cell, values, mix))

    def _assert_close(self, fast, reference):
        for name, got, want in zip(self.NAMES, fast, reference):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("hidden", [5, 32])
    @pytest.mark.parametrize("steps", [1, 14])
    @pytest.mark.parametrize("batch", [1, 7, 64, 130, 640])
    def test_width_one_is_bitwise(self, batch, steps, hidden):
        self._assert_close(*self._compare(batch, steps, 1, hidden, seed=batch + steps + hidden))

    @pytest.mark.parametrize("hidden", [5, 32])
    @pytest.mark.parametrize("steps", [1, 14])
    @pytest.mark.parametrize("batch", [1, 7, 64, 130])
    def test_width_one_is_bitwise_on_prefix_views(self, batch, steps, hidden):
        # The thread's workspace after a larger batch, its tape dropped: every
        # buffer is a view of a prefix of its flat array, all but the first at
        # a non-zero offset. A fresh thread's first call maps a workspace of
        # its own, of just the size it needs.
        big = np.random.default_rng(0).normal(size=(batch + 3, steps + 1, 1))
        ad.lstm_sequence(big, np.ones((1, 4 * hidden)), np.ones((hidden, 4 * hidden)), np.ones((1, 4 * hidden)))
        flat = ad._WORKSPACE._flat

        def on_prefix_views(*args):
            out = ad.lstm_sequence(*args)
            assert ad._WORKSPACE._flat is flat
            assert all(np.shares_memory(buf, flat) for buf in TestFusedLstm._lease(out))
            return out

        seed = batch + steps + hidden
        fast, reference = self._compare(batch, steps, 1, hidden, seed=seed, op=on_prefix_views)
        self._assert_close(fast, reference)
        with ThreadPoolExecutor(max_workers=1) as pool:
            fresh, _ = pool.submit(self._compare, batch, steps, 1, hidden, seed).result()
        for name, got, want in zip(self.NAMES, fast, fresh):
            assert got.tobytes() == want.tobytes(), name

    def test_width_one_is_bitwise_with_signed_zeros(self):
        rng = np.random.default_rng(59)
        cell = LstmCell(1, 5, rng=rng)
        values = rng.choice([0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200], size=(64, 14, 1))
        mix = rng.normal(size=(64, 5))
        self._assert_close(self._outputs(ad.lstm_sequence, cell, values, mix),
                           self._outputs(lstm_fused_reference, cell, values, mix))

    @pytest.mark.parametrize("width", [2, 3, 5, 10])
    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_wider_inputs_agree_to_rounding(self, batch, width):
        fast, reference = self._compare(batch, 14, width, 5, seed=60 + batch + width)
        for name, got, want in zip(("output", "sequence", "w_input", "w_hidden", "bias"), fast, reference):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestReadouts:
    def test_zero_weights_yield_bias(self):
        rng = np.random.default_rng(18)
        head = NodeReadout(3, 2, 4, rng=rng)
        for p in head.parameters().values():
            p.values[...] = 0.0
        head.parameters()["b2"].values[...] = 3.75
        out = head.forward(np.ones((1, 5, 3)), np.ones((1, 5, 2))).values
        assert np.all(out == 3.75)

    def test_temporal_input_must_be_per_node(self):
        head = NodeReadout(3, 2, 4, rng=np.random.default_rng(18))
        for temporal in (np.ones((2, 3)), np.ones(3), np.ones((2, 4, 3))):
            with pytest.raises(ShapeError):
                head.forward(temporal, np.ones((2, 5, 2)))

    def test_gradient_reaches_both_branches(self):
        rng = np.random.default_rng(19)
        head = NodeReadout(3, 2, 4, rng=rng)
        temporal = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        spatial = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        loss = ad.tensor_sum(ad.mul(head.forward(temporal, spatial), rng.normal(size=(2, 4))))
        loss.backward()
        for branch in (temporal, spatial):
            assert branch.grad is not None
            assert np.any(branch.grad != 0.0)

    def test_dense_readout_shapes(self):
        head = DenseReadout(4, 5, 7, rng=np.random.default_rng(20))
        out = head.forward(np.ones((3, 4)))
        assert out.values.shape == (3, 7)
        with pytest.raises(ShapeError):
            head.forward(np.ones((3, 2)))


class TestMoments:
    def test_constant_window(self):
        rows = np.full((6, 2), 5.0)
        feats = window_moments(rows)
        assert np.array_equal(feats[0], [5.0, 0.0, 0.0, 0.0])

    def test_symmetric_series_has_zero_skew(self):
        rows = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
        assert abs(window_moments(rows)[0, 2]) < 1e-10

    def test_one_to_fourteen(self):
        rows = np.arange(1.0, 15.0).reshape(14, 1)
        feats = window_moments(rows)[0]
        assert feats[0] == pytest.approx(7.5)
        assert feats[1] == pytest.approx(np.sqrt(17.5))   # 4.1833...
        assert abs(feats[2]) < 1e-12

    def test_stack_equals_each_window(self):
        values = np.random.default_rng(21).normal(size=(30, 4)).cumsum(axis=0)
        values[:12, 1] = 2.0                # constant in the early windows
        windows = np.lib.stride_tricks.sliding_window_view(values, 7, axis=0).swapaxes(1, 2)
        stacked = window_moments(windows)
        assert stacked.shape == (24, 4, 4)
        for got, window in zip(stacked, windows):
            assert np.array_equal(got, window_moments(window))

    def test_panel_wrapper_and_window_errors(self):
        panel = TimeSeriesPanel(np.arange(20.0).reshape(10, 2))
        feats = window_moments(panel.window(0, 10))
        assert feats.shape == (2, 4)
        with pytest.raises(RangeError):
            window_moments(panel.window(3, 4))


class TestGradientChecks:
    def _check_model(self, model, forward):
        loss = forward()
        loss.backward()
        worst = 0.0
        for _name, p in model.parameters().items():
            numeric = numeric_grad(lambda: float(forward().values), p.values)
            worst = max(worst, max_relative_error(p.grad, numeric))
        return worst

    def test_gcn_layer_gradients(self):
        rng = np.random.default_rng(21)
        layer = GcnLayer(3, 2, activation="tanh", rng=rng)
        weights = rng.normal(size=(4, 4))
        weights = 0.5 * (weights + weights.T)
        feats = rng.normal(size=(1, 4, 3))
        target = rng.normal(size=(1, 4, 2))
        worst = self._check_model(layer, lambda: mse_loss(layer.forward(weights[None], feats), target))
        assert worst < 1e-4

    def test_gat_layer_gradients(self):
        rng = np.random.default_rng(22)
        layer = GatLayer(3, 2, heads=2, activation="tanh", rng=rng)
        mask = np.ones((1, 4, 4), dtype=bool)
        feats = rng.normal(size=(1, 4, 3))
        target = rng.normal(size=(1, 4, 2))
        worst = self._check_model(layer, lambda: mse_loss(layer.forward(mask, feats), target))
        assert worst < 1e-4

    def test_lstm_gradients(self):
        rng = np.random.default_rng(23)
        cell = LstmCell(3, 4, rng=rng)
        seq = rng.normal(size=(2, 5, 3))
        target = rng.normal(size=(2, 4))
        worst = self._check_model(cell, lambda: mse_loss(cell.forward(seq), target))
        assert worst < 1e-4

    def test_readout_gradients(self):
        rng = np.random.default_rng(24)
        head = NodeReadout(3, 2, 4, rng=rng)
        temporal = rng.normal(size=(2, 5, 3))
        spatial = rng.normal(size=(2, 5, 2))
        target = rng.normal(size=(2, 5))
        worst = self._check_model(head, lambda: mse_loss(head.forward(temporal, spatial), target))
        assert worst < 1e-4


def _model(kind, rng):
    """A small model over 4 series: the temporal-only one for ``lstm``, else
    the spatial-temporal one with that GNN."""
    if kind == "lstm":
        return TemporalOnlyModel(4, lstm_hidden=3, mlp_hidden=3, rng=rng)
    return SpatialTemporalModel(4, gnn=kind, lstm_hidden=3, embed_dim=2, mlp_hidden=3, rng=rng)


GRAPHS, FEATURES = np.broadcast_to(np.eye(4), (2, 4, 4)), np.ones((2, 4, 4))


class TestBatchAxis:
    """Every layer and model takes its inputs with one leading batch axis of
    the same size, and raises ShapeError on an input without it or on graphs
    and features of different batch sizes."""

    UNBATCHED_CALLS = {
        "gcn-graph": lambda rng: GcnLayer(3, 2, rng=rng).forward(np.eye(4), np.ones((1, 4, 3))),
        "gcn-features": lambda rng: GcnLayer(3, 2, rng=rng).forward(np.eye(4)[None], np.ones((4, 3))),
        "gat-graph": lambda rng: GatLayer(3, 2, rng=rng).forward(np.eye(4), np.ones((1, 4, 3))),
        "gat-features": lambda rng: GatLayer(3, 2, rng=rng).forward(np.eye(4)[None], np.ones((4, 3))),
        "lstm": lambda rng: LstmCell(3, 4, rng=rng).forward(np.ones((5, 3))),
        "node-readout": lambda rng: NodeReadout(3, 2, 4, rng=rng).forward(np.ones((1, 5, 3)), np.ones((5, 2))),
        "dense-readout": lambda rng: DenseReadout(4, 5, 7, rng=rng).forward(np.ones(4)),
        "gcn-model-graphs": lambda rng: _model("gcn", rng).forward(np.ones((2, 6, 4)), np.eye(4), FEATURES),
        "gat-model-graphs": lambda rng: _model("gat", rng).forward(np.ones((2, 6, 4)), np.eye(4), FEATURES),
        "gcn-model-features": lambda rng: _model("gcn", rng).forward(np.ones((2, 6, 4)), GRAPHS, np.ones((4, 4))),
        "gat-model-features": lambda rng: _model("gat", rng).forward(np.ones((2, 6, 4)), GRAPHS, np.ones((4, 4))),
    }

    MISMATCHED_BATCH_CALLS = {
        "gcn-batch": lambda rng: GcnLayer(3, 2, rng=rng).forward(GRAPHS, np.ones((3, 4, 3))),
        "gat-batch": lambda rng: GatLayer(3, 2, rng=rng).forward(GRAPHS, np.ones((3, 4, 3))),
    }

    @pytest.mark.parametrize("name", sorted(UNBATCHED_CALLS))
    def test_unbatched_input_is_a_shape_error(self, name):
        with pytest.raises(ShapeError):
            self.UNBATCHED_CALLS[name](np.random.default_rng(70))

    @pytest.mark.parametrize("name", sorted(MISMATCHED_BATCH_CALLS))
    def test_mismatched_batches_are_a_shape_error(self, name):
        with pytest.raises(ShapeError, match=r"\(2, 4, 4\).*\(3, 4, 3\)"):
            self.MISMATCHED_BATCH_CALLS[name](np.random.default_rng(72))

    @pytest.mark.parametrize("shape", [(6,), (6, 4), (1, 2, 6, 4)], ids=["1-D", "2-D", "4-D"])
    @pytest.mark.parametrize("kind", ["gcn", "gat", "lstm"])
    def test_models_take_only_3d_windows(self, kind, shape):
        model = _model(kind, np.random.default_rng(71))
        assert model.forward(np.ones((2, 6, 4)), GRAPHS, FEATURES).values.shape == (2, 4)
        with pytest.raises(ShapeError):
            model.forward(np.ones(shape), GRAPHS, FEATURES)


class TestDeterminism:
    def test_same_seed_same_forward_bits(self):
        def run():
            rng = np.random.default_rng(31)
            model = SpatialTemporalModel(4, gnn="gcn", lstm_hidden=5, embed_dim=3,
                                         mlp_hidden=6, rng=rng)
            data_rng = np.random.default_rng(32)
            out = model.forward(
                data_rng.normal(size=(2, 6, 4)),
                np.stack([np.eye(4)] * 2),
                data_rng.normal(size=(2, 4, 4)),
            )
            return out.values

        assert np.array_equal(run(), run())


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        opt.zero_grad()
        opt.step()
        assert np.array_equal(p.values, [1.0, -2.0])

    def test_constant_gradient_moves_against_sign(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.05)
        for _ in range(30):
            opt.zero_grad()
            p.grad[...] = np.array([1.0, -2.0])
            opt.step()
        assert p.values[0] < 0.0 < p.values[1]

    def test_quadratic_bowl_converges(self):
        p = Tensor(np.array([1.0, -1.0, 0.5]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        for _ in range(500):
            opt.zero_grad()
            p.grad[...] = 2.0 * p.values
            opt.step()
        assert np.abs(p.values).max() < 1e-3

    @pytest.mark.parametrize("kind", ["gcn", "gat", "lstm"])
    def test_every_parameter_is_a_leaf_with_a_gradient_buffer(self, kind):
        # Adam reads and zeroes every parameter's ``grad`` without a None check
        rng = np.random.default_rng(72)
        model = _model(kind, rng)

        def check():
            for name, p in model.parameters().items():
                assert type(p) is Tensor and p._parents == () and p._backward is None, name
                assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.values.shape, name

        check()
        opt = Adam(model.parameters(), lr=0.01)
        opt.zero_grad()
        mse_loss(model.forward(rng.normal(size=(2, 6, 4)), GRAPHS, FEATURES), rng.normal(size=(2, 4))).backward()
        opt.step()
        assert opt.step_count == 1
        check()

    def test_nan_gradient_raises(self):
        from fsstgnn.errors import NumericError

        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError) as err:
            opt.step()
        assert "p" in str(err.value)


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(25)
        model = TemporalOnlyModel(3, lstm_hidden=4, mlp_hidden=5, rng=rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.parameters())
        loaded = load_checkpoint(path)
        for name, p in model.parameters().items():
            assert np.array_equal(loaded[name], p.values)

    def test_versioned_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": Tensor(np.ones((2, 2)))}, "0123456789ab")
        assert path.read_text().splitlines()[0] == "fsstgnn-checkpoint 2 0123456789ab"

    def test_other_config_hash_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": Tensor(np.ones((2, 2)))}, "0123456789ab")
        assert np.array_equal(load_checkpoint(path, "0123456789ab")["w"], np.ones((2, 2)))
        with pytest.raises(ParameterError, match="0123456789ab.*ba9876543210"):
            load_checkpoint(path, "ba9876543210")

    def test_bad_header_rejected(self, tmp_path):
        from fsstgnn.errors import ParseError

        path = tmp_path / "bad.ckpt"
        path.write_text("something-else 1\n0\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text, line", [
        ("fsstgnn-checkpoint one\n0\n", 1),
        ("fsstgnn-checkpoint 2 -\n1\nw two 2\n1.0 2.0\n", 3),
        ("fsstgnn-checkpoint 2 -\n1\nw 1 2.5\n1.0 2.0\n", 3),
        ("fsstgnn-checkpoint 2 -\n1\nw 2 -1 -1\n1.0\n", 3),
        ("fsstgnn-checkpoint 2 -\n2\na 1 1\n0.5\nw 1 2\n1.0 abc\n", 6),
        ("fsstgnn-checkpoint 2 -\n2\na 1 1\n0.5\n", 5),
        ("fsstgnn-checkpoint 2 -\n1\nw 1 2\n1.0 nan\n", 4),
        ("fsstgnn-checkpoint 2 -\n2\na 1 1\ninf\nw 1 1\n1.0\n", 4),
        ("fsstgnn-checkpoint 2 -\n2\na 1 1\n0.5\nw 1 2\n-inf 1.0\n", 6),
        ("fsstgnn-checkpoint 2 -\n-2\n", 2),
        ("fsstgnn-checkpoint 2 -\n1\na 1 1\n0.5\nw 1 1\n1.0\n", 5),
        ("fsstgnn-checkpoint 2\n1\nw 1 1\n1.0\n", 1),
        ("fsstgnn-checkpoint 1\n1\nw 1 1\n1.0\n", 1),
        # a version-1 header is refused before a malformed body is read
        ("fsstgnn-checkpoint 1\n2\na 1 1\n0.5\n", 1),
        ("fsstgnn-checkpoint 1\n2\na 1 1\ninf\nw 1 1\n1.0\n", 1),
    ])
    def test_malformed_body_names_line(self, tmp_path, text, line):
        from fsstgnn.errors import ParseError

        path = tmp_path / "bad.ckpt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == line

    @pytest.mark.parametrize("values, message", [
        ("1.0 abc nan", "value of parameter 'w' must be a number, got 'abc'"),
        ("1.0 2.0 nan", "value of parameter 'w' must be finite, got 'nan'"),
        ("1.0 -inf abc", "value of parameter 'w' must be finite, got '-inf'"),
        ("1e999 2.0 3.0", "value of parameter 'w' must be finite, got '1e999'"),
        ("0x10 2.0 3.0", "value of parameter 'w' must be a number, got '0x10'"),
    ])
    def test_bad_value_names_its_first_token_and_line(self, tmp_path, values, message):
        from fsstgnn.errors import ParseError

        path = tmp_path / "bad.ckpt"
        path.write_text(f"fsstgnn-checkpoint 2 -\n2\na 1 1\n0.5\nw 1 3\n{values}\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert (str(err.value), err.value.line) == (f"line 6: {message}", 6)

    def test_set_parameters_into_model(self, tmp_path):
        rng = np.random.default_rng(26)
        model_a = TemporalOnlyModel(3, lstm_hidden=4, mlp_hidden=5, rng=rng)
        model_b = TemporalOnlyModel(3, lstm_hidden=4, mlp_hidden=5,
                                    rng=np.random.default_rng(27))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model_a.parameters())
        set_parameters(model_b, load_checkpoint(path))
        x = np.random.default_rng(28).normal(size=(2, 5, 3))
        assert np.array_equal(model_a.forward(x).values, model_b.forward(x).values)
