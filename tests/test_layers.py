import weakref

import numpy as np
import pytest

from fsstgnn.errors import ContractError, ParameterError, RangeError, ShapeError
from fsstgnn.graphs import benchmark_graph
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

from _oracles import lstm_reference, make_panel, max_relative_error, numeric_grad


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestGcn:
    def test_identity_graph_is_linear_map(self):
        rng = np.random.default_rng(0)
        layer = GcnLayer(3, 2, activation="none", rng=rng)
        feats = rng.normal(size=(4, 3))
        graph = benchmark_graph(4, "identity")
        out = layer.forward(graph.weights, feats).values[0]
        assert np.abs(out - feats @ layer.weight.values).max() < 1e-12

    def test_zeros_graph_gives_zero_output(self):
        rng = np.random.default_rng(1)
        layer = GcnLayer(3, 2, activation="none", rng=rng)
        graph = benchmark_graph(4, "zeros")
        out = layer.forward(graph.weights, rng.normal(size=(4, 3))).values
        assert np.all(out == 0.0)

    def test_two_node_hand_example(self):
        layer = GcnLayer(2, 2, activation="none", weight=np.eye(2))
        weights = np.array([[1.0, 0.5], [0.5, 1.0]])
        feats = np.eye(2)
        out = layer.forward(weights, feats).values[0]
        assert np.abs(out - np.array([[1.0, 0.5], [0.5, 1.0]])).max() < 1e-12

    def test_linear_in_graph_weights(self):
        rng = np.random.default_rng(2)
        layer = GcnLayer(3, 2, activation="none", rng=rng)
        weights = np.abs(rng.normal(size=(5, 5)))
        weights = 0.5 * (weights + weights.T)
        feats = rng.normal(size=(5, 3))
        base = layer.forward(weights, feats).values
        scaled = layer.forward(4.0 * weights, feats).values
        assert np.abs(scaled - 4.0 * base).max() < 1e-10

    def test_dimension_mismatch(self):
        layer = GcnLayer(3, 2, rng=np.random.default_rng(3))
        with pytest.raises(ShapeError):
            layer.forward(np.eye(4), np.ones((4, 5)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        layer = GcnLayer(3, 2, rng=rng)
        weights = rng.normal(size=(5, 5))
        weights = 0.5 * (weights + weights.T)
        feats = rng.normal(size=(5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        base = layer.forward(weights, feats).values[0]
        permuted = layer.forward(weights[np.ix_(perm, perm)], feats[perm]).values[0]
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
        mask = np.eye(4, dtype=bool)
        feats = rng.normal(size=(4, 3))
        for alpha in layer.attention(mask, feats):
            assert np.abs(np.diagonal(alpha[0]) - 1.0).max() <= 1e-12
            off = alpha[0] - np.diag(np.diagonal(alpha[0]))
            assert np.all(off == 0.0)

    def test_equal_logits_give_uniform_attention(self):
        rng = np.random.default_rng(6)
        layer = GatLayer(3, 2, heads=1, activation="none", rng=rng)
        layer.head_attn[0].values[...] = 0.0       # all logits become 0
        mask = np.ones((3, 3), dtype=bool)
        alpha = layer.attention(mask, rng.normal(size=(3, 3)))[0][0]
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

        alpha = layer.attention(mask, feats)[0][0]
        out = layer.forward(mask, feats).values[0]
        assert np.abs(alpha - alpha_manual).max() < 1e-10
        assert np.abs(out - out_manual).max() < 1e-10

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        layer = GatLayer(4, 3, heads=3, rng=rng)
        mask = rng.random((6, 6)) < 0.4
        mask |= mask.T
        np.fill_diagonal(mask, True)
        for alpha in layer.attention(mask, rng.normal(size=(6, 4))):
            sums = alpha[0].sum(axis=-1)
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_output_ignores_edge_weight_magnitudes(self):
        # identical mask, rescaled weights: bit-identical output
        from fsstgnn.graphs import FilteredGraph

        rng = np.random.default_rng(9)
        layer = GatLayer(4, 3, heads=2, rng=rng)
        feats = rng.normal(size=(5, 4))
        mask = rng.random((5, 5)) < 0.5
        mask |= mask.T
        np.fill_diagonal(mask, True)
        weights = mask * rng.normal(size=(5, 5))
        weights = 0.5 * (weights + weights.T)
        weights[~mask] = 0.0
        graph_a = FilteredGraph(5, weights, mask, "correlation")
        graph_b = FilteredGraph(5, 17.5 * weights, mask, "correlation")
        out_a = layer.forward(graph_a.mask, feats).values
        out_b = layer.forward(graph_b.mask, feats).values
        assert np.array_equal(out_a, out_b)

    def test_isolated_node_rejected(self):
        layer = GatLayer(2, 2, heads=1, rng=np.random.default_rng(10))
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True              # node 2 has no neighbors
        with pytest.raises(ContractError):
            layer.forward(mask, np.ones((3, 2)))
        with pytest.raises(ContractError):
            layer.attention(mask, np.ones((3, 2)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        layer = GatLayer(3, 2, heads=2, rng=rng)
        mask = rng.random((5, 5)) < 0.5
        mask |= mask.T
        np.fill_diagonal(mask, True)
        feats = rng.normal(size=(5, 3))
        perm = np.array([4, 2, 0, 3, 1])
        base = layer.forward(mask, feats).values[0]
        permuted = layer.forward(mask[np.ix_(perm, perm)], feats[perm]).values[0]
        assert np.abs(permuted - base[perm]).max() < 1e-12

    def test_needs_at_least_one_head(self):
        with pytest.raises(ParameterError):
            GatLayer(2, 2, heads=0, rng=np.random.default_rng(12))


class TestLstm:
    def test_zero_weights_zero_input(self):
        cell = LstmCell(3, 4, rng=np.random.default_rng(13))
        for p in cell.parameters().values():
            p.values[...] = 0.0
        out = cell.forward(np.zeros((5, 3))).values
        assert np.all(out == 0.0)

    def test_single_step_matches_gated_cell(self):
        rng = np.random.default_rng(14)
        cell = LstmCell(2, 3, rng=rng)
        x = rng.normal(size=(1, 2))
        out = cell.forward(x).values[0]

        z = x[0] @ cell.w_input.values + cell.bias.values[0]
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
        out = cell.forward(seq).values[0]

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
            cell.forward(np.ones((4, 5)))


class TestFusedLstm:
    """The fused sequence op against the per-op tape it replaced, and its
    place on the tape."""

    def _run(self, cell, build, values, mix):
        for p in cell.parameters().values():
            p.zero_grad()
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

    def test_free_graph_drops_saved_buffers(self):
        rng = np.random.default_rng(52)
        cell = LstmCell(1, 3, rng=rng)
        values = rng.normal(size=(4, 6, 1))

        def saved_buffers(out):
            cells = out._backward.__closure__
            return [weakref.ref(c.cell_contents) for c in cells if isinstance(c.cell_contents, np.ndarray)]

        kept = cell.forward(values)
        kept_refs = saved_buffers(kept)
        ad.tensor_sum(kept).backward(free_graph=False)
        freed = cell.forward(values)
        freed_refs = saved_buffers(freed)
        ad.tensor_sum(freed).backward(free_graph=True)
        assert len(freed_refs) == 3                    # gates, cell states and their tanh
        assert all(ref() is not None for ref in kept_refs)
        assert freed._backward is None and freed._parents == ()
        assert all(ref() is None for ref in freed_refs)

class TestReadouts:
    def test_zero_weights_yield_bias(self):
        rng = np.random.default_rng(18)
        head = NodeReadout(3, 2, 4, rng=rng)
        for p in head.parameters().values():
            p.values[...] = 0.0
        head.b2.values[...] = 3.75
        out = head.forward(np.ones((1, 3)), np.ones((1, 5, 2))).values
        assert np.all(out == 3.75)

    def test_gradient_reaches_both_branches(self):
        rng = np.random.default_rng(19)
        head = NodeReadout(3, 2, 4, rng=rng)
        temporal = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
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

    def test_panel_wrapper_and_window_errors(self):
        panel = make_panel(np.arange(20.0).reshape(10, 2))
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
        feats = rng.normal(size=(4, 3))
        target = rng.normal(size=(1, 4, 2))
        worst = self._check_model(layer, lambda: mse_loss(layer.forward(weights, feats), target))
        assert worst < 1e-4

    def test_gat_layer_gradients(self):
        rng = np.random.default_rng(22)
        layer = GatLayer(3, 2, heads=2, activation="tanh", rng=rng)
        mask = np.ones((4, 4), dtype=bool)
        feats = rng.normal(size=(4, 3))
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
        temporal = rng.normal(size=(2, 3))
        spatial = rng.normal(size=(2, 5, 2))
        target = rng.normal(size=(2, 5))
        worst = self._check_model(head, lambda: mse_loss(head.forward(temporal, spatial), target))
        assert worst < 1e-4


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
                np.ones((2, 4, 4), dtype=bool),
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
        save_checkpoint(path, {"w": np.ones((2, 2))})
        assert path.read_text().splitlines()[0] == "fsstgnn-checkpoint 1"

    def test_bad_header_rejected(self, tmp_path):
        from fsstgnn.errors import ParseError

        path = tmp_path / "bad.ckpt"
        path.write_text("something-else 1\n0\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text, line", [
        ("fsstgnn-checkpoint one\n0\n", 1),
        ("fsstgnn-checkpoint 1\n1\nw two 2\n1.0 2.0\n", 3),
        ("fsstgnn-checkpoint 1\n1\nw 1 2.5\n1.0 2.0\n", 3),
        ("fsstgnn-checkpoint 1\n1\nw 2 -1 -1\n1.0\n", 3),
        ("fsstgnn-checkpoint 1\n2\na 1 1\n0.5\nw 1 2\n1.0 abc\n", 6),
        ("fsstgnn-checkpoint 1\n2\na 1 1\n0.5\n", 5),
        ("fsstgnn-checkpoint 1\n1\nw 1 2\n1.0 nan\n", 4),
        ("fsstgnn-checkpoint 1\n2\na 1 1\ninf\nw 1 1\n1.0\n", 4),
        ("fsstgnn-checkpoint 1\n2\na 1 1\n0.5\nw 1 2\n-inf 1.0\n", 6),
    ])
    def test_malformed_body_names_line(self, tmp_path, text, line):
        from fsstgnn.errors import ParseError

        path = tmp_path / "bad.ckpt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == line

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
