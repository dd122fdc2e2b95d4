import gc

import numpy as np
import pytest

from fsstgnn.errors import ShapeError, TapeError
from fsstgnn.neural import autodiff as ad
from fsstgnn.neural import mse_loss
from fsstgnn.neural.autodiff import Tensor

from _oracles import masked_softmax_reference, max_relative_error, mse_reference, numeric_grad, sigmoid


def _check_op(build, *shapes, seed=0, tol=1e-7):
    """Finite-difference check of an op combination over random inputs."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    mix = None

    def forward():
        nonlocal mix
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*tensors)
        if mix is None:
            mix = np.random.default_rng(seed + 1).normal(size=out.values.shape)
        return ad.tensor_sum(ad.mul(out, mix)), tensors

    loss, tensors = forward()
    loss.backward()
    for i, arr in enumerate(arrays):
        def loss_value(index=i):
            value, _ = forward()
            return float(value.values)

        numeric = numeric_grad(loss_value, arr)
        assert max_relative_error(tensors[i].grad, numeric) < tol, f"operand {i} of {build}"


class TestBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tensor_sum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_scalar_product_gradients(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        y = Tensor(np.array([[5.0]]), requires_grad=True)
        ad.tensor_sum(ad.mul(x, y)).backward()
        assert x.grad[0, 0] == 5.0
        assert y.grad[0, 0] == 3.0

    def test_reused_operand_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        ad.tensor_sum(ad.add(x, x)).backward()
        assert x.grad[0] == 2.0

    def test_backward_on_detached(self):
        x = Tensor(np.array([1.0]))
        with pytest.raises(TapeError):
            ad.backward(x)

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(TapeError):
            ad.backward(ad.mul(x, 2.0))

    def test_grad_shape_matches_values(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        ad.tensor_sum(ad.tanh(x)).backward()
        assert x.grad.shape == x.values.shape

    def test_constants_stay_untracked(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        const = np.full((2, 2), 3.0)
        out = ad.tensor_sum(ad.mul(x, const))
        out.backward()
        assert np.all(x.grad == 3.0)

    def test_deterministic_node_order(self):
        def run():
            x = Tensor(np.linspace(0.1, 0.9, 6).reshape(2, 3), requires_grad=True)
            y = ad.tensor_sum(ad.tanh(ad.matmul(x, x.values.T @ np.eye(2))))
            y.backward()
            return y.values.copy(), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)


class TestOpGradients:
    def test_add_broadcast(self):
        _check_op(lambda a, b: ad.add(a, b), (4, 3), (1, 3))

    def test_mul_broadcast(self):
        _check_op(lambda a, b: ad.mul(a, b), (2, 3, 4), (3, 4))

    def test_matmul_2d(self):
        _check_op(lambda a, b: ad.matmul(a, b), (3, 4), (4, 2))

    def test_matmul_batched(self):
        _check_op(lambda a, b: ad.matmul(a, b), (5, 3, 4), (4, 2))

    def test_matmul_batched_both(self):
        _check_op(lambda a, b: ad.matmul(a, b), (5, 3, 4), (5, 4, 2))

    def test_tanh(self):
        _check_op(ad.tanh, (3, 4))

    def test_sigmoid(self):
        _check_op(sigmoid, (3, 4))

    def test_relu(self):
        _check_op(ad.relu, (50,), seed=3)

    def test_leaky_relu(self):
        _check_op(lambda a: ad.leaky_relu(a, 0.2), (50,), seed=4)

    def test_concat(self):
        _check_op(lambda a, b: ad.concat([a, b], axis=-1), (2, 3), (2, 2))

    def test_concat_middle_axis_around_a_constant(self):
        const = Tensor(np.random.default_rng(9).normal(size=(2, 2, 3)))
        _check_op(lambda a, b: ad.concat([a, const, b], axis=1), (2, 3, 3), (2, 1, 3))
        assert const.grad is None

    def test_getitem(self):
        _check_op(lambda a: a[:, 1, :], (3, 4, 2))

    def test_reshape(self):
        _check_op(lambda a: ad.reshape(a, (6, 2)), (3, 4))

    def test_swap_last(self):
        _check_op(lambda a: ad.swap_last(a), (2, 3, 4))

    def test_masked_softmax(self):
        mask = np.array([[True, True, False], [True, True, True], [False, True, True]])
        _check_op(lambda a: ad.masked_softmax(a, np.broadcast_to(mask, (2, 3, 3))), (2, 3, 3))

    def test_mse_loss(self):
        targets = np.random.default_rng(8).normal(size=(3, 4))
        _check_op(lambda a: mse_loss(a, targets), (3, 4))


class TestMaskedSoftmax:
    def test_rows_sum_to_one_on_mask(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(4, 4)) * 5.0)
        mask = rng.random((4, 4)) < 0.6
        np.fill_diagonal(mask, True)
        out = ad.masked_softmax(logits, mask).values
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
        assert np.all(out[~mask] == 0.0)

    def test_large_masked_out_logit_leaves_its_row_finite(self):
        # the masked-out 1000 would overflow exp if shifted by the row's
        # masked-in maximum; pytest turns that overflow warning into an error
        logits = Tensor(np.array([[0.0, 1000.0], [0.0, 0.0]]), requires_grad=True)
        out = ad.masked_softmax(logits, np.array([[True, False], [True, True]]))
        assert out.values.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        ad.tensor_sum(ad.mul(out, np.array([[2.0, 3.0], [1.0, -1.0]]))).backward()
        assert logits.grad.tolist() == [[0.0, 0.0], [0.5, -0.5]]

    def test_empty_row_rejected(self):
        logits = Tensor(np.zeros((2, 2)))
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ShapeError):
            ad.masked_softmax(logits, mask)


class TestFusedNodes:
    """``masked_softmax`` and ``mse_loss`` are one node each on their input,
    with the values and gradients of the ops they replaced, to the bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_masked_softmax_matches_the_old_ops_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        batch, n = rng.integers(1, 5), rng.integers(1, 9)
        values = rng.normal(size=(batch, n, n)) * 4.0
        mask = rng.random((batch, n, n)) < 0.5
        mask[..., 0] = True
        mask[:, 0] = np.arange(n) == n - 1          # a row with one entry
        if n > 1:
            values[0, 0, 0] = 1000.0                # masked out, and larger than its row
        g = rng.normal(size=(batch, n, n))
        logits = Tensor(values, requires_grad=True)
        out = ad.masked_softmax(logits, mask)
        assert out._parents == (logits,)
        ad.tensor_sum(ad.mul(out, g)).backward()
        value, grad = masked_softmax_reference(values, mask, g)
        assert np.array_equal(out.values, value) and np.array_equal(logits.grad, grad)

    @pytest.mark.parametrize("seed", range(6))
    def test_mse_loss_matches_the_old_ops_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 7, size=rng.integers(1, 4)))
        values, targets = rng.normal(size=shape), rng.normal(size=shape)
        predictions = Tensor(values, requires_grad=True)
        loss = mse_loss(predictions, targets)
        assert loss._parents == (predictions,)
        loss.backward()
        value, grad = mse_reference(values, targets)
        assert np.array_equal(loss.values, value) and np.array_equal(predictions.grad, grad)


class TestShapes:
    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_matmul_inner_dim_checked(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


MASK = np.array([[True, True, False], [True, True, True], [False, True, True]])

# Every op of the tape, and ``mse_loss``: (build, operand shapes).
OPS = {
    "add": (ad.add, (2, 3), (2, 3)),
    "mul": (ad.mul, (2, 3), (2, 3)),
    "matmul": (ad.matmul, (2, 3, 4), (4, 2)),
    "tanh": (ad.tanh, (2, 3)),
    "relu": (ad.relu, (2, 3)),
    "leaky_relu": (lambda a: ad.leaky_relu(a, 0.2), (2, 3)),
    "tensor_sum": (ad.tensor_sum, (2, 3)),
    "concat": (lambda a, b: ad.concat([a, b], axis=0), (2, 3), (1, 3)),
    "getitem": (lambda a: a[:, 1:], (2, 3)),
    "reshape": (lambda a: ad.reshape(a, (3, 2)), (2, 3)),
    "swap_last": (ad.swap_last, (2, 3)),
    "masked_softmax": (lambda a: ad.masked_softmax(a, MASK), (3, 3)),
    "mse_loss": (lambda a: mse_loss(a, np.ones((2, 3))), (2, 3)),
}


class TestNoCycles:
    """No closure on the tape refers to its own node, so a tape is freed
    as soon as it is dropped, backwarded or not, without the gc."""

    @pytest.mark.parametrize("backwarded", [False, True], ids=["dropped", "backwarded"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_tape_leaves_no_cycles(self, name, backwarded):
        build, *shapes = OPS[name]
        rng = np.random.default_rng(20)
        gc.collect()
        gc.disable()
        try:
            operands = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
            out = build(*operands)
            if backwarded:
                ad.tensor_sum(out).backward()
                assert all(t.grad is not None for t in operands)
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()
