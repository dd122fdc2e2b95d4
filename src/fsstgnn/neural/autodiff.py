"""Reverse-mode automatic differentiation over dense numpy arrays.

Every op states its value and one local gradient per operand, and
``_node`` makes the tape node (only the fused ``lstm_sequence`` writes
its own backward). ``backward`` on a scalar loss runs one reverse
topological sweep, accumulates gradients into every tensor that
requires them and frees the tape, so a tape is swept once. Shapes
follow numpy broadcasting, including a leading batch dimension, so a
whole minibatch is one tape.

The tape is deterministic: node ids increase monotonically and the
sweep order depends only on graph structure, never on hashing or
threads. A tape is single-threaded; independent model instances own
independent tapes.
"""

import itertools
import mmap
import threading
import weakref

import numpy as np

from ..errors import ShapeError, TapeError

_node_counter = itertools.count()


class Tensor:
    """Value plus gradient container tracked on the computation tape; a node
    gets its parents and backward closure at construction (see ``_node``)."""

    __slots__ = ("values", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        self.values = np.asarray(values, dtype=float)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        # Leaf parameters carry an always-valid gradient buffer; interior
        # nodes allocate theirs during the backward sweep.
        self.grad = np.zeros_like(self.values) if (requires_grad and not _parents) else None
        self.node_id = next(_node_counter)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad}, node={self.node_id})"

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x) -> Tensor:
    """Wrap a numpy array or scalar as an untracked constant tensor."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    grad = _unbroadcast(grad, tensor.values.shape)
    if tensor.grad is None:
        # Copy unconditionally: ops may hand the same buffer to several
        # parents (x + x) and accumulation must never alias across nodes.
        tensor.grad = np.array(grad, dtype=float)
    else:
        tensor.grad += grad


def _node(values, parents, *local_grads) -> Tensor:
    """The tape node of one op: its ``values``, its ``parents`` and, per
    parent, the local gradient that maps the node's gradient to that parent's.

    On backward each parent that requires gradients, in order, accumulates
    its local gradient of the node's gradient, so ``x + x`` accumulates
    twice. A local gradient may read its operands' and its result's arrays
    but never the node itself: a node whose closure refers to the node is a
    reference cycle that outlives the tape until the gc runs.
    """
    def grad_fn(g):
        for parent, local_grad in zip(parents, local_grads):
            if parent.requires_grad:
                _accumulate(parent, local_grad(g))

    return Tensor(values, _parents=parents, _backward=grad_fn)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.values + b.values, (a, b), lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.values - b.values, (a, b), lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.values * b.values, (a, b), lambda g: g * b.values, lambda g: g * a.values)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.values / b.values, (a, b),
                 lambda g: g / b.values, lambda g: -g * a.values / (b.values ** 2))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.values.shape} @ {b.values.shape}")
    return _node(a.values @ b.values, (a, b),
                 lambda g: g @ np.swapaxes(b.values, -1, -2), lambda g: np.swapaxes(a.values, -1, -2) @ g)


def exp(a) -> Tensor:
    a = as_tensor(a)
    result = np.exp(a.values)
    return _node(result, (a,), lambda g: g * result)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    result = np.tanh(a.values)
    return _node(result, (a,), lambda g: g * (1.0 - result ** 2))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.maximum(a.values, 0.0), (a,), lambda g: g * (a.values > 0.0))


def leaky_relu(a, slope: float) -> Tensor:
    a = as_tensor(a)
    return _node(np.where(a.values > 0.0, a.values, slope * a.values), (a,),
                 lambda g: g * np.where(a.values > 0.0, 1.0, slope))


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    squeezed = axis is not None and not keepdims
    return _node(a.values.sum(axis=axis, keepdims=keepdims), (a,), lambda g: np.broadcast_to(
        np.expand_dims(g, axis) if squeezed else g, a.values.shape))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.values.size if axis is None else a.values.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def _slice_of(axis: int, start: int, stop: int):
    """The local gradient of one ``concat`` operand: its view of the output's."""
    def local_grad(g):
        index = [slice(None)] * g.ndim
        index[axis] = slice(start, stop)
        return g[tuple(index)]
    return local_grad


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    bounds = list(itertools.accumulate((t.values.shape[axis] for t in tensors), initial=0))
    return _node(np.concatenate([t.values for t in tensors], axis=axis), tensors,
                 *(_slice_of(axis, start, stop) for start, stop in zip(bounds, bounds[1:])))


def getitem(a, key) -> Tensor:
    """Basic (non-fancy) indexing with gradient scatter on backward."""
    a = as_tensor(a)

    def local_grad(g):
        buf = np.zeros_like(a.values)
        buf[key] += g
        return buf

    return _node(a.values[key], (a,), local_grad)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.values.reshape(shape), (a,), lambda g: g.reshape(a.values.shape))


def swap_last(a) -> Tensor:
    """Transpose the last two axes."""
    a = as_tensor(a)
    if a.values.ndim < 2:
        raise ShapeError("swap_last needs at least 2 dimensions")
    return _node(np.swapaxes(a.values, -1, -2), (a,), lambda g: np.swapaxes(g, -1, -2))


def masked_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis restricted to ``mask`` entries.

    Masked-out positions get probability exactly 0; each row must contain
    at least one masked-in entry. A masked-in logit is shifted by its row
    maximum and a masked-out one by itself, a detached constant that keeps
    exp from overflowing and leaves softmax gradients unchanged.
    """
    logits = as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    row_max = np.where(mask, logits.values, -np.inf).max(axis=-1, keepdims=True)
    if np.any(~np.isfinite(row_max)):
        raise ShapeError("masked_softmax saw a row with no unmasked entries")
    weights = mul(exp(sub(logits, np.where(mask, row_max, logits.values))), mask.astype(float))
    return div(weights, tensor_sum(weights, axis=-1, keepdims=True))


class _Lease(list):
    """The buffers of one ``lstm_sequence`` tape; its backward closure holds it."""


class LstmWorkspace(threading.local):
    """One flat float buffer per thread that successive ``lstm_sequence`` calls reuse.

    A call takes views of a prefix of its thread's buffer, or replaces it if
    too small, and keeps a weak reference to the call's lease. Until that
    lease dies (its tape backwarded, or dropped), later calls in the thread
    get buffers of their own. The buffer is a private anonymous map: a
    replaced one goes back to the system at once, and a forked process
    writes to copies of its pages.
    """

    def __init__(self):
        self._flat, self._lease = np.empty(0), lambda: None

    def lease(self, batch: int, steps: int, h_dim: int, width: int) -> _Lease:
        """Gates, cells, their tanh, three (B, 4H) buffers and the step rows."""
        shapes = ((steps, 4, batch, h_dim), (steps, batch, h_dim), (steps, batch, h_dim),
                  (batch, 4 * h_dim), (batch, 4 * h_dim), (batch, 4 * h_dim),
                  (steps, batch, h_dim + width + 1))
        offsets = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
        flat = self._flat if self._lease() is None else np.empty(offsets[-1])
        if flat.size < offsets[-1]:
            self._flat = None                       # free the old buffer before allocating
            self._flat = flat = np.frombuffer(mmap.mmap(-1, 8 * int(offsets[-1]), flags=mmap.MAP_PRIVATE), float)
        lease = _Lease(flat[a:b].reshape(shape) for a, b, shape in zip(offsets, offsets[1:], shapes))
        if flat is self._flat:
            self._lease = weakref.ref(lease)
        return lease


_WORKSPACE = LstmWorkspace()      # what every ``lstm_sequence`` leases from


def lstm_sequence(seq, w_input, w_hidden, bias) -> Tensor:
    """Final hidden state of an LSTM over a (B, T, F) sequence, as one tape node.

    ``w_input`` is (F, 4H), ``w_hidden`` (H, 4H) and ``bias`` (1, 4H) in gate
    order input, forget, cell, output; the state starts at zero and the
    caller checks shapes. Row block t of the saved (T, B, H + F + 1) ``rows``
    is ``[h_{t-1} | x_t | 1]``, so each step is one GEMM of it with
    ``[W_h; W_in; b]``. The gates are kept gate-major, as contiguous (B, H)
    blocks, with the cell state and its tanh. The backward runs
    backpropagation through time over them: each step's ``rows[t].T @ d_z``
    gives the gradients of all three weights at once. Values and gradients
    agree with the unfused tape and the earlier op that added a hoisted
    input projection (``tests/_oracles.py``) to rounding: within 1e-12 of
    each array's largest magnitude.

    The saved gates, cells, their tanh, rows and the three (B, 4H) buffers
    (pre-activation, scratch and the backward's ``d_z``) are views of the
    calling thread's ``_WORKSPACE`` while no live tape holds it, else of a
    new allocation, and the node's backward closure holds their lease.
    Every (B, H) array of both step loops is a slab of the (B, 4H) buffers
    or of ``rows``. The output is a fresh array; no value or gradient
    depends on where the buffers live.
    """
    seq, w_input, w_hidden, bias = (as_tensor(t) for t in (seq, w_input, w_hidden, bias))
    batch, steps, width = seq.values.shape
    h_dim = w_hidden.values.shape[0]
    # Saved gates are (T, 4, B, H) in the order input, forget, output, cell,
    # so the three sigmoid gates form one contiguous block.
    lease = _WORKSPACE.lease(batch, steps, h_dim, width)
    gates, cells, cells_tanh, z, _, _, rows = lease
    w_all = np.concatenate([w_hidden.values, w_input.values, bias.values])
    rows[0, :, :h_dim] = 0.0
    rows[:, :, h_dim:-1] = seq.values.swapaxes(0, 1)
    rows[:, :, -1] = 1.0
    z_gates = z.reshape(batch, 4, h_dim).transpose(1, 0, 2)    # z's column blocks
    # gate_in * gate_cell lives in a slab of z, once the gates are read from it
    product, cell, out = z.reshape(4, batch, h_dim)[0], cells[0], np.empty((batch, h_dim))
    cell[...] = 0.0
    for t in range(steps):
        np.matmul(rows[t], w_all, out=z)
        sigmoids, gate_cell = gates[t, :3], gates[t, 3]
        np.negative(z_gates[:2], out=sigmoids[:2])
        np.negative(z_gates[3], out=sigmoids[2])
        np.tanh(z_gates[2], out=gate_cell)
        np.exp(sigmoids, out=sigmoids)
        sigmoids += 1.0
        np.divide(1.0, sigmoids, out=sigmoids)
        gate_in, gate_forget, gate_out = sigmoids
        cell = np.multiply(gate_forget, cell, out=cells[t])
        cell += np.multiply(gate_in, gate_cell, out=product)
        hidden = rows[t + 1, :, :h_dim] if t + 1 < steps else out      # h_t, in the next step's row block
        np.multiply(gate_out, np.tanh(cell, out=cells_tanh[t]), out=hidden)

    def grad_fn(g):
        gates, cells, cells_tanh, z, scratch, d_z, rows = lease
        # Slabs of z and scratch, which the forward is done with.
        z_slabs, scratch_slabs = z.reshape(4, batch, h_dim), scratch.reshape(4, batch, h_dim)
        d_cell, ones_minus, products, d_next = z_slabs[0], z_slabs[1:], scratch_slabs[:3], scratch_slabs[3]
        one_minus, product = ones_minus[0], products[0]
        d_z_gates = d_z.reshape(batch, 4, h_dim).transpose(1, 0, 2)
        d_w, d_w_step = np.zeros_like(w_all), np.empty_like(w_all)
        d_seq = np.empty_like(seq.values) if seq.requires_grad else None
        d_hidden = g
        d_cell[...] = 0.0
        for t in reversed(range(steps)):
            gate_in, gate_forget, gate_out, gate_cell = gates[t]
            # d_cell += d_hidden * gate_out * (1 - tanh(c_t) ** 2)
            np.subtract(1.0, np.square(cells_tanh[t], out=one_minus), out=one_minus)
            d_cell += np.multiply(np.multiply(d_hidden, gate_out, out=product), one_minus, out=product)
            # the sigmoid gates' d_z = a * b * gate * (1 - gate), all three at once
            np.multiply(d_cell, gate_cell, out=products[0])
            if t:
                np.multiply(d_cell, cells[t - 1], out=products[1])
            else:
                products[1] = 0.0
            np.multiply(d_hidden, cells_tanh[t], out=products[2])
            products *= gates[t, :3]
            np.subtract(1.0, gates[t, :3], out=ones_minus)
            np.multiply(products[:2], ones_minus[:2], out=d_z_gates[:2])
            np.multiply(products[2], ones_minus[2], out=d_z_gates[3])
            # the cell gate's d_z = d_cell * gate_in * (1 - gate_cell ** 2)
            np.subtract(1.0, np.square(gate_cell, out=one_minus), out=one_minus)
            np.multiply(np.multiply(d_cell, gate_in, out=product), one_minus, out=d_z_gates[2])
            d_cell *= gate_forget
            d_w += np.matmul(rows[t].T, d_z, out=d_w_step)
            if d_seq is not None:
                d_seq[:, t, :] = d_z @ w_input.values.T
            if t:
                d_hidden = np.matmul(d_z, w_hidden.values.T, out=d_next)
        for tensor, grad in ((seq, d_seq), (w_hidden, d_w[:h_dim]), (w_input, d_w[h_dim:-1]), (bias, d_w[-1:])):
            if tensor.requires_grad:
                _accumulate(tensor, grad)

    return Tensor(out, _parents=(seq, w_input, w_hidden, bias), _backward=grad_fn)


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on.

    The sweep visits nodes in reverse topological order, which is
    deterministic for a fixed sequence of operations. Each node's parents
    and backward closure are dropped once it has run, so the intermediate
    buffers the closures saved are freed between training steps and an
    ``lstm_sequence`` node's workspace lease is released for the next
    forward; the tape cannot be swept again. Leaf gradients accumulate
    until the optimizer's ``zero_grad``.
    """
    if not isinstance(loss, Tensor):
        raise TapeError("backward requires a Tensor loss")
    if loss.values.size != 1:
        raise TapeError(f"backward requires a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        raise TapeError("backward on a detached tensor: nothing requires gradients")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node.node_id in visited:
            continue
        visited.add(node.node_id)
        stack.append((node, True))
        for parent in node._parents:
            if parent.node_id not in visited and parent.requires_grad:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node._parents = ()
            node._backward = None
