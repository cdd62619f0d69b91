"""Minimal reverse-mode autodiff on dense numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers the op that produced it as a
closure. ``backward()`` runs the tape once in reverse topological order and
then releases it; a second ``backward()`` on the same graph raises
``StaleGraphError``. Structured ops (convolutions, LSTM, instance norm) build
their nodes with :func:`make_node` and live in :mod:`fbse.layers`.

Two rules keep the sweep lean. A backward closure computes no gradient for a
parent that does not require one (a constant: no ``requires_grad`` and no
parents), and such a parent never gets a ``.grad``. The first gradient a
tensor receives becomes its ``.grad`` buffer without a copy; a closure that
hands on a buffer another tensor may also receive (the fan-out of ``add``,
the pieces of ``concat``) passes ``shared=True`` and the receiver copies it.
"""

import contextlib

import numpy as np

from .errors import ShapeMismatchError, StaleGraphError

_grad_enabled = [True]


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference paths)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


class Tensor:
    """ndarray plus optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_spent")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._spent = False

    def accumulate_grad(self, g, shared=False):
        """Add ``g`` into ``.grad``; the first write adopts ``g`` unless ``shared``."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=shared)
        else:
            self.grad += g

    def backward(self, grad=None):
        """Reverse-mode sweep from this node; releases the tape afterwards."""
        if self._spent:
            raise StaleGraphError("graph already consumed by a previous backward()")
        if self._backward_fn is None and not self.requires_grad:
            raise StaleGraphError("backward() on a tensor with no recorded graph")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)  # a copy: the sweep writes into it
            if grad.shape != self.data.shape:
                raise ShapeMismatchError(f"seed grad {grad.shape} vs value {self.data.shape}")
        order = _toposort(self)
        self.accumulate_grad(grad)
        for node in reversed(order):
            fn = node._backward_fn
            node._release()
            if fn is not None and node.grad is not None:
                fn(node.grad)
            if fn is not None and node is not self:  # an intermediate: its gradient is spent
                node.grad = None
        self._spent = True

    def _release(self):
        self._parents = ()
        self._backward_fn = None


def _toposort(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def grad_enabled() -> bool:
    return _grad_enabled[-1]


def recording(parents) -> bool:
    """Whether an op over ``parents`` goes on the tape."""
    return _grad_enabled[-1] and any(p.requires_grad or p._parents for p in parents)


def make_node(data, parents, backward_fn) -> Tensor:
    """Wrap an op result; drops the closure when no parent needs gradients."""
    if recording(parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        return out
    return Tensor(data)


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"{op}: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bw(g):
        a.accumulate_grad(g)
        b.accumulate_grad(g, shared=a.requires_grad)

    return make_node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bw(g):
        a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return make_node(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * b_data)
        if b.requires_grad:
            b.accumulate_grad(g * a_data)

    return make_node(a_data * b_data, (a, b), bw)


def logistic(x, out=None):
    """Sigmoid of an array as ``0.5*tanh(0.5*x) + 0.5``, in one buffer
    (``out`` may be ``x``): no overflow for any finite or infinite input."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = logistic(x.data)

    def bw(g):
        dx = np.subtract(1.0, y)
        dx *= y
        dx *= g
        x.accumulate_grad(dx)

    return make_node(y, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bw(g):
        dx = np.multiply(y, y)
        np.subtract(1.0, dx, out=dx)
        dx *= g
        x.accumulate_grad(dx)

    return make_node(y, (x,), bw)


def prelu_array(x, alpha):
    """``max(x,0) + alpha*min(x,0)``, ``alpha`` (C,) over x's leading axis (the last of ``x.T``)."""
    y = np.minimum(x, 0.0)
    np.multiply(y.T, alpha, out=y.T)
    y += np.maximum(x, 0.0)
    return y


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """Per-channel PReLU; alpha has shape (C,) matching x's leading axis."""
    xd = x.data

    def bw(g):  # branch-free: a select on the sign of x costs ~15x a multiply
        if alpha.requires_grad:  # sum of min(x, 0) * g per channel
            neg = np.minimum(xd, 0.0)
            neg *= g
            alpha.accumulate_grad(neg.reshape(xd.shape[0], -1).sum(axis=1))
        if x.requires_grad:  # g times 1 where x > 0, else slope
            slope = alpha.data.reshape((-1,) + (1,) * (xd.ndim - 1))
            dx = np.multiply(xd > 0, 1.0 - slope)
            dx += slope
            dx *= g
            x.accumulate_grad(dx)

    return make_node(prelu_array(xd, alpha.data), (x, alpha), bw)


def concat(parts, axis=0, data=None) -> Tensor:
    """``parts`` joined along ``axis``; pass ``data`` if the parts are views of it."""
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            p.accumulate_grad(piece, shared=True)

    if data is None:
        data = np.concatenate([p.data for p in parts], axis=axis)
    return make_node(data, tuple(parts), bw)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[idx] += g

    return make_node(x.data[idx].copy(), (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def bw(g):
        x.accumulate_grad(g.reshape(old))

    return make_node(x.data.reshape(shape).copy(), (x,), bw)


def moveaxis(x: Tensor, src: int, dst: int) -> Tensor:
    def bw(g):
        x.accumulate_grad(np.moveaxis(g, dst, src))

    return make_node(np.ascontiguousarray(np.moveaxis(x.data, src, dst)), (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        x.accumulate_grad(np.full_like(x.data, float(g)))

    return make_node(np.asarray(x.data.sum()), (x,), bw)


def square(x: Tensor) -> Tensor:
    xd = x.data

    def bw(g):
        dx = np.multiply(g, xd)
        dx *= 2.0
        x.accumulate_grad(dx)

    return make_node(xd * xd, (x,), bw)
