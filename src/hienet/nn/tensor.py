"""Reverse-mode autodiff on dense float64 numpy arrays.

Define-by-run: every op allocates a fresh ``Tensor`` holding the forward
value, the parent tensors, and a closure that routes an upstream gradient
into the parents. ``backward()`` walks nodes in descending creation order,
which is a valid topological order because an op's output is always
allocated after its inputs.

Conventions kept deliberately narrow so every backward rule stays obvious:
no implicit broadcasting between two Tensors (only the explicit ``add_bias``
/ ``scale_cols`` / ``mul_const`` forms), everything 2-D except the scalar
produced by ``mean_all``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import ShapeError, TrainingError

# when enabled, every op checks its forward output and raises TrainingError
# naming the first op that produced a NaN (used to re-run a diverged batch)
_NAN_TRACE = False


def set_nan_trace(enabled: bool) -> None:
    global _NAN_TRACE
    _NAN_TRACE = enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_id")

    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._id = next(Tensor._ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.shape}")
        # collect the subgraph feeding this node
        seen = {self._id}
        stack = [self]
        nodes = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            for p in node._parents:
                if p._id not in seen:
                    seen.add(p._id)
                    stack.append(p)
        nodes.sort(key=lambda n: n._id, reverse=True)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable tensor; the name keys checkpoints and Adam state."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _result(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    if _NAN_TRACE and np.isnan(data).any():
        raise TrainingError(f"op '{op}' produced NaN in its forward output")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _need_2d(op: str, *ts: Tensor) -> None:
    for t in ts:
        if t.data.ndim != 2:
            raise ShapeError(f"{op}: expected 2-D operands, got shape {t.shape}")


def _need_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _need_2d("matmul", a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _result(out_data, (a, b), backward, "matmul")


def sparse_matmul(mat: sp.spmatrix, t: Tensor) -> Tensor:
    """Constant sparse matrix times tensor; gradient flows to ``t`` only."""
    if mat.shape[1] != t.shape[0]:
        raise ShapeError(f"sparse_matmul: inner dims differ, {mat.shape} @ {t.shape}")
    mat = mat.tocsr()
    out_data = mat @ t.data

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(mat.T @ g)

    return _result(out_data, (t,), backward, "sparse_matmul")


def transpose(t: Tensor) -> Tensor:
    _need_2d("transpose", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g.T)

    return _result(t.data.T.copy(), (t,), backward, "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("add", a, b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _result(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("mul", a, b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _result(a.data * b.data, (a, b), backward, "mul")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """(n, d) + (1, d) row broadcast; bias grad sums over rows."""
    _need_2d("add_bias", x, b)
    if b.shape != (1, x.shape[1]):
        raise ShapeError(f"add_bias: bias {b.shape} does not fit rows of {x.shape}")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0, keepdims=True))

    return _result(x.data + b.data, (x, b), backward, "add_bias")


def scale_cols(x: Tensor, v: Tensor) -> Tensor:
    """(n, d) * (1, d) column-wise scaling (layer-norm gain etc.)."""
    _need_2d("scale_cols", x, v)
    if v.shape != (1, x.shape[1]):
        raise ShapeError(f"scale_cols: scale {v.shape} does not fit rows of {x.shape}")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(g * v.data)
        if v.requires_grad:
            v.accumulate((g * x.data).sum(axis=0, keepdims=True))

    return _result(x.data * v.data, (x, v), backward, "scale_cols")


def mul_const(t: Tensor, c) -> Tensor:
    """Elementwise product with a constant array broadcastable to t's shape."""
    c = np.asarray(c, dtype=np.float64)
    try:
        out_data = t.data * c
    except ValueError:
        raise ShapeError(f"mul_const: constant {c.shape} does not broadcast to {t.shape}") from None
    if out_data.shape != t.shape:
        raise ShapeError(f"mul_const: constant {c.shape} changes shape of {t.shape}")

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * c)

    return _result(out_data, (t,), backward, "mul_const")


def add_const(t: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    try:
        out_data = t.data + c
    except ValueError:
        raise ShapeError(f"add_const: constant {c.shape} does not broadcast to {t.shape}") from None
    if out_data.shape != t.shape:
        raise ShapeError(f"add_const: constant {c.shape} changes shape of {t.shape}")

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g)

    return _result(out_data, (t,), backward, "add_const")


def scale(t: Tensor, s: float) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * s)

    return _result(t.data * s, (t,), backward, "scale")


def concat(ts: Sequence[Tensor], axis: int) -> Tensor:
    if not ts:
        raise ShapeError("concat: empty input list")
    _need_2d("concat", *ts)
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> None:
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return _result(np.concatenate([t.data for t in ts], axis=axis), ts, backward, "concat")


def slice_rows(t: Tensor, start: int, stop: int) -> Tensor:
    _need_2d("slice_rows", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[start:stop] = g
            t.accumulate(full)

    return _result(t.data[start:stop].copy(), (t,), backward, "slice_rows")


def slice_cols(t: Tensor, start: int, stop: int) -> Tensor:
    _need_2d("slice_cols", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[:, start:stop] = g
            t.accumulate(full)

    return _result(t.data[:, start:stop].copy(), (t,), backward, "slice_cols")


def gather_rows(t: Tensor, idx) -> Tensor:
    """Row lookup (embedding / reordering); duplicate indices sum gradients."""
    _need_2d("gather_rows", t)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: index must be 1-D, got shape {idx.shape}")

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            full = np.zeros_like(t.data)
            np.add.at(full, idx, g)
            t.accumulate(full)

    return _result(t.data[idx], (t,), backward, "gather_rows")


def softmax_rows(t: Tensor) -> Tensor:
    _need_2d("softmax_rows", t)
    shifted = t.data - t.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _result(s, (t,), backward, "softmax_rows")


def sigmoid(t: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    out_data = np.where(
        t.data >= 0, 1.0 / (1.0 + np.exp(-t.data)), np.exp(t.data) / (1.0 + np.exp(t.data))
    )

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * out_data * (1.0 - out_data))

    return _result(out_data, (t,), backward, "sigmoid")


def tanh(t: Tensor) -> Tensor:
    out_data = np.tanh(t.data)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * (1.0 - out_data * out_data))

    return _result(out_data, (t,), backward, "tanh")


def relu(t: Tensor) -> Tensor:
    out_data = np.maximum(t.data, 0.0)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * (t.data > 0.0))

    return _result(out_data, (t,), backward, "relu")


def square(t: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * 2.0 * t.data)

    return _result(t.data * t.data, (t,), backward, "square")


def mean_all(t: Tensor) -> Tensor:
    n = t.data.size

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(np.full_like(t.data, float(g) / n))

    return _result(np.asarray(t.data.mean()), (t,), backward, "mean_all")


def layer_norm_rows(t: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row to mean 0 / variance 1 (no learned scale-shift here)."""
    _need_2d("layer_norm_rows", t)
    mu = t.data.mean(axis=1, keepdims=True)
    var = t.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (t.data - mu) * inv

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            g_mean = g.mean(axis=1, keepdims=True)
            gy_mean = (g * y).mean(axis=1, keepdims=True)
            t.accumulate(inv * (g - g_mean - y * gy_mean))

    return _result(y, (t,), backward, "layer_norm_rows")
