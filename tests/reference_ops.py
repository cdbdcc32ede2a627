"""Per-step autodiff ops that the test references are built from.

The model runs each LSTM direction as one ``lstm_sequence`` op and its
attention as one ``attention`` op. The tests compare both against the
per-step and per-head graphs composed from these elementwise ops, whose own
backward rules ``test_tensor.py`` checks against finite differences.
"""

import numpy as np

from hienet.errors import ShapeError
from hienet.nn.tensor import Tensor, _need_2d, _need_same_shape, _result


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("mul", a, b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _result(a.data * b.data, (a, b), backward, "mul")


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


def scale(t: Tensor, s: float) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * s)

    return _result(t.data * s, (t,), backward, "scale")


def transpose(t: Tensor) -> Tensor:
    _need_2d("transpose", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g.T)

    return _result(t.data.T.copy(), (t,), backward, "transpose")


def slice_cols(t: Tensor, start: int, stop: int) -> Tensor:
    _need_2d("slice_cols", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[:, start:stop] = g
            t.accumulate(full)

    return _result(t.data[:, start:stop].copy(), (t,), backward, "slice_cols")


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
