"""Model building blocks on top of the autodiff tensor.

Every layer owns named ``Parameter``s (name prefix passed at construction)
and exposes ``params()`` so the model can assemble one flat registry for
the optimizer and checkpoints. Initialization draws from the caller's
``numpy`` Generator, so construction order plus one seed pins every weight.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigError, ShapeError
from .tensor import (
    Parameter,
    Tensor,
    add,
    add_bias,
    add_const,
    concat,
    constant,
    layer_norm_rows,
    matmul,
    mul,
    mul_const,
    relu,
    scale,
    scale_cols,
    sigmoid,
    slice_cols,
    softmax_rows,
    tanh,
    transpose,
)


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], k: float) -> np.ndarray:
    return rng.uniform(-k, k, size=shape)


class Linear:
    def __init__(self, name: str, in_dim: int, out_dim: int, rng: np.random.Generator):
        k = 1.0 / math.sqrt(in_dim)
        self.w = Parameter(f"{name}.w", _uniform(rng, (in_dim, out_dim), k))
        self.b = Parameter(f"{name}.b", np.zeros((1, out_dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return add_bias(matmul(x, self.w), self.b)

    def params(self) -> list[Parameter]:
        return [self.w, self.b]


class Embedding:
    def __init__(self, name: str, vocab: int, dim: int, rng: np.random.Generator):
        k = 1.0 / math.sqrt(dim)
        self.table = Parameter(f"{name}.table", _uniform(rng, (vocab, dim), k))

    def params(self) -> list[Parameter]:
        return [self.table]


class LayerNorm:
    def __init__(self, name: str, dim: int):
        self.gamma = Parameter(f"{name}.gamma", np.ones((1, dim)))
        self.beta = Parameter(f"{name}.beta", np.zeros((1, dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return add_bias(scale_cols(layer_norm_rows(x), self.gamma), self.beta)

    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class LSTM:
    """Single-direction LSTM cell; gate columns ordered i, f, g, o.

    Weights and biases start uniform(-k, k) with k = 1/sqrt(hidden), then
    the forget-gate bias gets +1 so early training does not flush state.
    """

    def __init__(self, name: str, in_dim: int, hidden: int, rng: np.random.Generator):
        k = 1.0 / math.sqrt(hidden)
        self.hidden = hidden
        self.wx = Parameter(f"{name}.wx", _uniform(rng, (in_dim, 4 * hidden), k))
        self.wh = Parameter(f"{name}.wh", _uniform(rng, (hidden, 4 * hidden), k))
        bias = _uniform(rng, (1, 4 * hidden), k)
        bias[0, hidden : 2 * hidden] += 1.0
        self.b = Parameter(f"{name}.b", bias)

    def zero_state(self, batch: int) -> tuple[Tensor, Tensor]:
        return constant(np.zeros((batch, self.hidden))), constant(np.zeros((batch, self.hidden)))

    def step(
        self, x: Tensor, h: Tensor, c: Tensor, mask_col: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        """One recurrence step; PAD rows (mask 0) carry the previous state."""
        hid = self.hidden
        z = add_bias(add(matmul(x, self.wx), matmul(h, self.wh)), self.b)
        gate_i = sigmoid(slice_cols(z, 0, hid))
        gate_f = sigmoid(slice_cols(z, hid, 2 * hid))
        gate_g = tanh(slice_cols(z, 2 * hid, 3 * hid))
        gate_o = sigmoid(slice_cols(z, 3 * hid, 4 * hid))
        c_new = add(mul(gate_f, c), mul(gate_i, gate_g))
        h_new = mul(gate_o, tanh(c_new))
        if mask_col is not None:
            keep = 1.0 - mask_col
            h_new = add(mul_const(h_new, mask_col), mul_const(h, keep))
            c_new = add(mul_const(c_new, mask_col), mul_const(c, keep))
        return h_new, c_new

    def params(self) -> list[Parameter]:
        return [self.wx, self.wh, self.b]


def bilstm_forward(
    steps: Sequence[Tensor], fwd: LSTM, bwd: LSTM, mask: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """Run both directions over ``steps`` (each (B, in)); returns the final
    (h_fwd, h_bwd).

    ``mask`` is (B, T) with 1 for real steps, 0 for PAD; masked steps copy
    state, so the final states equal the states at each row's last real
    step.
    """
    if len(steps) == 0:
        raise ShapeError("bilstm_forward: empty sequence")
    batch = steps[0].shape[0]
    n = len(steps)
    cols = [None] * n if mask is None else [mask[:, t : t + 1] for t in range(n)]

    h_f, c_f = fwd.zero_state(batch)
    for x, col in zip(steps, cols):
        h_f, c_f = fwd.step(x, h_f, c_f, col)

    h_b, c_b = bwd.zero_state(batch)
    for x, col in zip(reversed(steps), reversed(cols)):
        h_b, c_b = bwd.step(x, h_b, c_b, col)
    return h_f, h_b


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric-normalized propagation with self-loops: D^-1/2 (A+I) D^-1/2."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"normalize_adjacency: adjacency must be square, got {a.shape}")
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


class TransformerEncoderLayer:
    """Post-norm encoder block: self-attention + FFN, residuals, layer norms.

    No positional encodings are added here; token order therefore cannot
    influence the output.
    """

    def __init__(
        self, name: str, d_model: int, heads: int, ff_hidden: int, rng: np.random.Generator
    ):
        if d_model % heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by heads {heads}")
        self.heads = heads
        self.d_head = d_model // heads
        self.wq = Linear(f"{name}.wq", d_model, d_model, rng)
        self.wk = Linear(f"{name}.wk", d_model, d_model, rng)
        self.wv = Linear(f"{name}.wv", d_model, d_model, rng)
        self.wo = Linear(f"{name}.wo", d_model, d_model, rng)
        self.ln1 = LayerNorm(f"{name}.ln1", d_model)
        self.ff1 = Linear(f"{name}.ff1", d_model, ff_hidden, rng)
        self.ff2 = Linear(f"{name}.ff2", ff_hidden, d_model, rng)
        self.ln2 = LayerNorm(f"{name}.ln2", d_model)

    def __call__(self, x: Tensor, attn_mask: np.ndarray | None = None) -> Tensor:
        """``attn_mask`` is an additive (S, S) constant (use -1e30 to block)."""
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        head_outs = []
        for i in range(self.heads):
            lo, hi = i * self.d_head, (i + 1) * self.d_head
            qs, ks, vs = slice_cols(q, lo, hi), slice_cols(k, lo, hi), slice_cols(v, lo, hi)
            scores = scale(matmul(qs, transpose(ks)), 1.0 / math.sqrt(self.d_head))
            if attn_mask is not None:
                scores = add_const(scores, attn_mask)
            head_outs.append(matmul(softmax_rows(scores), vs))
        attended = self.wo(concat(head_outs, axis=1))
        x = self.ln1(add(x, attended))
        ff = self.ff2(relu(self.ff1(x)))
        return self.ln2(add(x, ff))

    def params(self) -> list[Parameter]:
        out = []
        for part in (self.wq, self.wk, self.wv, self.wo, self.ln1, self.ff1, self.ff2, self.ln2):
            out.extend(part.params())
        return out


class MLP:
    """Relu-activated stack ending in a linear scalar head.

    Hidden layers use a wider fan-in-scaled init plus a small positive bias
    so narrow heads do not start with rows where every relu is dead (which
    silences the gradient for those examples entirely).
    """

    def __init__(self, name: str, in_dim: int, hidden_sizes: Sequence[int], rng):
        if not hidden_sizes:
            raise ConfigError("MLP needs at least one hidden size")
        self.layers = []
        prev = in_dim
        for i, size in enumerate(hidden_sizes):
            layer = Linear(f"{name}.h{i}", prev, size, rng)
            layer.w.data = _uniform(rng, (prev, size), math.sqrt(6.0 / prev))
            layer.b.data[...] = 0.01
            self.layers.append(layer)
            prev = size
        self.out = Linear(f"{name}.out", prev, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = relu(layer(x))
        return self.out(x)

    def params(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.out.params())
        return out
