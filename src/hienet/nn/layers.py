"""Model building blocks on top of the autodiff tensor.

Every layer is a ``Module`` that owns named ``Parameter``s (name prefix
passed at construction). ``Module.params()`` finds them among the layer's
attributes in assignment order, so the flat list the optimizer and
checkpoints use is declared once, in ``__init__``. Initialization draws
from the caller's ``numpy`` Generator, so construction order plus one seed
pins every weight and the checkpoint layout.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from .tensor import (
    Parameter,
    Tensor,
    add,
    add_bias,
    attention,
    layer_norm_rows,
    lstm_sequence,
    matmul,
    relu,
)


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], k: float) -> np.ndarray:
    return rng.uniform(-k, k, size=shape)


class Module:
    def params(self) -> list[Parameter]:
        """Parameters among the attributes, in assignment order: a
        ``Parameter`` as is, a ``Module`` expanded recursively and a list
        expanded one level; anything else is skipped."""
        out: list[Parameter] = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Parameter):
                    out.append(item)
                elif isinstance(item, Module):
                    out.extend(item.params())
        return out


class Linear(Module):
    def __init__(self, name: str, in_dim: int, out_dim: int, rng: np.random.Generator):
        k = 1.0 / math.sqrt(in_dim)
        self.w = Parameter(f"{name}.w", _uniform(rng, (in_dim, out_dim), k))
        self.b = Parameter(f"{name}.b", np.zeros((1, out_dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return add_bias(matmul(x, self.w), self.b)


class Embedding(Module):
    """A (vocab, dim) table read only by ``gather_rows``.

    Its gradient is therefore the rows a step touched, and ``Adam`` updates
    only those rows (lazy Adam), so a step's cost does not grow with the
    vocabulary.
    """

    def __init__(self, name: str, vocab: int, dim: int, rng: np.random.Generator):
        k = 1.0 / math.sqrt(dim)
        self.table = Parameter(f"{name}.table", _uniform(rng, (vocab, dim), k))


class LayerNorm(Module):
    """Row normalization with a learned gain (starts at 1) and shift (starts
    at 0), applied inside the one ``layer_norm_rows`` op."""

    def __init__(self, name: str, dim: int):
        self.gamma = Parameter(f"{name}.gamma", np.ones((1, dim)))
        self.beta = Parameter(f"{name}.beta", np.zeros((1, dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm_rows(x, self.gamma, self.beta)


class LSTM(Module):
    """One LSTM direction; gate columns ordered i, f, g, o.

    Weights and biases start uniform(-k, k) with k = 1/sqrt(hidden), then
    the forget-gate bias gets +1 so early training does not flush state.
    A call runs the whole packed batch through one ``lstm_sequence`` op.
    """

    def __init__(self, name: str, in_dim: int, hidden: int, rng: np.random.Generator):
        k = 1.0 / math.sqrt(hidden)
        self.wx = Parameter(f"{name}.wx", _uniform(rng, (in_dim, 4 * hidden), k))
        self.wh = Parameter(f"{name}.wh", _uniform(rng, (hidden, 4 * hidden), k))
        bias = _uniform(rng, (1, 4 * hidden), k)
        bias[0, hidden : 2 * hidden] += 1.0
        self.b = Parameter(f"{name}.b", bias)

    def __call__(self, x: Tensor, lengths, reverse: bool = False) -> Tensor:
        """(lengths.sum(), in) steps of B sequences, sequence after sequence ->
        (B, hidden) final states; see ``lstm_sequence``."""
        return lstm_sequence(x, lengths, self.wx, self.wh, self.b, reverse)


class TransformerEncoderLayer(Module):
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
        self.wq = Linear(f"{name}.wq", d_model, d_model, rng)
        self.wk = Linear(f"{name}.wk", d_model, d_model, rng)
        self.wv = Linear(f"{name}.wv", d_model, d_model, rng)
        self.wo = Linear(f"{name}.wo", d_model, d_model, rng)
        self.ln1 = LayerNorm(f"{name}.ln1", d_model)
        self.ff1 = Linear(f"{name}.ff1", d_model, ff_hidden, rng)
        self.ff2 = Linear(f"{name}.ff2", ff_hidden, d_model, rng)
        self.ln2 = LayerNorm(f"{name}.ln2", d_model)

    def __call__(self, x: Tensor, groups: int = 1) -> Tensor:
        """Rows of ``x`` form ``groups`` token-major sequences that attend only
        within themselves (see ``attention``)."""
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        attended = self.wo(attention(q, k, v, self.heads, groups))
        x = self.ln1(add(x, attended))
        ff = self.ff2(relu(self.ff1(x)))
        return self.ln2(add(x, ff))


class MLP(Module):
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
