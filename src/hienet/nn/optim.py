"""Bias-corrected Adam over a flat parameter list."""

from __future__ import annotations

import numpy as np

from .tensor import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with the global step ``t`` in the bias correction.

    A parameter read by ``gather_rows`` (the ``Embedding`` tables, the (1, d)
    fusion tokens) gets a row-block gradient (``grad_rows`` set) and is
    updated lazily: only the touched rows' moments decay and only their
    weights move, so a step costs the rows a batch reads, not the vocabulary.
    From fresh moments the first step equals the dense update; later, an
    untouched row keeps its moments instead of decaying them (PyTorch
    ``SparseAdam``, TF-Addons ``LazyAdam``). A fusion token's one row is read
    on every step, so its lazy update is the dense one, bit for bit.
    ``lr`` is at least 0, as ``TrainConfig`` checks.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        # the moments of ``params[i]`` are ``m[i]`` and ``v[i]``
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = p.grad_rows = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, p_m, p_v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            # a row block's touched rows (copies, written back below), else views of the whole
            rows = slice(None) if p.grad_rows is None else p.grad_rows
            m = p_m[rows]
            v = p_v[rows]
            m *= BETA1
            m += (1.0 - BETA1) * p.grad
            v *= BETA2
            v += (1.0 - BETA2) * p.grad * p.grad
            p_m[rows] = m
            p_v[rows] = v
            p.data[rows] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
