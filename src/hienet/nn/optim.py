"""Bias-corrected Adam over a flat parameter list."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .tensor import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: list[Parameter], lr: float = 1e-4):
        if lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {lr}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in optimizer")
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p in self.params:
            if p.grad is None:
                continue
            m = self.m[p.name]
            v = self.v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * p.grad
            v *= BETA2
            v += (1.0 - BETA2) * p.grad * p.grad
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
