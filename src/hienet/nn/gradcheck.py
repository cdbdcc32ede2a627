"""Central finite-difference verification of backward rules.

``max_relative_error`` perturbs every entry of every checked tensor by
±step, rebuilds the scalar loss, and compares the numeric slope against the
gradient produced by ``backward()`` (densified when it is row-sparse).
Relative error uses max(|analytic|, |numeric|) as denominator; when both
are below ``tiny`` the comparison falls back to absolute error, since the
ratio of two rounding-noise values is meaningless.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


def max_relative_error(
    loss_fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    step: float = 1e-5,
    tiny: float = 1e-7,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst disagreement between backward() and central differences.

    ``loss_fn`` must rebuild the graph from the current tensor contents on
    every call (define-by-run), returning a scalar Tensor. With ``sample``
    set, at most that many entries per tensor are perturbed, chosen by
    ``rng``, which must then be given; this keeps whole-model checks
    affordable. Layer-level checks should leave it unset and sweep every
    entry.
    """
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [t.dense_grad().copy() for t in tensors]

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        if sample is not None and flat.size > sample:
            entries = rng.choice(flat.size, size=sample, replace=False)
        else:
            entries = range(flat.size)
        for i in entries:
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().data)
            flat[i] = orig - step
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = grad.reshape(-1)[i]
            denom = max(abs(a), abs(numeric))
            if denom < tiny:
                err = abs(a - numeric)
            else:
                err = abs(a - numeric) / denom
            worst = max(worst, err)
    return worst
