"""Growing sub-cascade snapshots with sinusoidal node-time features.

A cascade observed for ``window`` units unrolls into a nested sequence of
graphs: the first holds only the root, and every later one adds a single
retweet event (node plus its incoming edge). Long cascades are capped to
``m_max`` snapshots by keeping the first, the last, and uniformly spaced
intermediates, so the early growth phase is never dropped.

The GCN reads snapshot i as the sparse D^-1/2 (A + A^T + I) D^-1/2 of its
undirected tree (Kipf & Welling). With nodes in adoption order, it is the
first i rows and columns of the cascade's A + A^T + I, so all kept snapshots
come out as one block-diagonal sparse matrix in time linear in its 3i - 2
nonzeros per snapshot.

Node features are classic sinusoidal encodings of the event's *time bin*:
elapsed time is discretized into ``bins`` equal steps over the window and
the bin index is fed through sin/cos pairs at geometrically spaced
frequencies. The root sits in bin 0 by construction.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeGraph
from .nn.tensor import COO


def encoding_table(dim: int, bins: int) -> np.ndarray:
    """Row t = PE(t) for every bin, shape (bins, dim): pair d of PE(t) uses
    angle t / 10000^(2d/D), with sin at 2d and cos at 2d+1 (D = dim, even)."""
    half = np.arange(dim // 2, dtype=np.float64)
    steps = np.arange(bins, dtype=np.float64)[:, None]
    angles = steps / np.power(10000.0, 2.0 * half / dim)[None, :]
    out = np.empty((bins, dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def time_bin(elapsed: int, window: int, bins: int) -> int:
    """Uniform binning of [0, window) into ``bins`` steps; clipped at both ends."""
    b = (elapsed * bins) // window
    return min(max(int(b), 0), bins - 1)


def snapshot_indices(m: int, m_max: int) -> list[int]:
    """1-based indices of the snapshots kept after capping at ``m_max``.

    Uniform spacing with round-half-up, always containing 1 and m. A cap of
    one keeps only the final (largest) snapshot since first=last is
    impossible. m_max is at least 1, as ``TrainConfig`` checks.
    """
    if m <= m_max:
        return list(range(1, m + 1))
    if m_max == 1:
        return [m]
    step = (m - 1) / (m_max - 1)
    return [1 + int(j * step + 0.5) for j in range(m_max)]


def snapshot_feature_matrix(cascade: CascadeGraph, bins: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, node_bins) of the whole observed cascade, in adoption order.

    (rows, cols) are the (row, col)-sorted nonzeros of A + A^T + I, where
    A[i, j] = 1 for a diffusion edge i -> j: the GCN treats the cascade as
    undirected, so information also flows leaf -> root. node_bins[i] is
    node i's binned adoption time, the row of ``encoding_table`` that
    serves as its feature. Nodes sharing a bin share a feature row.
    """
    src, dst = np.array(cascade.edges, dtype=np.int64).reshape(-1, 2).T
    loops = np.arange(cascade.num_nodes)
    rows, cols = np.concatenate([src, dst, loops]), np.concatenate([dst, src, loops])
    order = np.lexsort((cols, rows))
    node_bins = np.array([time_bin(t, cascade.window, bins) for t in cascade.elapsed], dtype=np.int64)
    return rows[order], cols[order], node_bins


def build_snapshots(
    rows: np.ndarray, cols: np.ndarray, node_bins: np.ndarray, m_max: int
) -> tuple[COO, np.ndarray, np.ndarray]:
    """The capped snapshot sequence as (propagation, bins, pool weights).

    Every non-root node's one incoming edge comes from an earlier node, so
    snapshot i (the first i nodes and their edges) holds the entries with
    row and col below i; node j's degree there is its row count (self-loop,
    parent edge when j > 0, children below i). ``propagation`` stacks the
    kept snapshots' D^-1/2 (A + A^T + I) D^-1/2 block-diagonally, ``bins``
    their node time bins, and a node of snapshot j of m has pool weight
    1/(m * n_j), so one matmul takes the node mean, then the snapshot mean.
    """
    sizes = np.array(snapshot_indices(node_bins.size, m_max))
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    # an entry is in every kept snapshot that holds both of its nodes; nonzero
    # lists them snapshot by snapshot, each in (row, col) order, so rows never
    # decrease and fix the order sparse_matmul sums each row in
    snap, entry = np.nonzero(np.maximum(rows, cols)[None, :] < sizes[:, None])
    r, c = starts[snap] + rows[entry], starts[snap] + cols[entry]
    degree = np.bincount(r, minlength=total)
    inv_sqrt = 1.0 / np.sqrt(degree)
    propagation = COO(r.astype(np.int32), c.astype(np.int32), inv_sqrt[r] * inv_sqrt[c], (total, total))
    bins = node_bins[np.arange(total) - np.repeat(starts, sizes)]
    return propagation, bins, np.repeat(1.0 / (sizes.size * sizes), sizes)
