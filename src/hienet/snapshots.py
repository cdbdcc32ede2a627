"""Growing sub-cascade snapshots with sinusoidal node-time features.

A cascade observed for ``window`` units unrolls into a nested sequence of
graphs: the first holds only the root, and every later one adds a single
retweet event (node plus its incoming edge). Long cascades are capped to
``m_max`` snapshots by keeping the first, the last, and uniformly spaced
intermediates, so the early growth phase is never dropped.

Node features are classic sinusoidal encodings of the event's *time bin*:
elapsed time is discretized into ``bins`` equal steps over the window and
the bin index is fed through sin/cos pairs at geometrically spaced
frequencies. The root sits in bin 0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cascade import CascadeGraph
from .errors import ConfigError


@dataclass(frozen=True)
class TemporalEncoding:
    """Sinusoidal encoding config: ``dim`` output width, ``bins`` time steps."""

    dim: int
    bins: int

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ConfigError(f"encoding dim must be a positive even number, got {self.dim}")
        if self.bins < 1:
            raise ConfigError(f"time bins must be >= 1, got {self.bins}")


@dataclass
class Snapshot:
    """One prefix of the cascade: nodes in activation order plus their edges."""

    nodes: list[str]
    edges: list[tuple[str, str]]
    activation: dict[str, int]
    window: int


@dataclass
class SnapshotSequence:
    snapshots: list[Snapshot] = field(default_factory=list)
    # length of the uncapped sequence; > len(snapshots) iff the cap kicked in
    full_length: int = 0

    @property
    def m(self) -> int:
        return len(self.snapshots)


def temporal_positional_encoding(t: int, enc: TemporalEncoding) -> np.ndarray:
    """PE(t) with pair d using angle t / 10000^(2d/D); sin at 2d, cos at 2d+1."""
    if not 0 <= t < enc.bins:
        raise ValueError(f"time step {t} outside [0, {enc.bins})")
    half = np.arange(enc.dim // 2, dtype=np.float64)
    angles = t / np.power(10000.0, 2.0 * half / enc.dim)
    out = np.empty(enc.dim, dtype=np.float64)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)
    return out


def encoding_table(enc: TemporalEncoding) -> np.ndarray:
    """All encodings stacked, row t = PE(t); shape (bins, dim)."""
    half = np.arange(enc.dim // 2, dtype=np.float64)
    steps = np.arange(enc.bins, dtype=np.float64)[:, None]
    angles = steps / np.power(10000.0, 2.0 * half / enc.dim)[None, :]
    out = np.empty((enc.bins, enc.dim), dtype=np.float64)
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
    impossible.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if m <= m_max:
        return list(range(1, m + 1))
    if m_max == 1:
        return [m]
    step = (m - 1) / (m_max - 1)
    return [1 + int(j * step + 0.5) for j in range(m_max)]


def build_snapshots(cascade: CascadeGraph, enc: TemporalEncoding, m_max: int) -> SnapshotSequence:
    """Unroll one cascade into its capped snapshot sequence.

    ``cascade.nodes`` is already in activation order, so snapshot i is simply
    the first i nodes plus the incoming edge of every non-root member.
    """
    incoming = {dst: (src, dst) for src, dst, _ in cascade.edges}
    m = cascade.num_nodes
    seq = SnapshotSequence(full_length=m)
    for i in snapshot_indices(m, m_max):
        nodes = cascade.nodes[:i]
        edges = [incoming[u] for u in nodes[1:]]
        activation = {u: cascade.activation[u] for u in nodes}
        seq.snapshots.append(Snapshot(nodes, edges, activation, cascade.window))
    return seq


def snapshot_feature_matrix(
    snapshot: Snapshot, enc: TemporalEncoding
) -> tuple[np.ndarray, np.ndarray]:
    """(A, bins) in snapshot-local indexing (activation order).

    A[i, j] = 1 for a diffusion edge i -> j; bins[i] is node i's binned
    activation time, the row of ``encoding_table(enc)`` that serves as its
    feature. Nodes sharing a bin share a feature row.
    """
    n = len(snapshot.nodes)
    local = {u: i for i, u in enumerate(snapshot.nodes)}
    adjacency = np.zeros((n, n), dtype=np.float64)
    for src, dst in snapshot.edges:
        adjacency[local[src], local[dst]] = 1.0
    bins = np.array(
        [time_bin(snapshot.activation[u], snapshot.window, enc.bins) for u in snapshot.nodes],
        dtype=np.int64,
    )
    return adjacency, bins
