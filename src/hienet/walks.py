"""Degree-biased random walks over a cascade graph.

Start nodes are drawn proportionally to smoothed out-degree,
P(v) = (deg+(v) + beta) / sum_w (deg+(w) + beta), and each step moves to an
out-neighbor u of the current node with probability proportional to
deg+(u) + beta. A walk that reaches a node without out-neighbors is padded
to full length. The walk count K and length N are fixed configuration
(defaults 10 and 10); dead ends pad rather than jump.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeGraph, GlobalSocialGraph
from .errors import GraphError

#: sentinel stored in place of a node once a walk has ended
PAD = None


@dataclass
class WalkBatch:
    """K fixed-length node sequences sampled from one cascade graph."""

    walks: list[list[str | None]]
    k: int
    n: int
    beta: float

    def to_index_matrix(self, global_graph: GlobalSocialGraph) -> tuple[np.ndarray, np.ndarray]:
        """(K, N) embedding-row indices plus a float mask (1 = real step).

        PAD steps map to embedding row 0, as do users missing from the
        global graph (possible only when scoring unseen corpora).
        """
        idx = np.zeros((self.k, self.n), dtype=np.int64)
        mask = np.zeros((self.k, self.n), dtype=np.float64)
        for i, walk in enumerate(self.walks):
            for j, node in enumerate(walk):
                if node is PAD:
                    break
                idx[i, j] = global_graph.embedding_index(node)
                mask[i, j] = 1.0
        return idx, mask


def start_distribution(graph: CascadeGraph, beta: float) -> np.ndarray:
    """Start probabilities aligned with graph.nodes; entries sum to 1."""
    if graph.num_nodes == 0:
        raise GraphError("cannot build a start distribution on an empty graph")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    weights = np.array([graph.out_degree(v) + beta for v in graph.nodes], dtype=np.float64)
    return weights / weights.sum()


def transition_distribution(graph: CascadeGraph, v: str, beta: float) -> tuple[list[str], np.ndarray]:
    """Out-neighbors of v with their transition probabilities (empty for leaves)."""
    if v not in graph.out_adj:
        raise GraphError(f"unknown node '{v}'")
    neighbors = graph.out_adj[v]
    if not neighbors:
        return [], np.zeros(0, dtype=np.float64)
    weights = np.array([graph.out_degree(u) + beta for u in neighbors], dtype=np.float64)
    return neighbors, weights / weights.sum()


def sample_walks(graph: CascadeGraph, k: int, n: int, beta: float, seed: int) -> WalkBatch:
    """Draw K walks of length N; deterministic for a given seed."""
    if k < 1 or n < 1:
        raise ValueError(f"k and n must be at least 1, got k={k} n={n}")
    start_probs = start_distribution(graph, beta)
    rng = np.random.default_rng(seed)
    transitions = {v: transition_distribution(graph, v, beta) for v in graph.nodes}
    walks: list[list[str | None]] = []
    for _ in range(k):
        node = graph.nodes[rng.choice(len(start_probs), p=start_probs)]
        walk: list[str | None] = [node]
        while len(walk) < n:
            neighbors, probs = transitions[node]
            if not neighbors:
                walk.extend([PAD] * (n - len(walk)))
                break
            node = neighbors[rng.choice(len(neighbors), p=probs)]
            walk.append(node)
        walks.append(walk)
    return WalkBatch(walks=walks, k=k, n=n, beta=beta)


def walk_seed(global_seed: int, message_id: str) -> int:
    """Stable per-cascade RNG seed, independent of corpus order."""
    digest = hashlib.sha256(f"{global_seed}:{message_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
