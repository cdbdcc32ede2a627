"""Degree-biased random walks over a cascade graph, drawn as node indices.

Start nodes are drawn proportionally to smoothed out-degree,
P(v) = (deg+(v) + beta) / sum_w (deg+(w) + beta), and each step moves to an
out-neighbor u of the current node with probability proportional to
deg+(u) + beta; K walks of length N (defaults 10 and 10). Each draw is the
one ``Generator.choice(n, p=p)`` makes: the next of K*N uniforms, searched
(right side) in cumsum(p) / cumsum(p)[-1], built when a walk first reaches
the node. A walk ends at a dead end, padded with PAD: the features drop it,
and it stays for the benchmark's trace, which counts it (``walks.pad_frac``).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeGraph

#: sentinel stored in place of a node once a walk has ended
PAD = None


@dataclass
class WalkBatch:
    """K fixed-length node-index sequences sampled from one cascade graph."""

    walks: list[list[int | None]]

    def to_index_matrix(self, rows: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Embedding rows of each distinct walk's real steps (its prefix
        before PAD), their step counts, and the (K,) distinct-walk position
        of each sampled walk, given node i's embedding row ``rows[i]``.

        Two walks are the same when their row sequences are; distinct walks
        keep their first-sampled order, walk i's rows following those of
        walks < i. Users the global graph lacks (possible only when scoring
        unseen corpora) share row 0, so their walks may collapse into one.
        """
        position: dict[tuple[int, ...], int] = {}
        walk_of = np.empty(len(self.walks), dtype=np.int64)
        for i, walk in enumerate(self.walks):
            steps = []
            for node in walk:
                if node is PAD:
                    break
                steps.append(rows[node])
            walk_of[i] = position.setdefault(tuple(steps), len(position))
        lengths = np.array([len(walk) for walk in position], dtype=np.int64)
        idx = np.array([row for walk in position for row in walk], dtype=np.int64)
        return idx, lengths, walk_of


def start_distribution(graph: CascadeGraph, beta: float) -> np.ndarray:
    """Start probabilities aligned with graph.nodes; entries sum to 1. The graph
    holds at least its root, and beta > 0, as ``TrainConfig`` checks."""
    weights = np.array([len(kids) + beta for kids in graph.children], dtype=np.float64)
    return weights / weights.sum()


def transition_distribution(graph: CascadeGraph, v: int, beta: float) -> tuple[list[int], np.ndarray]:
    """Out-neighbors of node v with their transition probabilities (empty for leaves)."""
    neighbors = graph.children[v]
    weights = np.array([len(graph.children[u]) + beta for u in neighbors], dtype=np.float64)
    return neighbors, weights / weights.sum()


def _cdf(probs: np.ndarray) -> list[float]:
    cdf = np.cumsum(probs)
    return (cdf / cdf[-1]).tolist() if cdf.size else []


def sample_walks(graph: CascadeGraph, k: int, n: int, beta: float, seed: int) -> WalkBatch:
    """Draw K walks of length N; deterministic for a given seed. k and n are at
    least 1 and beta > 0, as ``TrainConfig`` checks."""
    start = _cdf(start_distribution(graph, beta))
    uniforms = iter(np.random.default_rng(seed).random(k * n).tolist())
    steps: list = [None] * graph.num_nodes  # (out-neighbors, cdf) of each node reached
    walks: list[list[int | None]] = []
    for _ in range(k):
        walk: list[int | None] = [bisect_right(start, next(uniforms))]
        while len(walk) < n:
            node = walk[-1]
            if steps[node] is None:
                neighbors, probs = transition_distribution(graph, node, beta)
                steps[node] = neighbors, _cdf(probs)
            neighbors, cdf = steps[node]
            if not neighbors:
                walk.extend([PAD] * (n - len(walk)))
                break
            walk.append(neighbors[bisect_right(cdf, next(uniforms))])
        walks.append(walk)
    return WalkBatch(walks)


def walk_seed(global_seed: int, message_id: str) -> int:
    """Stable per-cascade RNG seed, independent of corpus order."""
    digest = hashlib.sha256(f"{global_seed}:{message_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
