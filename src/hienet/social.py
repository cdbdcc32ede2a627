"""Path-aware user features from shortest correlation paths.

For a pair of users (u, v), the shortest correlation path on the global
social graph is the minimum-hop path u = w_0 -> ... -> w_n = v, ties broken
toward the smallest next-user index. A user's path-aware representation is
the geometric-weighted average of the embeddings along that path,

    E_u = (1 - alpha) / (1 - alpha^(n+1)) * sum_i alpha^i * g_{w_i},

whose coefficients are positive and sum to one. The per-cascade social
feature averages both endpoints of the earliest observed diffusion pairs;
because every representation is a convex combination of user embeddings,
the whole aggregate reduces to a single weight vector over the user
vocabulary (applied to the embedding table by the model).

No user id is read here: pairs are cascade node indices, each node's
embedding row comes from ``featurize`` (row 0, an unknown user, skips the
pair), and paths hold global-graph indices, one less than the rows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeGraph, GlobalSocialGraph
from .nn.tensor import COO


@dataclass
class CorrelationPath:
    """Minimum-hop chain of global-graph indices between two users."""

    nodes: list[int]

    @property
    def n(self) -> int:
        return len(self.nodes) - 1


def bfs_distances(graph: GlobalSocialGraph, source_idx: int) -> dict[int, int]:
    """Hop counts from source to every reachable node."""
    dist = {source_idx: 0}
    queue = deque([source_idx])
    while queue:
        cur = queue.popleft()
        for nbr in graph.adj[cur]:
            if nbr not in dist:
                dist[nbr] = dist[cur] + 1
                queue.append(nbr)
    return dist


def shortest_correlation_path(graph: GlobalSocialGraph, u: int, v: int) -> CorrelationPath | None:
    """Deterministic shortest path from graph index u to v, or None when disconnected.

    Among equally short paths, each hop greedily takes the neighbor with the
    smallest user index that still decreases the remaining distance.
    """
    if u == v:
        return CorrelationPath([u])
    # v is the only node at distance 0 from v, so an adjacent pair's path is
    # the one hop, and needs no search
    nbrs = graph.adj[u]
    at = bisect_left(nbrs, v)
    if at < len(nbrs) and nbrs[at] == v:
        return CorrelationPath([u, v])
    dist_to_v = bfs_distances(graph, v)
    if u not in dist_to_v:
        return None
    path = [u]
    cur = u
    while cur != v:
        # adjacency lists are sorted, so the first qualifying neighbor is the
        # smallest-index one
        cur = next(nbr for nbr in graph.adj[cur] if dist_to_v.get(nbr, -1) == dist_to_v[cur] - 1)
        path.append(cur)
    return CorrelationPath(path)


def path_coefficients(n: int, alpha: float) -> np.ndarray:
    """Geometric weights over n+1 path positions; positive, summing to 1 for
    alpha in (0, 1), as ``TrainConfig`` checks."""
    powers = alpha ** np.arange(n + 1, dtype=np.float64)
    return (1.0 - alpha) / (1.0 - alpha ** (n + 1)) * powers


def diffusion_pairs(cascade: CascadeGraph, max_pairs: int) -> list[tuple[int, int]]:
    """Earliest observed (source, adopter) node pairs, ordered by the adopter's (time, user)."""
    return sorted(cascade.edges, key=lambda e: (cascade.elapsed[e[1]], cascade.nodes[e[1]]))[:max_pairs]


def social_weight_vector(
    cascade: CascadeGraph,
    rows: Sequence[int] | Mapping[int, int],
    global_graph: GlobalSocialGraph,
    alpha: float,
    max_pairs: int,
) -> COO:
    """Vocabulary-weight form of the cascade's social feature.

    ``rows[i]`` is node i's embedding row. A (1, vocab) sparse row, one
    column per embedding row (the unknown-user row 0 included), that sums
    to 1. Pairs with an unknown endpoint (row 0) or disconnected on the
    global graph are skipped; if none survive (including the root-only
    cascade), all weight falls on the root's own row.
    """
    pair_paths: list[CorrelationPath] = []
    for src, dst in diffusion_pairs(cascade, max_pairs):
        if rows[src] and rows[dst]:
            path = shortest_correlation_path(global_graph, rows[src] - 1, rows[dst] - 1)
            if path is not None:
                pair_paths.append(path)
    weights = {} if pair_paths else {rows[0]: 1.0}
    pair_share = 1.0 / max(len(pair_paths), 1)
    for path in pair_paths:
        coeffs = path_coefficients(path.n, alpha)
        # endpoint representations share one path; averaging them pairs each
        # position's forward coefficient with its reversed counterpart
        for i, node in enumerate(path.nodes):
            row = node + 1
            weights[row] = weights.get(row, 0.0) + 0.5 * (coeffs[i] + coeffs[path.n - i]) * pair_share
    cols = sorted(weights)
    return COO(
        np.zeros(len(cols), dtype=np.int32),
        np.array(cols, dtype=np.int32),
        np.array([weights[c] for c in cols]),
        (1, global_graph.vocab),
    )
