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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeGraph, GlobalSocialGraph
from .errors import GraphError


@dataclass
class CorrelationPath:
    """Minimum-hop user chain between two users on the global graph."""

    users: list[str]

    @property
    def n(self) -> int:
        return len(self.users) - 1


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


def shortest_correlation_path(graph: GlobalSocialGraph, u: str, v: str) -> CorrelationPath | None:
    """Deterministic shortest path from u to v, or None when disconnected.

    Among equally short paths, each hop greedily takes the neighbor with the
    smallest user index that still decreases the remaining distance.
    """
    if u not in graph.index:
        raise GraphError(f"unknown user '{u}'")
    if v not in graph.index:
        raise GraphError(f"unknown user '{v}'")
    ui, vi = graph.index[u], graph.index[v]
    if ui == vi:
        return CorrelationPath([u])
    dist_to_v = bfs_distances(graph, vi)
    if ui not in dist_to_v:
        return None
    path = [ui]
    cur = ui
    while cur != vi:
        # adjacency lists are sorted, so the first qualifying neighbor is the
        # smallest-index one
        cur = next(nbr for nbr in graph.adj[cur] if dist_to_v.get(nbr, -1) == dist_to_v[cur] - 1)
        path.append(cur)
    return CorrelationPath([graph.users[i] for i in path])


def path_coefficients(n: int, alpha: float) -> np.ndarray:
    """Geometric weights over n+1 path positions; positive, summing to 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    powers = alpha ** np.arange(n + 1, dtype=np.float64)
    return (1.0 - alpha) / (1.0 - alpha ** (n + 1)) * powers


def path_aware_representation(path: CorrelationPath, embeddings: dict[str, np.ndarray], alpha: float) -> np.ndarray:
    """Weighted average of the path users' embeddings (nearest user dominates)."""
    coeffs = path_coefficients(path.n, alpha)
    vectors = [embeddings[w] for w in path.users]
    return np.einsum("i,ij->j", coeffs, np.stack(vectors))


def diffusion_pairs(cascade: CascadeGraph, max_pairs: int) -> list[tuple[str, str]]:
    """Earliest observed (source, retweeter) pairs, ordered by (time, user)."""
    ordered = sorted(cascade.edges, key=lambda e: (e[2], e[1]))
    return [(src, dst) for src, dst, _ in ordered[:max_pairs]]


def social_weight_vector(
    cascade: CascadeGraph,
    global_graph: GlobalSocialGraph,
    alpha: float,
    max_pairs: int,
) -> tuple[np.ndarray, int]:
    """Vocabulary-weight form of the cascade's social feature.

    Returns (weights, pair_count) where weights has one entry per embedding
    row (padding row included) and sums to 1. Pairs disconnected on the
    global graph are skipped; if none survive (including the root-only
    cascade), all weight falls on the root's own embedding.
    """
    weights = np.zeros(global_graph.num_users + 1, dtype=np.float64)
    pair_paths: list[CorrelationPath] = []
    for u, v in diffusion_pairs(cascade, max_pairs):
        if not (global_graph.has_user(u) and global_graph.has_user(v)):
            continue
        path = shortest_correlation_path(global_graph, u, v)
        if path is not None:
            pair_paths.append(path)
    if not pair_paths:
        weights[global_graph.embedding_index(cascade.root)] = 1.0
        return weights, 0
    pair_share = 1.0 / len(pair_paths)
    for path in pair_paths:
        coeffs = path_coefficients(path.n, alpha)
        # endpoint representations share one path; averaging them pairs each
        # position's forward coefficient with its reversed counterpart
        for i, user in enumerate(path.users):
            w = 0.5 * (coeffs[i] + coeffs[path.n - i]) * pair_share
            weights[global_graph.embedding_index(user)] += w
    return weights, len(pair_paths)
