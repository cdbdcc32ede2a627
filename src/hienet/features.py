"""Per-cascade feature extraction and minibatch assembly.

``featurize`` turns one cascade into plain numpy payloads (the
embedding rows of its distinct walks' real steps, each distinct walk's step
count and the distinct walk each sampled walk reads, social weight vector,
and its kept snapshots as one block-diagonal sparse propagation matrix with
each snapshot node's time bin and pool weight), all computed once up front
since none of them depend on model weights.
``build_batch`` then stacks B cascades into the layout the model consumes:

- the real steps of all cascades' distinct walks concatenated cascade-major
  into one 1-D index array, with the step counts that split it into walks
  and the (B*K,) distinct-walk position of every sampled walk,
- social weight rows stacked into a (B, vocab) sparse matrix,
- the B propagation matrices stacked block-diagonally by concatenating
  their entries with node offsets, with a (B, total_nodes) pooling matrix
  whose row b holds 1/(m_b * n_j) at snapshot j's nodes, composing the
  node-mean and snapshot-mean in a single matmul, and the time bin of each
  of those nodes (``node_bins``), whose feature row the model looks up.

Every setting comes from the run's ``TrainConfig``. Walk randomness is
seeded per (``config.seed``, message id), so features are reproducible
regardless of extraction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CascadeGraph, CascadeRecord, GlobalSocialGraph, build_cascade_graph, compute_label
from .config import TrainConfig
from .errors import ConfigError
from .nn.tensor import COO
from .snapshots import build_snapshots, snapshot_feature_matrix
from .social import social_weight_vector
from .walks import sample_walks, walk_seed


@dataclass
class CascadeFeatures:
    message_id: str
    # distinct walks (equal row sequences sampled twice are stored once), first sampled first
    walk_idx: np.ndarray  # (walk_lengths.sum(),) embedding rows of the real steps, walk after walk
    walk_lengths: np.ndarray  # (distinct walks,) real steps per distinct walk
    walk_of: np.ndarray  # (K,) distinct walk of each sampled walk, in sampled order
    social_row: COO  # (1, vocab) convex weights over user rows
    # kept snapshots: block-diagonal D^-1/2 (A+A^T+I) D^-1/2, time bins, pool weights 1/(m * n_j)
    propagation: COO  # (nodes, nodes)
    node_bins: np.ndarray  # (nodes,)
    pool_weights: np.ndarray  # (nodes,)
    label: int
    true_log: float


@dataclass
class FeatureBatch:
    size: int
    walk_idx: np.ndarray  # (walk_lengths.sum(),)
    walk_lengths: np.ndarray  # (distinct walks of all B cascades,)
    walk_of: np.ndarray  # (B*K,) indexes walk_lengths
    social: COO  # (B, vocab)
    p_block: COO  # (total_nodes, total_nodes)
    node_bins: np.ndarray  # (total_nodes,) time bin of each snapshot node
    pool: COO  # (B, total_nodes)
    true_logs: np.ndarray  # (B, 1)


def log2p1(x) -> np.ndarray:
    return np.log2(np.asarray(x, dtype=np.float64) + 1.0)


def from_log2p1(v) -> np.ndarray:
    return np.power(2.0, np.asarray(v, dtype=np.float64)) - 1.0


def featurize(
    graph: CascadeGraph,
    label: int,
    global_graph: GlobalSocialGraph,
    config: TrainConfig,
) -> CascadeFeatures:
    c = config
    walks = sample_walks(
        graph, k=c.k_walks, n=c.walk_len, beta=c.beta, seed=walk_seed(c.seed, graph.message_id)
    )
    rows = [global_graph.embedding_index(user) for user in graph.nodes]
    walk_idx, walk_lengths, walk_of = walks.to_index_matrix(rows)

    social_row = social_weight_vector(graph, rows, global_graph, alpha=c.alpha, max_pairs=c.max_pairs)
    propagation, node_bins, pool_weights = build_snapshots(
        *snapshot_feature_matrix(graph, c.time_bins), c.m_max
    )

    return CascadeFeatures(
        message_id=graph.message_id,
        walk_idx=walk_idx,
        walk_lengths=walk_lengths,
        walk_of=walk_of,
        social_row=social_row,
        propagation=propagation,
        node_bins=node_bins,
        pool_weights=pool_weights,
        label=label,
        true_log=float(log2p1(label)),
    )


def featurize_corpus(
    records: list[CascadeRecord], global_graph: GlobalSocialGraph, config: TrainConfig
) -> list[CascadeFeatures]:
    """Features of every record observed for ``config.window``."""
    out = []
    for rec in records:
        graph = build_cascade_graph(rec, config.window)
        out.append(featurize(graph, compute_label(rec, config.window), global_graph, config))
    return out


def build_batch(feats: list[CascadeFeatures]) -> FeatureBatch:
    if not feats:
        raise ConfigError("build_batch: empty feature list")
    props = [f.propagation for f in feats]
    nodes = np.array([p.shape[0] for p in props])
    total = int(nodes.sum())
    # cascade b's rows and columns start after the nodes of cascades < b
    offsets = np.repeat(np.cumsum(nodes) - nodes, [p.data.size for p in props])
    p_block = COO(
        (np.concatenate([p.rows for p in props]) + offsets).astype(np.int32),
        (np.concatenate([p.cols for p in props]) + offsets).astype(np.int32),
        np.concatenate([p.data for p in props]),
        (total, total),
    )
    cascades = np.arange(len(feats), dtype=np.int32)
    pool = COO(
        np.repeat(cascades, nodes),
        np.arange(total, dtype=np.int32),
        np.concatenate([f.pool_weights for f in feats]),
        (len(feats), total),
    )
    # one (1, vocab) social row per cascade
    social_rows = [f.social_row for f in feats]
    social = COO(
        np.repeat(cascades, [r.data.size for r in social_rows]),
        np.concatenate([r.cols for r in social_rows]),
        np.concatenate([r.data for r in social_rows]),
        (len(feats), social_rows[0].shape[1]),
    )
    # cascade b's distinct walks follow those of cascades < b
    distinct = np.array([f.walk_lengths.size for f in feats])
    walk_of = np.concatenate([f.walk_of for f in feats])
    walk_of += np.repeat(np.cumsum(distinct) - distinct, [f.walk_of.size for f in feats])
    return FeatureBatch(
        size=len(feats),
        walk_idx=np.concatenate([f.walk_idx for f in feats]),
        walk_lengths=np.concatenate([f.walk_lengths for f in feats]),
        walk_of=walk_of,
        social=social,
        p_block=p_block,
        node_bins=np.concatenate([f.node_bins for f in feats]),
        pool=pool,
        true_logs=np.array([[f.true_log] for f in feats]),
    )
