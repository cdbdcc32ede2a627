"""Per-cascade feature extraction and minibatch assembly.

``featurize`` turns one cascade into plain numpy payloads (the
embedding rows of its distinct walks' real steps, each distinct walk's step
count and the distinct walk each sampled walk reads, social weight vector,
and its kept snapshots' propagated node features and pool weights), all
computed once up front since none of them depend on model weights.

The snapshot GCN's two propagations fold into the features, as SGC (Wu et
al. 2019) precomputes its propagated features. With P the kept snapshots'
block-diagonal propagation and F their nodes' time-bin rows, the first
layer reads (P F) W1, so ``node_feats`` stores P F. The second is linear up
to the pooling, so pool P Y = (pool P) Y; as P is symmetric and a
snapshot's nodes share one pool weight 1/(m * n_j), pool P holds node k's
weight times P's row k sum, which ``pool_weights`` stores.
``build_batch`` then stacks B cascades into the layout the model consumes:

- the real steps of all cascades' distinct walks concatenated cascade-major
  into one 1-D index array, with the step counts that split it into walks
  and the (B*K,) distinct-walk position of every sampled walk,
- social weight rows stacked into a (B, vocab) sparse matrix,
- the snapshot nodes' propagated features stacked cascade after cascade,
  with a (B, total_nodes) pooling matrix whose row b holds cascade b's
  folded pool weights, composing the second propagation, the node-mean and
  the snapshot-mean in a single matmul.

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
from .nn.tensor import COO, constant, sparse_matmul
from .snapshots import build_snapshots, encoding_table, snapshot_feature_matrix
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
    # kept snapshots' nodes, snapshot after snapshot, with P their block-diagonal
    # D^-1/2 (A+A^T+I) D^-1/2 and F their time-bin encoding rows
    node_feats: np.ndarray  # (nodes, pe_dim) P F
    pool_weights: np.ndarray  # (nodes,) P's row sums / (m * n_j)
    label: int
    true_log: float


@dataclass
class FeatureBatch:
    size: int
    walk_idx: np.ndarray  # (walk_lengths.sum(),)
    walk_lengths: np.ndarray  # (distinct walks of all B cascades,)
    walk_of: np.ndarray  # (B*K,) indexes walk_lengths
    social: COO  # (B, vocab)
    node_feats: np.ndarray  # (total_nodes, pe_dim) propagated snapshot node features
    pool: COO  # (B, total_nodes) folded pool weights
    true_logs: np.ndarray  # (B, 1)


def log2p1(x) -> np.ndarray:
    return np.log2(np.asarray(x, dtype=np.float64) + 1.0)


def from_log2p1(v) -> np.ndarray:
    return np.power(2.0, np.asarray(v, dtype=np.float64)) - 1.0


class _NodeRows(dict):
    """Node index -> embedding row, looked up when first read: the features
    read only walk nodes, diffusion-pair endpoints and the root."""

    def __init__(self, graph: CascadeGraph, global_graph: GlobalSocialGraph):
        super().__init__()
        self.users, self.global_graph = graph.nodes, global_graph

    def __missing__(self, node: int) -> int:
        row = self[node] = self.global_graph.embedding_index(self.users[node])
        return row


def fold_propagation(
    propagation: COO, bins: np.ndarray, pool_weights: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``build_snapshots``' (propagation P, bins, pool weights) -> (P F, pool
    weights times P's row sums), F holding each node's ``table`` row; each
    snapshot's nodes must share one pool weight (see the module docstring)."""
    node_feats = sparse_matmul(propagation, constant(table[bins])).data
    row_sums = np.bincount(propagation.rows, weights=propagation.data, minlength=bins.size)
    return node_feats, pool_weights * row_sums


def featurize(
    graph: CascadeGraph,
    label: int,
    global_graph: GlobalSocialGraph,
    config: TrainConfig,
    table: np.ndarray,
) -> CascadeFeatures:
    """One cascade's features; ``table`` is ``encoding_table(config.pe_dim,
    config.time_bins)``, which ``featurize_corpus`` builds once for all."""
    c = config
    walks = sample_walks(
        graph, k=c.k_walks, n=c.walk_len, beta=c.beta, seed=walk_seed(c.seed, graph.message_id)
    )
    rows = _NodeRows(graph, global_graph)
    walk_idx, walk_lengths, walk_of = walks.to_index_matrix(rows)

    social_row = social_weight_vector(graph, rows, global_graph, alpha=c.alpha, max_pairs=c.max_pairs)
    node_feats, pool_weights = fold_propagation(
        *build_snapshots(*snapshot_feature_matrix(graph, c.time_bins), c.m_max), table
    )

    return CascadeFeatures(
        message_id=graph.message_id,
        walk_idx=walk_idx,
        walk_lengths=walk_lengths,
        walk_of=walk_of,
        social_row=social_row,
        node_feats=node_feats,
        pool_weights=pool_weights,
        label=label,
        true_log=float(log2p1(label)),
    )


def featurize_corpus(
    records: list[CascadeRecord], global_graph: GlobalSocialGraph, config: TrainConfig
) -> list[CascadeFeatures]:
    """Features of every record observed for ``config.window``."""
    table = encoding_table(config.pe_dim, config.time_bins)
    out = []
    for rec in records:
        graph = build_cascade_graph(rec, config.window)
        out.append(featurize(graph, compute_label(rec, config.window), global_graph, config, table))
    return out


def build_batch(feats: list[CascadeFeatures]) -> FeatureBatch:
    if not feats:
        raise ConfigError("build_batch: empty feature list")
    nodes = np.array([f.pool_weights.size for f in feats])
    total = int(nodes.sum())
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
        node_feats=np.concatenate([f.node_feats for f in feats]),
        pool=pool,
        true_logs=np.array([[f.true_log] for f in feats]),
    )
