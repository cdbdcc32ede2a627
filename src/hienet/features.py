"""Per-cascade feature extraction and minibatch assembly.

``featurize`` turns one cascade into plain numpy payloads (walk index
matrix and walk lengths, social weight vector, normalized snapshot
propagation blocks with their node time bins), all computed once up front
since none of them depend on model weights. ``build_batch`` then stacks B
cascades into the layout the model consumes:

- walks of all cascades stacked cascade-major into (B*K, N), with their
  (B*K,) real-step counts,
- social weight rows vstacked into a (B, vocab) sparse matrix,
- every snapshot of every cascade block-diagonalized into one sparse
  propagation matrix, with a (B, total_nodes) pooling matrix whose row b
  holds 1/(m_b * n_j) at snapshot j's nodes, composing the node-mean and
  snapshot-mean in a single matmul.

Walk randomness is seeded per (global seed, message id), so features are
reproducible regardless of extraction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cascade import CascadeGraph, CascadeRecord, GlobalSocialGraph, build_cascade_graph, compute_label
from .errors import ConfigError
from .nn.layers import normalize_adjacency
from .snapshots import build_snapshots, snapshot_feature_matrix
from .social import social_weight_vector
from .walks import sample_walks, walk_seed


@dataclass(frozen=True)
class FeatureParams:
    """Everything feature extraction needs; one value set per experiment.

    No field has a default here: ``TrainConfig`` holds the defaults.
    """

    k_walks: int
    walk_len: int
    beta: float
    alpha: float
    max_pairs: int
    m_max: int
    time_bins: int

    def __post_init__(self) -> None:
        for name in ("k_walks", "walk_len", "max_pairs", "m_max", "time_bins"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass
class CascadeFeatures:
    message_id: str
    walk_idx: np.ndarray  # (K, N) embedding rows, PAD -> 0
    walk_lengths: np.ndarray  # (K,) real steps per walk; the PAD tail follows
    social_row: sp.csr_matrix  # (1, vocab) convex weights over user rows
    pair_count: int
    # one (normalized propagation matrix, per-node time bin) pair per snapshot
    snaps: list[tuple[np.ndarray, np.ndarray]]
    label: int
    true_log: float


@dataclass
class FeatureBatch:
    size: int
    walk_idx: np.ndarray  # (B*K, N)
    walk_lengths: np.ndarray  # (B*K,)
    social: sp.csr_matrix  # (B, vocab)
    p_block: sp.csr_matrix  # (total_nodes, total_nodes)
    h_block: np.ndarray  # (total_nodes, pe_dim) constant node features
    pool: sp.csr_matrix  # (B, total_nodes)
    true_logs: np.ndarray  # (B, 1)
    labels: np.ndarray  # (B,)
    message_ids: list[str]


def log2p1(x) -> np.ndarray:
    return np.log2(np.asarray(x, dtype=np.float64) + 1.0)


def from_log2p1(v) -> np.ndarray:
    return np.power(2.0, np.asarray(v, dtype=np.float64)) - 1.0


def featurize(
    graph: CascadeGraph,
    label: int,
    global_graph: GlobalSocialGraph,
    fp: FeatureParams,
    global_seed: int,
) -> CascadeFeatures:
    walks = sample_walks(
        graph, k=fp.k_walks, n=fp.walk_len, beta=fp.beta, seed=walk_seed(global_seed, graph.message_id)
    )
    walk_idx, walk_lengths = walks.to_index_matrix(global_graph)

    weights, pair_count = social_weight_vector(
        graph, global_graph, alpha=fp.alpha, max_pairs=fp.max_pairs
    )
    social_row = sp.csr_matrix(weights.reshape(1, -1))

    adjacency, node_bins = snapshot_feature_matrix(graph, fp.time_bins)
    # diffusion edges are directed; the GCN treats each snapshot as
    # undirected so information also flows leaf -> root
    undirected = adjacency + adjacency.T
    snaps = [
        (normalize_adjacency(block), bins)
        for block, bins in build_snapshots(undirected, node_bins, fp.m_max)
    ]

    return CascadeFeatures(
        message_id=graph.message_id,
        walk_idx=walk_idx,
        walk_lengths=walk_lengths,
        social_row=social_row,
        pair_count=pair_count,
        snaps=snaps,
        label=label,
        true_log=float(log2p1(label)),
    )


def featurize_corpus(
    records: list[CascadeRecord],
    window: int,
    global_graph: GlobalSocialGraph,
    fp: FeatureParams,
    global_seed: int,
) -> list[CascadeFeatures]:
    out = []
    for rec in records:
        graph = build_cascade_graph(rec, window)
        out.append(featurize(graph, compute_label(rec, window), global_graph, fp, global_seed))
    return out


def build_batch(feats: list[CascadeFeatures], enc_table: np.ndarray) -> FeatureBatch:
    if not feats:
        raise ConfigError("build_batch: empty feature list")
    p_blocks = []
    bins_all = []
    pool_rows, pool_cols, pool_vals = [], [], []
    offset = 0
    for b, f in enumerate(feats):
        m = len(f.snaps)
        for p_norm, bins in f.snaps:
            size = bins.shape[0]
            p_blocks.append(p_norm)
            bins_all.append(bins)
            pool_rows.extend([b] * size)
            pool_cols.extend(range(offset, offset + size))
            pool_vals.extend([1.0 / (m * size)] * size)
            offset += size
    total = offset
    pool = sp.csr_matrix(
        (pool_vals, (pool_rows, pool_cols)), shape=(len(feats), total), dtype=np.float64
    )
    return FeatureBatch(
        size=len(feats),
        walk_idx=np.vstack([f.walk_idx for f in feats]),
        walk_lengths=np.concatenate([f.walk_lengths for f in feats]),
        social=sp.vstack([f.social_row for f in feats], format="csr"),
        p_block=sp.block_diag(p_blocks, format="csr"),
        h_block=enc_table[np.concatenate(bins_all)],
        pool=pool,
        true_logs=np.array([[f.true_log] for f in feats]),
        labels=np.array([f.label for f in feats], dtype=np.int64),
        message_ids=[f.message_id for f in feats],
    )
