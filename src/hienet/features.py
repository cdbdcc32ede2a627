"""Per-cascade feature extraction and minibatch assembly.

``featurize`` turns one cascade into plain numpy and scipy payloads (walk
index matrix and walk lengths, social weight vector, and its kept snapshots
as one block-diagonal sparse propagation matrix with each snapshot node's
time bin and pool weight), all computed once up front since none of them
depend on model weights. ``build_batch`` then stacks B cascades into the
layout the model consumes:

- walks of all cascades stacked cascade-major into (B*K, N), with their
  (B*K,) real-step counts,
- social weight rows vstacked into a (B, vocab) sparse matrix,
- the B propagation matrices stacked block-diagonally by concatenating
  their CSR arrays with offsets, with a (B, total_nodes) pooling matrix
  whose row b holds 1/(m_b * n_j) at snapshot j's nodes, composing the
  node-mean and snapshot-mean in a single matmul.

Walk randomness is seeded per (global seed, message id), so features are
reproducible regardless of extraction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cascade import CascadeGraph, CascadeRecord, GlobalSocialGraph, build_cascade_graph, compute_label
from .errors import ConfigError
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
    walk_idx: np.ndarray  # (K, N) embedding rows; 0 for an unknown user and the unread PAD tail
    walk_lengths: np.ndarray  # (K,) real steps per walk; the PAD tail follows
    social_row: sp.csr_matrix  # (1, vocab) convex weights over user rows
    # kept snapshots: block-diagonal D^-1/2 (A+A^T+I) D^-1/2, time bins, pool weights 1/(m * n_j)
    propagation: sp.csr_matrix  # (nodes, nodes)
    node_bins: np.ndarray  # (nodes,)
    pool_weights: np.ndarray  # (nodes,)
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

    weights, _ = social_weight_vector(graph, global_graph, alpha=fp.alpha, max_pairs=fp.max_pairs)
    social_row = sp.csr_matrix(weights.reshape(1, -1))
    propagation, node_bins, pool_weights = build_snapshots(
        *snapshot_feature_matrix(graph, fp.time_bins), fp.m_max
    )

    return CascadeFeatures(
        message_id=graph.message_id,
        walk_idx=walk_idx,
        walk_lengths=walk_lengths,
        social_row=social_row,
        propagation=propagation,
        node_bins=node_bins,
        pool_weights=pool_weights,
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
    props = [f.propagation for f in feats]
    nodes = np.array([p.shape[0] for p in props])
    entries = np.array([p.nnz for p in props])
    node_ends = np.cumsum(nodes)
    total = int(node_ends[-1])
    # cascade b's rows, columns and entries start after those of cascades < b
    indptr = np.concatenate([[0]] + [p.indptr[1:] for p in props])
    indptr[1:] += np.repeat(np.cumsum(entries) - entries, nodes)
    indices = np.concatenate([p.indices for p in props]) + np.repeat(node_ends - nodes, entries)
    p_block = sp.csr_matrix(
        (np.concatenate([p.data for p in props]), indices, indptr), shape=(total, total)
    )
    pool_weights = np.concatenate([f.pool_weights for f in feats])
    pool = sp.csr_matrix(
        (pool_weights, np.arange(total), np.concatenate([[0], node_ends])),
        shape=(len(feats), total),
    )
    return FeatureBatch(
        size=len(feats),
        walk_idx=np.vstack([f.walk_idx for f in feats]),
        walk_lengths=np.concatenate([f.walk_lengths for f in feats]),
        social=sp.vstack([f.social_row for f in feats], format="csr"),
        p_block=p_block,
        h_block=enc_table[np.concatenate([f.node_bins for f in feats])],
        pool=pool,
        true_logs=np.array([[f.true_log] for f in feats]),
    )
