"""Fused cascade-popularity model: three branch encoders + summary token.

Branches, each emitting one d_model token per cascade:
- cs: node embeddings of degree-biased walks through a two-level BiLSTM
  (inner over each walk's real steps, outer across the K walk vectors in
  sampled order),
- sg: the cascade's convex social weight vector times a user embedding
  table, i.e. a weighted sum of the gathered rows its weights reach
  (averaging path-aware user representations),
- cg: two graph-convolution layers over the snapshot sequence, node-mean
  then snapshot-mean pooled; each snapshot propagates through its sparse
  D^-1/2 (A + A^T + I) D^-1/2. Both propagations arrive folded into the
  features (``features.py``): the nodes' propagated time-bin rows P F and
  the pool weights times P's row sums, so the branch computes
  proj(pool relu(P F W1) W2) with one sparse matmul, the pooling.

Fusion: the branch tokens plus a learned summary token pass through one
post-norm transformer encoder layer; no positional encodings are added, so
modality order cannot matter. The summary token's output state feeds a
relu MLP that predicts log2(1 + incremental popularity). A concat-and-
project baseline is available instead of the transformer, and disabled
branches are replaced by learned null tokens so ablations keep the token
count fixed.

Batching: B cascades run as one graph. A cascade's walks often repeat
(a small tree has few distinct walks), so each distinct walk arrives once:
the real steps of all distinct walks come packed, cascade-major and walk
after walk, with one step count per distinct walk, and ``walk_of`` names
the distinct walk behind each of the B*K sampled walks. Each LSTM
direction of each level is one ``lstm_sequence`` op: the inner level runs
over the distinct walks, one ``gather_rows`` expands its outputs to the
sampled walks, and the outer level reads all K of each cascade.
The snapshot nodes of all B cascades arrive as one stack of propagated
features, and one (B, total_nodes) sparse pooling matrix holds each
cascade's folded pool weights in its row.
The 4 tokens of each cascade stack token-major into a (4B, d_model) matrix
(row i belongs to cascade i mod B), and attention scores each cascade's 4
tokens among themselves, as one (B, heads, 4, 4) array.
"""

from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .errors import ShapeError
from .features import FeatureBatch
from .nn.layers import LSTM, MLP, Embedding, Linear, Module, TransformerEncoderLayer
from .nn.tensor import (
    COO,
    Parameter,
    Tensor,
    add,
    concat,
    constant,
    gather_rows,
    matmul,
    mean_all,
    no_grad,
    relu,
    sparse_matmul,
    square,
)


def weighted_rows(weights: COO, table: Tensor) -> Tensor:
    """``weights @ table`` as a gather of the rows the stored weights reach,
    summed per row of ``weights`` by ``sparse_matmul``: the same products in
    the same order, and ``table`` gets a row gradient."""
    nnz = weights.data.size
    per_entry = COO(
        weights.rows, np.arange(nnz, dtype=np.int32), weights.data, (weights.shape[0], nnz)
    )
    return sparse_matmul(per_entry, gather_rows(table, weights.cols))


class HIENet(Module):
    """All parameters are created in __init__ in a fixed order from
    ``config.seed``, so (config, vocab) pins every weight, and that order is
    the order of ``params()`` and so the checkpoint layout. ``vocab`` rows:
    one per user of the global graph plus the unknown-user row 0."""

    def __init__(self, config: TrainConfig, vocab: int):
        rng = np.random.default_rng(config.seed)
        c = self.config = config
        h, d = c.lstm_hidden, c.d_model

        self.cs_embed = Embedding("cs.embed", vocab, c.embed_dim, rng)
        self.inner_f = LSTM("cs.inner_f", c.embed_dim, h, rng)
        self.inner_b = LSTM("cs.inner_b", c.embed_dim, h, rng)
        self.outer_f = LSTM("cs.outer_f", 2 * h, h, rng)
        self.outer_b = LSTM("cs.outer_b", 2 * h, h, rng)
        self.cs_proj = Linear("cs.proj", 2 * h, d, rng)

        self.sg_embed = Embedding("sg.embed", vocab, c.embed_dim, rng)
        self.sg_proj = Linear("sg.proj", c.embed_dim, d, rng)

        k1 = 1.0 / np.sqrt(c.pe_dim)
        k2 = 1.0 / np.sqrt(c.gcn_hidden)
        self.gcn_w1 = Parameter("cg.w1", rng.uniform(-k1, k1, (c.pe_dim, c.gcn_hidden)))
        self.gcn_w2 = Parameter("cg.w2", rng.uniform(-k2, k2, (c.gcn_hidden, c.gcn_hidden)))
        self.cg_proj = Linear("cg.proj", c.gcn_hidden, d, rng)

        if c.fusion_mode == "transformer":
            self.encoder = TransformerEncoderLayer("fuse.enc", d, c.heads, c.ff_hidden, rng)
            kd = 1.0 / np.sqrt(d)
            self.p_cas = Parameter("fuse.cas", rng.uniform(-kd, kd, (1, d)))
            self.null_cs = Parameter("fuse.null_cs", rng.uniform(-kd, kd, (1, d)))
            self.null_sg = Parameter("fuse.null_sg", rng.uniform(-kd, kd, (1, d)))
            self.null_cg = Parameter("fuse.null_cg", rng.uniform(-kd, kd, (1, d)))
            self.concat_proj = None
        else:
            width = d * sum((c.use_cs, c.use_sg, c.use_cg))
            self.concat_proj = Linear("fuse.concat", width, d, rng)
            self.encoder = None

        self.head = MLP("head", d, c.mlp_sizes, rng)

    # ------------------------------------------------------------------
    # branch encoders

    def encode_cascade_sequence(
        self, walk_idx: np.ndarray, lengths: np.ndarray, walk_of: np.ndarray, batch_size: int = 1
    ) -> Tensor:
        """Embedding rows of the distinct walks' real steps, walk after walk,
        the step counts that split them into distinct walks, and the (B*K,)
        distinct walk of each sampled walk -> (B, d_model) sequence tokens."""
        steps = gather_rows(self.cs_embed.table, walk_idx)
        distinct = concat(
            [self.inner_f(steps, lengths), self.inner_b(steps, lengths, reverse=True)], axis=1
        )
        per_walk = gather_rows(distinct, walk_of)
        walks = np.full(batch_size, len(walk_of) // batch_size)
        merged = concat(
            [self.outer_f(per_walk, walks), self.outer_b(per_walk, walks, reverse=True)], axis=1
        )
        return self.cs_proj(merged)

    def encode_social(self, social: COO) -> Tensor:
        """(B, vocab) sparse convex weight rows -> (B, d_model) social tokens."""
        return self.sg_proj(weighted_rows(social, self.sg_embed.table))

    def encode_snapshots(self, node_feats: np.ndarray, pool: COO) -> Tensor:
        """(total_nodes, pe_dim) propagated node features and the (B,
        total_nodes) folded pooling -> (B, d_model) snapshot tokens."""
        hidden = relu(matmul(constant(node_feats), self.gcn_w1))
        return self.cg_proj(matmul(sparse_matmul(pool, hidden), self.gcn_w2))

    # ------------------------------------------------------------------
    # fusion + head

    def fuse(self, f_cs: Tensor | None, f_sg: Tensor | None, f_cg: Tensor | None) -> Tensor:
        """Branch tokens (each (B, d_model) or None when disabled) -> (B, d_model)."""
        present = [f for f in (f_cs, f_sg, f_cg) if f is not None]
        batch_size = present[0].shape[0]
        if self.config.fusion_mode == "concat":
            return self.concat_proj(present[0] if len(present) == 1 else concat(present, axis=1))
        tokens = [
            f if f is not None else self._tile(null, batch_size)
            for f, null in ((f_cs, self.null_cs), (f_sg, self.null_sg), (f_cg, self.null_cg))
        ]
        tokens.append(self._tile(self.p_cas, batch_size))
        out = self.encoder(concat(tokens, axis=0), groups=batch_size)
        return gather_rows(out, np.arange(3 * batch_size, 4 * batch_size))

    def predict_from_state(self, cas_state: Tensor) -> Tensor:
        return self.head(cas_state)

    def forward(self, batch: FeatureBatch) -> Tensor:
        """(B,) batch -> (B, 1) unclamped predicted log-popularity."""
        c = self.config
        f_cs = (
            self.encode_cascade_sequence(
                batch.walk_idx, batch.walk_lengths, batch.walk_of, batch.size
            )
            if c.use_cs
            else None
        )
        f_sg = self.encode_social(batch.social) if c.use_sg else None
        f_cg = self.encode_snapshots(batch.node_feats, batch.pool) if c.use_cg else None
        return self.predict_from_state(self.fuse(f_cs, f_sg, f_cg))

    def predict_logs(self, batch: FeatureBatch) -> np.ndarray:
        """Inference: ``forward`` under ``no_grad()``, so no op records a
        graph and each intermediate is freed once the next op has read it,
        clamped below at zero (popularity is non-negative)."""
        with no_grad():
            return np.maximum(self.forward(batch).data[:, 0], 0.0)

    # ------------------------------------------------------------------
    # constants

    def _tile(self, row: Parameter, batch_size: int) -> Tensor:
        return gather_rows(row, np.zeros(batch_size, dtype=np.int64))


# ----------------------------------------------------------------------
# loss and metrics


def msle_loss(pred: Tensor, true_logs: np.ndarray) -> Tensor:
    """Mean squared error in log2(x+1) space; no clamp (training loss)."""
    true_logs = np.asarray(true_logs, dtype=np.float64)
    if pred.shape != true_logs.shape:
        raise ShapeError(f"msle_loss: predictions {pred.shape} vs targets {true_logs.shape}")
    return mean_all(square(add(pred, constant(-true_logs))))


def metrics_from_logs(pred_logs, true_logs) -> dict[str, float]:
    """MSLE = mean squared log-space error; mSLE = its lower median."""
    pred_logs = np.asarray(pred_logs, dtype=np.float64)
    true_logs = np.asarray(true_logs, dtype=np.float64)
    if pred_logs.shape != true_logs.shape:
        raise ShapeError(
            f"metrics_from_logs: {pred_logs.shape} predictions vs {true_logs.shape} targets"
        )
    errs = (pred_logs - true_logs) ** 2
    if errs.size == 0:
        raise ShapeError("metrics_from_logs: empty inputs")
    ranked = np.sort(errs)
    return {"MSLE": float(errs.mean()), "mSLE": float(ranked[(errs.size - 1) // 2])}
