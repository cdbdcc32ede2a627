"""Fused cascade-popularity model: three branch encoders + summary token.

Branches, each emitting one d_model token per cascade:
- cs: node embeddings of degree-biased walks through a hierarchical BiLSTM
  (inner over each walk, outer across the K walk vectors),
- sg: the cascade's convex social weight vector times a user embedding
  table (equivalent to averaging path-aware user representations),
- cg: two graph-convolution layers over the snapshot sequence, node-mean
  then snapshot-mean pooled.

Fusion: the branch tokens plus a learned summary token pass through one
post-norm transformer encoder layer; no positional encodings are added, so
modality order cannot matter. The summary token's output state feeds a
relu MLP that predicts log2(1 + incremental popularity). A concat-and-
project baseline is available instead of the transformer, and disabled
branches are replaced by learned null tokens so ablations keep the token
count fixed.

Batching: B cascades run as one graph. Walk rows stack cascade-major into
(B*K, N); all snapshots share one block-diagonal propagation matrix; the
4 tokens of each cascade stack into a (4B, d_model) matrix with an additive
attention mask blocking cross-cascade pairs (rows i and j may attend iff
i = j mod B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ShapeError
from .features import FeatureBatch, log2p1
from .nn.layers import LSTM, MLP, Embedding, Linear, TransformerEncoderLayer, bilstm_forward
from .nn.tensor import (
    Parameter,
    Tensor,
    add_const,
    concat,
    constant,
    gather_rows,
    matmul,
    mean_all,
    relu,
    slice_rows,
    sparse_matmul,
    square,
)
from .snapshots import TemporalEncoding, encoding_table

FUSION_MODES = ("transformer", "concat")


@dataclass
class ModelConfig:
    """Model shape; sizes have no defaults here, ``TrainConfig`` supplies them."""

    vocab: int
    embed_dim: int
    lstm_hidden: int
    pe_dim: int
    time_bins: int
    gcn_hidden: int
    d_model: int
    heads: int
    ff_hidden: int
    mlp_sizes: tuple[int, ...]
    use_cs: bool = True
    use_sg: bool = True
    use_cg: bool = True
    fusion_mode: str = "transformer"
    hierarchical: bool = True

    def __post_init__(self) -> None:
        self.mlp_sizes = tuple(self.mlp_sizes)
        positive = (
            "vocab", "embed_dim", "lstm_hidden", "pe_dim", "time_bins",
            "gcn_hidden", "d_model", "heads", "ff_hidden",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.mlp_sizes:
            raise ConfigError("mlp_sizes must be non-empty")
        if not (self.use_cs or self.use_sg or self.use_cg):
            raise ConfigError("at least one branch must be enabled")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}, got {self.fusion_mode!r}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.pe_dim % 2 != 0:
            raise ConfigError(f"pe_dim must be even, got {self.pe_dim}")


class HIENet:
    """All parameters are created in __init__ in a fixed order from one
    seed, so (seed, config) pins every weight."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        c = self.config = config
        h, d = c.lstm_hidden, c.d_model

        self.cs_embed = Embedding("cs.embed", c.vocab, c.embed_dim, rng)
        self.inner_f = LSTM("cs.inner_f", c.embed_dim, h, rng)
        self.inner_b = LSTM("cs.inner_b", c.embed_dim, h, rng)
        self.outer_f = LSTM("cs.outer_f", 2 * h, h, rng)
        self.outer_b = LSTM("cs.outer_b", 2 * h, h, rng)
        self.cs_proj = Linear("cs.proj", 2 * h, d, rng)

        self.sg_embed = Embedding("sg.embed", c.vocab, c.embed_dim, rng)
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
        # the (time_bins, pe_dim) node-feature rows build_batch looks up
        self.enc_table = encoding_table(TemporalEncoding(c.pe_dim, c.time_bins))
        self._mask_cache: dict[int, np.ndarray] = {}
        self._walk_pool_cache: dict[tuple[int, int], sp.csr_matrix] = {}

        names = [p.name for p in self.params()]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in model")

    # ------------------------------------------------------------------
    # parameter registry

    def params(self) -> list[Parameter]:
        out = self.cs_embed.params()
        for cell in (self.inner_f, self.inner_b, self.outer_f, self.outer_b):
            out.extend(cell.params())
        out.extend(self.cs_proj.params())
        out.extend(self.sg_embed.params())
        out.extend(self.sg_proj.params())
        out.extend([self.gcn_w1, self.gcn_w2])
        out.extend(self.cg_proj.params())
        if self.encoder is not None:
            out.extend(self.encoder.params())
            out.extend([self.p_cas, self.null_cs, self.null_sg, self.null_cg])
        if self.concat_proj is not None:
            out.extend(self.concat_proj.params())
        out.extend(self.head.params())
        return out

    # ------------------------------------------------------------------
    # branch encoders

    def encode_cascade_sequence(
        self, walk_idx: np.ndarray, walk_mask: np.ndarray, batch_size: int = 1
    ) -> Tensor:
        """(B*K, N) stacked walks -> (B, d_model) sequence tokens."""
        rows, n = walk_idx.shape
        if rows % batch_size != 0:
            raise ShapeError(f"walk rows {rows} not divisible by batch {batch_size}")
        k = rows // batch_size
        steps = [gather_rows(self.cs_embed.table, walk_idx[:, t]) for t in range(n)]
        h_f, h_b = bilstm_forward(steps, self.inner_f, self.inner_b, walk_mask)
        per_walk = concat([h_f, h_b], axis=1)
        if self.config.hierarchical:
            outer_steps = [
                gather_rows(per_walk, np.arange(batch_size) * k + i) for i in range(k)
            ]
            o_f, o_b = bilstm_forward(outer_steps, self.outer_f, self.outer_b)
            merged = concat([o_f, o_b], axis=1)
        else:
            merged = sparse_matmul(self._walk_pool(batch_size, k), per_walk)
        return self.cs_proj(merged)

    def encode_social(self, social: sp.csr_matrix) -> Tensor:
        """(B, vocab) sparse convex weight rows -> (B, d_model) social tokens."""
        return self.sg_proj(sparse_matmul(social, self.sg_embed.table))

    def _cg_from_blocks(self, p_block, h_block, pool) -> Tensor:
        hidden = relu(sparse_matmul(p_block, matmul(constant(h_block), self.gcn_w1)))
        out = sparse_matmul(p_block, matmul(hidden, self.gcn_w2))
        return self.cg_proj(sparse_matmul(pool, out))

    # ------------------------------------------------------------------
    # fusion + head

    def fuse(self, f_cs: Tensor | None, f_sg: Tensor | None, f_cg: Tensor | None) -> Tensor:
        """Branch tokens (each (B, d_model) or None when disabled) -> (B, d_model)."""
        present = [f for f in (f_cs, f_sg, f_cg) if f is not None]
        if not present:
            raise ConfigError("fuse: every branch is disabled")
        batch_size = present[0].shape[0]
        if self.config.fusion_mode == "concat":
            return self.concat_proj(present[0] if len(present) == 1 else concat(present, axis=1))
        tokens = [
            f if f is not None else self._tile(null, batch_size)
            for f, null in ((f_cs, self.null_cs), (f_sg, self.null_sg), (f_cg, self.null_cg))
        ]
        tokens.append(self._tile(self.p_cas, batch_size))
        out = self.encoder(concat(tokens, axis=0), self._block_mask(batch_size))
        return slice_rows(out, 3 * batch_size, 4 * batch_size)

    def predict_from_state(self, cas_state: Tensor) -> Tensor:
        return self.head(cas_state)

    def forward(self, batch: FeatureBatch) -> Tensor:
        """(B,) batch -> (B, 1) unclamped predicted log-popularity."""
        c = self.config
        f_cs = (
            self.encode_cascade_sequence(batch.walk_idx, batch.walk_mask, batch.size)
            if c.use_cs
            else None
        )
        f_sg = self.encode_social(batch.social) if c.use_sg else None
        f_cg = (
            self._cg_from_blocks(batch.p_block, batch.h_block, batch.pool)
            if c.use_cg
            else None
        )
        return self.predict_from_state(self.fuse(f_cs, f_sg, f_cg))

    def predict_logs(self, batch: FeatureBatch) -> np.ndarray:
        """Inference: clamp below at zero (popularity is non-negative)."""
        return np.maximum(self.forward(batch).data[:, 0], 0.0)

    # ------------------------------------------------------------------
    # constants

    def _tile(self, row: Parameter, batch_size: int) -> Tensor:
        return gather_rows(row, np.zeros(batch_size, dtype=np.int64))

    def _block_mask(self, batch_size: int) -> np.ndarray:
        mask = self._mask_cache.get(batch_size)
        if mask is None:
            pos = np.arange(4 * batch_size) % batch_size
            mask = np.where(pos[:, None] == pos[None, :], 0.0, -1e30)
            self._mask_cache[batch_size] = mask
        return mask

    def _walk_pool(self, batch_size: int, k: int) -> sp.csr_matrix:
        pool = self._walk_pool_cache.get((batch_size, k))
        if pool is None:
            rows = np.repeat(np.arange(batch_size), k)
            cols = np.arange(batch_size * k)
            vals = np.full(batch_size * k, 1.0 / k)
            pool = sp.csr_matrix((vals, (rows, cols)), shape=(batch_size, batch_size * k))
            self._walk_pool_cache[(batch_size, k)] = pool
        return pool


# ----------------------------------------------------------------------
# loss and metrics


def msle_loss(pred: Tensor, true_logs: np.ndarray) -> Tensor:
    """Mean squared error in log2(x+1) space; no clamp (training loss)."""
    true_logs = np.asarray(true_logs, dtype=np.float64)
    if pred.shape != true_logs.shape:
        raise ShapeError(f"msle_loss: predictions {pred.shape} vs targets {true_logs.shape}")
    return mean_all(square(add_const(pred, -true_logs)))


def msle_loss_value(pred_logs, true_sizes) -> float:
    """Plain-python contract: scalar loss from log-preds and raw final deltas."""
    pred_logs = np.asarray(pred_logs, dtype=np.float64)
    true_sizes = np.asarray(true_sizes)
    if pred_logs.shape != true_sizes.shape or pred_logs.size == 0:
        raise ShapeError(
            f"msle_loss_value: got {pred_logs.shape} predictions vs {true_sizes.shape} targets"
        )
    return float(np.mean((pred_logs - log2p1(true_sizes)) ** 2))


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
