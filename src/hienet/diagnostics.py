"""Numerical health checks exposed to the CLI and the test suite.

``gradient_check_report`` verifies every layer family against central
finite differences: each isolated check sweeps every entry of every
parameter, while the end-to-end check samples a few entries per parameter
(full sweeps of a whole model are quadratically expensive and add nothing
once each layer is exact in isolation).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .cascade import build_global_graph
from .features import FeatureParams, build_batch, featurize_corpus
from .model import HIENet, ModelConfig, msle_loss
from .nn.gradcheck import max_relative_error
from .nn.layers import (
    LSTM,
    MLP,
    Embedding,
    TransformerEncoderLayer,
    bilstm_forward,
    normalize_adjacency,
)
from .nn import tensor as T
from .nn.tensor import Tensor, concat, gather_rows, mean_all, square
from .snapshots import encoding_table
from .synth import SyntheticSpec, generate_synthetic

PASS_THRESHOLD = 1e-4


def _sq_mean(t) -> Tensor:
    return mean_all(square(t))


def _check_primitives(rng) -> float:
    """One composite graph routing through every differentiable op."""
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    spmat = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.5, 0.0, 0.0]]))

    def loss():
        x = T.matmul(a, b)
        x = T.add_bias(x, bias)
        x = T.add(x, T.mul(x, T.sigmoid(x)))
        x = T.add(x, T.tanh(x))
        x = T.scale_cols(x, bias)
        x = T.mul_const(x, np.array([[1.0, -0.5, 2.0, 0.25]]))
        x = T.add_const(x, 0.3)
        x = T.scale(x, 0.7)
        x = T.sparse_matmul(spmat, x)
        y = T.concat([x, T.matmul(x, T.transpose(x))], axis=1)
        y = T.concat([y, T.relu(y)], axis=0)
        y = T.slice_rows(y, 1, 5)
        y = T.slice_cols(y, 0, 6)
        y = T.gather_rows(y, np.array([0, 2, 2, 3]))
        y = T.layer_norm_rows(y)
        y = T.softmax_rows(y)
        return mean_all(square(y))

    return max_relative_error(loss, [a, b, bias])


def _check_embedding(rng) -> float:
    emb = Embedding("emb", vocab=7, dim=5, rng=rng)
    idx = np.array([0, 3, 3, 6, 1])  # duplicate row exercises grad accumulation
    return max_relative_error(lambda: _sq_mean(gather_rows(emb.table, idx)), emb.params())


def _check_bilstm(rng) -> float:
    fwd = LSTM("f", in_dim=3, hidden=4, rng=rng)
    bwd = LSTM("b", in_dim=3, hidden=4, rng=rng)
    steps_data = [rng.normal(size=(2, 3)) for _ in range(3)]
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])  # one padded tail
    inputs = [Tensor(d, requires_grad=True) for d in steps_data]

    def loss():
        return _sq_mean(concat(list(bilstm_forward(inputs, fwd, bwd, mask)), axis=1))

    return max_relative_error(loss, fwd.params() + bwd.params() + inputs)


def _check_attention(rng) -> float:
    layer = TransformerEncoderLayer("enc", d_model=8, heads=2, ff_hidden=12, rng=rng)
    x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    mask = np.zeros((4, 4))
    mask[0, 2] = mask[2, 0] = -1e30  # keep one blocked pair in the path
    return max_relative_error(lambda: _sq_mean(layer(x, mask)), layer.params() + [x])


def _check_mlp(rng) -> float:
    head = MLP("head", in_dim=6, hidden_sizes=(8, 4), rng=rng)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    return max_relative_error(lambda: _sq_mean(head(x)), head.params() + [x])


def _tiny_model(vocab: int, seed: int) -> HIENet:
    config = ModelConfig(
        vocab=vocab,
        embed_dim=4,
        lstm_hidden=3,
        pe_dim=4,
        time_bins=8,
        gcn_hidden=5,
        d_model=8,
        heads=2,
        ff_hidden=10,
        mlp_sizes=(8, 4),
    )
    return HIENet(config, seed=seed)


def _check_gcn(rng, seed: int) -> float:
    """The model's snapshot GCN: two sparse propagations, then pooling.

    One cascade with a 4-node and a 1-node snapshot, laid out as
    ``build_batch`` lays them out: block-diagonal propagation, node features
    looked up from the encoding table, pool weight 1/(m * n_j) per node.
    """
    model = _tiny_model(vocab=9, seed=seed)
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 2] = a[0, 3] = 1.0
    p_block = sp.block_diag(
        [normalize_adjacency(a + a.T), normalize_adjacency(np.zeros((1, 1)))], format="csr"
    )
    h_block = model.enc_table[rng.integers(0, model.config.time_bins, size=5)]
    pool = sp.csr_matrix(np.array([[1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 2]]))
    tensors = [model.gcn_w1, model.gcn_w2] + model.cg_proj.params()
    return max_relative_error(
        lambda: _sq_mean(model._cg_from_blocks(p_block, h_block, pool)), tensors
    )


def _check_fusion(rng, seed: int) -> float:
    model = _tiny_model(vocab=9, seed=seed)
    f_cs = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    f_cg = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    # social branch left out so the learned null token is on the path
    tensors = [f_cs, f_cg, model.null_sg, model.p_cas] + model.encoder.params()
    return max_relative_error(lambda: _sq_mean(model.fuse(f_cs, None, f_cg)), tensors)


def _end_to_end_setup(seed: int):
    records, _ = generate_synthetic(
        SyntheticSpec(num_users=25, num_cascades=8, mean_branching=1.5, seed=seed + 100)
    )
    # largest cascades first: an all-zero-label batch on an untrained model
    # can sit exactly at a zero-gradient point, making the check vacuous
    records = sorted(records, key=lambda r: (-r.final_size, r.message_id))[:3]
    ggraph = build_global_graph(records)
    fp = FeatureParams(
        k_walks=2, walk_len=4, beta=0.8, alpha=0.9, max_pairs=4, m_max=3, pe_dim=4, time_bins=8
    )
    feats = featurize_corpus(records, 21600, ggraph, fp, global_seed=seed)
    batch = build_batch(feats, encoding_table(fp.encoding))
    model = _tiny_model(vocab=ggraph.num_users + 1, seed=seed)
    return model, batch


def _check_end_to_end(rng, seed: int) -> float:
    model, batch = _end_to_end_setup(seed)
    # tiny=1e-5: gradients vanish below 1e-6 through the stacked
    # recurrences, where the numeric slope at step 1e-5 is float64 roundoff
    # in the loss; such entries are compared absolutely instead
    return max_relative_error(
        lambda: msle_loss(model.forward(batch), batch.true_logs),
        model.params(),
        tiny=1e-5,
        sample=4,
        rng=rng,
    )


def gradient_check_report(seed: int = 0) -> dict[str, float]:
    """Max relative error per layer family; everything should sit < 1e-4."""
    rng = np.random.default_rng(seed)
    return {
        "primitives": _check_primitives(rng),
        "embedding": _check_embedding(rng),
        "bilstm": _check_bilstm(rng),
        "gcn": _check_gcn(rng, seed),
        "attention": _check_attention(rng),
        "mlp": _check_mlp(rng),
        "fusion": _check_fusion(rng, seed),
        "end_to_end": _check_end_to_end(rng, seed),
    }


def worst_over_seeds(seeds) -> dict[str, float]:
    """Per-check worst error across several seeds."""
    worst: dict[str, float] = {}
    for seed in seeds:
        for name, err in gradient_check_report(seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
