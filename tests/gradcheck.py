"""Central finite-difference checks of backward rules, for the tests.

``max_relative_error`` perturbs every entry of every checked tensor by
±step, rebuilds the scalar loss, and compares the numeric slope against the
gradient produced by ``backward()`` (densified when it is row-sparse).
Relative error uses max(|analytic|, |numeric|) as denominator; when both
are below ``tiny`` the comparison falls back to absolute error, since the
ratio of two rounding-noise values is meaningless.

``gradient_check_report`` verifies every layer family with it: each
isolated check sweeps every entry of every parameter, while the end-to-end
check samples a few entries per parameter (full sweeps of a whole model are
quadratically expensive and add nothing once each layer is exact in
isolation).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

import hienet.nn.tensor as T
from hienet.cascade import build_global_graph, parse_cascade_line
from hienet.config import TrainConfig
from hienet.features import build_batch, featurize_corpus
from hienet.model import HIENet, msle_loss, weighted_rows
from hienet.nn.layers import LSTM, MLP, Embedding, TransformerEncoderLayer
from hienet.nn.tensor import COO, Tensor, concat, gather_rows, mean_all, square
from hienet.synth import SyntheticSpec, generate_synthetic


def max_relative_error(
    loss_fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    step: float = 1e-5,
    tiny: float = 1e-7,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst disagreement between backward() and central differences.

    ``loss_fn`` must rebuild the graph from the current tensor contents on
    every call (define-by-run), returning a scalar Tensor. With ``sample``
    set, at most that many entries per tensor are perturbed, chosen by
    ``rng``, which must then be given; this keeps whole-model checks
    affordable. Layer-level checks should leave it unset and sweep every
    entry.
    """
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [t.dense_grad().copy() for t in tensors]

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        if sample is not None and flat.size > sample:
            entries = rng.choice(flat.size, size=sample, replace=False)
        else:
            entries = range(flat.size)
        for i in entries:
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().data)
            flat[i] = orig - step
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = grad.reshape(-1)[i]
            denom = max(abs(a), abs(numeric))
            if denom < tiny:
                err = abs(a - numeric)
            else:
                err = abs(a - numeric) / denom
            worst = max(worst, err)
    return worst


def _sq_mean(t) -> Tensor:
    return mean_all(square(t))


def _random_final_norm(layer: TransformerEncoderLayer, rng) -> None:
    """With its initial unit scale and zero shift, the encoder's final layer
    norm makes every row's mean square exactly 1, so ``_sq_mean`` of its
    output would be constant and its gradient zero."""
    for p in layer.ln2.params():
        p.data[...] = rng.normal(size=p.shape)


def _check_primitives(rng) -> float:
    """A composite graph through every op but ``lstm_sequence`` and ``attention``,
    not ending in a unit-gain layer norm, whose mean square is constant."""
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    # [[1, 0, 2], [0, 3, 0], [0.5, 0, 0]]
    spmat = COO(
        np.array([0, 0, 1, 2], dtype=np.int32),
        np.array([0, 2, 1, 0], dtype=np.int32),
        np.array([1.0, 2.0, 3.0, 0.5]),
        (3, 3),
    )

    def loss():
        x = T.matmul(a, b)
        x = T.add_bias(x, bias)
        x = T.add(x, T.square(x))
        x = T.layer_norm_rows(x, bias, bias)
        x = T.sparse_matmul(spmat, x)
        y = T.concat([x, T.matmul(x, b)], axis=1)
        y = T.concat([y, T.relu(y)], axis=0)
        y = T.gather_rows(y, np.array([1, 3, 3, 4]))
        return mean_all(square(y))

    return max_relative_error(loss, [a, b, bias])


def _check_embedding(rng) -> float:
    """The table read both ways the model reads one, gathered by ``idx`` (cs)
    and by ``weighted_rows`` (sg), so both row gradients and their
    coalescing into one are checked."""
    emb = Embedding("emb", vocab=7, dim=5, rng=rng)
    idx = np.array([0, 3, 3, 6, 1])  # duplicate row exercises grad accumulation
    # row 3 is also gathered; row 5 is read by both weight rows
    # [[0, 0, 0, 0.7, 0, 0.3, 0], [0, 0, 0.5, 0, 0, 0.5, 0]]
    weights = COO(
        np.array([0, 0, 1, 1], dtype=np.int32),
        np.array([3, 5, 2, 5], dtype=np.int32),
        np.array([0.7, 0.3, 0.5, 0.5]),
        (2, 7),
    )

    def loss():
        lookups = [gather_rows(emb.table, idx), weighted_rows(weights, emb.table)]
        return _sq_mean(concat(lookups, axis=0))

    return max_relative_error(loss, emb.params())


def _check_bilstm(rng) -> float:
    """Both directions of ``lstm_sequence`` on ragged walks, one of them empty."""
    fwd = LSTM("f", in_dim=3, hidden=4, rng=rng)
    bwd = LSTM("b", in_dim=3, hidden=4, rng=rng)
    lengths = np.array([3, 1, 0, 2])
    # drawn as 4 walks of 3 slots, which later checks' rng stream relies on
    x = Tensor(rng.normal(size=(4 * 3, 3))[[0, 1, 2, 3, 9, 10]], requires_grad=True)

    def loss():
        return _sq_mean(concat([fwd(x, lengths), bwd(x, lengths, reverse=True)], axis=1))

    return max_relative_error(loss, fwd.params() + bwd.params() + [x])


def _check_attention(rng) -> float:
    """The ``attention`` op as fusion runs it, in two groups."""
    layer = TransformerEncoderLayer("enc", d_model=8, heads=2, ff_hidden=12, rng=rng)
    _random_final_norm(layer, rng)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    return max_relative_error(lambda: _sq_mean(layer(x, groups=2)), layer.params() + [x])


def _check_mlp(rng) -> float:
    head = MLP("head", in_dim=6, hidden_sizes=(8, 4), rng=rng)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    return max_relative_error(lambda: _sq_mean(head(x)), head.params() + [x])


def _tiny_config(seed: int, **features) -> TrainConfig:
    """A small model; ``features`` sets the feature extraction of the check."""
    return TrainConfig(
        seed=seed, embed_dim=4, lstm_hidden=3, pe_dim=4, time_bins=8, gcn_hidden=5,
        d_model=8, heads=2, ff_hidden=10, mlp_sizes=(8, 4), **features,
    )


def _check_gcn(rng, seed: int) -> float:
    """The model's snapshot GCN, its propagations folded into the features,
    on the batch ``featurize_corpus`` and ``build_batch`` make of a 6-node
    cascade capped at 3 snapshots, its nodes in random time bins (8 units,
    8 bins)."""
    config = _tiny_config(seed, k_walks=1, walk_len=2, max_pairs=1, m_max=3, window=8)
    model = HIENet(config, vocab=9)
    t = np.sort(rng.integers(0, 8, size=5))
    paths = f"r:0 r/a:{t[0]} r/a/b:{t[1]} r/c:{t[2]} r/a/b/d:{t[3]} r/e:{t[4]}"
    records = [parse_cascade_line(f"m\tr\t0\t9\t{paths}")]
    feats = featurize_corpus(records, build_global_graph(records), config)
    batch = build_batch(feats)
    tensors = [model.gcn_w1, model.gcn_w2] + model.cg_proj.params()
    return max_relative_error(
        lambda: _sq_mean(model.encode_snapshots(batch.node_feats, batch.pool)), tensors
    )


def _check_fusion(rng, seed: int) -> float:
    model = HIENet(_tiny_config(seed), vocab=9)
    _random_final_norm(model.encoder, rng)
    f_cs = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    f_cg = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    # social branch left out so the learned null token is on the path
    tensors = [f_cs, f_cg, model.null_sg, model.p_cas] + model.encoder.params()
    # step 1e-4: some gradient entries are ~4e-7, and at step 1e-5 their
    # central difference carries ~1e-4 relative float64 roundoff in the loss
    return max_relative_error(lambda: _sq_mean(model.fuse(f_cs, None, f_cg)), tensors, step=1e-4)


def end_to_end_setup(seed: int):
    """The untrained tiny model and the batch of three cascades that the
    end-to-end check differentiates at ``seed``."""
    records, _ = generate_synthetic(
        SyntheticSpec(num_users=25, num_cascades=8, mean_branching=1.5, seed=seed + 100)
    )
    # largest cascades first: an all-zero-label batch on an untrained model
    # can sit exactly at a zero-gradient point, making the check vacuous
    records = sorted(records, key=lambda r: (-r.final_size, r.message_id))[:3]
    ggraph = build_global_graph(records)
    config = _tiny_config(seed, k_walks=2, walk_len=4, max_pairs=4, m_max=3)
    feats = featurize_corpus(records, ggraph, config)
    model = HIENet(config, vocab=ggraph.vocab)
    return model, build_batch(feats)


def _check_end_to_end(rng, seed: int) -> float:
    model, batch = end_to_end_setup(seed)
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
