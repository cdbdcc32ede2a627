import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from hienet.cascade import build_cascade_graph, build_global_graph, parse_cascade_line
from hienet.config import TrainConfig
from hienet.errors import ConfigError, ShapeError
from hienet.features import build_batch, featurize_corpus, fold_propagation, from_log2p1, log2p1
from hienet.model import HIENet, metrics_from_logs, msle_loss
from hienet.nn.optim import Adam
from hienet.nn.tensor import Parameter, constant, mean_all, square
from hienet.snapshots import (
    build_snapshots,
    encoding_table,
    snapshot_feature_matrix,
    snapshot_indices,
)
from hienet.synth import SyntheticSpec, generate_synthetic

from gradcheck import end_to_end_setup, max_relative_error
from reference_ops import (
    csr,
    dense_adam_update,
    encode_every_walk,
    scipy_csr,
    snapshot_blocks,
    unfolded_snapshot_tokens,
)

LINES = [
    "a\tr1\t0\t9\tr1:0 r1/x1:50 r1/x2:300 r1/x2/x3:700",
    "b\tr2\t0\t4\tr2:0 r2/x1:100",
    "c\tx2\t0\t6\tx2:0 x2/r1:40 x2/x4:90 x2/x4/x5:200 x2/x1:600",
]
WINDOW = 1000
# the node features read pe_dim and time_bins, so they are the models' (tiny_config)
FEATURES = TrainConfig(
    window=WINDOW, k_walks=3, walk_len=4, max_pairs=4, m_max=3, pe_dim=4, time_bins=8, seed=7
)


@pytest.fixture(scope="module")
def corpus():
    records = [parse_cascade_line(line) for line in LINES]
    ggraph = build_global_graph(records)
    feats = featurize_corpus(records, ggraph, FEATURES)
    return ggraph, feats


def tiny_config(**over):
    base = dict(
        seed=3,
        embed_dim=4,
        lstm_hidden=3,
        pe_dim=4,
        time_bins=8,
        gcn_hidden=5,
        d_model=8,
        heads=2,
        ff_hidden=6,
        mlp_sizes=(16, 8),
    )
    base.update(over)
    return TrainConfig(**base)


def build_model(ggraph, **over):
    return HIENet(tiny_config(**over), vocab=ggraph.vocab)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(use_cs=False, use_sg=False, use_cg=False)
    with pytest.raises(ConfigError):
        tiny_config(mlp_sizes=())
    with pytest.raises(ConfigError):
        tiny_config(fusion_mode="sum")
    with pytest.raises(ConfigError):
        tiny_config(d_model=9)
    with pytest.raises(ConfigError):
        tiny_config(pe_dim=5)


BRANCH_PARAMS = [
    "cs.embed.table",
    "cs.inner_f.wx", "cs.inner_f.wh", "cs.inner_f.b",
    "cs.inner_b.wx", "cs.inner_b.wh", "cs.inner_b.b",
    "cs.outer_f.wx", "cs.outer_f.wh", "cs.outer_f.b",
    "cs.outer_b.wx", "cs.outer_b.wh", "cs.outer_b.b",
    "cs.proj.w", "cs.proj.b",
    "sg.embed.table", "sg.proj.w", "sg.proj.b",
    "cg.w1", "cg.w2", "cg.proj.w", "cg.proj.b",
]
TRANSFORMER_PARAMS = [
    "fuse.enc.wq.w", "fuse.enc.wq.b", "fuse.enc.wk.w", "fuse.enc.wk.b",
    "fuse.enc.wv.w", "fuse.enc.wv.b", "fuse.enc.wo.w", "fuse.enc.wo.b",
    "fuse.enc.ln1.gamma", "fuse.enc.ln1.beta",
    "fuse.enc.ff1.w", "fuse.enc.ff1.b", "fuse.enc.ff2.w", "fuse.enc.ff2.b",
    "fuse.enc.ln2.gamma", "fuse.enc.ln2.beta",
    "fuse.cas", "fuse.null_cs", "fuse.null_sg", "fuse.null_cg",
]
HEAD_PARAMS = ["head.h0.w", "head.h0.b", "head.h1.w", "head.h1.b", "head.out.w", "head.out.b"]


@pytest.mark.parametrize(
    "fusion, fuse_params",
    [("transformer", TRANSFORMER_PARAMS), ("concat", ["fuse.concat.w", "fuse.concat.b"])],
)
def test_param_order_pins_the_checkpoint_layout(fusion, fuse_params):
    """``params()`` order is the ``weights.bin`` layout: reordering the
    model's ``__init__`` would make older checkpoints load wrong."""
    model = HIENet(tiny_config(fusion_mode=fusion), vocab=5)
    assert [p.name for p in model.params()] == BRANCH_PARAMS + fuse_params + HEAD_PARAMS


def test_zeroed_sequence_branch_is_projection_bias(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    for part in (model.cs_embed, model.inner_f, model.inner_b, model.outer_f, model.outer_b):
        for p in part.params():
            p.data[...] = 0.0
    model.cs_proj.b.data[...] = 0.75
    model.cs_proj.w.data[...] = 0.0
    f = feats[0]
    out = model.encode_cascade_sequence(f.walk_idx, f.walk_lengths, f.walk_of)
    assert np.allclose(out.data, 0.75)


def test_single_walk_batch(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    f = feats[1]
    out = model.encode_cascade_sequence(f.walk_idx[: f.walk_lengths[0]], f.walk_lengths[:1], [0])
    assert out.shape == (1, 8)


def test_walk_lengths_must_fit_the_walks(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    f = feats[0]
    assert f.walk_of.tolist() == [0, 1, 2]
    negative = f.walk_lengths.copy()
    negative[:2] = (-1, negative[0] + negative[1] + 1)  # the sum still fits
    # each case names the check it must reach, so an earlier one cannot mask it
    cases = [
        (f.walk_lengths + 1, f.walk_of, 1, "do not hold"),
        (f.walk_lengths[:-1], f.walk_of[:-1], 1, "do not hold"),
        (negative, f.walk_of, 1, "counts >= 0"),
        (f.walk_lengths, f.walk_of, 2, "do not hold"),  # 3 walks do not form 2 cascades
        (f.walk_lengths, [0, -1, 2], 1, "index outside"),  # walk_of names no distinct walk
        (f.walk_lengths, [0, 1, 3], 1, "index outside"),
    ]
    for lengths, walk_of, batch_size, message in cases:
        with pytest.raises(ShapeError, match=message):
            model.encode_cascade_sequence(f.walk_idx, lengths, walk_of, batch_size)


def test_embedding_grad_sparsity_matches_walk_membership(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    batch = build_batch(feats)
    f_cs = model.encode_cascade_sequence(
        batch.walk_idx, batch.walk_lengths, batch.walk_of, batch.size
    )
    mean_all(square(f_cs)).backward()
    table = model.cs_embed.table
    assert table.grad_rows.tolist() == sorted(set(batch.walk_idx.tolist()))
    assert (np.abs(table.grad).sum(axis=1) > 0.0).all()


def test_first_lazy_adam_step_matches_dense_adam(corpus):
    """From fresh moments, one step leaves every parameter, the row-sparse
    tables included, bit-identical to dense Adam on the densified gradients."""
    ggraph, feats = corpus
    batch = build_batch(feats)
    model, reference = build_model(ggraph), build_model(ggraph)
    for m in (model, reference):
        msle_loss(m.forward(batch), batch.true_logs).backward()
    assert model.cs_embed.table.grad_rows is not None
    assert model.sg_embed.table.grad_rows is not None
    opt = Adam(model.params(), lr=0.05)
    opt.step()
    for p, ref in zip(model.params(), reference.params()):
        dense_adam_update(ref, np.zeros_like(ref.data), np.zeros_like(ref.data), 1, 0.05)
        assert p.data.tobytes() == ref.data.tobytes(), p.name


def test_table_gradients_hold_only_the_touched_rows(corpus):
    """The table gradients Adam receives have one row per row the batch
    reads, and the same size at V=1k as at V=100k; the sg branch's gathered
    read gives the same bits as ``social @ table``."""
    ggraph, feats = corpus
    batch = build_batch(feats)
    sizes = []
    for vocab in (1_000, 100_000):
        social = batch.social._replace(shape=(batch.size, vocab))
        model = HIENet(tiny_config(), vocab=vocab)
        direct = model.sg_proj(constant(scipy_csr(social) @ model.sg_embed.table.data)).data
        assert model.encode_social(social).data.tobytes() == direct.tobytes()
        msle_loss(model.forward(replace(batch, social=social)), batch.true_logs).backward()
        Adam(model.params(), lr=1e-3).step()
        cs, sg = model.cs_embed.table, model.sg_embed.table
        assert cs.grad_rows.tolist() == np.unique(batch.walk_idx).tolist()
        assert sg.grad_rows.tolist() == np.unique(social.cols).tolist()
        sizes.append((cs.grad.nbytes, sg.grad.nbytes))
    assert sizes[0] == sizes[1]


def test_default_batches_hold_only_real_walk_steps():
    """Every batch of the default corpus gathers one row per real walk step."""
    config = TrainConfig()
    records, _ = generate_synthetic(SyntheticSpec())
    feats = featurize_corpus(records, build_global_graph(records), config)
    for lo in range(0, len(feats), config.batch_size):
        batch = build_batch(feats[lo : lo + config.batch_size])
        assert batch.walk_idx.shape == (batch.walk_lengths.sum(),)


def test_distinct_walk_encoding_matches_every_walk_reference():
    """Encoding each distinct walk once gives the cs token and every cs
    gradient of encoding each sampled walk on its own, on every default
    batch, up to float summation order."""
    config = TrainConfig()
    records, _ = generate_synthetic(SyntheticSpec())
    graph = build_global_graph(records)
    feats = featurize_corpus(records, graph, config)
    model = HIENet(config, vocab=graph.vocab)
    cs_params = [p for p in model.params() if p.name.startswith("cs.")]

    def token_and_grads(encode, batch):
        for p in cs_params:
            p.grad = None
        token = encode(model, batch.walk_idx, batch.walk_lengths, batch.walk_of, batch.size)
        mean_all(square(token)).backward()
        return token.data, [p.dense_grad() for p in cs_params]

    for lo in range(0, len(feats), config.batch_size):
        batch = build_batch(feats[lo : lo + config.batch_size])
        assert batch.walk_lengths.size < batch.walk_of.size  # some walk repeats
        token, grads = token_and_grads(HIENet.encode_cascade_sequence, batch)
        ref_token, ref_grads = token_and_grads(encode_every_walk, batch)
        assert np.abs(token - ref_token).max() <= 1e-12
        for p, g, ref in zip(cs_params, grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12, p.name


def test_gradient_check_batch_repeats_a_walk():
    """Criterion 1's end-to-end check runs on seed 0's batch, so it covers
    the gather that expands a distinct walk to several sampled walks."""
    _, batch = end_to_end_setup(0)
    assert np.unique(batch.walk_of).size < batch.walk_of.size


def snapshots_of(k):
    """Cascade k's kept snapshots as dense (propagation block, bins) pairs."""
    graph = build_cascade_graph(parse_cascade_line(LINES[k]), WINDOW)
    propagation, bins, _ = build_snapshots(
        *snapshot_feature_matrix(graph, FEATURES.time_bins), FEATURES.m_max
    )
    return snapshot_blocks(propagation, bins, snapshot_indices(graph.num_nodes, FEATURES.m_max))


def graph_token(model, feat, snaps):
    """The cg branch's token for ``feat`` with its snapshot list replaced."""
    sizes = [bins.size for _, bins in snaps]
    node_feats, pool_weights = fold_propagation(
        csr(block_diag(*[block for block, _ in snaps])),
        np.concatenate([bins for _, bins in snaps]),
        np.repeat([1.0 / (len(snaps) * n) for n in sizes], sizes),
        encoding_table(FEATURES.pe_dim, FEATURES.time_bins),
    )
    batch = build_batch([replace(feat, node_feats=node_feats, pool_weights=pool_weights)])
    return model.encode_snapshots(batch.node_feats, batch.pool)


def test_folded_snapshot_tokens_match_the_unfolded_gcn():
    """A default batch's cg tokens, one sparse matmul over the folded
    features, equal the two-layer GCN that propagates twice and then pools,
    to within float64 roundoff (the fold reassociates the sums)."""
    config = TrainConfig(seed=0)
    records, _ = generate_synthetic(SyntheticSpec())
    records = records[: config.batch_size]
    graph = build_global_graph(records)
    model = HIENet(config, vocab=graph.vocab)
    batch = build_batch(featurize_corpus(records, graph, config))
    cascades = [build_cascade_graph(rec, config.window) for rec in records]
    assert any(g.num_nodes > config.m_max for g in cascades)  # some snapshots are capped
    snapshots = [
        build_snapshots(*snapshot_feature_matrix(g, config.time_bins), config.m_max)
        for g in cascades
    ]
    want = unfolded_snapshot_tokens(model, snapshots)
    got = model.encode_snapshots(batch.node_feats, batch.pool).data
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_subcascade_shape_and_duplicate_pooling(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    root_only = snapshots_of(1)[:1]
    one = graph_token(model, feats[1], root_only)
    assert one.shape == (1, 8)
    doubled = graph_token(model, feats[1], root_only * 2)
    assert np.allclose(one.data, doubled.data)


def test_subcascade_node_relabel_invariance(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    snaps = snapshots_of(2)
    rng = np.random.default_rng(0)
    permuted = []
    for p, bins in snaps:
        perm = rng.permutation(bins.shape[0])
        permuted.append((p[np.ix_(perm, perm)], bins[perm]))
    base = graph_token(model, feats[2], snaps).data
    relabeled = graph_token(model, feats[2], permuted).data
    assert np.abs(base - relabeled).max() < 1e-9


def test_fuse_modality_order_invariance(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    rng = np.random.default_rng(4)
    a, b, c = (constant(rng.normal(size=(2, 8))) for _ in range(3))
    orders = [model.fuse(a, b, c).data, model.fuse(b, c, a).data, model.fuse(c, a, b).data]
    assert np.abs(orders[0] - orders[1]).max() < 1e-9
    assert np.abs(orders[0] - orders[2]).max() < 1e-9


def test_fuse_identical_tokens_pass_through(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    rng = np.random.default_rng(5)
    token = rng.normal(size=(1, 8))
    model.p_cas.data[...] = token
    t = constant(token)
    fused = model.fuse(t, t, t).data
    direct = model.encoder(constant(token)).data
    assert np.allclose(fused, direct)


def test_concat_single_branch_is_linear_map(corpus):
    ggraph, _ = corpus
    model = build_model(ggraph, use_cs=False, use_cg=False, fusion_mode="concat")
    x = constant(np.random.default_rng(6).normal(size=(3, 8)))
    fused = model.fuse(None, x, None).data
    manual = x.data @ model.concat_proj.w.data + model.concat_proj.b.data
    assert np.allclose(fused, manual)


def test_null_tokens_replace_disabled_branches(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph, use_sg=False)
    batch = build_batch(feats)
    out = model.forward(batch)
    assert out.shape == (3, 1)
    loss = msle_loss(out, batch.true_logs)
    loss.backward()
    assert model.null_sg.grad is not None and np.abs(model.null_sg.grad).sum() > 0
    # enabled branches keep their nulls out of the graph
    assert model.null_cs.grad is None and model.null_cg.grad is None


def test_disabled_branch_gets_no_gradient(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph, use_sg=False)
    batch = build_batch(feats)
    msle_loss(model.forward(batch), batch.true_logs).backward()
    assert model.sg_embed.table.grad is None
    assert model.sg_proj.w.grad is None and model.sg_proj.b.grad is None
    assert model.cs_embed.table.grad is not None
    assert model.gcn_w1.grad is not None


def test_batched_forward_matches_single(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    batch = build_batch(feats)
    batched = model.forward(batch).data[:, 0]
    singles = [model.forward(build_batch([f])).data[0, 0] for f in feats]
    assert np.abs(batched - np.array(singles)).max() < 1e-9


def test_prediction_determinism_and_clamp(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    first = model.predict_logs(build_batch(feats[:1]))
    second = model.predict_logs(build_batch(feats[:1]))
    assert first == second
    # force a negative raw output; the reported log-popularity clamps to 0
    model.head.out.w.data[...] = 0.0
    model.head.out.b.data[...] = -0.3
    batch = build_batch(feats)
    assert np.allclose(model.predict_logs(batch), 0.0)
    assert model.forward(batch).data.min() == -0.3


@pytest.mark.parametrize("fusion", ["transformer", "concat"])
def test_predict_logs_is_a_forward_that_records_nothing(corpus, fusion):
    ggraph, feats = corpus
    model = build_model(ggraph, fusion_mode=fusion)
    batch = build_batch(feats)
    recorded = model.forward(batch)
    outputs = []

    def forward(b):
        outputs.append(HIENet.forward(model, b))
        return outputs[-1]

    model.forward = forward  # predict_logs calls self.forward
    pred = model.predict_logs(batch)
    (out,) = outputs
    assert out.data.tobytes() == recorded.data.tobytes()
    assert pred.tobytes() == np.maximum(recorded.data[:, 0], 0.0).tobytes()
    assert recorded._parents and recorded._backward is not None
    assert (out.requires_grad, out._parents, out._backward) == (False, (), None)
    # recording resumes once predict_logs returns
    assert HIENet.forward(model, batch)._parents


def _traced_peak(call) -> int:
    """The most memory traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_logs_frees_what_a_recorded_forward_keeps():
    """On a default evaluation batch of 64 cascades, a recorded forward keeps
    every intermediate for a backward pass that inference never runs."""
    config = TrainConfig(seed=0)
    records, _ = generate_synthetic(SyntheticSpec())
    records = records[:64]
    graph = build_global_graph(records)
    batch = build_batch(featurize_corpus(records, graph, config))
    model = HIENet(config, vocab=graph.vocab)
    model.predict_logs(batch)
    recorded = _traced_peak(lambda: model.forward(batch))
    frozen = _traced_peak(lambda: model.predict_logs(batch))
    assert frozen < recorded / 2


def test_log_transform_round_trip():
    assert from_log2p1(3.0) == pytest.approx(7.0)
    assert log2p1(7) == pytest.approx(3.0)
    assert from_log2p1(0.0) == 0.0


def test_msle_gradient_matches_analytic_and_fd():
    rng = np.random.default_rng(8)
    pred = Parameter("pred", rng.normal(size=(4, 1)))
    true_logs = log2p1(rng.integers(0, 20, size=(4, 1)))
    loss = msle_loss(pred, true_logs)
    loss.backward()
    assert np.allclose(pred.grad, 2.0 / 4.0 * (pred.data - true_logs))
    assert max_relative_error(lambda: msle_loss(pred, true_logs), [pred]) < 1e-6


def test_metrics_hand_values():
    true_logs = np.zeros(3)
    pred_logs = np.array([0.0, 1.0, 2.0])  # squared errors 0, 1, 4
    m = metrics_from_logs(pred_logs, true_logs)
    assert m["MSLE"] == pytest.approx(5.0 / 3.0)
    assert m["mSLE"] == pytest.approx(1.0)
    perfect = metrics_from_logs(true_logs, true_logs)
    assert perfect == {"MSLE": 0.0, "mSLE": 0.0}
    single = metrics_from_logs([1.5], [0.5])
    assert single["MSLE"] == single["mSLE"] == pytest.approx(1.0)
    # even count uses the lower median
    m4 = metrics_from_logs([0.0, 1.0, 2.0, 3.0], np.zeros(4))
    assert m4["mSLE"] == pytest.approx(1.0)
    with pytest.raises(ShapeError):
        metrics_from_logs([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        metrics_from_logs([], [])


@pytest.mark.parametrize("fusion", ["transformer", "concat"])
def test_end_to_end_gradcheck_tiny(corpus, fusion):
    ggraph, feats = corpus
    model = build_model(ggraph, fusion_mode=fusion)
    batch = build_batch(feats)

    def loss():
        return msle_loss(model.forward(batch), batch.true_logs)

    # spot-check one parameter per block to keep runtime sane
    checked = [
        model.cs_embed.table,
        model.inner_f.b,
        model.inner_b.wx,
        model.cs_proj.w,
        model.sg_embed.table,
        model.gcn_w1,
        model.gcn_w2,
        model.cg_proj.b,
        model.head.out.w,
        model.head.layers[0].b,
        model.outer_b.wh,
    ]
    if fusion == "transformer":
        checked += [model.p_cas, model.encoder.wq.w, model.encoder.ln2.gamma]
    else:
        checked += [model.concat_proj.w]
    assert max_relative_error(loss, checked) < 1e-4
