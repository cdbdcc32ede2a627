from dataclasses import replace

import numpy as np
import pytest

from hienet.cascade import build_global_graph, parse_cascade_line
from hienet.errors import ConfigError, ShapeError
from hienet.features import FeatureParams, build_batch, featurize_corpus, from_log2p1, log2p1
from hienet.model import (
    HIENet,
    ModelConfig,
    metrics_from_logs,
    msle_loss,
    msle_loss_value,
)
from hienet.nn.gradcheck import max_relative_error
from hienet.nn.tensor import Parameter, constant, mean_all, square

LINES = [
    "a\tr1\t0\t9\tr1:0 r1/x1:50 r1/x2:300 r1/x2/x3:700",
    "b\tr2\t0\t4\tr2:0 r2/x1:100",
    "c\tx2\t0\t6\tx2:0 x2/r1:40 x2/x4:90 x2/x4/x5:200 x2/x1:600",
]
WINDOW = 1000
FP = FeatureParams(
    k_walks=3, walk_len=4, beta=0.8, alpha=0.9, max_pairs=4, m_max=3, pe_dim=4, time_bins=8
)


@pytest.fixture(scope="module")
def corpus():
    records = [parse_cascade_line(line) for line in LINES]
    ggraph = build_global_graph(records)
    feats = featurize_corpus(records, WINDOW, ggraph, FP, global_seed=7)
    return ggraph, feats


def tiny_config(**over):
    base = dict(
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
    return ModelConfig(**base)


def build_model(ggraph, **over):
    return HIENet(tiny_config(vocab=ggraph.num_users + 1, **over), seed=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(vocab=10, use_cs=False, use_sg=False, use_cg=False)
    with pytest.raises(ConfigError):
        tiny_config(vocab=10, mlp_sizes=())
    with pytest.raises(ConfigError):
        tiny_config(vocab=10, fusion_mode="sum")
    with pytest.raises(ConfigError):
        tiny_config(vocab=10, d_model=9)
    with pytest.raises(ConfigError):
        tiny_config(vocab=10, pe_dim=5)


def test_zeroed_sequence_branch_is_projection_bias(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    for part in (model.cs_embed, model.inner_f, model.inner_b, model.outer_f, model.outer_b):
        for p in part.params():
            p.data[...] = 0.0
    model.cs_proj.b.data[...] = 0.75
    model.cs_proj.w.data[...] = 0.0
    f = feats[0]
    out = model.encode_cascade_sequence(f.walk_idx, f.walk_mask)
    assert np.allclose(out.data, 0.75)


def test_single_walk_batch(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    f = feats[1]
    out = model.encode_cascade_sequence(f.walk_idx[:1], f.walk_mask[:1])
    assert out.shape == (1, 8)


def test_embedding_grad_sparsity_matches_walk_membership(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    batch = build_batch(feats, model.enc_table)
    f_cs = model.encode_cascade_sequence(batch.walk_idx, batch.walk_mask, batch.size)
    mean_all(square(f_cs)).backward()
    grad_rows = np.abs(model.cs_embed.table.grad).sum(axis=1)
    visited = set(batch.walk_idx[batch.walk_mask > 0].ravel().tolist())
    for row in range(grad_rows.size):
        if row in visited:
            assert grad_rows[row] > 0.0
        else:
            assert grad_rows[row] == 0.0


def graph_token(model, feat, snaps):
    """The cg branch's token for ``feat`` with its snapshot list replaced."""
    batch = build_batch([replace(feat, snaps=snaps)], model.enc_table)
    return model._cg_from_blocks(batch.p_block, batch.h_block, batch.pool)


def test_subcascade_shape_and_duplicate_pooling(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    root_only = feats[1].snaps[:1]
    one = graph_token(model, feats[1], root_only)
    assert one.shape == (1, 8)
    doubled = graph_token(model, feats[1], root_only * 2)
    assert np.allclose(one.data, doubled.data)


def test_subcascade_node_relabel_invariance(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    snaps = feats[2].snaps
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


def test_fuse_rejects_all_disabled(corpus):
    ggraph, _ = corpus
    model = build_model(ggraph)
    with pytest.raises(ConfigError):
        model.fuse(None, None, None)


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
    batch = build_batch(feats, model.enc_table)
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
    batch = build_batch(feats, model.enc_table)
    msle_loss(model.forward(batch), batch.true_logs).backward()
    assert model.sg_embed.table.grad is None
    assert model.sg_proj.w.grad is None and model.sg_proj.b.grad is None
    assert model.cs_embed.table.grad is not None
    assert model.gcn_w1.grad is not None


def test_batched_forward_matches_single(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    batch = build_batch(feats, model.enc_table)
    batched = model.forward(batch).data[:, 0]
    singles = np.array([model.forward(build_batch([f], model.enc_table)).data[0, 0] for f in feats])
    assert np.abs(batched - singles).max() < 1e-9


def test_prediction_determinism_and_clamp(corpus):
    ggraph, feats = corpus
    model = build_model(ggraph)
    first = model.predict_logs(build_batch(feats[:1], model.enc_table))
    second = model.predict_logs(build_batch(feats[:1], model.enc_table))
    assert first == second
    # force a negative raw output; the reported log-popularity clamps to 0
    model.head.out.w.data[...] = 0.0
    model.head.out.b.data[...] = -0.3
    batch = build_batch(feats, model.enc_table)
    assert np.allclose(model.predict_logs(batch), 0.0)
    assert model.forward(batch).data.min() == -0.3


def test_log_transform_round_trip():
    assert from_log2p1(3.0) == pytest.approx(7.0)
    assert log2p1(7) == pytest.approx(3.0)
    assert from_log2p1(0.0) == 0.0


def test_msle_hand_values_and_errors():
    assert msle_loss_value([3.0], [3]) == pytest.approx(1.0)
    assert msle_loss_value([2.0, 3.0], [3, 7]) == pytest.approx(0.0)
    with pytest.raises(ShapeError):
        msle_loss_value([1.0, 2.0], [1])
    with pytest.raises(ShapeError):
        msle_loss_value([], [])


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
    batch = build_batch(feats, model.enc_table)

    def loss():
        return msle_loss(model.forward(batch), batch.true_logs)

    # spot-check one parameter per block to keep runtime sane
    checked = [
        model.cs_embed.table,
        model.inner_f.b,
        model.outer_b.wh,
        model.cs_proj.w,
        model.sg_embed.table,
        model.gcn_w1,
        model.gcn_w2,
        model.cg_proj.b,
        model.head.out.w,
        model.head.layers[0].b,
    ]
    if fusion == "transformer":
        checked += [model.p_cas, model.encoder.wq.w, model.encoder.ln2.gamma]
    else:
        checked += [model.concat_proj.w]
    assert max_relative_error(loss, checked) < 1e-4
