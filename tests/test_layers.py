import numpy as np
import pytest
import scipy.sparse as sp

import hienet.nn.tensor as T
from hienet.errors import ConfigError, DataError, ShapeError
from hienet.model import HIENet, ModelConfig
from hienet.nn.checkpoint import load_checkpoint, restore_into, save_checkpoint
from hienet.nn.gradcheck import max_relative_error
from hienet.nn.layers import (
    LSTM,
    MLP,
    Embedding,
    LayerNorm,
    Linear,
    TransformerEncoderLayer,
    bilstm_forward,
    normalize_adjacency,
)
from hienet.nn.optim import Adam
from hienet.nn.tensor import Parameter


def test_linear_matches_manual():
    rng = np.random.default_rng(0)
    lin = Linear("lin", 3, 2, rng)
    x = T.constant(rng.normal(size=(4, 3)))
    assert np.allclose(lin(x).data, x.data @ lin.w.data + lin.b.data)


def test_embedding_grad_sparsity():
    rng = np.random.default_rng(1)
    emb = Embedding("emb", 6, 3, rng)
    out = T.gather_rows(emb.table, np.array([1, 3, 3]))
    T.mean_all(T.square(out)).backward()
    grad_rows = np.abs(emb.table.grad).sum(axis=1)
    assert grad_rows[1] > 0 and grad_rows[3] > 0
    assert grad_rows[0] == grad_rows[2] == grad_rows[4] == grad_rows[5] == 0.0


def test_lstm_zero_weights_zero_states():
    rng = np.random.default_rng(2)
    cell = LSTM("cell", 2, 3, rng)
    for p in cell.params():
        p.data[...] = 0.0
    h, c = cell.zero_state(2)
    for _ in range(3):
        h, c = cell.step(T.constant(np.ones((2, 2))), h, c)
    assert np.array_equal(h.data, np.zeros((2, 3)))
    assert np.array_equal(c.data, np.zeros((2, 3)))


def test_bilstm_pad_copies_state():
    rng = np.random.default_rng(3)
    fwd = LSTM("f", 2, 3, rng)
    bwd = LSTM("b", 2, 3, rng)
    xs = [T.constant(rng.normal(size=(2, 2))) for _ in range(3)]
    mask = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    h_f_masked, h_b_masked = bilstm_forward(xs, fwd, bwd, mask)
    h_f_short, h_b_short = bilstm_forward(xs[:1], fwd, bwd)
    assert np.allclose(h_f_masked.data, h_f_short.data)
    assert np.allclose(h_b_masked.data, h_b_short.data)


def test_bilstm_ragged_mask_rows():
    rng = np.random.default_rng(4)
    fwd = LSTM("f", 2, 3, rng)
    bwd = LSTM("b", 2, 3, rng)
    xs = [T.constant(rng.normal(size=(2, 2))) for _ in range(3)]
    # row 0 sees all 3 steps, row 1 only the first
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    h_f, h_b = bilstm_forward(xs, fwd, bwd, mask)
    solo = [T.constant(x.data[1:2]) for x in xs[:1]]
    h_f_solo, h_b_solo = bilstm_forward(solo, fwd, bwd)
    assert np.allclose(h_f.data[1], h_f_solo.data[0])
    assert np.allclose(h_b.data[1], h_b_solo.data[0])


def test_bilstm_empty_sequence():
    rng = np.random.default_rng(5)
    cell = LSTM("f", 2, 2, rng)
    with pytest.raises(ShapeError):
        bilstm_forward([], cell, cell)


@pytest.mark.parametrize("seed", [0, 1])
def test_bilstm_gradcheck(seed):
    rng = np.random.default_rng(seed)
    fwd = LSTM("f", 2, 2, rng)
    bwd = LSTM("b", 2, 2, rng)
    xs = [Parameter(f"x{t}", rng.normal(size=(2, 2))) for t in range(3)]
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def loss():
        h_f, h_b = bilstm_forward(xs, fwd, bwd, mask)
        return T.mean_all(T.square(T.concat([h_f, h_b], axis=1)))

    checked = fwd.params() + bwd.params() + xs
    assert max_relative_error(loss, checked) < 1e-4


def gcn_model(width, seed=0, identity=False):
    """A model whose cg branch maps width-wide node features to width-wide states."""
    config = ModelConfig(
        vocab=2, embed_dim=2, lstm_hidden=2, pe_dim=width, time_bins=4, gcn_hidden=width,
        d_model=width, heads=1, ff_hidden=2, mlp_sizes=(2,),
    )
    model = HIENet(config, seed=seed)
    if identity:
        for w in (model.gcn_w1, model.gcn_w2, model.cg_proj.w):
            w.data[...] = np.eye(width)
        model.cg_proj.b.data[...] = 0.0
    return model


def node_states(model, a, h):
    """The model's two-layer GCN over adjacency ``a``, one output row per node."""
    p = sp.csr_matrix(normalize_adjacency(a))
    return model._cg_from_blocks(p, h, sp.identity(a.shape[0], format="csr"))


def test_gcn_two_node_hand_value():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = node_states(gcn_model(2, identity=True), a, np.eye(2))
    assert np.abs(out.data - 0.5).max() < 1e-12


def test_gcn_single_node_is_hw():
    h = np.array([[0.3, -2.0]])
    w = np.array([[1.0, 2.0], [0.5, -1.0]])
    model = gcn_model(2, identity=True)
    model.gcn_w1.data[...] = w
    out = node_states(model, np.zeros((1, 1)), h)
    assert np.allclose(out.data, np.maximum(h @ w, 0.0))


def test_gcn_regular_graph_identical_rows():
    # 4-cycle: every node has degree 2, all feature rows equal
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    h = np.tile([[1.0, -0.5, 2.0, 0.3]], (4, 1))
    out = node_states(gcn_model(4), a, h).data
    assert np.abs(out - out[0]).max() < 1e-12


def test_gcn_rejects_non_square():
    with pytest.raises(ShapeError):
        normalize_adjacency(np.zeros((2, 3)))


def test_propagation_symmetric_for_symmetric_adjacency():
    rng = np.random.default_rng(7)
    raw = (rng.random((6, 6)) < 0.4).astype(float)
    a = np.triu(raw, 1)
    a = a + a.T
    p = normalize_adjacency(a)
    assert np.abs(p - p.T).max() < 1e-15


@pytest.mark.parametrize("seed", [0, 1])
def test_gcn_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    h = rng.normal(size=(3, 2))
    model = gcn_model(2, seed=seed)

    def loss():
        return T.mean_all(T.square(node_states(model, a, h)))

    checked = [model.gcn_w1, model.gcn_w2] + model.cg_proj.params()
    assert max_relative_error(loss, checked) < 1e-4


def test_attention_identical_tokens_identical_outputs():
    rng = np.random.default_rng(8)
    layer = TransformerEncoderLayer("enc", 8, 2, 16, rng)
    token = rng.normal(size=(1, 8))
    out = layer(T.constant(np.tile(token, (4, 1)))).data
    assert np.abs(out - out[0]).max() < 1e-12
    # a single token attends only to itself, so it matches the 4-copy rows
    single = layer(T.constant(token)).data
    assert np.allclose(single[0], out[0])


def test_attention_head_split_guard():
    with pytest.raises(ConfigError):
        TransformerEncoderLayer("enc", 8, 3, 16, np.random.default_rng(0))


def test_attention_mask_blocks_rows():
    rng = np.random.default_rng(9)
    layer = TransformerEncoderLayer("enc", 4, 2, 8, rng)
    x = rng.normal(size=(4, 4))
    # block diagonal: tokens {0,1} and {2,3} cannot see each other
    mask = np.full((4, 4), -1e30)
    mask[:2, :2] = 0.0
    mask[2:, 2:] = 0.0
    joint = layer(T.constant(x), attn_mask=mask).data
    first = layer(T.constant(x[:2]), attn_mask=np.zeros((2, 2))).data
    second = layer(T.constant(x[2:]), attn_mask=np.zeros((2, 2))).data
    assert np.allclose(joint, np.vstack([first, second]))


@pytest.mark.parametrize("seed", [0, 1])
def test_attention_gradcheck(seed):
    rng = np.random.default_rng(seed)
    layer = TransformerEncoderLayer("enc", 8, 2, 12, rng)
    x = Parameter("x", rng.normal(size=(4, 8)))

    def loss():
        return T.mean_all(T.square(layer(x)))

    assert max_relative_error(loss, [x] + layer.params()) < 1e-4


def test_layer_norm_module_scale_shift():
    ln = LayerNorm("ln", 4)
    ln.gamma.data[...] = 2.0
    ln.beta.data[...] = -1.0
    x = T.constant(np.random.default_rng(0).normal(size=(3, 4)))
    out = ln(x).data
    base = T.layer_norm_rows(x).data
    assert np.allclose(out, 2.0 * base - 1.0)


def test_mlp_shapes_and_zero_weights():
    rng = np.random.default_rng(1)
    mlp = MLP("mlp", 6, [5, 3], rng)
    for p in mlp.params():
        p.data[...] = 0.0
    mlp.out.b.data[...] = 0.25
    out = mlp(T.constant(rng.normal(size=(4, 6))))
    assert out.shape == (4, 1)
    assert np.allclose(out.data, 0.25)
    with pytest.raises(ConfigError):
        MLP("bad", 4, [], rng)


def test_adam_zero_grad_no_change():
    p = Parameter("p", np.array([[1.0, 2.0]]))
    opt = Adam([p], lr=0.1)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_first_step_is_signed_lr():
    p = Parameter("p", np.zeros((1, 3)))
    opt = Adam([p], lr=0.01)
    p.grad = np.array([[0.5, -2.0, 1e-3]])
    opt.step()
    assert np.allclose(p.data, [[-0.01, 0.01, -0.01]], atol=1e-6)


def test_adam_converges_to_lr_magnitude_steps():
    p = Parameter("p", np.zeros((1, 1)))
    opt = Adam([p], lr=0.01)
    prev = 0.0
    for _ in range(60):
        prev = p.data[0, 0]
        p.grad = np.array([[0.7]])
        opt.step()
    assert abs(abs(p.data[0, 0] - prev) - 0.01) < 2e-4


def test_adam_duplicate_names_rejected():
    a = Parameter("same", np.zeros((1, 1)))
    b = Parameter("same", np.zeros((1, 1)))
    with pytest.raises(ConfigError):
        Adam([a, b])


def test_checkpoint_roundtrip_byte_exact(tmp_path):
    rng = np.random.default_rng(11)
    params = [
        Parameter("layer.w", rng.normal(size=(3, 4))),
        Parameter("layer.b", rng.normal(size=(1, 4))),
        Parameter("emb.table", rng.normal(size=(7, 2))),
    ]
    save_checkpoint(tmp_path / "ckpt", params, extra={"config": {"lr": 1e-4}})
    extra, weights = load_checkpoint(tmp_path / "ckpt")
    assert extra["config"] == {"lr": 1e-4}
    for p in params:
        assert weights[p.name].tobytes() == p.data.tobytes()
    # a second save of the loaded values is identical on disk
    restored = [Parameter(p.name, weights[p.name]) for p in params]
    save_checkpoint(tmp_path / "ckpt2", restored, extra={"config": {"lr": 1e-4}})
    assert (tmp_path / "ckpt" / "weights.bin").read_bytes() == (
        tmp_path / "ckpt2" / "weights.bin"
    ).read_bytes()
    assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == (
        tmp_path / "ckpt2" / "manifest.json"
    ).read_bytes()


def test_restore_into_guards(tmp_path):
    rng = np.random.default_rng(12)
    params = [Parameter("w", rng.normal(size=(2, 2)))]
    save_checkpoint(tmp_path / "c", params)
    _, weights = load_checkpoint(tmp_path / "c")
    wrong_shape = [Parameter("w", np.zeros((3, 3)))]
    with pytest.raises(DataError):
        restore_into(wrong_shape, weights)
    with pytest.raises(DataError):
        restore_into([Parameter("other", np.zeros((2, 2)))], weights)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing")


def test_init_determinism():
    def build():
        rng = np.random.default_rng(99)
        lin = Linear("l", 4, 4, rng)
        cell = LSTM("c", 4, 4, rng)
        return np.concatenate([p.data.ravel() for p in lin.params() + cell.params()])

    assert build().tobytes() == build().tobytes()
