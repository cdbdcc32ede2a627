import numpy as np
import pytest

import hienet.nn.tensor as T
from hienet.errors import DataError, ShapeError
from hienet.config import TrainConfig
from hienet.model import HIENet
from hienet.nn.checkpoint import load_checkpoint, restore_into, save_checkpoint
from hienet.nn.gradcheck import max_relative_error
from hienet.nn.layers import (
    LSTM,
    MLP,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    TransformerEncoderLayer,
)
from hienet.nn.optim import Adam
from hienet.nn.tensor import Parameter

import reference_ops as R


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
    # the gradient holds the touched rows only, each once
    assert emb.table.grad_rows.tolist() == [1, 3]
    assert emb.table.grad.shape == (2, 3)
    assert (np.abs(emb.table.grad).sum(axis=1) > 0).all()


def reference_lstm(cell, steps, mask=None, reverse=False):
    """Per-step masked LSTM from elementwise ops: the reference for ``lstm_sequence``.

    ``steps`` are T (B, in) tensors and ``mask`` is (B, T), 1 for real steps
    and 0 for PAD; a PAD step carries the previous state. Returns the final h.
    """
    batch, hid = steps[0].shape[0], cell.wh.shape[0]
    h = c = T.constant(np.zeros((batch, hid)))
    for t in reversed(range(len(steps))) if reverse else range(len(steps)):
        z = T.add_bias(T.add(T.matmul(steps[t], cell.wx), T.matmul(h, cell.wh)), cell.b)
        gate_i = R.sigmoid(R.slice_cols(z, 0, hid))
        gate_f = R.sigmoid(R.slice_cols(z, hid, 2 * hid))
        gate_g = R.tanh(R.slice_cols(z, 2 * hid, 3 * hid))
        gate_o = R.sigmoid(R.slice_cols(z, 3 * hid, 4 * hid))
        c_new = T.add(R.mul(gate_f, c), R.mul(gate_i, gate_g))
        h_new = R.mul(gate_o, R.tanh(c_new))
        if mask is not None:
            col = mask[:, t : t + 1]
            h_new = T.add(R.mul_const(h_new, col), R.mul_const(h, 1.0 - col))
            c_new = T.add(R.mul_const(c_new, col), R.mul_const(c, 1.0 - col))
        h, c = h_new, c_new
    return h


def step_views(x, batch):
    """The T per-step (B, in) views of a row-major (B*T, in) sequence tensor."""
    steps = x.shape[0] // batch
    return [T.gather_rows(x, np.arange(batch) * steps + t) for t in range(steps)]


def prefix_mask(lengths, steps):
    return (np.arange(steps) < np.asarray(lengths)[:, None]).astype(float)


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
@pytest.mark.parametrize("steps", [1, 6])
def test_lstm_sequence_matches_per_step_reference(steps, reverse):
    rng = np.random.default_rng(steps + 2 * reverse)
    cell = LSTM("c", 3, 5, rng)
    lengths = rng.integers(0, steps + 1, size=9)
    lengths[:3] = (steps, 0, steps)
    x = Parameter("x", rng.normal(size=(9 * steps, 3)))  # padded: row r*steps + t
    real_rows = np.flatnonzero(prefix_mask(lengths, steps))
    checked = cell.params() + [x]

    def run(final_state):
        for p in checked:
            p.grad = None
        out = final_state()
        T.mean_all(T.square(out)).backward()
        return out.data, [p.dense_grad().copy() for p in checked]

    got, got_grads = run(lambda: cell(T.gather_rows(x, real_rows), lengths, reverse))
    want, want_grads = run(
        lambda: reference_lstm(cell, step_views(x, 9), prefix_mask(lengths, steps), reverse)
    )
    assert rel_err(got, want) < 1e-12
    for g, w in zip(got_grads, want_grads):
        assert rel_err(g, w) < 1e-9


def test_lstm_zero_weights_zero_states():
    rng = np.random.default_rng(2)
    cell = LSTM("cell", 2, 3, rng)
    for p in cell.params():
        p.data[...] = 0.0
    out = cell(T.constant(np.ones((3 + 2, 2))), np.array([3, 2]))
    assert np.array_equal(out.data, np.zeros((2, 3)))


def bilstm(x, lengths, fwd, bwd):
    return fwd(x, lengths), bwd(x, lengths, reverse=True)


def test_bilstm_ragged_mask_rows():
    rng = np.random.default_rng(4)
    fwd = LSTM("f", 2, 3, rng)
    bwd = LSTM("b", 2, 3, rng)
    x = rng.normal(size=(2 * 3, 2))
    # sequence 0 is rows 0..2, sequence 1 only row 3
    h_f, h_b = bilstm(T.constant(x[:4]), [3, 1], fwd, bwd)
    h_f_solo, h_b_solo = bilstm(T.constant(x[3:4]), [1], fwd, bwd)
    assert np.allclose(h_f.data[1], h_f_solo.data[0])
    assert np.allclose(h_b.data[1], h_b_solo.data[0])


def test_bilstm_empty_sequence():
    rng = np.random.default_rng(5)
    cell = LSTM("f", 2, 2, rng)
    with pytest.raises(ShapeError):
        cell(T.constant(np.zeros((0, 2))), [0, 0])


@pytest.mark.parametrize("rows", [4, 6])
def test_lstm_sequence_rows_must_hold_the_steps(rows):
    """Lengths 3 and 2 count 5 steps: fewer or more input rows are rejected."""
    x = T.constant(np.zeros((rows, 2)))
    wx, wh, b = (T.constant(np.zeros(shape)) for shape in [(2, 8), (2, 8), (1, 8)])
    with pytest.raises(ShapeError, match="do not hold 5 steps"):
        T.lstm_sequence(x, [3, 2], wx, wh, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_bilstm_gradcheck(seed):
    rng = np.random.default_rng(seed)
    fwd = LSTM("f", 2, 2, rng)
    bwd = LSTM("b", 2, 2, rng)
    # the real steps of 3 sequences of 2, 3 and 0 steps, drawn in 3 slots each
    x = Parameter("x", rng.normal(size=(3 * 3, 2))[[0, 1, 3, 4, 5]])

    def loss():
        return T.mean_all(T.square(T.concat(list(bilstm(x, [2, 3, 0], fwd, bwd)), axis=1)))

    checked = fwd.params() + bwd.params() + [x]
    assert max_relative_error(loss, checked) < 1e-4


def gcn_model(width, seed=0, identity=False):
    """A model whose cg branch maps width-wide node features to width-wide states."""
    config = TrainConfig(
        seed=seed, embed_dim=2, lstm_hidden=2, pe_dim=width, time_bins=4, gcn_hidden=width,
        d_model=width, heads=1, ff_hidden=2, mlp_sizes=(2,),
    )
    model = HIENet(config, vocab=2)
    if identity:
        for w in (model.gcn_w1, model.gcn_w2, model.cg_proj.w):
            w.data[...] = np.eye(width)
        model.cg_proj.b.data[...] = 0.0
    return model


def node_states(model, a, h):
    """The model's two-layer GCN over adjacency ``a``, one output row per node."""
    p = R.csr(R.normalize_adjacency(a))
    return model._cg_from_blocks(p, h, R.csr(np.eye(a.shape[0])))


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
        R.normalize_adjacency(np.zeros((2, 3)))


def test_propagation_symmetric_for_symmetric_adjacency():
    rng = np.random.default_rng(7)
    raw = (rng.random((6, 6)) < 0.4).astype(float)
    a = np.triu(raw, 1)
    a = a + a.T
    p = R.normalize_adjacency(a)
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


def test_attention_groups_attend_within_themselves():
    rng = np.random.default_rng(9)
    layer = TransformerEncoderLayer("enc", 4, 2, 8, rng)
    x = rng.normal(size=(4, 4))
    # two token-major groups: rows {0,2} and {1,3}
    grouped = layer(T.constant(x), groups=2).data
    assert np.allclose(grouped[0::2], layer(T.constant(x[0::2])).data)
    assert np.allclose(grouped[1::2], layer(T.constant(x[1::2])).data)


def reference_attention(q, k, v, heads):
    """Per-head attention from elementwise ops: the reference for ``attention``."""
    d_head = q.shape[1] // heads
    outs = []
    for i in range(heads):
        qs, ks, vs = (R.slice_cols(t, i * d_head, (i + 1) * d_head) for t in (q, k, v))
        scores = R.scale(T.matmul(qs, R.transpose(ks)), 1.0 / np.sqrt(d_head))
        outs.append(T.matmul(R.softmax_rows(scores), vs))
    return T.concat(outs, axis=1)


def test_attention_matches_per_head_reference():
    rng = np.random.default_rng(13)
    q, k, v = (Parameter(n, rng.normal(size=(5, 6))) for n in "qkv")

    def run(attend):
        for p in (q, k, v):
            p.grad = None
        out = attend()
        T.mean_all(T.square(out)).backward()
        return out.data, [p.grad.copy() for p in (q, k, v)]

    got, got_grads = run(lambda: T.attention(q, k, v, heads=3))
    want, want_grads = run(lambda: reference_attention(q, k, v, 3))
    assert rel_err(got, want) < 1e-12
    for g, w in zip(got_grads, want_grads):
        assert rel_err(g, w) < 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_attention_gradcheck(seed):
    rng = np.random.default_rng(seed)
    layer = TransformerEncoderLayer("enc", 8, 2, 12, rng)
    # a unit-scale final norm would make the mean square constant
    for p in layer.ln2.params():
        p.data[...] = rng.normal(size=p.shape)
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
    base = T.layer_norm_rows(x, T.constant(np.ones((1, 4))), T.constant(np.zeros((1, 4)))).data
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


def test_module_params_follow_assignment_order():
    """Parameters, nested layers and a list of layers, in assignment order;
    None and non-layer attributes are skipped."""
    rng = np.random.default_rng(0)

    class Inner(Module):
        def __init__(self):
            self.lin = Linear("inner.lin", 2, 2, rng)
            self.scale = Parameter("inner.scale", np.ones((1, 2)))

    class Outer(Module):
        def __init__(self):
            self.first = Parameter("first", np.zeros((1, 1)))
            self.missing = None
            self.config = TrainConfig()
            self.table = np.zeros((3, 2))
            self.width = 4
            self.inner = Inner()
            self.stack = [Linear(f"stack{i}", 2, 2, rng) for i in range(2)]
            self.sizes = [4, 5]
            self.norm = LayerNorm("norm", 2)

    assert [p.name for p in Outer().params()] == [
        "first",
        "inner.lin.w", "inner.lin.b", "inner.scale",
        "stack0.w", "stack0.b", "stack1.w", "stack1.b",
        "norm.gamma", "norm.beta",
    ]


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


def test_adam_dense_update_matches_reference():
    """A dense gradient gets the dense update, step after step, bit for bit."""
    rng = np.random.default_rng(0)
    p = Parameter("p", rng.normal(size=(5, 4)))
    ref = Parameter("ref", p.data.copy())
    m, v = np.zeros_like(p.data), np.zeros_like(p.data)
    opt = Adam([p], lr=0.01)
    for t in range(1, 6):
        p.grad = ref.grad = rng.normal(size=p.shape)
        opt.step()
        R.dense_adam_update(ref, m, v, t, 0.01)
        assert p.data.tobytes() == ref.data.tobytes()
        assert opt.m[0].tobytes() == m.tobytes() and opt.v[0].tobytes() == v.tobytes()


def test_lazy_adam_leaves_untouched_rows_alone():
    """A step moves only the rows it touched: every other row keeps its
    weights, m and v bit for bit, including a row an earlier step moved."""
    emb = Embedding("emb", 8, 3, np.random.default_rng(2))
    opt = Adam(emb.params(), lr=0.01)
    start = emb.table.data.copy()

    def step(idx):
        opt.zero_grad()
        T.mean_all(T.square(T.gather_rows(emb.table, np.array(idx)))).backward()
        opt.step()

    def state():
        return [emb.table.data, opt.m[0], opt.v[0]]

    step([1, 2, 2])
    before = [a.copy() for a in state()]
    step([2, 5])
    kept = [0, 1, 3, 4, 6, 7]
    for old, new in zip(before, state()):
        assert old[kept].tobytes() == new[kept].tobytes()
        assert not np.array_equal(old[[2, 5]], new[[2, 5]])
    never = [0, 3, 4, 6, 7]
    assert emb.table.data[never].tobytes() == start[never].tobytes()
    assert not opt.m[0][never].any() and not opt.v[0][never].any()


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
    restored = [Parameter(p.name, np.zeros_like(p.data)) for p in params]
    restore_into(restored, weights)
    for p, q in zip(params, restored):
        assert q.data.tobytes() == p.data.tobytes()
    # a second save of the loaded values is identical on disk
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
