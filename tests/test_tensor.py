from functools import cache

import numpy as np
import pytest

import hienet.nn.tensor as T
from hienet.cascade import build_global_graph
from hienet.config import TrainConfig
from hienet.errors import ShapeError, TrainingError
from hienet.features import build_batch, featurize_corpus
from hienet.nn.tensor import Parameter
from hienet.synth import SyntheticSpec, generate_synthetic

import reference_ops as R
from gradcheck import max_relative_error


def _leaves(rng, *shapes):
    return [Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]


def _away_from_zero(x, margin=0.2):
    return x + margin * np.sign(x)


def case_matmul(rng):
    a, b = _leaves(rng, (2, 3), (3, 4))
    return lambda: T.mean_all(T.square(T.matmul(a, b))), [a, b]


@cache
def _default_batch():
    config = TrainConfig()
    records, _ = generate_synthetic(SyntheticSpec())
    feats = featurize_corpus(records[: config.batch_size], build_global_graph(records), config)
    return build_batch(feats)


def _assert_products_are_scipys(mat, width, rng):
    """``mat @ x`` and, backward, ``mat.T @ g`` equal scipy's to the bit."""
    x = T.Tensor(rng.normal(size=(mat.shape[1], width)), requires_grad=True)
    out = T.sparse_matmul(mat, x)
    g = rng.normal(size=out.shape)
    out._backward(g)
    assert np.array_equal(out.data, R.scipy_csr(mat) @ x.data)
    assert np.array_equal(x.grad, R.scipy_csr(mat).T @ g)


def case_sparse_matmul(rng):
    """Its products are also checked against scipy's, on this matrix with an
    empty row and on a default batch's pool and social rows."""
    dense = rng.normal(size=(4, 3)) * (rng.random((4, 3)) < 0.6)
    dense[1] = 0.0
    mat = R.csr(dense)
    (t,) = _leaves(rng, (3, 2))
    batch = _default_batch()
    for m in (mat, batch.pool, batch.social):
        _assert_products_are_scipys(m, TrainConfig().gcn_hidden, rng)
    return lambda: T.mean_all(T.square(T.sparse_matmul(mat, t))), [t]


def case_transpose(rng):
    (a,) = _leaves(rng, (2, 5))
    return lambda: T.mean_all(T.square(R.transpose(a))), [a]


def case_add_sub_mul(rng):
    a, b, c = _leaves(rng, (3, 4), (3, 4), (3, 4))
    return lambda: T.mean_all(T.square(R.mul(T.add(a, b), T.add(a, R.scale(c, -1.0))))), [a, b, c]


def case_add_bias(rng):
    x, b = _leaves(rng, (3, 4), (1, 4))
    return lambda: T.mean_all(T.square(T.add_bias(x, b))), [x, b]


def case_scale_cols(rng):
    """Column scaling is the gain of ``layer_norm_rows``, checked with a shift."""
    x, v, s = _leaves(rng, (3, 4), (1, 4), (1, 4))
    return lambda: T.mean_all(T.square(T.layer_norm_rows(x, v, s))), [x, v, s]


def case_consts_and_scale(rng):
    (x,) = _leaves(rng, (3, 4))
    m = (rng.random((3, 1)) < 0.5).astype(float)
    c = T.constant(np.full((3, 4), 1.5))
    return lambda: T.mean_all(T.square(T.add(R.mul_const(R.scale(x, 0.7), m), c))), [x]


def case_concat(rng):
    a, b, c = _leaves(rng, (2, 3), (2, 2), (1, 5))
    return lambda: T.mean_all(T.square(T.concat([T.concat([a, b], axis=1), c], axis=0))), [a, b, c]


def case_slices(rng):
    (x,) = _leaves(rng, (4, 6))
    rows = np.arange(1, 3)
    return lambda: T.mean_all(T.square(R.slice_cols(T.gather_rows(x, rows), 2, 5))), [x]


def case_gather_rows(rng):
    (x,) = _leaves(rng, (5, 3))
    idx = np.array([0, 2, 2, 4])
    return lambda: T.mean_all(T.square(T.gather_rows(x, idx))), [x]


def case_softmax(rng):
    (x,) = _leaves(rng, (3, 5))
    return lambda: T.mean_all(T.square(R.softmax_rows(x))), [x]


def case_sigmoid_tanh(rng):
    a, b = _leaves(rng, (3, 3), (3, 3))
    return lambda: T.mean_all(R.mul(R.sigmoid(a), R.tanh(b))), [a, b]


def case_relu(rng):
    (x,) = _leaves(rng, (4, 4))
    x.data = _away_from_zero(x.data)
    return lambda: T.mean_all(T.square(T.relu(x))), [x]


def _unit_norm(x):
    """``layer_norm_rows`` with constant unit gain and zero shift."""
    d = x.shape[1]
    return T.layer_norm_rows(x, T.constant(np.ones((1, d))), T.constant(np.zeros((1, d))))


def case_layer_norm(rng):
    # a whole unit-norm row has mean square 1 whatever x is, so keep part of it
    (x,) = _leaves(rng, (3, 6))
    return lambda: T.mean_all(T.square(R.slice_cols(_unit_norm(x), 1, 4))), [x]


CASES = [
    case_matmul,
    case_sparse_matmul,
    case_transpose,
    case_add_sub_mul,
    case_add_bias,
    case_scale_cols,
    case_consts_and_scale,
    case_concat,
    case_slices,
    case_gather_rows,
    case_softmax,
    case_sigmoid_tanh,
    case_relu,
    case_layer_norm,
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__.removeprefix("case_"))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients(case, seed):
    loss_fn, tensors = case(np.random.default_rng(seed))
    assert max_relative_error(loss_fn, tensors) < 1e-6


def test_matmul_shapes():
    a = Parameter("a", np.ones((2, 3)))
    b = Parameter("b", np.ones((3, 1)))
    assert T.matmul(a, b).shape == (2, 1)
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(a, Parameter("c", np.ones((2, 2))))


def test_elementwise_shape_guards():
    a = Parameter("a", np.ones((2, 3)))
    with pytest.raises(ShapeError, match="add"):
        T.add(a, Parameter("b", np.ones((3, 2))))
    with pytest.raises(ShapeError, match="add_bias"):
        T.add_bias(a, Parameter("b", np.ones((1, 2))))
    with pytest.raises(ShapeError, match="layer_norm_rows"):
        T.layer_norm_rows(a, Parameter("g", np.ones((1, 3))), Parameter("s", np.ones((1, 2))))
    with pytest.raises(ShapeError, match="mul_const"):
        R.mul_const(a, np.ones(5))


def test_analytic_point_values():
    zero = T.constant(np.zeros((1, 1)))
    assert R.sigmoid(zero).data[0, 0] == 0.5
    assert R.tanh(zero).data[0, 0] == 0.0
    x = T.constant(np.random.default_rng(0).normal(size=(4, 7)))
    sums = R.softmax_rows(x).data.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-12


def test_fanout_accumulates():
    x = Parameter("x", np.arange(6, dtype=float).reshape(2, 3) + 1.0)
    loss = T.mean_all(R.mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, 2.0 * x.data / x.data.size)


def test_sibling_gradients_do_not_alias():
    """``add`` hands both parents the upstream gradient itself, so summing
    the second into the first must not write into the upstream node's."""
    x = Parameter("x", np.arange(6, dtype=float).reshape(2, 3))
    y = T.add(x, x)
    T.mean_all(T.square(y)).backward()
    upstream = 2.0 * y.data / y.data.size
    assert np.allclose(y.grad, upstream)
    assert np.allclose(x.grad, 2.0 * upstream)


# the reads of a (6, 3) table each case makes, and the rows of its row block
# (None: a sparse_matmul or matmul read makes the gradient dense)
TABLE_READS = {
    "gather": (("gather",), [0, 1, 4]),
    "sparse_matmul": (("sparse_matmul",), None),
    "both": (("gather", "sparse_matmul"), None),
    "both_and_dense": (("gather", "sparse_matmul", "matmul"), None),
    "gather_twice": (("gather", "gather_again"), [0, 1, 2, 4, 5]),
    "gather_and_matmul": (("gather", "matmul"), None),
}


@pytest.mark.parametrize("reads", TABLE_READS)
def test_row_sparse_gradient_densifies_to_the_dense_gradient(reads):
    """A gathered ``Parameter`` holds one row per distinct index, two
    gathers' row blocks coalesce into one, and a sparse_matmul or matmul
    read makes the gradient dense; densified, it is the gradient a plain
    tensor gets."""
    table_reads, rows = TABLE_READS[reads]
    rng = np.random.default_rng(4)
    data = rng.normal(size=(6, 3))
    idx = np.array([4, 1, 4, 4, 0])
    # columns 3 and 5 are each read by two rows; columns 0 and 1 are gathered too
    mat = R.csr(
        np.array(
            [
                [0.0, 0.5, 0.0, 0.0, 0.0, 2.0],
                [0.0, 0.0, 0.0, 1.5, 0.0, -1.0],
                [0.3, 0.0, 0.0, 1.0, 0.0, 0.0],
            ]
        )
    )
    weights = T.constant(rng.normal(size=(2, 6)))
    read = {
        "gather": lambda t: T.gather_rows(t, idx),
        "gather_again": lambda t: T.gather_rows(t, np.array([5, 1, 2, 5])),
        "sparse_matmul": lambda t: T.sparse_matmul(mat, t),
        "matmul": lambda t: T.matmul(weights, t),
    }

    def after_backward(table):
        parts = [read[name](table) for name in table_reads]
        T.mean_all(T.square(T.concat(parts, axis=0))).backward()
        return table

    param = after_backward(Parameter("table", data.copy()))
    reference = after_backward(T.Tensor(data.copy(), requires_grad=True))
    assert reference.grad.shape == data.shape
    if rows is None:
        assert param.grad_rows is None
    else:
        assert param.grad_rows.tolist() == rows
        assert param.grad.shape == (len(rows), 3)
    assert np.array_equal(param.dense_grad(), reference.grad)


def test_row_sums_match_add_at():
    """``_row_sums`` scattered into zeros is ``np.add.at`` to the byte, on
    unsorted, repeated keys and values of both signs."""
    rng = np.random.default_rng(7)
    keys = np.array([5, 0, 5, 2, 9, 0, 5, 2, 7])
    scales = rng.choice([-1e3, -1.0, 1e-3, 1.0], size=(keys.size, 1))
    values = rng.normal(size=(keys.size, 4)) * scales
    want = np.zeros((10, 4))
    np.add.at(want, keys, values)
    rows, sums = T._row_sums(keys, values)
    got = np.zeros((10, 4))
    got[rows] = sums
    assert rows.tolist() == sorted(set(keys.tolist()))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("idx", [[0, -1], [3], [-4]])
def test_gather_rows_rejects_rows_outside_the_table(idx):
    """A negative index would wrap and read another row; one past the end
    would raise numpy's IndexError."""
    with pytest.raises(ShapeError):
        T.gather_rows(Parameter("t", np.ones((3, 2))), idx)


def test_backward_requires_scalar():
    x = Parameter("x", np.ones((2, 2)))
    with pytest.raises(ShapeError):
        T.add(x, x).backward()


def _records(t):
    return t.requires_grad and t._parents != () and t._backward is not None


def test_no_grad_records_nothing_and_recording_resumes():
    x = Parameter("x", np.ones((2, 2)))
    with T.no_grad():
        y = T.square(T.matmul(x, x))
        with T.no_grad():
            pass
        # leaving an inner block keeps the outer one in force
        z = T.square(x)
    for t in (y, z):
        assert (t.requires_grad, t._parents, t._backward) == (False, (), None)
    assert np.array_equal(y.data, T.square(T.matmul(x, x)).data)
    assert _records(T.square(x))
    with pytest.raises(ShapeError):
        with T.no_grad():
            T.matmul(x, Parameter("w", np.ones((3, 1))))
    assert _records(T.square(x))


@pytest.mark.parametrize("build", ["no_grad", "constants"])
def test_backward_without_a_graph_names_the_cause(build):
    """A loss that recorded no graph would leave every gradient at None and
    the next optimizer step would move nothing; backward says why instead."""
    x = Parameter("x", np.ones((2, 2)))
    if build == "no_grad":
        with T.no_grad():
            loss = T.mean_all(T.square(x))
    else:
        loss = T.mean_all(T.square(T.constant(x.data)))
    with pytest.raises(TrainingError, match="recorded no graph"):
        loss.backward()
    assert x.grad is None


def test_second_backward_through_a_graph_is_refused():
    """Each op's output keeps the gradient a backward pass left in it, so a
    second pass would add its gradient on top and send the sum on (w would
    read 180, not 72); it raises instead and leaves the grads as they were."""
    w = Parameter("w", [[2.0]])
    loss = T.mean_all(T.square(T.relu(T.matmul(T.constant([[3.0]]), w))))
    loss.backward()
    assert w.grad.tolist() == [[36.0]]
    with pytest.raises(TrainingError, match="already ran"):
        loss.backward()
    assert w.grad.tolist() == [[36.0]]


def test_layer_norm_statistics():
    rng = np.random.default_rng(5)
    x = T.constant(rng.normal(loc=3.0, scale=2.5, size=(6, 32)))
    y = _unit_norm(x).data
    assert np.abs(y.mean(axis=1)).max() < 1e-9
    assert np.abs(y.var(axis=1) - 1.0).max() < 1e-6


def test_nan_trace_names_op():
    """``first_nan_op`` names the oldest op in the recorded graph whose
    output holds a NaN."""
    inf = Parameter("inf", np.array([[np.inf]]))
    zero = T.constant(np.array([[0.0]]))
    with np.errstate(invalid="ignore"):
        # two ops each make a NaN of their own: the one created first is
        # named, whichever side of the sum it sits on
        first, second = R.mul(inf, zero), R.scale(inf, 0.0)
        assert T.mean_all(T.add(second, first)).first_nan_op() == "mul"
        first, second = R.scale(inf, 0.0), R.mul(inf, zero)
        assert T.mean_all(T.add(second, first)).first_nan_op() == "scale"
    # a NaN leaf is never named, only the op that read it
    nan = Parameter("nan", np.array([[np.nan, 1.0]]))
    assert T.mean_all(T.square(nan)).first_nan_op() == "square"
    # a NaN-free graph names nothing
    x = Parameter("x", np.ones((2, 2)))
    assert T.mean_all(T.square(x)).first_nan_op() is None


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(123)
        a = Parameter("a", rng.normal(size=(3, 3)))
        b = Parameter("b", rng.normal(size=(3, 3)))
        return R.softmax_rows(T.matmul(R.tanh(a), R.sigmoid(b))).data

    assert run().tobytes() == run().tobytes()
