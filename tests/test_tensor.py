import numpy as np
import pytest
import scipy.sparse as sp

import hienet.nn.tensor as T
from hienet.errors import ShapeError, TrainingError
from hienet.nn.gradcheck import max_relative_error
from hienet.nn.tensor import Parameter


def _leaves(rng, *shapes):
    return [Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]


def _away_from_zero(x, margin=0.2):
    return x + margin * np.sign(x)


def case_matmul(rng):
    a, b = _leaves(rng, (2, 3), (3, 4))
    return lambda: T.mean_all(T.square(T.matmul(a, b))), [a, b]


def case_sparse_matmul(rng):
    mat = sp.csr_matrix(rng.normal(size=(4, 3)) * (rng.random((4, 3)) < 0.6))
    (t,) = _leaves(rng, (3, 2))
    return lambda: T.mean_all(T.square(T.sparse_matmul(mat, t))), [t]


def case_transpose(rng):
    (a,) = _leaves(rng, (2, 5))
    return lambda: T.mean_all(T.square(T.transpose(a))), [a]


def case_add_sub_mul(rng):
    a, b, c = _leaves(rng, (3, 4), (3, 4), (3, 4))
    return lambda: T.mean_all(T.square(T.mul(T.add(a, b), T.add(a, T.scale(c, -1.0))))), [a, b, c]


def case_add_bias(rng):
    x, b = _leaves(rng, (3, 4), (1, 4))
    return lambda: T.mean_all(T.square(T.add_bias(x, b))), [x, b]


def case_scale_cols(rng):
    x, v = _leaves(rng, (3, 4), (1, 4))
    return lambda: T.mean_all(T.square(T.scale_cols(x, v))), [x, v]


def case_consts_and_scale(rng):
    (x,) = _leaves(rng, (3, 4))
    m = (rng.random((3, 1)) < 0.5).astype(float)
    return lambda: T.mean_all(T.square(T.add_const(T.mul_const(T.scale(x, 0.7), m), 1.5))), [x]


def case_concat(rng):
    a, b, c = _leaves(rng, (2, 3), (2, 2), (1, 5))
    return lambda: T.mean_all(T.square(T.concat([T.concat([a, b], axis=1), c], axis=0))), [a, b, c]


def case_slices(rng):
    (x,) = _leaves(rng, (4, 6))
    return lambda: T.mean_all(T.square(T.slice_cols(T.slice_rows(x, 1, 3), 2, 5))), [x]


def case_gather_rows(rng):
    (x,) = _leaves(rng, (5, 3))
    idx = np.array([0, 2, 2, 4])
    return lambda: T.mean_all(T.square(T.gather_rows(x, idx))), [x]


def case_softmax(rng):
    (x,) = _leaves(rng, (3, 5))
    return lambda: T.mean_all(T.square(T.softmax_rows(x))), [x]


def case_sigmoid_tanh(rng):
    a, b = _leaves(rng, (3, 3), (3, 3))
    return lambda: T.mean_all(T.mul(T.sigmoid(a), T.tanh(b))), [a, b]


def case_relu(rng):
    (x,) = _leaves(rng, (4, 4))
    x.data = _away_from_zero(x.data)
    return lambda: T.mean_all(T.square(T.relu(x))), [x]


def case_layer_norm(rng):
    (x,) = _leaves(rng, (3, 6))
    return lambda: T.mean_all(T.square(T.layer_norm_rows(x))), [x]


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
    with pytest.raises(ShapeError, match="mul_const"):
        T.mul_const(a, np.ones(5))


def test_analytic_point_values():
    zero = T.constant(np.zeros((1, 1)))
    assert T.sigmoid(zero).data[0, 0] == 0.5
    assert T.tanh(zero).data[0, 0] == 0.0
    x = T.constant(np.random.default_rng(0).normal(size=(4, 7)))
    sums = T.softmax_rows(x).data.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-12


def test_fanout_accumulates():
    x = Parameter("x", np.arange(6, dtype=float).reshape(2, 3) + 1.0)
    loss = T.mean_all(T.mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, 2.0 * x.data / x.data.size)


def test_backward_requires_scalar():
    x = Parameter("x", np.ones((2, 2)))
    with pytest.raises(ShapeError):
        T.add(x, x).backward()


def test_layer_norm_statistics():
    rng = np.random.default_rng(5)
    x = T.constant(rng.normal(loc=3.0, scale=2.5, size=(6, 32)))
    y = T.layer_norm_rows(x).data
    assert np.abs(y.mean(axis=1)).max() < 1e-9
    assert np.abs(y.var(axis=1) - 1.0).max() < 1e-6


def test_nan_trace_names_op():
    inf = T.constant(np.array([[np.inf]]))
    zero = T.constant(np.array([[0.0]]))
    with np.errstate(invalid="ignore"):
        # silent NaN when tracing is off
        assert np.isnan(T.mul(inf, zero).data[0, 0])
        T.set_nan_trace(True)
        try:
            with pytest.raises(TrainingError, match="'mul'"):
                T.mul(inf, zero)
        finally:
            T.set_nan_trace(False)


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(123)
        a = Parameter("a", rng.normal(size=(3, 3)))
        b = Parameter("b", rng.normal(size=(3, 3)))
        return T.softmax_rows(T.matmul(T.tanh(a), T.sigmoid(b))).data

    assert run().tobytes() == run().tobytes()
