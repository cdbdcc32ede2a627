"""Reverse-mode autodiff on dense float64 numpy arrays.

Define-by-run: every op allocates a fresh ``Tensor`` holding the forward
value, the parent tensors, and a closure that routes an upstream gradient
into the parents. ``backward()`` walks nodes in descending creation order,
which is a valid topological order because an op's output is always
allocated after its inputs.

Conventions kept deliberately narrow so every backward rule stays obvious:
no implicit broadcasting between two Tensors (only the explicit ``add_bias``
form and the gain and shift rows of ``layer_norm_rows``), everything 2-D
except the scalar produced by ``mean_all``. The recurrent and attention
layers are one op each (``lstm_sequence``, ``attention``) with hand-written
backward rules, so a model step records a few dozen nodes rather than one
per gate and step. Every op's output keeps the op's name, so a NaN loss is
traced in the graph it already recorded (``first_nan_op``), without a
second forward pass. Inside ``no_grad()`` ops record nothing, so inference
frees each intermediate as soon as the next op has read it.

Sparse operands are constant ``COO`` tuples of plain numpy arrays.
``sparse_matmul`` and ``gather_rows``' backward sum their rows with one
``bincount`` rule (``_sum_by``).

Gradients are dense arrays of the tensor's shape, with one exception: a
``Parameter`` read by ``gather_rows``, the one op with row gradients,
receives only the rows a step touched, as a ``(rows, d)`` block in
``grad`` beside their sorted row ids in ``grad_rows``, so neither the
backward pass nor the optimizer pays for untouched rows. ``dense_grad()``
gives any tensor's gradient in full.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import ShapeError, TrainingError

#: added to each row's variance in ``layer_norm_rows``
LAYER_NORM_EPS = 1e-12

_recording = True  # False inside ``no_grad()``


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_id")

    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op: str | None = None  # the op that computed ``data``; None for a leaf
        self._id = next(Tensor._ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        # never in place: add, add_bias and concat hand their
        # parents the upstream gradient itself or a view of it
        self.grad = g if self.grad is None else self.grad + g

    def accumulate_rows(self, idx: np.ndarray, g: np.ndarray) -> None:
        """Add ``g[i]`` to the gradient of row ``idx[i]``."""
        self.accumulate(_sum_by(idx, g, self.data.shape[0]))

    def dense_grad(self) -> np.ndarray:
        """The gradient at every entry (zeros where none arrived)."""
        return np.zeros_like(self.data) if self.grad is None else self.grad

    def _graph(self) -> list[Tensor]:
        """This node and every recorded node feeding it, newest first."""
        seen = {self._id}
        stack = [self]
        nodes = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            for p in node._parents:
                if p._id not in seen:
                    seen.add(p._id)
                    stack.append(p)
        nodes.sort(key=lambda n: n._id, reverse=True)
        return nodes

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise TrainingError(
                "backward: this tensor recorded no graph (it was computed inside no_grad() "
                "or from constants only), so no gradient would reach a parameter"
            )
        nodes = self._graph()
        # an op's output holds a gradient only once a backward has run through it,
        # and a second pass would add its own on top and send the sum on
        if any(node._backward is not None and node.grad is not None for node in nodes):
            raise TrainingError(
                "backward: a backward pass already ran through this graph; record a new "
                "forward pass instead"
            )
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def first_nan_op(self) -> str | None:
        """The op of the oldest node in the recorded graph feeding this one
        whose forward output holds a NaN; leaves are never named."""
        for node in reversed(self._graph()):
            if node._op is not None and np.isnan(node.data).any():
                return node._op
        return None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable tensor; the name keys checkpoints.

    A parameter read by ``gather_rows`` takes that gradient as the touched
    rows only: ``grad`` holds one row per id in ``grad_rows`` (sorted,
    unique). ``grad_rows`` is None while ``grad`` is dense, which it becomes
    as soon as a dense contribution arrives.
    """

    __slots__ = ("name", "grad_rows")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad_rows: np.ndarray | None = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad_rows is not None:
            self.grad, self.grad_rows = self.dense_grad(), None
        super().accumulate(g)

    def accumulate_rows(self, idx: np.ndarray, g: np.ndarray) -> None:
        """Add ``g[i]`` to the gradient of row ``idx[i]``, summed per
        distinct row. Two row gradients coalesce into one."""
        if self.grad is None:
            self.grad_rows, self.grad = _row_sums(idx, g)
        elif self.grad_rows is None:
            super().accumulate_rows(idx, g)
        else:
            rows, values = _row_sums(idx, g)
            self.grad_rows, self.grad = _row_sums(
                np.concatenate((self.grad_rows, rows)), np.concatenate((self.grad, values))
            )

    def dense_grad(self) -> np.ndarray:
        if self.grad is None or self.grad_rows is None:
            return super().dense_grad()
        full = np.zeros_like(self.data)
        full[self.grad_rows] = self.grad
        return full

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


@contextmanager
def no_grad():
    """Ops run inside this block record no parents and no backward closure."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def _result(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    out = Tensor(data)
    out._op = op
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _need_2d(op: str, *ts: Tensor) -> None:
    for t in ts:
        if t.data.ndim != 2:
            raise ShapeError(f"{op}: expected 2-D operands, got shape {t.shape}")


def _need_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _need_2d("matmul", a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _result(out_data, (a, b), backward, "matmul")


def _sum_by(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums: row k adds up the ``values`` rows whose key is k. One
    ``bincount`` adds them into zeros in the order they come, as an
    unbuffered scatter-add does (``test_row_sums_match_add_at``)."""
    width = values.shape[1]
    bins = (keys.astype(np.intp)[:, None] * width + np.arange(width)).ravel()
    return np.bincount(bins, weights=values.ravel(), minlength=n * width).reshape(n, width)


def _row_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and, for each, the sum of the ``values``
    rows that carry it."""
    rows, inverse = np.unique(keys, return_inverse=True)
    return rows, _sum_by(inverse, values, rows.size)


class COO(NamedTuple):
    """A constant sparse matrix as its entries: ``data[k]`` at row
    ``rows[k]``, column ``cols[k]``. Entries are sorted by row, which fixes
    the order ``sparse_matmul`` sums them in. Both index arrays are int32."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def sparse_matmul(mat: COO, t: Tensor) -> Tensor:
    """Constant sparse matrix times tensor; gradient flows to ``t`` only.

    ``mat @ t`` and, backward, ``mat.T @ g`` each add every entry's product
    into its output row in storage order, as the compressed-row and
    compressed-column products of sparse libraries do, so the sums are
    theirs to the bit (``test_tensor``'s ``sparse_matmul`` case)."""
    _need_2d("sparse_matmul", t)
    if mat.shape[1] != t.shape[0]:
        raise ShapeError(f"sparse_matmul: inner dims differ, {mat.shape} @ {t.shape}")
    out_data = _sum_by(mat.rows, mat.data[:, None] * t.data[mat.cols], mat.shape[0])

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(_sum_by(mat.cols, mat.data[:, None] * g[mat.rows], mat.shape[1]))

    return _result(out_data, (t,), backward, "sparse_matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("add", a, b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _result(a.data + b.data, (a, b), backward, "add")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """(n, d) + (1, d) row broadcast; bias grad sums over rows."""
    _need_2d("add_bias", x, b)
    if b.shape != (1, x.shape[1]):
        raise ShapeError(f"add_bias: bias {b.shape} does not fit rows of {x.shape}")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0, keepdims=True))

    return _result(x.data + b.data, (x, b), backward, "add_bias")


def concat(ts: Sequence[Tensor], axis: int) -> Tensor:
    if not ts:
        raise ShapeError("concat: empty input list")
    _need_2d("concat", *ts)
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> None:
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return _result(np.concatenate([t.data for t in ts], axis=axis), ts, backward, "concat")


def gather_rows(t: Tensor, idx) -> Tensor:
    """Row lookup (embedding / reordering); duplicate indices sum gradients.

    A ``Parameter`` keeps one gradient row per distinct index as a row
    block; any other tensor sums them into its dense gradient."""
    _need_2d("gather_rows", t)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: index must be 1-D, got shape {idx.shape}")
    # numpy would wrap a negative index silently and read some other row
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
        raise ShapeError(f"gather_rows: index outside the {t.shape[0]} rows")

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_rows(idx, g)

    return _result(t.data[idx], (t,), backward, "gather_rows")


def relu(t: Tensor) -> Tensor:
    out_data = np.maximum(t.data, 0.0)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * (t.data > 0.0))

    return _result(out_data, (t,), backward, "relu")


def square(t: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * 2.0 * t.data)

    return _result(t.data * t.data, (t,), backward, "square")


def mean_all(t: Tensor) -> Tensor:
    n = t.data.size

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(np.full_like(t.data, float(g) / n))

    return _result(np.asarray(t.data.mean()), (t,), backward, "mean_all")


def layer_norm_rows(t: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each row to mean 0 / variance 1, then scale the columns by
    the (1, d) gain ``gamma`` and shift them by the (1, d) ``beta``."""
    _need_2d("layer_norm_rows", t, gamma, beta)
    if not gamma.shape == beta.shape == (1, t.shape[1]):
        raise ShapeError(
            f"layer_norm_rows: gain {gamma.shape} / shift {beta.shape} do not fit rows of {t.shape}"
        )
    mu = t.data.mean(axis=1, keepdims=True)
    var = t.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = (t.data - mu) * inv

    def backward(g: np.ndarray) -> None:
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=0, keepdims=True))
        if gamma.requires_grad:
            gamma.accumulate((g * y).sum(axis=0, keepdims=True))
        if t.requires_grad:
            gn = g * gamma.data  # the gradient at the normalized rows
            gn_mean = gn.mean(axis=1, keepdims=True)
            gny_mean = (gn * y).mean(axis=1, keepdims=True)
            t.accumulate(inv * (gn - gn_mean - y * gny_mean))

    return _result(y * gamma.data + beta.data, (t, gamma, beta), backward, "layer_norm_rows")


def lstm_sequence(
    x: Tensor, lengths, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False
) -> Tensor:
    """One LSTM direction over B packed sequences; returns the (B, h) final states.

    ``x`` holds ``lengths.sum()`` rows, sequence after sequence: sequence r's
    ``lengths[r]`` steps follow the rows of sequences < r. Its final state is
    the state after its last step (zeros when it has none). ``reverse`` runs
    each sequence from its last step back to its first. Gate columns of
    ``wx``/``wh``/``b`` are ordered i, f, g, o.

    Sequences are sorted by length once (stable), so those still running at
    step t are a prefix of the sorted order and each step updates one slice.
    All steps are projected in one matmul. One tanh evaluates all four
    gates through sigmoid(z) = (1 + tanh(z/2)) / 2. Step 0 reads the zero
    initial state, so it skips ``h @ wh`` and the backward propagates
    nothing out of it. The backward pass collects dZ for every packed step,
    then forms the weight gradients with one matmul each.
    """
    _need_2d("lstm_sequence", x, wx, wh, b)
    lengths = np.asarray(lengths, dtype=np.int64)
    batch = lengths.size
    if lengths.ndim != 1 or batch == 0 or lengths.min() < 0:
        raise ShapeError("lstm_sequence: lengths must be a non-empty 1-D array of counts >= 0")
    if lengths.sum() != x.shape[0]:
        raise ShapeError(
            f"lstm_sequence: {x.shape[0]} input rows do not hold {lengths.sum()} steps"
        )
    if x.shape[0] == 0:
        raise ShapeError("lstm_sequence: empty sequence")
    hid = wh.shape[0]
    if wx.shape != (x.shape[1], 4 * hid) or wh.shape != (hid, 4 * hid) or b.shape != (1, 4 * hid):
        raise ShapeError(
            f"lstm_sequence: weights {wx.shape}, {wh.shape}, {b.shape} do not fit input width "
            f"{x.shape[1]} and hidden size {hid}"
        )

    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    live = sorted_len[None, :] > np.arange(sorted_len[0])[:, None]  # (T, B), a prefix in each step
    counts = live.sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    step_of, seq_of = np.nonzero(live)  # step-major order: by step, then by sorted sequence
    pos = sorted_len[seq_of] - 1 - step_of if reverse else step_of
    src = (np.cumsum(lengths) - lengths)[order[seq_of]] + pos  # the x row of each step
    x_packed = x.data[src]
    # every step's input projection; each step turns its rows into the gates
    gates = x_packed @ wx.data
    gates += b.data

    # gates = tanh(z * half) * half + shift: sigmoid on i, f, o and tanh on g
    half = np.full(4 * hid, 0.5)
    half[2 * hid : 3 * hid] = 1.0
    shift = 1.0 - half
    h_prev = np.empty((src.size, hid))
    c_prev = np.empty((src.size, hid))
    tanh_c = np.empty((src.size, hid))
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    for t in range(int(sorted_len[0])):
        n, rows = counts[t], slice(bounds[t], bounds[t + 1])
        h_prev[rows] = h[:n]
        c_prev[rows] = c[:n]
        a = gates[rows]
        if t > 0:
            a += h[:n] @ wh.data
        a *= half
        np.tanh(a, out=a)
        a *= half
        a += shift
        c[:n] *= a[:, hid : 2 * hid]
        c[:n] += a[:, :hid] * a[:, 2 * hid : 3 * hid]
        np.tanh(c[:n], out=tanh_c[rows])
        np.multiply(a[:, 3 * hid :], tanh_c[rows], out=h[:n])
    out_data = np.empty_like(h)
    out_data[order] = h

    def backward(g: np.ndarray) -> None:
        slope = gates * (1.0 - gates)
        slope[:, 2 * hid : 3 * hid] = 1.0 - gates[:, 2 * hid : 3 * hid] ** 2
        dz = np.empty_like(gates)
        dh = g[order]
        dc = np.zeros_like(dh)
        for t in reversed(range(int(sorted_len[0]))):
            n, rows = counts[t], slice(bounds[t], bounds[t + 1])
            a, tc = gates[rows], tanh_c[rows]
            dc_t = dc[:n] + dh[:n] * a[:, 3 * hid :] * (1.0 - tc * tc)
            d = dz[rows]
            d[:, :hid] = dc_t * a[:, 2 * hid : 3 * hid]
            d[:, hid : 2 * hid] = dc_t * c_prev[rows]
            d[:, 2 * hid : 3 * hid] = dc_t * a[:, :hid]
            d[:, 3 * hid :] = dh[:n] * tc
            d *= slope[rows]
            if t > 0:
                dc[:n] = dc_t * a[:, hid : 2 * hid]
                dh[:n] = d @ wh.data.T
        if wx.requires_grad:
            wx.accumulate(x_packed.T @ dz)
        if wh.requires_grad:
            wh.accumulate(h_prev.T @ dz)
        if b.requires_grad:
            b.accumulate(dz.sum(axis=0, keepdims=True))
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[src] = dz @ wx.data.T  # src covers every row of x
            x.accumulate(gx)

    return _result(out_data, (x, wx, wh, b), backward, "lstm_sequence")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, groups: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention within groups of rows.

    ``q``, ``k``, ``v`` are (S, d) with S = n * groups, stacked token-major:
    row ``t*groups + j`` is token t of group j, and a token attends only to
    the n tokens of its own group. All groups and heads are scored at once,
    as one (groups, heads, n, n) array; the output keeps the row layout and
    concatenates the heads' columns.
    """
    _need_2d("attention", q, k, v)
    if not q.shape == k.shape == v.shape:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} differ")
    rows, width = q.shape
    if groups < 1 or rows % groups != 0:
        raise ShapeError(f"attention: {rows} rows do not split into {groups} groups")
    if heads < 1 or width % heads != 0:
        raise ShapeError(f"attention: width {width} does not split into {heads} heads")
    n, d_head = rows // groups, width // heads

    def split(a: np.ndarray) -> np.ndarray:  # (S, d) -> (groups, heads, n, d_head)
        return a.reshape(n, groups, heads, d_head).transpose(1, 2, 0, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # inverse of split
        return a.transpose(2, 0, 1, 3).reshape(rows, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = 1.0 / np.sqrt(d_head)
    scores = (qh @ kh.swapaxes(-1, -2)) * s
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        gh = split(g)
        dp = gh @ vh.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * s
        if q.requires_grad:
            q.accumulate(merge(ds @ kh))
        if k.requires_grad:
            k.accumulate(merge(ds.swapaxes(-1, -2) @ qh))
        if v.requires_grad:
            v.accumulate(merge(p.swapaxes(-1, -2) @ gh))

    return _result(merge(p @ vh), (q, k, v), backward, "attention")
