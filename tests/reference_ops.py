"""Per-step autodiff ops that the test references are built from.

The model runs each LSTM direction as one ``lstm_sequence`` op and its
attention as one ``attention`` op. The tests compare both against the
per-step and per-head graphs composed from these elementwise ops, whose own
backward rules ``test_tensor.py`` checks against finite differences.

``encode_every_walk`` is the cs branch with no walk deduplication: every
sampled walk runs through the inner BiLSTM, as the model did before it
encoded each distinct walk once.

``temporal_positional_encoding`` computes one row of
``snapshots.encoding_table`` on its own. ``normalize_adjacency`` is the
dense form of the snapshot propagation that
``snapshots.build_snapshots`` builds sparsely, and ``snapshot_blocks`` splits
that sparse output back into dense per-snapshot blocks; the snapshot, model
and GCN tests compare against these.

``dense_adam_update`` is Adam on a whole parameter from its densified
gradient, every row's moments decaying: the update ``nn.optim.Adam`` made
to every parameter before it updated the embedding tables lazily. From
fresh moments its first step is the lazy one's, bit for bit.

``path_aware_representation`` is one user's path-aware average of the
embeddings along a correlation path, as the paper writes it; the social
tests check its properties, and ``social.social_weight_vector`` folds it
into one vocabulary weight vector per cascade.

``hand_graph`` builds a cascade graph with exactly the edges a test names,
which ``build_cascade_graph`` would not (a node with two sources, an edge
back into the root). ``choice_walks`` is the walk sampler on user ids, with
every node's transition probabilities built up front and one
``Generator.choice`` per draw; ``walks.sample_walks`` draws node indices
from the same stream and must give the same walks.
"""

import numpy as np

from hienet.cascade import CascadeGraph
from hienet.errors import ShapeError
from hienet.nn.optim import BETA1, BETA2, EPS
from hienet.nn.tensor import Tensor, _need_2d, _need_same_shape, _result, concat, gather_rows
from hienet.social import CorrelationPath, path_coefficients


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("mul", a, b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _result(a.data * b.data, (a, b), backward, "mul")


def mul_const(t: Tensor, c) -> Tensor:
    """Elementwise product with a constant array broadcastable to t's shape."""
    c = np.asarray(c, dtype=np.float64)
    try:
        out_data = t.data * c
    except ValueError:
        raise ShapeError(f"mul_const: constant {c.shape} does not broadcast to {t.shape}") from None
    if out_data.shape != t.shape:
        raise ShapeError(f"mul_const: constant {c.shape} changes shape of {t.shape}")

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * c)

    return _result(out_data, (t,), backward, "mul_const")


def scale(t: Tensor, s: float) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * s)

    return _result(t.data * s, (t,), backward, "scale")


def transpose(t: Tensor) -> Tensor:
    _need_2d("transpose", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g.T)

    return _result(t.data.T.copy(), (t,), backward, "transpose")


def slice_cols(t: Tensor, start: int, stop: int) -> Tensor:
    _need_2d("slice_cols", t)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[:, start:stop] = g
            t.accumulate(full)

    return _result(t.data[:, start:stop].copy(), (t,), backward, "slice_cols")


def softmax_rows(t: Tensor) -> Tensor:
    _need_2d("softmax_rows", t)
    shifted = t.data - t.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _result(s, (t,), backward, "softmax_rows")


def sigmoid(t: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    out_data = np.where(
        t.data >= 0, 1.0 / (1.0 + np.exp(-t.data)), np.exp(t.data) / (1.0 + np.exp(t.data))
    )

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * out_data * (1.0 - out_data))

    return _result(out_data, (t,), backward, "sigmoid")


def tanh(t: Tensor) -> Tensor:
    out_data = np.tanh(t.data)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate(g * (1.0 - out_data * out_data))

    return _result(out_data, (t,), backward, "tanh")


def encode_every_walk(model, walk_idx, lengths, walk_of, batch_size: int) -> Tensor:
    """``model``'s (B, d_model) cs tokens with each sampled walk's rows
    copied out of its distinct walk and encoded on their own."""
    starts = np.cumsum(lengths) - lengths
    rows = np.concatenate([walk_idx[starts[w] : starts[w] + lengths[w]] for w in walk_of])
    sampled = lengths[walk_of]
    steps = gather_rows(model.cs_embed.table, rows)
    per_walk = concat(
        [model.inner_f(steps, sampled), model.inner_b(steps, sampled, reverse=True)], axis=1
    )
    walks = np.full(batch_size, len(walk_of) // batch_size)
    merged = concat(
        [model.outer_f(per_walk, walks), model.outer_b(per_walk, walks, reverse=True)], axis=1
    )
    return model.cs_proj(merged)


def dense_adam_update(p, m: np.ndarray, v: np.ndarray, t: int, lr: float) -> None:
    """Step ``t`` of Adam on all of ``p`` (moments ``m``, ``v`` updated in place)."""
    g = p.dense_grad()
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric-normalized propagation with self-loops: D^-1/2 (A+I) D^-1/2."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"normalize_adjacency: adjacency must be square, got {a.shape}")
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


def snapshot_blocks(propagation, bins: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Block-diagonal propagation over snapshots of ``sizes`` nodes -> dense
    (block, bins) per snapshot."""
    dense = propagation.toarray()
    out = []
    offset = 0
    for n in sizes:
        out.append((dense[offset : offset + n, offset : offset + n], bins[offset : offset + n]))
        offset += n
    return out


def temporal_positional_encoding(t: int, dim: int, bins: int) -> np.ndarray:
    """PE(t) with pair d using angle t / 10000^(2d/D); sin at 2d, cos at 2d+1."""
    if not 0 <= t < bins:
        raise ValueError(f"time step {t} outside [0, {bins})")
    half = np.arange(dim // 2, dtype=np.float64)
    angles = t / np.power(10000.0, 2.0 * half / dim)
    out = np.empty(dim, dtype=np.float64)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)
    return out


def path_aware_representation(path: CorrelationPath, embeddings: dict, alpha: float) -> np.ndarray:
    """Weighted average of the path users' embeddings (nearest user dominates)."""
    coeffs = path_coefficients(path.n, alpha)
    vectors = [embeddings[w] for w in path.users]
    return np.einsum("i,ij->j", coeffs, np.stack(vectors))


def hand_graph(edges, root: str, window: int = 100) -> CascadeGraph:
    """The cascade graph with exactly ``edges``, (source, adopter) user pairs
    in adoption order: users are numbered as they first appear, the root
    first, and node i adopts at time i."""
    nodes = [root]
    for edge in edges:
        nodes.extend(u for u in edge if u not in nodes)
    index = {u: i for i, u in enumerate(nodes)}
    return CascadeGraph(
        "g", window, nodes, list(range(len(nodes))), [(index[u], index[v]) for u, v in edges]
    )


def choice_walks(graph: CascadeGraph, k: int, n: int, beta: float, seed: int) -> list[list]:
    """K walks of N user ids, None after a dead end, one ``rng.choice`` per draw."""
    out_adj = {u: [] for u in graph.nodes}
    for src, dst in graph.edges:
        out_adj[graph.nodes[src]].append(graph.nodes[dst])
    for neighbors in out_adj.values():
        neighbors.sort()

    def probabilities(users):
        weights = np.array([len(out_adj[u]) + beta for u in users], dtype=np.float64)
        return weights / weights.sum()

    start = probabilities(graph.nodes)
    transitions = {u: (nbrs, probabilities(nbrs)) for u, nbrs in out_adj.items() if nbrs}
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(k):
        node = graph.nodes[rng.choice(len(start), p=start)]
        walk = [node]
        while len(walk) < n:
            if node not in transitions:
                walk.extend([None] * (n - len(walk)))
                break
            neighbors, probs = transitions[node]
            node = neighbors[rng.choice(len(neighbors), p=probs)]
            walk.append(node)
        walks.append(walk)
    return walks
