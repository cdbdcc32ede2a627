import numpy as np
import pytest

from hienet.cascade import build_global_graph, parse_cascade_line
from hienet.errors import GraphError
from hienet.walks import (
    PAD,
    sample_walks,
    start_distribution,
    transition_distribution,
    walk_seed,
)


def graph_from_edges(edges, root):
    """Build a CascadeGraph with an exact directed edge set."""
    from hienet.cascade import CascadeGraph

    g = CascadeGraph(message_id="g", root=root, window=100)
    nodes = sorted({u for e in edges for u in e} | {root})
    nodes.remove(root)
    g.nodes = [root] + nodes
    g.activation = {v: i for i, v in enumerate(g.nodes)}
    g.out_adj = {v: [] for v in g.nodes}
    for t, (u, v) in enumerate(edges):
        g.out_adj[u].append(v)
        g.edges.append((u, v, t))
    for v in g.out_adj:
        g.out_adj[v].sort()
    return g


TRIANGLE = [("A", "B"), ("A", "C"), ("B", "C")]


def test_start_distribution_hand_values():
    g = graph_from_edges(TRIANGLE, "A")
    p = start_distribution(g, beta=0.8)
    expected = {"A": 2.8 / 5.4, "B": 1.8 / 5.4, "C": 0.8 / 5.4}
    for node, prob in zip(g.nodes, p):
        assert prob == pytest.approx(expected[node], abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_start_distribution_single_node():
    g = graph_from_edges([], "A")
    assert start_distribution(g, 0.8).tolist() == [1.0]


def test_start_distribution_uniform_when_degrees_equal():
    g = graph_from_edges([("A", "B"), ("B", "C"), ("C", "A")], "A")
    for beta in (0.1, 0.8, 5.0):
        p = start_distribution(g, beta)
        assert np.allclose(p, 1.0 / 3.0, atol=1e-12)


def test_transition_distribution_hand_values():
    g = graph_from_edges(TRIANGLE, "A")
    neighbors, p = transition_distribution(g, "A", beta=0.8)
    assert neighbors == ["B", "C"]
    assert p[0] == pytest.approx(1.8 / 2.6, abs=1e-9)
    assert p[1] == pytest.approx(0.8 / 2.6, abs=1e-9)


def test_transition_single_neighbor_and_leaf():
    g = graph_from_edges(TRIANGLE, "A")
    neighbors, p = transition_distribution(g, "B", 0.8)
    assert neighbors == ["C"] and p.tolist() == [1.0]
    neighbors, p = transition_distribution(g, "C", 0.8)
    assert neighbors == [] and p.size == 0


def test_transition_unknown_node():
    g = graph_from_edges(TRIANGLE, "A")
    with pytest.raises(GraphError):
        transition_distribution(g, "Z", 0.8)


def test_empty_graph_errors():
    from hienet.cascade import CascadeGraph

    with pytest.raises(GraphError):
        start_distribution(CascadeGraph("m", "x", 10), 0.8)


def test_distributions_valid_for_many_betas():
    g = graph_from_edges(TRIANGLE, "A")
    for beta in (1e-3, 0.5, 0.8, 10.0, 1e6):
        p = start_distribution(g, beta)
        assert (p >= 0).all() and p.sum() == pytest.approx(1.0, abs=1e-9)
        for v in g.nodes:
            _, q = transition_distribution(g, v, beta)
            if q.size:
                assert (q >= 0).all() and q.sum() == pytest.approx(1.0, abs=1e-9)


def test_beta_limit_uniform():
    g = graph_from_edges(TRIANGLE, "A")
    p = start_distribution(g, beta=1e9)
    assert np.abs(p - 1.0 / 3.0).max() < 1e-6
    neighbors, q = transition_distribution(g, "A", beta=1e9)
    assert np.abs(q - 1.0 / len(neighbors)).max() < 1e-6


def test_single_node_walks_pad():
    g = graph_from_edges([], "A")
    batch = sample_walks(g, k=2, n=3, beta=0.8, seed=0)
    assert batch.walks == [["A", PAD, PAD], ["A", PAD, PAD]]


def test_chain_walks_deterministic_path():
    g = graph_from_edges([("A", "B"), ("B", "C")], "A")
    for seed in range(5):
        batch = sample_walks(g, k=8, n=5, beta=0.8, seed=seed)
        for walk in batch.walks:
            if walk[0] == "A":
                assert walk == ["A", "B", "C", PAD, PAD]


def test_walk_shape_and_membership_invariants():
    g = graph_from_edges(TRIANGLE, "A")
    batch = sample_walks(g, k=40, n=6, beta=0.8, seed=3)
    assert len(batch.walks) == 40
    for walk in batch.walks:
        assert len(walk) == 6
        seen_pad = False
        for node in walk:
            if node is PAD:
                seen_pad = True
            else:
                assert not seen_pad  # pads never precede real nodes
                assert node in g.activation


def test_seed_determinism():
    g = graph_from_edges(TRIANGLE, "A")
    a = sample_walks(g, 20, 5, 0.8, seed=7)
    b = sample_walks(g, 20, 5, 0.8, seed=7)
    c = sample_walks(g, 20, 5, 0.8, seed=8)
    assert a.walks == b.walks
    assert a.walks != c.walks


def test_start_frequencies_match_distribution():
    g = graph_from_edges(TRIANGLE, "A")
    batch = sample_walks(g, k=100_000, n=1, beta=0.8, seed=11)
    counts = {v: 0 for v in g.nodes}
    for walk in batch.walks:
        counts[walk[0]] += 1
    empirical = np.array([counts[v] / batch.k for v in g.nodes])
    expected = start_distribution(g, 0.8)
    tv = 0.5 * np.abs(empirical - expected).sum()
    assert tv < 0.01


def test_walk_seed_stable():
    assert walk_seed(1, "m1") == walk_seed(1, "m1")
    assert walk_seed(1, "m1") != walk_seed(2, "m1")
    assert walk_seed(1, "m1") != walk_seed(1, "m2")


def test_index_matrix():
    g = graph_from_edges([("A", "B")], "A")
    rec = parse_cascade_line("1\tA\t0\t1\tA:0 A/B:10")
    global_graph = build_global_graph([rec])
    batch = sample_walks(g, k=3, n=4, beta=0.8, seed=0)
    idx, mask = batch.to_index_matrix(global_graph)
    assert idx.shape == (3, 4) and mask.shape == (3, 4)
    assert ((idx == 0) == (mask == 0)).all()
    assert (mask == 0).any()  # some walk padded
