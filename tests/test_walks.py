import numpy as np
import pytest

from hienet.cascade import build_cascade_graph, build_global_graph, parse_cascade_line
from hienet.config import TrainConfig
from hienet.synth import SyntheticSpec, generate_synthetic
from hienet.walks import (
    PAD,
    sample_walks,
    start_distribution,
    transition_distribution,
    walk_seed,
)

from reference_ops import choice_walks, hand_graph


def named(graph, walk):
    """A walk's user ids, PAD kept."""
    return [PAD if v is PAD else graph.nodes[v] for v in walk]


TRIANGLE = [("A", "B"), ("A", "C"), ("B", "C")]


def test_start_distribution_hand_values():
    g = hand_graph(TRIANGLE, "A")
    p = start_distribution(g, beta=0.8)
    expected = {"A": 2.8 / 5.4, "B": 1.8 / 5.4, "C": 0.8 / 5.4}
    for node, prob in zip(g.nodes, p):
        assert prob == pytest.approx(expected[node], abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_start_distribution_single_node():
    g = hand_graph([], "A")
    assert start_distribution(g, 0.8).tolist() == [1.0]


def test_start_distribution_uniform_when_degrees_equal():
    g = hand_graph([("A", "B"), ("B", "C"), ("C", "A")], "A")
    for beta in (0.1, 0.8, 5.0):
        p = start_distribution(g, beta)
        assert np.allclose(p, 1.0 / 3.0, atol=1e-12)


def test_transition_distribution_hand_values():
    g = hand_graph(TRIANGLE, "A")
    neighbors, p = transition_distribution(g, 0, beta=0.8)
    assert [g.nodes[u] for u in neighbors] == ["B", "C"]
    assert p[0] == pytest.approx(1.8 / 2.6, abs=1e-9)
    assert p[1] == pytest.approx(0.8 / 2.6, abs=1e-9)


def test_transition_single_neighbor_and_leaf():
    g = hand_graph(TRIANGLE, "A")
    neighbors, p = transition_distribution(g, g.nodes.index("B"), 0.8)
    assert neighbors == [g.nodes.index("C")] and p.tolist() == [1.0]
    neighbors, p = transition_distribution(g, g.nodes.index("C"), 0.8)
    assert neighbors == [] and p.size == 0


def test_distributions_valid_for_many_betas():
    g = hand_graph(TRIANGLE, "A")
    for beta in (1e-3, 0.5, 0.8, 10.0, 1e6):
        p = start_distribution(g, beta)
        assert (p >= 0).all() and p.sum() == pytest.approx(1.0, abs=1e-9)
        for v in range(g.num_nodes):
            _, q = transition_distribution(g, v, beta)
            if q.size:
                assert (q >= 0).all() and q.sum() == pytest.approx(1.0, abs=1e-9)


def test_beta_limit_uniform():
    g = hand_graph(TRIANGLE, "A")
    p = start_distribution(g, beta=1e9)
    assert np.abs(p - 1.0 / 3.0).max() < 1e-6
    neighbors, q = transition_distribution(g, 0, beta=1e9)
    assert np.abs(q - 1.0 / len(neighbors)).max() < 1e-6


def test_single_node_walks_pad():
    g = hand_graph([], "A")
    batch = sample_walks(g, k=2, n=3, beta=0.8, seed=0)
    assert batch.walks == [[0, PAD, PAD], [0, PAD, PAD]]


def test_chain_walks_deterministic_path():
    g = hand_graph([("A", "B"), ("B", "C")], "A")
    for seed in range(5):
        batch = sample_walks(g, k=8, n=5, beta=0.8, seed=seed)
        for walk in batch.walks:
            if named(g, walk)[0] == "A":
                assert named(g, walk) == ["A", "B", "C", PAD, PAD]


def test_walk_shape_and_membership_invariants():
    g = hand_graph(TRIANGLE, "A")
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
                assert 0 <= node < g.num_nodes


def test_seed_determinism():
    g = hand_graph(TRIANGLE, "A")
    a = sample_walks(g, 20, 5, 0.8, seed=7)
    b = sample_walks(g, 20, 5, 0.8, seed=7)
    c = sample_walks(g, 20, 5, 0.8, seed=8)
    assert a.walks == b.walks
    assert a.walks != c.walks


def test_start_frequencies_match_distribution():
    g = hand_graph(TRIANGLE, "A")
    batch = sample_walks(g, k=100_000, n=1, beta=0.8, seed=11)
    counts = {v: 0 for v in g.nodes}
    for walk in batch.walks:
        counts[g.nodes[walk[0]]] += 1
    empirical = np.array([counts[v] / len(batch.walks) for v in g.nodes])
    expected = start_distribution(g, 0.8)
    tv = 0.5 * np.abs(empirical - expected).sum()
    assert tv < 0.01


def test_walk_seed_stable():
    assert walk_seed(1, "m1") == walk_seed(1, "m1")
    assert walk_seed(1, "m1") != walk_seed(2, "m1")
    assert walk_seed(1, "m1") != walk_seed(1, "m2")


def test_index_matrix():
    g = hand_graph([("A", "B")], "A")
    rec = parse_cascade_line("1\tA\t0\t1\tA:0 A/B:10")
    global_graph = build_global_graph([rec])
    batch = sample_walks(g, k=3, n=4, beta=0.8, seed=0)
    idx, lengths, walk_of = batch.to_index_matrix([global_graph.embedding_index(u) for u in g.nodes])
    assert lengths.dtype == np.int64 and walk_of.shape == (3,) and walk_of.dtype == np.int64
    assert lengths[walk_of].tolist() == [sum(n is not PAD for n in walk) for walk in batch.walks]
    # known users never take the unknown row 0
    assert idx.dtype == np.int64 and idx.shape == (lengths.sum(),) and (idx > 0).all()
    assert (lengths < 4).any()  # some walk padded


def test_walk_of_rebuilds_every_sampled_walk():
    """On a branching tree many of the K walks repeat: each distinct walk is
    stored once, in the order it is first sampled, and ``walk_of`` gives
    every sampled walk its exact rows back."""
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("B", "E"), ("C", "F")]
    g = hand_graph(edges, "A")
    rec = parse_cascade_line("1\tA\t0\t5\tA:0 A/B:1 A/C:2 A/B/D:3 A/B/E:4 A/C/F:5")
    global_graph = build_global_graph([rec])
    batch = sample_walks(g, k=40, n=4, beta=0.8, seed=2)
    rows = [global_graph.embedding_index(u) for u in g.nodes]
    idx, lengths, walk_of = batch.to_index_matrix(rows)
    walks = [w.tolist() for w in np.split(idx, np.cumsum(lengths)[:-1])]
    expected = [[rows[v] for v in walk if v is not PAD] for walk in batch.walks]
    assert [walks[w] for w in walk_of] == expected
    assert len(walks) < len(batch.walks)
    assert len({tuple(w) for w in walks}) == len(walks)  # pairwise different
    firsts = [expected.index(w) for w in walks]
    assert firsts == sorted(firsts)  # first-occurrence order


def test_unknown_users_collapse_into_one_walk():
    """Two users the global graph lacks both read row 0, so their one-step
    walks are the same walk."""
    g = hand_graph([("R", "U1"), ("R", "U2")], "R")
    known = parse_cascade_line("1\tR\t0\t1\tR:0 R/X:10")
    global_graph = build_global_graph([known])
    batch = sample_walks(g, k=30, n=1, beta=0.8, seed=0)
    starts = [g.nodes[walk[0]] for walk in batch.walks]
    assert {"U1", "U2"} <= set(starts)
    idx, lengths, walk_of = batch.to_index_matrix([global_graph.embedding_index(u) for u in g.nodes])
    unknown = {walk_of[i] for i, v in enumerate(starts) if v != "R"}
    assert len(unknown) == 1
    (w,) = unknown
    assert lengths[w] == 1 and idx[lengths[:w].sum()] == 0
    assert lengths.size == 1 + ("R" in starts)


def test_index_draws_match_choice_reference(large_cascades):
    """Drawing node indices from one block of uniforms by binary search in
    lazily built cdfs gives the walks that one ``rng.choice`` per draw over
    user ids gives, on every cascade of two corpora and on a node with two
    sources."""
    c = TrainConfig()
    default, _ = generate_synthetic(SyntheticSpec())
    graphs = [build_cascade_graph(r, c.window) for r in default + large_cascades]
    for g in graphs:
        seed = walk_seed(c.seed, g.message_id)
        batch = sample_walks(g, c.k_walks, c.walk_len, c.beta, seed)
        assert [named(g, w) for w in batch.walks] == choice_walks(g, c.k_walks, c.walk_len, c.beta, seed)
    assert max(g.num_nodes for g in graphs) >= 100
    g = hand_graph(TRIANGLE, "A")
    batch = sample_walks(g, k=2000, n=3, beta=0.8, seed=11)
    assert [named(g, w) for w in batch.walks] == choice_walks(g, 2000, 3, 0.8, seed=11)
