import numpy as np
import pytest

import hienet.social as social
from hienet.cascade import GlobalSocialGraph
from hienet.social import (
    CorrelationPath,
    bfs_distances,
    path_coefficients,
    shortest_correlation_path,
    social_weight_vector,
)

from reference_ops import dense, hand_graph, path_aware_representation


def social_graph(users, undirected_edges):
    users = sorted(users)
    index = {u: i for i, u in enumerate(users)}
    adj = [set() for _ in users]
    for a, b in undirected_edges:
        adj[index[a]].add(index[b])
        adj[index[b]].add(index[a])
    return GlobalSocialGraph(users=users, index=index, adj=[sorted(s) for s in adj])


def path_between(g, u, v):
    """The correlation path between two users, named by their graph indices."""
    return shortest_correlation_path(g, g.index[u], g.index[v])


def path_users(g, path):
    return [g.users[i] for i in path.nodes]


def test_adjacent_pair():
    g = social_graph(["a", "b"], [("a", "b")])
    path = path_between(g, "a", "b")
    assert path_users(g, path) == ["a", "b"] and path.n == 1


def test_adjacent_pair_skips_the_search(monkeypatch):
    """An adjacent pair's path is its one hop, the path the search would
    pick (v is the only node at distance 0 from v), found without a BFS;
    a pair further apart still searches."""
    g = social_graph("abcde", [("c", "a"), ("c", "b"), ("c", "e"), ("a", "b"), ("e", "d")])
    searched = []

    def counted_bfs(graph, source):
        searched.append(source)
        return bfs_distances(graph, source)

    monkeypatch.setattr(social, "bfs_distances", counted_bfs)
    for u, v in [("c", "e"), ("e", "c"), ("c", "a"), ("b", "a"), ("d", "e")]:
        path = path_between(g, u, v)
        dist_to_v = bfs_distances(g, g.index[v])
        first_hop = next(n for n in g.adj[g.index[u]] if dist_to_v.get(n) == 0)
        assert path_users(g, path) == [u, g.users[first_hop]] == [u, v]
    assert searched == []
    assert path_users(g, path_between(g, "a", "d")) == ["a", "c", "e", "d"]
    assert searched == [g.index["d"]]


def test_same_user_zero_path():
    g = social_graph(["a", "b"], [("a", "b")])
    path = path_between(g, "a", "a")
    assert path_users(g, path) == ["a"] and path.n == 0


def test_four_cycle_tie_break():
    g = social_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    path = path_between(g, "a", "c")
    # both a-b-c and a-d-c are shortest; b wins on index
    assert path_users(g, path) == ["a", "b", "c"]


def test_disconnected_returns_none():
    g = social_graph("abcd", [("a", "b"), ("c", "d")])
    assert path_between(g, "a", "c") is None


def floyd_warshall(n, edges):
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b in edges:
        dist[a, b] = dist[b, a] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def test_bfs_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        users = [f"u{i}" for i in range(n)]
        edges = []
        p = rng.uniform(0.15, 0.7)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j))
        g = social_graph(users, [(users[a], users[b]) for a, b in edges])
        dist = floyd_warshall(n, edges)
        for i in range(n):
            for j in range(n):
                path = path_between(g, users[i], users[j])
                if np.isinf(dist[i, j]):
                    assert path is None
                else:
                    assert path.n == int(dist[i, j])
                    # verify the path is genuinely a walk on the graph
                    for a, b in zip(path.nodes, path.nodes[1:]):
                        assert b in g.adj[a]


def test_coefficients_sum_to_one():
    for n in range(11):
        for alpha in (0.1, 0.5, 0.9):
            coeffs = path_coefficients(n, alpha)
            assert coeffs.shape == (n + 1,)
            assert (coeffs > 0).all()
            assert abs(coeffs.sum() - 1.0) < 1e-12


def test_zero_hop_identity():
    g = {0: np.array([0.3, -1.2, 4.0])}
    for alpha in (0.1, 0.5, 0.9):
        rep = path_aware_representation(CorrelationPath([0]), g, alpha)
        assert np.array_equal(rep, g[0])


def test_one_hop_hand_values():
    emb = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    rep = path_aware_representation(CorrelationPath([0, 1]), emb, alpha=0.9)
    assert rep == pytest.approx([0.52632, 0.47368], abs=1e-5)


def test_alpha_limits():
    rng = np.random.default_rng(0)
    emb = {i: rng.normal(size=4) for i in range(5)}
    path = CorrelationPath(list(range(5)))
    near_zero = path_aware_representation(path, emb, alpha=1e-9)
    assert np.abs(near_zero - emb[0]).max() < 1e-6
    coeffs = path_coefficients(4, 1.0 - 1e-6)
    assert np.abs(coeffs - 0.2).max() < 1e-4


def test_alpha_out_of_range():
    with pytest.raises(ValueError):
        path_coefficients(2, 1.0)
    with pytest.raises(ValueError):
        path_coefficients(2, 0.0)
    with pytest.raises(ValueError):
        path_coefficients(2, -0.3)


def test_convex_hull_bound():
    rng = np.random.default_rng(3)
    emb = {i: rng.normal(size=6) for i in range(4)}
    path = CorrelationPath(list(emb))
    rep = path_aware_representation(path, emb, alpha=0.7)
    hull_max = np.stack(list(emb.values()))
    assert np.abs(rep).max() <= np.abs(hull_max).max() + 1e-12


def test_path_awareness():
    emb = {0: np.ones(2), 1: np.array([5.0, 0.0]), 2: np.array([0.0, 5.0])}
    via_a = path_aware_representation(CorrelationPath([0, 1]), emb, 0.9)
    via_b = path_aware_representation(CorrelationPath([0, 2]), emb, 0.9)
    assert not np.allclose(via_a, via_b)


def table_for(graph, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=0.1, size=(graph.vocab, dim))


def weight_row(cas, g, alpha=0.9, max_pairs=4):
    """The cascade's social weight vector, its nodes' rows looked up as ``featurize`` does."""
    rows = [g.embedding_index(u) for u in cas.nodes]
    return social_weight_vector(cas, rows, g, alpha=alpha, max_pairs=max_pairs)


def pooled_feature(cas, g, table, alpha=0.9, max_pairs=4):
    """The social token before projection: the weight vector applied to the table."""
    return (dense(weight_row(cas, g, alpha=alpha, max_pairs=max_pairs)) @ table)[0]


def test_root_only_cascade_feature():
    g = social_graph(["r", "x"], [("r", "x")])
    cas = hand_graph([], "r")
    table = table_for(g)
    vector = pooled_feature(cas, g, table)
    assert np.allclose(vector, table[g.embedding_index("r")])


def test_single_pair_over_global_edge():
    g = social_graph(["u", "v"], [("u", "v")])
    cas = hand_graph([("u", "v")], "u")
    table = np.zeros((3, 2))
    table[g.embedding_index("u")] = [1.0, 0.0]
    table[g.embedding_index("v")] = [0.0, 1.0]
    vector = pooled_feature(cas, g, table)
    # mean of the endpoint representations (0.52632, 0.47368) and its mirror
    assert vector == pytest.approx([0.5, 0.5], abs=1e-9)


def test_disconnected_pairs_fall_back_to_root():
    # cascade edge u->v but the global graph lacks any u-v path
    g = social_graph(["u", "v", "z"], [("u", "z")])
    cas = hand_graph([("u", "v")], "u")
    table = table_for(g, dim=3, seed=5)
    vector = pooled_feature(cas, g, table)
    assert np.allclose(vector, table[g.embedding_index("u")])


def test_feature_width_fixed_across_cascade_sizes():
    users = [f"u{i}" for i in range(6)]
    g = social_graph(users, [(users[i], users[i + 1]) for i in range(5)])
    table = table_for(g, dim=4, seed=1)
    small = pooled_feature(hand_graph([], "u0"), g, table, max_pairs=8)
    big_edges = [(users[0], users[1]), (users[1], users[2]), (users[2], users[3])]
    big = pooled_feature(hand_graph(big_edges, "u0"), g, table, max_pairs=8)
    assert small.shape == big.shape == (4,)


def test_weight_vector_sums_to_one():
    users = [f"u{i}" for i in range(5)]
    g = social_graph(users, [(users[i], users[i + 1]) for i in range(4)])
    cas = hand_graph([(users[0], users[2]), (users[2], users[4])], "u0")
    weights = dense(weight_row(cas, g, alpha=0.9, max_pairs=8))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (weights >= 0).all()


def test_unknown_endpoint_gets_no_weight(monkeypatch):
    """A pair with an endpoint the global graph lacks (embedding row 0) is
    skipped without a search; the unknown-user row gets no weight."""
    g = social_graph(["u", "v"], [("u", "v")])
    searched = []

    def counted_path(graph, u, v):
        searched.append((u, v))
        return shortest_correlation_path(graph, u, v)

    monkeypatch.setattr(social, "shortest_correlation_path", counted_path)
    mixed = dense(weight_row(hand_graph([("u", "v"), ("u", "z"), ("z", "v")], "u"), g, max_pairs=8))
    assert searched == [(g.index["u"], g.index["v"])]
    assert mixed[0, 0] == 0.0
    assert mixed == pytest.approx(dense(weight_row(hand_graph([("u", "v")], "u"), g)))
    # with every pair skipped, all weight falls on the root's row
    only_unknown = dense(weight_row(hand_graph([("u", "z")], "u"), g))
    assert only_unknown[0, g.embedding_index("u")] == 1.0 and only_unknown.sum() == 1.0
