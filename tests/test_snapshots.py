import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from hienet.cascade import (
    GlobalSocialGraph,
    build_cascade_graph,
    build_global_graph,
    parse_cascade_line,
)
from hienet.config import TrainConfig
from hienet.errors import ConfigError
from hienet.features import build_batch, featurize, featurize_corpus
from hienet.snapshots import (
    build_snapshots,
    encoding_table,
    snapshot_feature_matrix,
    snapshot_indices,
    time_bin,
)
from hienet.synth import SyntheticSpec, generate_synthetic

from reference_ops import dense, normalize_adjacency, snapshot_blocks, temporal_positional_encoding


def make_cascade(n_retweets, window=1000, spacing=10):
    paths = ["r:0"] + [f"r/u{i}:{(i + 1) * spacing}" for i in range(n_retweets)]
    line = f"m\tr\t0\t{n_retweets + 50}\t" + " ".join(paths)
    return build_cascade_graph(parse_cascade_line(line), window)


def test_pe_zero_step():
    pe = temporal_positional_encoding(0, 8, 16)
    assert np.array_equal(pe[0::2], np.zeros(4))
    assert np.array_equal(pe[1::2], np.ones(4))


def test_pe_unit_pairs():
    for t in (1, 7, 50, 299):
        pe = temporal_positional_encoding(t, 12, 300)
        pair_norms = pe[0::2] ** 2 + pe[1::2] ** 2
        assert np.abs(pair_norms - 1.0).max() < 1e-12


def test_pe_hand_values_dim4():
    pe = temporal_positional_encoding(1, 4, 8)
    assert pe == pytest.approx([0.8415, 0.5403, 0.0100, 0.99995], abs=1e-4)
    # exact closed form for the same entries
    assert pe[2] == pytest.approx(math.sin(10000.0 ** -0.5), abs=1e-12)


def test_pe_rejects_odd_dim_and_bad_bins():
    with pytest.raises(ConfigError, match="pe_dim must be even"):
        TrainConfig(pe_dim=7)
    with pytest.raises(ConfigError, match="time_bins must be >= 1"):
        TrainConfig(time_bins=0)
    with pytest.raises(ValueError):
        temporal_positional_encoding(4, 4, 4)
    with pytest.raises(ValueError):
        temporal_positional_encoding(-1, 4, 4)


def test_pe_injective_over_bins():
    table = encoding_table(16, 512)
    assert table.shape == (512, 16)
    diffs = np.abs(table[:, None, :] - table[None, :, :]).max(axis=2)
    np.fill_diagonal(diffs, np.inf)
    assert diffs.min() > 1e-6


def test_encoding_table_matches_single_calls():
    table = encoding_table(6, 40)
    for t in (0, 1, 17, 39):
        assert np.array_equal(table[t], temporal_positional_encoding(t, 6, 40))


def test_time_bin_edges():
    assert time_bin(0, 1000, 64) == 0
    assert time_bin(999, 1000, 64) == 63
    assert time_bin(500, 1000, 64) == 32
    # defensive clip if an elapsed time equals the window
    assert time_bin(1000, 1000, 64) == 63
    bins = [time_bin(t, 1000, 64) for t in range(0, 1000, 7)]
    assert bins == sorted(bins)


def test_snapshot_indices_cap_cases():
    assert snapshot_indices(10, 3) == [1, 6, 10]
    assert snapshot_indices(4, 8) == [1, 2, 3, 4]
    assert snapshot_indices(1, 1) == [1]
    assert snapshot_indices(10, 1) == [10]
    assert snapshot_indices(10, 2) == [1, 10]


def test_snapshot_indices_strictly_increasing():
    for m in range(2, 60):
        for m_max in range(2, 12):
            idx = snapshot_indices(m, m_max)
            assert idx[0] == 1 and idx[-1] == m
            assert all(a < b for a, b in zip(idx, idx[1:]))


PE_DIM, BINS = 8, 64


def snapshots_of(cascade, m_max):
    propagation, bins, _ = build_snapshots(*snapshot_feature_matrix(cascade, BINS), m_max)
    return snapshot_blocks(propagation, bins, snapshot_indices(cascade.num_nodes, m_max))


def test_root_only_sequence():
    seq = snapshots_of(make_cascade(0), m_max=32)
    assert len(seq) == 1
    block, bins = seq[0]
    # a lone node propagates only through its self-loop
    assert block.shape == (1, 1) and block[0, 0] == 1.0
    assert bins.tolist() == [0]


def test_uncapped_growth_one_event_per_snapshot():
    seq = snapshots_of(make_cascade(3), m_max=32)
    assert [bins.size for _, bins in seq] == [1, 2, 3, 4]
    # i self-loops plus both directions of i - 1 edges
    assert [np.count_nonzero(block) for block, _ in seq] == [1, 4, 7, 10]


def test_capped_sizes_first_and_last_kept():
    cascade = make_cascade(9)
    assert cascade.num_nodes == 10
    seq = snapshots_of(cascade, m_max=3)
    assert [bins.size for _, bins in seq] == [1, 6, 10]


def test_nesting_and_edge_consistency():
    cascade = make_cascade(17)
    cascade_edges = set(cascade.edges)
    for m_max in (1, 2, 3, 5, 32):
        seq = snapshots_of(cascade, m_max=m_max)
        for (prev, prev_bins), (cur, cur_bins) in zip(seq, seq[1:]):
            n = prev_bins.size
            assert np.array_equal(cur[:n, :n] != 0, prev != 0)
            assert np.array_equal(cur_bins[:n], prev_bins)
        for block, _ in seq:
            assert np.array_equal(block, block.T) and (np.diag(block) > 0).all()
            # each nonzero above the diagonal is a diffusion edge, from the earlier node
            src, dst = np.nonzero(np.triu(block, 1))
            edges = set(zip(src.tolist(), dst.tolist()))
            assert edges <= cascade_edges
            # every non-root node has exactly one incoming edge
            assert (np.triu(block, 1) != 0).sum(axis=0).tolist() == [0] + [1] * (block.shape[0] - 1)


def test_feature_matrix_single_node():
    rows, cols, bins = snapshot_feature_matrix(make_cascade(0), BINS)
    assert rows.tolist() == [0] and cols.tolist() == [0]
    assert bins.tolist() == [0]
    assert np.array_equal(
        encoding_table(PE_DIM, BINS)[bins[0]], temporal_positional_encoding(0, PE_DIM, BINS)
    )


def test_feature_matrix_two_nodes():
    rows, cols, bins = snapshot_feature_matrix(make_cascade(1), BINS)
    # A + A^T + I of the edge 0 -> 1, sorted by (row, col)
    assert rows.tolist() == [0, 0, 1, 1] and cols.tolist() == [0, 1, 0, 1]
    # the retweet at t=10 of a 1000-unit window falls in bin 10 * 64 // 1000
    assert bins.tolist() == [0, 0]
    assert bins.dtype == np.int64


def test_same_bin_nodes_share_rows():
    # two retweets 1 time unit apart land in the same 64-bin step of a
    # 1000-unit window
    line = "m\tr\t0\t5\tr:0 r/a:100 r/b:101"
    cascade = build_cascade_graph(parse_cascade_line(line), 1000)
    _, _, bins = snapshot_feature_matrix(cascade, BINS)
    assert bins[1] == bins[2] == time_bin(100, 1000, BINS)
    assert bins[0] != bins[1]


def test_feature_shapes_all_snapshots():
    cascade = make_cascade(11)
    propagation, bins, pool = build_snapshots(*snapshot_feature_matrix(cascade, BINS), 5)
    sizes = snapshot_indices(cascade.num_nodes, 5)
    assert propagation.shape == (sum(sizes), sum(sizes))
    assert bins.shape == pool.shape == (sum(sizes),)
    assert ((bins >= 0) & (bins < BINS)).all()
    assert np.array_equal(pool, np.repeat([1.0 / (5 * n) for n in sizes], sizes))
    for block, snap_bins in snapshot_blocks(propagation, bins, sizes):
        n = snap_bins.size
        assert block.shape == (n, n)


def per_prefix_snapshots(cascade, time_bins, m_max):
    """Reference: each kept snapshot built from its own nodes and edges.

    Snapshot i holds the first i nodes in activation order and the incoming
    edge of each non-root member; its adjacency is symmetrized before
    normalization, as the GCN reads it.
    """
    source = {dst: src for src, dst in cascade.edges}
    out = []
    for i in snapshot_indices(cascade.num_nodes, m_max):
        adjacency = np.zeros((i, i), dtype=np.float64)
        for dst in range(1, i):
            adjacency[source[dst], dst] = 1.0
        bins = np.array(
            [time_bin(t, cascade.window, time_bins) for t in cascade.elapsed[:i]],
            dtype=np.int64,
        )
        out.append((normalize_adjacency(adjacency + adjacency.T), bins))
    return out


def test_featurize_blocks_match_per_prefix_reference():
    """The blocks ``build_snapshots`` makes of a cascade are the per-prefix
    reference's to the bit, and the features ``featurize`` folds from them
    are the reference's P F and pool weights times P's row sums, to within
    float64 roundoff."""
    records, _ = generate_synthetic(SyntheticSpec(num_users=80, num_cascades=40, seed=5))
    global_graph = build_global_graph(records)
    config = TrainConfig(k_walks=2, walk_len=3, max_pairs=4, m_max=4, time_bins=16, seed=1)
    table = encoding_table(config.pe_dim, config.time_bins)
    window = 21600
    capped = 0
    for rec in records:
        graph = build_cascade_graph(rec, window)
        capped += graph.num_nodes > config.m_max
        propagation, bins, _ = build_snapshots(
            *snapshot_feature_matrix(graph, config.time_bins), config.m_max
        )
        got = snapshot_blocks(propagation, bins, snapshot_indices(graph.num_nodes, config.m_max))
        want = per_prefix_snapshots(graph, config.time_bins, config.m_max)
        assert len(got) == len(want)
        for (p_got, bins_got), (p_want, bins_want) in zip(got, want):
            assert p_got.dtype == p_want.dtype and p_got.shape == p_want.shape
            assert p_got.tobytes() == p_want.tobytes()
            assert bins_got.dtype == bins_want.dtype and bins_got.tobytes() == bins_want.tobytes()

        f = featurize(graph, 0, global_graph, config, table)
        p = block_diag(*[block for block, _ in want])
        sizes = [block_bins.size for _, block_bins in want]
        pool = np.repeat([1.0 / (len(want) * n) for n in sizes], sizes)
        node_rows = table[np.concatenate([block_bins for _, block_bins in want])]
        assert np.abs(f.node_feats - p @ node_rows).max() <= 1e-12
        assert np.abs(f.pool_weights - pool * p.sum(axis=1)).max() <= 1e-12
    assert capped >= 5


def default_batch():
    """(config, records, features) of the first default-size batch of the default corpus."""
    config = TrainConfig(seed=0)
    records, _ = generate_synthetic(SyntheticSpec())
    records = records[: config.batch_size]
    return config, records, featurize_corpus(records, build_global_graph(records), config)


def test_batch_propagation_stores_no_zeros():
    """The batch's one propagation left, the folded pooling, holds one
    positive entry per kept snapshot node, and the node features one row."""
    config, records, feats = default_batch()
    batch = build_batch(feats)
    sizes = [
        i
        for rec in records
        for i in snapshot_indices(build_cascade_graph(rec, config.window).num_nodes, config.m_max)
    ]
    assert batch.pool.data.size == sum(sizes) and (batch.pool.data > 0).all()
    assert batch.node_feats.shape == (sum(sizes), config.pe_dim)


def test_batch_stacks_each_cascade_in_its_place():
    """The batch's node features stack the cascades', pool row b holds
    cascade b's pool weights at its node columns, and the social rows
    stack. Every matrix lists its entries with rows that never decrease,
    the order that keeps sparse_matmul's sums scipy's to the bit, and in
    int32 indices."""
    _, _, feats = default_batch()
    batch = build_batch(feats)
    assert np.array_equal(batch.node_feats, np.vstack([f.node_feats for f in feats]))
    assert np.array_equal(dense(batch.pool), block_diag(*[f.pool_weights[None] for f in feats]))
    assert np.array_equal(dense(batch.social), np.vstack([dense(f.social_row) for f in feats]))
    for mat in [batch.pool, batch.social] + [f.social_row for f in feats]:
        assert np.all(np.diff(mat.rows) >= 0)
        assert mat.rows.dtype == mat.cols.dtype == np.int32


def star_record(n_nodes):
    paths = " ".join(f"r/u{i}:{i}" for i in range(1, n_nodes))
    return parse_cascade_line(f"m\tr\t0\t{n_nodes}\tr:0 {paths}")


def star_cascade(n_nodes):
    return build_cascade_graph(star_record(n_nodes), 21600)


def test_featurize_looks_up_only_the_rows_it_reads(monkeypatch):
    """Only walk nodes, diffusion-pair endpoints and the root have their
    embedding row read, each once, so a 2,001-node star needs at most
    K*N + 2*max_pairs lookups."""
    config = TrainConfig()
    record = star_record(2001)
    global_graph = build_global_graph([record])
    looked_up = []
    lookup = GlobalSocialGraph.embedding_index

    def counted(graph, user):
        looked_up.append(user)
        return lookup(graph, user)

    monkeypatch.setattr(GlobalSocialGraph, "embedding_index", counted)
    featurize_corpus([record], global_graph, config)
    assert len(looked_up) == len(set(looked_up))
    assert len(looked_up) <= config.k_walks * config.walk_len + 2 * config.max_pairs


def test_star_snapshot_features_stay_sparse():
    """A 2,001-node star: 8 kept snapshots hold sum(3i - 2) entries in
    under 1 MB (dense blocks would take about 92 MB)."""
    config = TrainConfig()
    cascade = star_cascade(2001)
    propagation, bins, pool = build_snapshots(
        *snapshot_feature_matrix(cascade, config.time_bins), config.m_max
    )
    sizes = snapshot_indices(cascade.num_nodes, config.m_max)
    assert propagation.data.size == sum(3 * i - 2 for i in sizes)
    stored = propagation.data.nbytes + propagation.rows.nbytes + propagation.cols.nbytes
    assert stored + bins.nbytes + pool.nbytes < 1_000_000
