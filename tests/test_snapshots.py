import math

import numpy as np
import pytest

from hienet.cascade import build_cascade_graph, parse_cascade_line
from hienet.errors import ConfigError
from hienet.snapshots import (
    TemporalEncoding,
    build_snapshots,
    encoding_table,
    snapshot_feature_matrix,
    snapshot_indices,
    temporal_positional_encoding,
    time_bin,
)


def make_cascade(n_retweets, window=1000, spacing=10):
    paths = ["r:0"] + [f"r/u{i}:{(i + 1) * spacing}" for i in range(n_retweets)]
    line = f"m\tr\t0\t{n_retweets + 50}\t" + " ".join(paths)
    return build_cascade_graph(parse_cascade_line(line), window)


def test_pe_zero_step():
    enc = TemporalEncoding(dim=8, bins=16)
    pe = temporal_positional_encoding(0, enc)
    assert np.array_equal(pe[0::2], np.zeros(4))
    assert np.array_equal(pe[1::2], np.ones(4))


def test_pe_unit_pairs():
    enc = TemporalEncoding(dim=12, bins=300)
    for t in (1, 7, 50, 299):
        pe = temporal_positional_encoding(t, enc)
        pair_norms = pe[0::2] ** 2 + pe[1::2] ** 2
        assert np.abs(pair_norms - 1.0).max() < 1e-12


def test_pe_hand_values_dim4():
    enc = TemporalEncoding(dim=4, bins=8)
    pe = temporal_positional_encoding(1, enc)
    assert pe == pytest.approx([0.8415, 0.5403, 0.0100, 0.99995], abs=1e-4)
    # exact closed form for the same entries
    assert pe[2] == pytest.approx(math.sin(10000.0 ** -0.5), abs=1e-12)


def test_pe_rejects_odd_dim_and_bad_bins():
    with pytest.raises(ConfigError):
        TemporalEncoding(dim=7, bins=4)
    with pytest.raises(ConfigError):
        TemporalEncoding(dim=8, bins=0)
    enc = TemporalEncoding(dim=4, bins=4)
    with pytest.raises(ValueError):
        temporal_positional_encoding(4, enc)
    with pytest.raises(ValueError):
        temporal_positional_encoding(-1, enc)


def test_pe_injective_over_bins():
    enc = TemporalEncoding(dim=16, bins=512)
    table = encoding_table(enc)
    assert table.shape == (512, 16)
    diffs = np.abs(table[:, None, :] - table[None, :, :]).max(axis=2)
    np.fill_diagonal(diffs, np.inf)
    assert diffs.min() > 1e-6


def test_encoding_table_matches_single_calls():
    enc = TemporalEncoding(dim=6, bins=40)
    table = encoding_table(enc)
    for t in (0, 1, 17, 39):
        assert np.array_equal(table[t], temporal_positional_encoding(t, enc))


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
    with pytest.raises(ValueError):
        snapshot_indices(5, 0)


def test_snapshot_indices_strictly_increasing():
    for m in range(2, 60):
        for m_max in range(2, 12):
            idx = snapshot_indices(m, m_max)
            assert idx[0] == 1 and idx[-1] == m
            assert all(a < b for a, b in zip(idx, idx[1:]))


ENC = TemporalEncoding(dim=8, bins=64)


def test_root_only_sequence():
    seq = build_snapshots(make_cascade(0), ENC, m_max=32)
    assert seq.m == 1 and seq.full_length == 1
    assert seq.snapshots[0].nodes == ["r"]
    assert seq.snapshots[0].edges == []


def test_uncapped_growth_one_event_per_snapshot():
    seq = build_snapshots(make_cascade(3), ENC, m_max=32)
    assert [len(s.nodes) for s in seq.snapshots] == [1, 2, 3, 4]
    assert [len(s.edges) for s in seq.snapshots] == [0, 1, 2, 3]


def test_capped_sizes_first_and_last_kept():
    seq = build_snapshots(make_cascade(9), ENC, m_max=3)
    assert seq.full_length == 10
    assert [len(s.nodes) for s in seq.snapshots] == [1, 6, 10]


def test_nesting_and_edge_consistency():
    cascade = make_cascade(17)
    cascade_edges = {(a, b) for a, b, _ in cascade.edges}
    for m_max in (1, 2, 3, 5, 32):
        seq = build_snapshots(cascade, ENC, m_max=m_max)
        for prev, cur in zip(seq.snapshots, seq.snapshots[1:]):
            assert set(prev.nodes) <= set(cur.nodes)
            assert set(prev.edges) <= set(cur.edges)
        for snap in seq.snapshots:
            assert set(snap.edges) <= cascade_edges
            # every non-root node has exactly one incoming edge
            assert len(snap.edges) == len(snap.nodes) - 1


def test_feature_matrix_single_node():
    seq = build_snapshots(make_cascade(0), ENC, m_max=4)
    adjacency, bins = snapshot_feature_matrix(seq.snapshots[0], ENC)
    assert adjacency.shape == (1, 1) and adjacency[0, 0] == 0.0
    assert bins.tolist() == [0]
    assert np.array_equal(encoding_table(ENC)[bins[0]], temporal_positional_encoding(0, ENC))


def test_feature_matrix_two_nodes():
    seq = build_snapshots(make_cascade(1), ENC, m_max=4)
    adjacency, bins = snapshot_feature_matrix(seq.snapshots[1], ENC)
    assert adjacency.shape == (2, 2)
    assert adjacency[0, 1] == 1.0 and adjacency.sum() == 1.0
    # the retweet at t=10 of a 1000-unit window falls in bin 10 * 64 // 1000
    assert bins.tolist() == [0, 0]
    assert bins.dtype == np.int64


def test_same_bin_nodes_share_rows():
    # two retweets 1 time unit apart land in the same 64-bin step of a
    # 1000-unit window
    line = "m\tr\t0\t5\tr:0 r/a:100 r/b:101"
    cascade = build_cascade_graph(parse_cascade_line(line), 1000)
    seq = build_snapshots(cascade, ENC, m_max=8)
    _, bins = snapshot_feature_matrix(seq.snapshots[-1], ENC)
    assert bins[1] == bins[2] == time_bin(100, 1000, ENC.bins)
    assert bins[0] != bins[1]


def test_feature_shapes_all_snapshots():
    cascade = make_cascade(11)
    seq = build_snapshots(cascade, ENC, m_max=5)
    for snap in seq.snapshots:
        adjacency, bins = snapshot_feature_matrix(snap, ENC)
        n = len(snap.nodes)
        assert adjacency.shape == (n, n)
        assert bins.shape == (n,)
        assert ((bins >= 0) & (bins < ENC.bins)).all()
