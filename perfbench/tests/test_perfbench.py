"""Self-tests of the benchmark's own arithmetic and input generators.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.trace import Span, Tracer, self_times
from perfbench.workloads import WORKLOADS, compose_communities, write_inputs

from hienet import SyntheticSpec, build_global_graph

SMALL = SyntheticSpec(num_users=60, num_cascades=2)


# ---------------------------------------------------------------------------
# percentile selection


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_samples_above(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_above(n, expected) >= stats.MIN_ABOVE


def test_nearest_rank_returns_a_sample_with_ten_above():
    samples = [float(x) for x in range(100, 0, -1)]
    p90 = stats.nearest_rank(samples, 90.0)
    assert p90 == 90.0
    assert sum(s > p90 for s in samples) == 10
    assert stats.nearest_rank([3.0, 1.0, 2.0], 50.0) == 2.0


# ---------------------------------------------------------------------------
# self time on nested spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 5.0, 9.0, 0, 0),
        Span("d", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 2.0, 6.0, 0, 0), Span("c", 4.0, 8.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_nests_groups_and_restores():
    layer = types.SimpleNamespace()
    layer.inner = lambda x: x * 2
    layer.outer = lambda x: layer.inner(x) + 1
    originals = (layer.outer, layer.inner)
    tracer = Tracer()
    seen = []
    tracer.wrap(layer, "outer", "outer", new_group=True)
    tracer.wrap(layer, "inner", "inner", after=lambda result, args: seen.append(result))
    try:
        assert layer.outer(3) == 7
        assert layer.outer(1) == 3
    finally:
        tracer.restore()
    assert (layer.outer, layer.inner) == originals
    assert seen == [6, 2]
    names = [(s.name, s.parent, s.group) for s in tracer.spans]
    assert names == [("outer", -1, 1), ("inner", 0, 1), ("outer", -1, 2), ("inner", 2, 2)]
    own = self_times(tracer.spans)
    assert all(t >= 0 for t in own)


# ---------------------------------------------------------------------------
# community composer


def _community(user: str) -> str:
    return user.split("-", 1)[0]


def test_vocabulary_grows_with_community_count():
    sizes = [
        build_global_graph(compose_communities(5, count, SMALL)[0]).num_users for count in (1, 3, 6)
    ]
    assert sizes[0] < sizes[1] < sizes[2]


def test_communities_are_disjoint():
    records, _ = compose_communities(5, 4, SMALL)
    graph = build_global_graph(records)
    assert len({_community(u) for u in graph.users}) == 4
    for i, nbrs in enumerate(graph.adj):
        assert all(_community(graph.users[j]) == _community(graph.users[i]) for j in nbrs)
    for rec in records:
        group = _community(rec.message_id)
        assert all(_community(e.retweeter) == group for e in rec.events)
    assert len({r.message_id for r in records}) == len(records)


def test_composer_is_deterministic_per_seed(tmp_path):
    a, _ = compose_communities(9, 3, SMALL)
    b, _ = compose_communities(9, 3, SMALL)
    c, _ = compose_communities(10, 3, SMALL)
    assert a == b
    assert a != c


def test_workload_files_are_byte_stable_per_seed(tmp_path):
    first = write_inputs("train-small", 3, tmp_path / "a")
    second = write_inputs("train-small", 3, tmp_path / "b")
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_benchmark_json_lists_exactly_the_workloads():
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
