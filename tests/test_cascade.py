import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hienet.cascade import (
    CascadeEvent,
    CascadeRecord,
    build_cascade_graph,
    build_global_graph,
    compute_label,
    parse_cascade_line,
    serialize_cascade_line,
)
from hienet.errors import CascadeParseError

LINE = "42\tu1\t0\t3\tu1:0 u1/u2:120 u1/u2/u3:300"


def test_parse_basic_line():
    rec = parse_cascade_line(LINE)
    assert rec.message_id == "42"
    assert rec.root_user == "u1"
    assert rec.final_size == 3
    assert [(e.retweeter, e.source, e.elapsed) for e in rec.events] == [
        ("u1", None, 0),
        ("u2", "u1", 120),
        ("u3", "u2", 300),
    ]


def test_parse_root_only():
    rec = parse_cascade_line("7\tu9\t0\t0\tu9:0")
    assert rec.root_user == "u9"
    assert len(rec.events) == 1
    assert rec.final_size == 0


def test_parse_duplicate_path_dedup():
    rec = parse_cascade_line("1\tu1\t0\t1\tu1:0 u1/u2:120 u1/u2:120")
    assert [(e.retweeter, e.source, e.elapsed) for e in rec.events[1:]] == [("u2", "u1", 120)]


def test_parse_duplicate_retweeter_keeps_earliest():
    rec = parse_cascade_line("1\tu1\t0\t1\tu1:0 u1/u2:300 u1/u2:120")
    assert rec.events[1].elapsed == 120


def test_same_time_reshare_follows_its_source():
    """``b`` adopts from ``z`` in the time unit ``z`` adopted in, and sorts before it by name."""
    line = "1\tr\t0\t2\tr:0 r/z:5 r/z/b:5"
    rec = parse_cascade_line(line)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_cascade_graph(rec, 10)
    assert g.nodes == ["r", "z", "b"] and g.elapsed == [0, 5, 5]
    assert g.edges == [(0, 1), (1, 2)]
    assert serialize_cascade_line(rec) == line
    # a same-time cycle (each adopts from the other) still parses, in finite time
    cycle = parse_cascade_line("1\tr\t0\t2\tr:0 r/a/b:5 r/b/a:5")
    assert sorted(e.retweeter for e in cycle.events[1:]) == ["a", "b"]


@pytest.mark.parametrize(
    "line,field",
    [
        ("1\tu1\t0\t3", "line"),  # missing paths field
        ("1\tu1\t0\t3\tu1:0 u1/u2:xx", "path[1]"),
        ("1\tu1\tzz\t3\tu1:0", "publish_time"),
        ("1\tu1\t0\tzz\tu1:0", "final_size"),
        ("1\tu1\t0\t3\tu1:0 u9/u2:10", "path[1]"),  # path not starting at root
        ("1\tu1\t0\t3\tu1:5", "path[0]"),  # root path with nonzero time
        ("1\tu1\t0\t3\tu1:0 u1/u2:-4", "path[1]"),  # negative time
    ],
)
def test_parse_errors_name_line_and_field(line, field):
    with pytest.raises(CascadeParseError) as err:
        parse_cascade_line(line, line_no=17)
    assert "17" in str(err.value)
    assert field in str(err.value)


def test_windowed_graph_counts():
    rec = parse_cascade_line(LINE)
    g_all = build_cascade_graph(rec, 3600)
    assert g_all.num_nodes == 3 and len(g_all.edges) == 2
    # hand count: only u1 (t=0) and u2 (t=120) fall inside [0, 200)
    g_200 = build_cascade_graph(rec, 200)
    assert set(g_200.nodes) == {"u1", "u2"}
    assert len(g_200.edges) == 1
    g_1 = build_cascade_graph(rec, 1)
    assert g_1.nodes == ["u1"] and len(g_1.edges) == 0


def test_windowing_monotone():
    rec = parse_cascade_line(LINE)
    for t1, t2 in [(1, 121), (121, 200), (200, 301), (1, 3600)]:
        n1 = set(build_cascade_graph(rec, t1).nodes)
        n2 = set(build_cascade_graph(rec, t2).nodes)
        assert n1 <= n2


def test_label_hand_counts():
    rec = parse_cascade_line(LINE)
    # window 301 covers both retweets; final_size 3 leaves one future adoption
    assert compute_label(rec, 301) == 1
    rec_exact = parse_cascade_line("1\tu1\t0\t2\tu1:0 u1/u2:120 u1/u2/u3:300")
    assert compute_label(rec_exact, 3600) == 0
    rec_root = CascadeRecord("m", "u1", 0, [CascadeEvent("u1", None, 0)], 5)
    assert compute_label(rec_root, 1) == 5


def test_label_complement():
    rec = parse_cascade_line(LINE)
    for w in (1, 121, 200, 301, 3600):
        assert len(rec.observed_events(w)) + compute_label(rec, w) == rec.final_size


def test_label_clamps_inconsistent_records():
    rec = parse_cascade_line("1\tu1\t0\t0\tu1:0 u1/u2:10")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert compute_label(rec, 100) == 0
    assert any("clamping" in str(w.message) for w in caught)


def test_global_graph_merges_components():
    r1 = parse_cascade_line("1\tu1\t0\t1\tu1:0 u1/u2:10")
    r2 = parse_cascade_line("2\tu5\t0\t1\tu5:0 u5/u2:20")
    g = build_global_graph([r1, r2])
    assert g.users == ["u1", "u2", "u5"]
    # u2 bridges both roots
    u2 = g.index["u2"]
    assert set(g.adj[u2]) == {g.index["u1"], g.index["u5"]}


def test_global_graph_symmetric_no_self_loops():
    recs = [
        parse_cascade_line("1\tu1\t0\t2\tu1:0 u1/u2:10 u1/u2/u3:20"),
        parse_cascade_line("2\tu3\t0\t1\tu3:0 u3/u1:5"),
    ]
    g = build_global_graph(recs)
    for i, nbrs in enumerate(g.adj):
        assert i not in nbrs
        for j in nbrs:
            assert i in g.adj[j]


def test_global_graph_empty_corpus():
    g = build_global_graph([])
    assert g.num_users == 0 and g.adj == []


def test_serialize_round_trip_canonical():
    rec = parse_cascade_line(LINE)
    line = serialize_cascade_line(rec)
    assert line == LINE  # LINE is already canonical
    assert serialize_cascade_line(parse_cascade_line(line)) == line


@st.composite
def cascade_records(draw):
    n_extra = draw(st.integers(min_value=0, max_value=8))
    events = [CascadeEvent("u0", None, 0)]
    users = ["u0"]
    t = 0
    for i in range(n_extra):
        t += draw(st.integers(min_value=1, max_value=50))
        source = draw(st.sampled_from(users))
        user = f"u{i + 1}"
        users.append(user)
        events.append(CascadeEvent(user, source, t))
    final = n_extra + draw(st.integers(min_value=0, max_value=5))
    return CascadeRecord(f"m{n_extra}", "u0", 1000, events, final)


@given(cascade_records())
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_record(rec):
    again = parse_cascade_line(serialize_cascade_line(rec))
    assert again.events == rec.events
    assert again.final_size == rec.final_size
    assert again.root_user == rec.root_user


def test_round_trip_keeps_a_source_that_never_adopted():
    """``y`` reshares from ``x``, who never adopted: written back and read
    again, ``y`` still hangs off ``x``, so the cascade graph still drops it."""
    rec = parse_cascade_line("1\tr\t0\t3\tr:0 r/x/y:5 r/z:7")
    again = parse_cascade_line(serialize_cascade_line(rec))
    assert again.events == rec.events
    with pytest.warns(UserWarning, match="dropping event for y"):
        assert build_cascade_graph(again, 100).nodes == ["r", "z"]


@given(cascade_records(), st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=120))
@settings(max_examples=60, deadline=None)
def test_window_monotonicity_property(rec, w1, dw):
    n1 = set(build_cascade_graph(rec, w1).nodes)
    n2 = set(build_cascade_graph(rec, w1 + dw).nodes)
    assert n1 <= n2


def test_graph_connected_through_root():
    rec = parse_cascade_line("1\tu1\t0\t3\tu1:0 u1/u2:10 u1/u2/u3:20 u1/u4:30")
    g = build_cascade_graph(rec, 100)
    reachable = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in g.children[u]:
            if v not in reachable:
                reachable.add(v)
                frontier.append(v)
    assert reachable == set(range(g.num_nodes)) and g.nodes[0] == "u1"
