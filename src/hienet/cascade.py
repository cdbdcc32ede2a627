"""Cascade data model: file parsing, observation windows, labels, social graph.

File format (one cascade per line, tab-separated):

    msg_id <TAB> root_user <TAB> publish_time <TAB> final_size <TAB> path [path ...]

where each space-separated ``path`` is ``u1/u2/.../uk:t``, the chain of users
from the root to the adopting user ``uk``, with ``t`` the adoption time offset
(integer seconds, or integer years for citation data) relative to publication.
The first path of a well-formed line is ``root:0``. ``final_size`` is the number
of adoptions (root excluded) at the dataset's label horizon.

Conventions adopted here and documented in the README:
  * popularity counts retweets only; the root is never included;
  * a user appearing several times in one cascade keeps the earliest adoption
    (each cascade graph is a tree of first exposures);
  * the corpus-wide social graph is undirected;
  * a cascade graph numbers its users in adoption order, and its edges are
    node-index pairs; ``build_cascade_graph`` alone maps users to nodes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import CascadeParseError, DataError


@dataclass(frozen=True)
class CascadeEvent:
    """One adoption: ``retweeter`` adopted from ``source`` at offset ``elapsed``.

    ``source`` is None exactly for the root event, whose ``elapsed`` is 0.
    """

    retweeter: str
    source: str | None
    elapsed: int

    def __post_init__(self):
        if self.elapsed < 0:
            raise ValueError(f"negative elapsed time {self.elapsed} for {self.retweeter}")
        if self.source is None and self.elapsed != 0:
            raise ValueError("root event must have elapsed 0")


@dataclass
class CascadeRecord:
    """Full history of one message: ordered adoption events plus the final size."""

    message_id: str
    root_user: str
    publish_time: int
    events: list[CascadeEvent]
    final_size: int

    def __post_init__(self):
        if not self.events:
            raise ValueError("record must contain at least the root event")
        root = self.events[0]
        if root.retweeter != self.root_user or root.source is not None or root.elapsed != 0:
            raise ValueError(f"first event of {self.message_id} is not the root event")
        for prev, cur in zip(self.events, self.events[1:]):
            if cur.elapsed < prev.elapsed:
                raise ValueError(f"events of {self.message_id} not sorted by elapsed time")
            if cur.source is None:
                raise ValueError(f"non-root event without source in {self.message_id}")
        if self.final_size < 0:
            raise ValueError("final_size must be non-negative")

    def observed_events(self, window: int) -> list[CascadeEvent]:
        """Non-root events with elapsed < window (the root is always observed)."""
        return [e for e in self.events[1:] if e.elapsed < window]


@dataclass
class CascadeGraph:
    """Directed first-exposure tree of one cascade restricted to [0, window).

    Node i is user ``nodes[i]``, the i-th to adopt (the root is node 0), at
    ``elapsed[i]`` (Python ints, which no window overflows). ``edges`` holds
    (source, adopter) node pairs in adoption order; ``children[i]`` lists
    node i's adopters by user id, so every traversal is deterministic.
    """

    message_id: str
    window: int
    nodes: list[str]
    elapsed: list[int]
    edges: list[tuple[int, int]]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in self.nodes]
        for source, adopter in self.edges:
            children[source].append(adopter)
        return [sorted(kids, key=self.nodes.__getitem__) for kids in children]


@dataclass
class GlobalSocialGraph:
    """Undirected adjacency over every (source, retweeter) pair of a corpus.

    ``users`` is sorted, giving every user a stable dense index; adjacency
    lists hold neighbor indices in ascending order. Embedding tables reserve
    row 0 for users the graph does not hold (the unknown-user row), so
    ``embedding_index`` is the graph index shifted by 1.
    """

    users: list[str]
    index: dict[str, int]
    adj: list[list[int]]

    @property
    def num_users(self) -> int:
        return len(self.users)

    def embedding_index(self, user: str) -> int:
        """Dense embedding row for ``user``; 0 (the unknown-user row) if unknown."""
        i = self.index.get(user)
        return 0 if i is None else i + 1

    def has_user(self, user: str) -> bool:
        return user in self.index


# ---------------------------------------------------------------------------
# parsing / serialization


def _parse_time(token: str, line_no: int | None, fieldname: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise CascadeParseError(f"non-numeric time '{token}'", line_no, fieldname) from None
    if value < 0:
        raise CascadeParseError(f"negative time {value}", line_no, fieldname)
    return value


def parse_cascade_line(line: str, line_no: int | None = None) -> CascadeRecord:
    """Parse one cascade line into a record.

    Duplicate adopters keep their earliest event; events come out sorted by
    (elapsed, user), except that an adoption follows its source's when the two
    share ``elapsed``. Raises CascadeParseError naming the line and field for
    malformed input.
    """
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        raise CascadeParseError(f"expected 5 tab-separated fields, got {len(parts)}", line_no, "line")
    message_id, root_user, publish_raw, final_raw, paths_raw = parts
    if not message_id:
        raise CascadeParseError("empty message id", line_no, "msg_id")
    if not root_user:
        raise CascadeParseError("empty root user", line_no, "root_user")
    try:
        publish_time = int(publish_raw)
    except ValueError:
        raise CascadeParseError(f"non-numeric publish time '{publish_raw}'", line_no, "publish_time") from None
    try:
        final_size = int(final_raw)
    except ValueError:
        raise CascadeParseError(f"non-numeric final size '{final_raw}'", line_no, "final_size") from None
    if final_size < 0:
        raise CascadeParseError(f"negative final size {final_size}", line_no, "final_size")

    # earliest (elapsed, source) per adopter
    earliest: dict[str, tuple[int, str | None]] = {}
    for k, path_token in enumerate(paths_raw.split(" ")):
        fieldname = f"path[{k}]"
        if not path_token:
            continue
        if ":" not in path_token:
            raise CascadeParseError(f"path '{path_token}' missing ':time'", line_no, fieldname)
        chain_raw, time_raw = path_token.rsplit(":", 1)
        elapsed = _parse_time(time_raw, line_no, fieldname)
        chain = chain_raw.split("/")
        if any(not u for u in chain):
            raise CascadeParseError(f"empty user in path '{path_token}'", line_no, fieldname)
        if chain[0] != root_user:
            raise CascadeParseError(
                f"path '{path_token}' does not start at root user '{root_user}'", line_no, fieldname
            )
        if len(chain) == 1:
            # the root's own entry; its time must be zero
            if elapsed != 0:
                raise CascadeParseError(f"root path has nonzero time {elapsed}", line_no, fieldname)
            continue
        adopter = chain[-1]
        source = chain[-2]
        if adopter == root_user:
            continue  # a cycle back to the root carries no new adoption
        prev = earliest.get(adopter)
        if prev is None or elapsed < prev[0]:
            earliest[adopter] = (elapsed, source)

    events = [CascadeEvent(root_user, None, 0)]
    placed: set[str] = set()
    for adopter in sorted(earliest, key=lambda u: (earliest[u][0], u)):
        # climb to the first unplaced same-time ancestor, then place the chain
        # top-down; ``placed`` grows as it climbs, so a same-time cycle ends
        elapsed, chain, user = earliest[adopter][0], [], adopter
        while user in earliest and user not in placed and earliest[user][0] == elapsed:
            placed.add(user)
            chain.append(user)
            user = earliest[user][1]
        events.extend(CascadeEvent(u, earliest[u][1], elapsed) for u in reversed(chain))
    return CascadeRecord(message_id, root_user, publish_time, events, final_size)


def serialize_cascade_line(record: CascadeRecord) -> str:
    """Canonical line form: root path first, then one full root-chain per event."""
    chains = {record.root_user: record.root_user}
    paths = [f"{record.root_user}:0"]
    for event in record.events[1:]:
        parent_chain = chains.get(event.source)
        if parent_chain is None:
            # inconsistent record (source never adopted); fall back to a direct chain
            parent_chain = record.root_user
        chain = f"{parent_chain}/{event.retweeter}"
        chains[event.retweeter] = chain
        paths.append(f"{chain}:{event.elapsed}")
    return "\t".join(
        [record.message_id, record.root_user, str(record.publish_time), str(record.final_size), " ".join(paths)]
    )


def load_cascades(path: str | Path) -> list[CascadeRecord]:
    """Read a cascade file; parse errors carry 1-based line numbers."""
    if not Path(path).is_file():
        raise DataError(f"cascade file not found: {path}")
    records = []
    # undecodable bytes become lone surrogates, so the line holding them is known
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CascadeParseError("not valid UTF-8", line_no) from None
            if not line.strip():
                continue
            records.append(parse_cascade_line(line, line_no=line_no))
    return records


def save_cascades(records: list[CascadeRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(serialize_cascade_line(record) + "\n")


# ---------------------------------------------------------------------------
# dataset manifest


@dataclass
class DatasetManifest:
    """Sidecar JSON describing a cascade file's time unit and label horizon."""

    time_unit: str = "seconds"
    label_horizon: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.time_unit not in ("seconds", "years"):
            raise DataError(f"unsupported time unit '{self.time_unit}'")

    def to_dict(self) -> dict:
        d = {"time_unit": self.time_unit, "label_horizon": self.label_horizon}
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        horizon, unit = d.get("label_horizon"), d.get("time_unit")
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise DataError(f"manifest label_horizon must be an integer, got {horizon!r}")
        if not isinstance(unit, str):
            raise DataError(f"manifest time_unit must be a string, got {unit!r}")
        extra = {k: v for k, v in d.items() if k not in ("time_unit", "label_horizon")}
        return cls(time_unit=unit, label_horizon=horizon, extra=extra)


def manifest_path_for(data_path: str | Path) -> Path:
    return Path(data_path).parent / "manifest.json"


def load_manifest(data_path: str | Path) -> DatasetManifest:
    mpath = manifest_path_for(data_path)
    if not mpath.exists():
        raise DataError(f"no manifest.json next to {data_path}; expected at {mpath}")
    try:
        with open(mpath, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as e:  # invalid JSON or invalid UTF-8
        raise DataError(f"{mpath} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{mpath} must hold a JSON object, got {type(raw).__name__}")
    return DatasetManifest.from_dict(raw)


def save_manifest(manifest: DatasetManifest, data_path: str | Path) -> None:
    with open(manifest_path_for(data_path), "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# windowing, labels, graphs


def build_cascade_graph(record: CascadeRecord, window: int) -> CascadeGraph:
    """Restrict a record to events with elapsed < window.

    Events whose source has not itself been observed are dropped (with a
    warning) so the graph stays a tree reachable from the root; consistent
    records never trigger this.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    index = {record.root_user: 0}  # insertion order is node order
    elapsed, edges = [0], []
    for event in record.observed_events(window):
        source = index.get(event.source)
        if source is None:
            warnings.warn(
                f"cascade {record.message_id}: dropping event for {event.retweeter} "
                f"whose source {event.source} is not in the observed graph"
            )
            continue
        if event.retweeter not in index:
            edges.append((source, len(index)))
            index[event.retweeter] = len(index)
            elapsed.append(event.elapsed)
    return CascadeGraph(record.message_id, window, list(index), elapsed, edges)


def compute_label(record: CascadeRecord, window: int) -> int:
    """Incremental popularity: adoptions between the window's end and the horizon."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    observed = len(record.observed_events(window))
    label = record.final_size - observed
    if label < 0:
        warnings.warn(
            f"cascade {record.message_id}: observed {observed} events exceeds "
            f"final_size {record.final_size}; clamping label to 0"
        )
        return 0
    return label


def graph_from_pairs(users: list[str], pairs) -> GlobalSocialGraph:
    """The graph over ``users`` whose neighbour lists join each ``(i, j)``
    index pair both ways, sorted, with self-pairs and repeats dropped."""
    adj: list[set[int]] = [set() for _ in users]
    for i, j in pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    index = {u: i for i, u in enumerate(users)}
    return GlobalSocialGraph(users=users, index=index, adj=[sorted(s) for s in adj])


def build_global_graph(records: list[CascadeRecord]) -> GlobalSocialGraph:
    """Symmetric social graph over every adoption pair of the corpus.

    Nodes are indexed by sorted user id; self-loops are dropped. Built once,
    single-threaded, then treated as read-only.
    """
    users = sorted({u for r in records for e in r.events for u in (e.source, e.retweeter)} - {None})
    index = {u: i for i, u in enumerate(users)}
    pairs = [(index[e.source], index[e.retweeter]) for r in records for e in r.events[1:]]
    return graph_from_pairs(users, pairs)
