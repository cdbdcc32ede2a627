"""Synthetic cascade corpus: preferential-attachment graph + decaying
independent-cascade spread.

The generator stands in for large social-media corpora at desk scale while
keeping the statistical shape that matters here: a hub-heavy follower
graph, cascades seeded preferentially at hubs, and adoption probability
that decays exponentially with elapsed time, which yields the usual
heavy-tailed final-size distribution. Every adoption is recorded with its
exact source and time, so the incremental-popularity label for any
observation window is exact by construction, not approximated.

All randomness flows from one ``numpy`` Generator seeded by the
``SyntheticSpec``, and records are emitted in a canonical order, so a given
spec maps to a byte-stable corpus file.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cascade import (
    CascadeEvent,
    CascadeRecord,
    DatasetManifest,
    save_cascades,
    save_manifest,
)
from .errors import ConfigError


@dataclass(frozen=True)
class SyntheticSpec:
    num_users: int = 300
    num_cascades: int = 200
    # expected adoptions each active user triggers at time zero; decays after
    mean_branching: float = 2.0
    decay: float = 3.0
    horizon: int = 86400
    attachment_edges: int = 2
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ConfigError(f"num_users must be >= 2, got {self.num_users}")
        if self.num_cascades < 1:
            raise ConfigError(f"num_cascades must be >= 1, got {self.num_cascades}")
        for name in ("mean_branching", "decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if self.attachment_edges < 1:
            raise ConfigError(f"attachment_edges must be >= 1, got {self.attachment_edges}")


def _user(i: int) -> str:
    return f"u{i:04d}"


def preferential_attachment_graph(spec: SyntheticSpec, rng: np.random.Generator) -> list[set[int]]:
    """Undirected adjacency sets; new nodes attach to degree-weighted picks."""
    m = min(spec.attachment_edges, spec.num_users - 1)
    adj: list[set[int]] = [set() for _ in range(spec.num_users)]
    # seed clique keeps early degrees nonzero
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            adj[i].add(j)
            adj[j].add(i)
    targets = [i for i in range(m + 1) for _ in range(max(len(adj[i]), 1))]
    for new in range(m + 1, spec.num_users):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(targets[rng.integers(len(targets))])
        for t in chosen:
            adj[new].add(t)
            adj[t].add(new)
            targets.append(t)
        targets.extend([new] * m)
    return adj


def _spread(
    root: int, adj: list[set[int]], spec: SyntheticSpec, rng: np.random.Generator
) -> list[tuple[int, int, int]]:
    """Simulate one cascade; returns (user, source, elapsed) sorted by time.

    Adoption attempts happen once per (active user, neighbor) pair, in
    adoption-time order; adoption probability is branching/degree scaled
    by exp(-decay * t / horizon), and adoption delays are geometric-ish
    integer draws so every event lands strictly after its source.
    """
    infected = {root: 0}
    frontier = [(0, root)]
    events: list[tuple[int, int, int]] = []
    mean_delay = max(spec.horizon / 12.0, 1.0)
    while frontier:
        t, u = heapq.heappop(frontier)
        neighbors = sorted(adj[u])
        if not neighbors:
            continue
        p_base = min(1.0, spec.mean_branching / len(neighbors))
        p = p_base * np.exp(-spec.decay * t / spec.horizon)
        for v in neighbors:
            if v in infected:
                continue
            if rng.random() >= p:
                continue
            delay = 1 + int(rng.exponential(mean_delay))
            t_v = t + delay
            if t_v >= spec.horizon:
                continue
            infected[v] = t_v
            events.append((v, u, t_v))
            heapq.heappush(frontier, (t_v, v))
    events.sort(key=lambda e: (e[2], e[0]))
    return events


def generate_synthetic(spec: SyntheticSpec) -> tuple[list[CascadeRecord], DatasetManifest]:
    rng = np.random.default_rng(spec.seed)
    adj = preferential_attachment_graph(spec, rng)
    degrees = np.array([len(a) for a in adj], dtype=np.float64)
    root_probs = degrees / degrees.sum()

    records = []
    for i in range(spec.num_cascades):
        root = int(rng.choice(spec.num_users, p=root_probs))
        spread = _spread(root, adj, spec, rng)
        events = [CascadeEvent(_user(root), None, 0)]
        events.extend(CascadeEvent(_user(v), _user(u), t) for v, u, t in spread)
        records.append(
            CascadeRecord(
                message_id=f"c{i:04d}",
                root_user=_user(root),
                publish_time=0,
                events=events,
                final_size=len(spread),
            )
        )

    sizes = np.array([r.final_size for r in records], dtype=np.float64)
    median = float(np.median(sizes))
    manifest = DatasetManifest(
        time_unit="seconds",
        label_horizon=spec.horizon,
        extra={
            "generator": "synthetic",
            "spec": asdict(spec),
            "final_size_max": int(sizes.max()),
            "final_size_median": median,
            "tail_ratio": float(sizes.max() / max(median, 1.0)),
        },
    )
    return records, manifest


def write_corpus(out_dir, records, manifest) -> Path:
    """Write cascades.tsv plus its sidecar manifest; returns the data path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "cascades.tsv"
    save_cascades(records, data_path)
    save_manifest(manifest, data_path)
    return data_path
