"""Seeded corpus generators for the benchmark workloads.

The program only ever sees the files ``write_corpus`` produces; every input
is a pure function of the workload name and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from hienet import (
    CascadeEvent,
    CascadeRecord,
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    write_corpus,
)


#: train-sparse-vocab: this many disjoint communities of COMMUNITY_SPEC's shape
COMMUNITIES = 400
COMMUNITY_SPEC = SyntheticSpec(num_users=300, num_cascades=2)


def community_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _namespaced(rec: CascadeRecord, prefix: str) -> CascadeRecord:
    def ns(user):
        return None if user is None else prefix + user

    return CascadeRecord(
        message_id=prefix + rec.message_id,
        root_user=ns(rec.root_user),
        publish_time=rec.publish_time,
        events=[CascadeEvent(ns(e.retweeter), ns(e.source), e.elapsed) for e in rec.events],
        final_size=rec.final_size,
    )


def compose_communities(seed: int, count: int, spec: SyntheticSpec = COMMUNITY_SPEC):
    """``count`` independent corpora of shape ``spec``, concatenated.

    Community i is generated from its own seed and has its user and message
    ids prefixed with ``g<i>-``, so no user or cascade is shared between
    communities and the vocabulary grows with ``count`` while each cascade's
    neighbourhood stays the size of one community.
    """
    records = []
    for i in range(count):
        recs, _ = generate_synthetic(replace(spec, seed=community_seed(seed, i)))
        records.extend(_namespaced(r, f"g{i:05d}-") for r in recs)
    manifest = DatasetManifest(
        time_unit="seconds",
        label_horizon=spec.horizon,
        extra={"generator": "perfbench.compose_communities", "communities": count, "seed": seed},
    )
    return records, manifest


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int  # per timed train() call
    make: Callable[[int], tuple]  # seed -> (records, manifest)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-small", 8, lambda seed: generate_synthetic(SyntheticSpec(seed=seed))),
        Workload("train-sparse-vocab", 3, lambda seed: compose_communities(seed, COMMUNITIES)),
    )
}


def write_inputs(name: str, seed: int, out_dir) -> str:
    """Write workload ``name``'s corpus for ``seed``; returns the corpus path."""
    records, manifest = WORKLOADS[name].make(seed)
    return str(write_corpus(out_dir, records, manifest))
