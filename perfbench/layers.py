"""Per-layer spans and counts for the traced run.

Every wrapper sits where the caller looks the name up: ``train`` imports
``featurize_corpus``, ``build_batch``, the checkpoint functions and the
corpus loaders by name, ``features`` imports the walk, social and snapshot
functions by name, ``social`` calls its own ``bfs_distances`` through the
module global, and model / autodiff / optimizer calls go through class
attributes.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import numpy as np

from hienet.model import HIENet
from hienet.nn.optim import Adam
from hienet.nn.tensor import Tensor
from hienet.walks import PAD

from .trace import Span, Tracer, self_times

T = importlib.import_module("hienet.train")  # ``hienet.train`` the attribute is the function
F = importlib.import_module("hienet.features")
S = importlib.import_module("hienet.social")

MS = 1e3


def autodiff_nodes(root: Tensor) -> int:
    """Recorded ops (tensors with a backward function) feeding ``root``."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


class LayerCounts:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.vocab = 0
        self.walk_steps = 0
        self.pad_steps = 0
        self.bfs_nodes: list[int] = []
        self.adjacent_pairs = 0
        self.nodes: list[int] = []
        self.cs_nodes: list[int] = []
        self.grad_bytes: list[int] = []
        self.touched: list[float] = []
        self._cs_out: Tensor | None = None

    def on_graph(self, graph, args) -> None:
        self.vocab = graph.num_users

    def on_walks(self, batch, args) -> None:
        for walk in batch.walks:
            self.walk_steps += len(walk)
            self.pad_steps += sum(node is PAD for node in walk)

    def on_path(self, path, args) -> None:
        self.adjacent_pairs += path is not None and path.n == 1

    def on_bfs(self, dist, args) -> None:
        self.bfs_nodes.append(len(dist))

    def on_cs(self, out, args) -> None:
        self._cs_out = out

    def on_backward(self, _, args) -> None:
        self.nodes.append(autodiff_nodes(args[0]))
        if self._cs_out is not None:
            self.cs_nodes.append(autodiff_nodes(self._cs_out))
            self._cs_out = None

    def on_adam(self, _, args) -> None:
        with_grad = [p for p in args[0].params if p.grad is not None]
        self.grad_bytes.append(sum(p.grad.nbytes for p in with_grad))
        tables = [p.grad for p in with_grad if p.name.endswith("embed.table")]
        if tables:
            touched = sum(int(np.count_nonzero(g.any(axis=1))) for g in tables)
            self.touched.append(touched / sum(g.shape[0] for g in tables))


def install_layers(tracer: Tracer, counts: LayerCounts) -> None:
    w = tracer.wrap
    w(T, "load_cascades", "cascade.load")
    w(T, "load_manifest", "cascade.load_manifest")
    w(T, "build_global_graph", "cascade.global_graph", after=counts.on_graph)
    w(T, "featurize_corpus", "features.featurize_corpus")
    w(F, "featurize", "features.featurize", new_group=True)
    w(F, "sample_walks", "walks.sample", after=counts.on_walks)
    w(F, "social_weight_vector", "social.weight")
    w(S, "shortest_correlation_path", "social.path", after=counts.on_path)
    w(S, "bfs_distances", "social.bfs", after=counts.on_bfs)
    w(F, "build_snapshots", "snapshots.build")
    w(F, "snapshot_feature_matrix", "snapshots.feature_matrix")
    w(T, "build_batch", "features.build_batch", new_group=True)
    w(HIENet, "forward", "model.forward")
    w(HIENet, "encode_cascade_sequence", "model.cs", after=counts.on_cs)
    w(HIENet, "encode_social", "model.sg")
    w(HIENet, "fuse", "model.fuse")
    w(HIENet, "predict_from_state", "model.head")
    w(HIENet, "predict_logs", "model.predict_logs")
    w(Tensor, "backward", "nn.tensor.backward", after=counts.on_backward)
    w(Adam, "step", "nn.optim.adam", after=counts.on_adam)
    w(T, "save_checkpoint", "nn.checkpoint.save")
    w(T, "load_checkpoint", "nn.checkpoint.load")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], counts: LayerCounts) -> dict[str, float]:
    """Per-layer values; model and step figures come from training-step spans.

    A training step is the group opened by ``build_batch`` that reaches
    ``Adam.step``; eval and predict batches are the groups that do not.
    The cg encoder has no entry point of its own, so its time is the self
    time of ``HIENet.forward``: forward minus cs, sg, fuse and head.
    """
    dur: dict[str, list[float]] = defaultdict(list)
    in_step: dict[str, list[float]] = defaultdict(list)
    cg_self: list[float] = []
    steps = {s.group for s in spans if s.name == "nn.optim.adam"}
    for s, own in zip(spans, self_times(spans)):
        dur[s.name].append(s.end - s.start)
        if s.group in steps:
            in_step[s.name].append(s.end - s.start)
            if s.name == "model.forward":
                cg_self.append(own)
    cascades = len(dur["features.featurize"])
    bfs_calls = len(dur["social.bfs"])
    return {
        "cascade.load_s": _median(dur["cascade.load"]) + _median(dur["cascade.load_manifest"]),
        "cascade.global_graph_s": _median(dur["cascade.global_graph"]),
        "cascade.vocab_users": counts.vocab,
        "walks.sample_ms_per_cascade": _mean(dur["walks.sample"]) * MS,
        "walks.pad_frac": _ratio(counts.pad_steps, counts.walk_steps),
        "social.weight_ms_per_cascade": _mean(dur["social.weight"]) * MS,
        "social.bfs_calls_per_cascade": _ratio(bfs_calls, len(dur["social.weight"])),
        "social.bfs_nodes_per_call": _mean(counts.bfs_nodes),
        "social.adjacent_pair_frac": _ratio(counts.adjacent_pairs, bfs_calls),
        "snapshots.build_ms_per_cascade": _ratio(
            sum(dur["snapshots.build"]) + sum(dur["snapshots.feature_matrix"]), cascades
        )
        * MS,
        "features.featurize_ms_per_cascade": _mean(dur["features.featurize"]) * MS,
        "features.build_batch_ms": _median(in_step["features.build_batch"]) * MS,
        "model.cs_fwd_ms": _median(in_step["model.cs"]) * MS,
        "model.sg_fwd_ms": _median(in_step["model.sg"]) * MS,
        "model.cg_fwd_ms": _median(cg_self) * MS,
        "model.fuse_fwd_ms": _median(in_step["model.fuse"]) * MS,
        "model.head_fwd_ms": _median(in_step["model.head"]) * MS,
        "model.forward_ms": _median(in_step["model.forward"]) * MS,
        "model.predict_logs_ms": _median(dur["model.predict_logs"]) * MS,
        "nn.tensor.backward_ms": _median(dur["nn.tensor.backward"]) * MS,
        "nn.tensor.nodes_per_step": _median(counts.nodes),
        "nn.tensor.cs_nodes_per_step": _median(counts.cs_nodes),
        "nn.optim.adam_ms": _median(dur["nn.optim.adam"]) * MS,
        "nn.optim.grad_bytes": _median(counts.grad_bytes),
        "nn.optim.touched_row_frac": _median(counts.touched),
        "nn.checkpoint.save_s": _median(dur["nn.checkpoint.save"]),
        "nn.checkpoint.load_s": _median(dur["nn.checkpoint.load"]),
    }


#: ROADMAP "Baseline" figures, quoted verbatim for the cross-check
ROADMAP_BASELINE = {
    "train_step_ms": 87.0,
    "cs_fwd_bwd_ms": 82.0,
    "cs_nodes": 832,
    "featurize_ms_per_cascade_by_users": {"297": 2.1, "2538": 10.0, "5779": 15.2},
    "length1_paths": "4658/4658",
}


def baseline_check(layers: dict, counts: LayerCounts, spans: list[Span], step_ms_p50) -> dict:
    """This run's figures beside the ROADMAP Baseline; neither side is adjusted."""
    passes = max(1, sum(s.name == "features.featurize_corpus" for s in spans))
    searched = sum(s.name == "social.bfs" for s in spans)
    return {
        "roadmap": ROADMAP_BASELINE,
        "bench": {
            "train_step_ms_p50_untraced": step_ms_p50,
            "cs_fwd_ms_only": layers["model.cs_fwd_ms"],
            "cs_nodes": layers["nn.tensor.cs_nodes_per_step"],
            "featurize_ms_per_cascade_by_users": {
                str(layers["cascade.vocab_users"]): layers["features.featurize_ms_per_cascade"]
            },
            "length1_paths_per_featurize_pass": f"{counts.adjacent_pairs / passes:g}/{searched / passes:g}",
        },
    }
