"""Cascade popularity prediction from walk sequences, social paths and
sub-cascade snapshots, fused through a learnable-token transformer."""

__version__ = "0.1.0"

from .cascade import (
    CascadeEvent,
    CascadeGraph,
    CascadeRecord,
    DatasetManifest,
    GlobalSocialGraph,
    build_cascade_graph,
    build_global_graph,
    compute_label,
    load_cascades,
    load_manifest,
    parse_cascade_line,
)
from .config import TrainConfig, resolve_config
from .features import build_batch, featurize, featurize_corpus
from .model import HIENet, metrics_from_logs
from .synth import SyntheticSpec, generate_synthetic, write_corpus
from .train import evaluate, predict, train

__all__ = [
    "CascadeEvent",
    "CascadeGraph",
    "CascadeRecord",
    "DatasetManifest",
    "GlobalSocialGraph",
    "HIENet",
    "SyntheticSpec",
    "TrainConfig",
    "build_batch",
    "build_cascade_graph",
    "build_global_graph",
    "compute_label",
    "evaluate",
    "featurize",
    "featurize_corpus",
    "generate_synthetic",
    "load_cascades",
    "load_manifest",
    "metrics_from_logs",
    "parse_cascade_line",
    "predict",
    "resolve_config",
    "train",
    "write_corpus",
    "__version__",
]
