"""Pinned SHA-256 digests of features, predictions and trained artifacts.

A change that should not touch any arithmetic keeps every digest below. A
change that moves one on purpose re-pins it in the same commit and says why.

The feature digests involve no BLAS, so they hold on any machine. The
prediction and training digests run the model's matmuls, so a different
floating-point library may move them even where the code did not change.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from hienet.cascade import build_global_graph
from hienet.config import TrainConfig
from hienet.features import featurize_corpus
from hienet.synth import SyntheticSpec, generate_synthetic, write_corpus
from hienet.train import evaluate, predict, train

FIXTURE = Path(__file__).parent / "fixtures" / "tiny_checkpoint"

#: criterion 8's run: at this learning rate the best epoch is not epoch 0
TINY = dict(
    seed=2, epochs=3, batch_size=8, lr=3e-3, k_walks=4, walk_len=5, m_max=4, pe_dim=8,
    time_bins=16, embed_dim=8, lstm_hidden=6, gcn_hidden=8, d_model=8, heads=2,
    ff_hidden=12, mlp_sizes=(16, 8),
)

PINNED = {
    "features/default": "e210a049f19cad821be883afcd8c1a0b564dc819fced4f47bf4baaa6539fb134",
    "features/large-cascades": "9cedd4bd44dc47db922b57add27f80d22801732995f1fe564f8e4ee65649619d",
    "features/unknown-users": "60e01fe22fd6c660f4fa4def9fd0cfbf5fabcdcbe45024edc2c441ebe90668d0",
    "predict/tiny_checkpoint": "5bd9b2e9c63b623f32304409b464b8f864efdc63c7d938d640b12ba272818be1",
    "transformer/weights.bin": "b2e8da0adfa0652722b4de5afb3755811d92caabfb733cd3bf53511027293d62",
    "transformer/metrics.json": "3ca55939b030917a104402dd0064ba54ceff73bab065086342cc84c28f2c67b1",
    "transformer/per_cascade.csv": "4c682f56243baa4e82eb52830b0aa18d6fd5a9dd74a68ab3ae0883018408b9f5",
    "concat/weights.bin": "b093979bc1505371d64ed748b700cfeaa253117ae61043269ab3acaaa883aca4",
    "concat/metrics.json": "9841b628bce2f7f4ad5013596a39d31b338d95c7f7fa1bccb9e1eb3614ad4cc3",
    "concat/per_cascade.csv": "336d815401c12c29949daf6639c8ed0651aeb19ba5a46ade7775f6634997713e",
}


def _feed(h, value) -> None:
    if sp.issparse(value):
        for part in (value.shape, value.data, value.indices, value.indptr):
            _feed(h, part)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def features_digest(feats) -> str:
    h = hashlib.sha256()
    for f in feats:
        for value in vars(f).values():
            _feed(h, value)
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pinned_digests(large_cascades, tmp_path, monkeypatch):
    # relative paths keep the tmp directory out of the configs that metrics.json records
    monkeypatch.chdir(tmp_path)
    digests = {}
    config = TrainConfig()

    default, _ = generate_synthetic(SyntheticSpec())
    known = build_global_graph(default[:100])
    unknown_feats = featurize_corpus(default, known, config)
    assert any((f.walk_idx == 0).any() for f in unknown_feats)  # unknown users occur
    digests["features/default"] = features_digest(
        featurize_corpus(default, build_global_graph(default), config)
    )
    digests["features/large-cascades"] = features_digest(
        featurize_corpus(large_cascades, build_global_graph(large_cascades), config)
    )
    digests["features/unknown-users"] = features_digest(unknown_feats)

    records, manifest = generate_synthetic(SyntheticSpec(num_users=80, num_cascades=30, seed=5))
    data = write_corpus("data", records, manifest)
    rows = predict(FIXTURE, data)
    digests["predict/tiny_checkpoint"] = hashlib.sha256(repr(rows).encode()).hexdigest()

    base = TrainConfig(data=str(data), **TINY)
    for mode in ("transformer", "concat"):
        result = train(replace(base, out=f"run-{mode}", fusion_mode=mode))
        assert result.best_epoch > 0  # the weights are trained ones
        evaluate(result.checkpoint_dir, data, split="test", out_dir=f"eval-{mode}")
        digests[f"{mode}/weights.bin"] = file_digest(result.checkpoint_dir / "weights.bin")
        for name in ("metrics.json", "per_cascade.csv"):
            digests[f"{mode}/{name}"] = file_digest(Path(f"eval-{mode}") / name)

    mismatched = {k: v for k, v in digests.items() if PINNED[k] != v}
    assert not mismatched, "moved: " + ", ".join(f"{k} (now {v})" for k, v in mismatched.items())
