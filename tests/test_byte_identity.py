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

import hienet.social as social
from hienet.cascade import build_cascade_graph, build_global_graph
from hienet.config import TrainConfig
from hienet.features import featurize_corpus
from hienet.nn.tensor import COO
from hienet.social import bfs_distances, diffusion_pairs
from hienet.synth import SyntheticSpec, generate_synthetic, write_corpus
from hienet.train import evaluate, predict, train

from reference_ops import indptr

FIXTURE = Path(__file__).parent / "fixtures" / "tiny_checkpoint"

#: criterion 8's run: at this learning rate the best epoch is not epoch 0
TINY = dict(
    seed=2, epochs=3, batch_size=8, lr=3e-3, k_walks=4, walk_len=5, m_max=4, pe_dim=8,
    time_bins=16, embed_dim=8, lstm_hidden=6, gcn_hidden=8, d_model=8, heads=2,
    ff_hidden=12, mlp_sizes=(16, 8),
)

PINNED = {
    "features/default": "615b9f10a6efaa120a2e20a645c1b14338dc95e2819016ea6538d3a761fa894d",
    "features/large-cascades": "5fa6c1640c15ca5f628545b9aa7c0fbcc6f1cc2998f8af360b49fb3892850864",
    "features/unknown-users": "636cbaa9f334892f6070b54e91ef3099665b4cad0b2d04af8477ae569960ac26",
    "predict/tiny_checkpoint": "5bd9b2e9c63b623f32304409b464b8f864efdc63c7d938d640b12ba272818be1",
    "transformer/weights.bin": "0321b8b2f4e2d68053e6aaa9611038be8f7226a4e2077ac94c277c84ab16b2fc",
    "transformer/metrics.json": "a4bb0ce302110caa9d325bd34a7db8f75b90a172e241e55b0933a3f5773f68a1",
    "transformer/per_cascade.csv": "4c682f56243baa4e82eb52830b0aa18d6fd5a9dd74a68ab3ae0883018408b9f5",
    "concat/weights.bin": "dcbd7b6076828014867e9019844314e85595d317331270e3b41ce21d9735a5c3",
    "concat/metrics.json": "9841b628bce2f7f4ad5013596a39d31b338d95c7f7fa1bccb9e1eb3614ad4cc3",
    "concat/per_cascade.csv": "336d815401c12c29949daf6639c8ed0651aeb19ba5a46ade7775f6634997713e",
    "corpus/manifest.json": "ca073f385c42ceace1084d1cce4c395e6718c6679f1623d8c02dce14bcb6920d",
    "transformer/training_log.json": "602f8bba3ec022f308a4b08b0e93e5a6e6613b477793b40be13fbe84236ae5e3",
}


def _feed(h, value) -> None:
    if isinstance(value, COO):
        # hashed as compressed rows, the layout the digests were pinned on
        for part in (value.shape, value.data, value.cols, indptr(value)):
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
    searched = []

    def counted_bfs(graph, source):
        searched.append(source)
        return bfs_distances(graph, source)

    monkeypatch.setattr(social, "bfs_distances", counted_bfs)
    unknown_feats = featurize_corpus(default, known, config)
    assert any((f.walk_idx == 0).any() for f in unknown_feats)  # unknown users occur
    # the pinned social rows cover both the path search and the unknown-endpoint skip
    assert searched
    cascades = [build_cascade_graph(r, config.window) for r in default]
    assert any(
        known.embedding_index(g.nodes[node]) == 0
        for g in cascades
        for pair in diffusion_pairs(g, config.max_pairs)
        for node in pair
    )
    digests["features/default"] = features_digest(
        featurize_corpus(default, build_global_graph(default), config)
    )
    digests["features/large-cascades"] = features_digest(
        featurize_corpus(large_cascades, build_global_graph(large_cascades), config)
    )
    digests["features/unknown-users"] = features_digest(unknown_feats)

    records, manifest = generate_synthetic(SyntheticSpec(num_users=80, num_cascades=30, seed=5))
    data = write_corpus("data", records, manifest)
    digests["corpus/manifest.json"] = file_digest(Path("data/manifest.json"))
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
    digests["transformer/training_log.json"] = file_digest(Path("run-transformer/training_log.json"))

    assert digests.keys() == PINNED.keys()
    mismatched = {k: v for k, v in digests.items() if PINNED[k] != v}
    assert not mismatched, "moved: " + ", ".join(f"{k} (now {v})" for k, v in mismatched.items())
