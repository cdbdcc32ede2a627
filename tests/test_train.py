import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hienet.config import TrainConfig, resolve_config
from hienet.errors import ConfigError, DataError, TrainingError
from hienet.nn.checkpoint import save_checkpoint
from hienet.synth import SyntheticSpec, generate_synthetic, write_corpus
from hienet.train import _open_checkpoint, evaluate, predict, split_of, split_records, train

#: a tiny checkpoint written by an earlier release (30 users, the 48-parameter transformer model)
OLD_CHECKPOINT = Path(__file__).parent / "fixtures" / "tiny_checkpoint"

TINY = dict(
    epochs=3,
    batch_size=8,
    lr=3e-3,
    k_walks=4,
    walk_len=5,
    m_max=4,
    pe_dim=8,
    time_bins=16,
    embed_dim=8,
    lstm_hidden=6,
    gcn_hidden=8,
    d_model=8,
    heads=2,
    ff_hidden=12,
    mlp_sizes=(16, 8),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    records, manifest = generate_synthetic(SyntheticSpec(num_users=80, num_cascades=30, seed=5))
    return write_corpus(tmp_path_factory.mktemp("corpus"), records, manifest)


def tiny_config(data, out, **over):
    kw = dict(TINY, data=str(data), out=str(out), seed=2)
    kw.update(over)
    return TrainConfig(**kw)


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip():
    cfg = TrainConfig(data="x.tsv", epochs=7, mlp_sizes=(4, 2), use_sg=False)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_file_aliases_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_walks": 5, "alpha": 0.5, "epochs": 9, "d_model": 16}))
    cfg = resolve_config(path, {"epochs": 3})
    assert cfg.k_walks == 5
    assert cfg.alpha == 0.5
    assert cfg.d_model == 16
    assert cfg.epochs == 3  # override beats the file


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    # dotted spellings are not config keys, nor is the removed walk-pooling switch
    for key in ("walks.tempo", "walks.k", "hierarchical"):
        path.write_text(json.dumps({key: 2}))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            resolve_config(path)
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            resolve_config(None, {key: 2})


def test_config_bad_json_is_data_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(DataError, match="JSON"):
        resolve_config(path)


@pytest.mark.parametrize(
    "kw",
    [
        dict(epochs=-1),
        dict(batch_size=0),
        dict(lr=-0.1),
        dict(window=0),
        dict(alpha=1.5),
        dict(d_model=30, heads=4),
        dict(mlp_sizes=(0,)),
        dict(mlp_sizes=(-3, 8)),
        dict(beta=0.0),
        dict(max_pairs=0),
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(alpha=-0.3),
        dict(m_max=0),
        dict(k_walks=0),
        dict(walk_len=0),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw)


def test_readme_config_table_lists_every_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert keys == [f.name for f in fields(TrainConfig)]


# ---------------------------------------------------------------------------
# splits


def test_split_assignment_is_stable_and_partitions():
    ids = [f"m{i}" for i in range(2000)]
    first = [split_of(i) for i in ids]
    assert first == [split_of(i) for i in ids]
    counts = {s: first.count(s) for s in ("train", "val", "test")}
    assert sum(counts.values()) == 2000
    assert 0.74 < counts["train"] / 2000 < 0.86
    assert 0.06 < counts["val"] / 2000 < 0.14
    assert 0.06 < counts["test"] / 2000 < 0.14


def test_split_records_cover_everything(corpus):
    from hienet.cascade import load_cascades

    records = load_cascades(corpus)
    splits = split_records(records)
    placed = [id(r) for chosen in splits.values() for r in chosen]
    assert sorted(placed) == sorted(id(r) for r in records)
    for name, chosen in splits.items():
        assert chosen == [r for r in records if split_of(r.message_id) == name]


# ---------------------------------------------------------------------------
# training loop


def test_window_must_stay_below_horizon(corpus, tmp_path):
    cfg = tiny_config(corpus, tmp_path / "run", window=86400)
    with pytest.raises(DataError, match="horizon"):
        train(cfg)


def test_history_has_epoch_zero_baseline(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    assert [h["epoch"] for h in result.history] == [0, 1, 2, 3]
    assert result.checkpoint_dir.is_dir()
    assert np.isfinite(result.history[0]["val_MSLE"])


def test_zero_lr_freezes_metrics(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run", lr=0.0, epochs=2))
    base = result.history[0]
    for entry in result.history[1:]:
        assert entry["train_MSLE"] == base["train_MSLE"]
        assert entry["val_MSLE"] == base["val_MSLE"]
    assert result.best_epoch == 0


def test_repeat_run_identical_artifacts(corpus, tmp_path):
    out = tmp_path / "run"
    first = train(tiny_config(corpus, out))
    blobs1 = {
        "w": (out / "checkpoint" / "weights.bin").read_bytes(),
        "m": (out / "checkpoint" / "manifest.json").read_bytes(),
        "log": (out / "training_log.json").read_bytes(),
    }
    second = train(tiny_config(corpus, out))
    assert first.history == second.history
    assert (out / "checkpoint" / "weights.bin").read_bytes() == blobs1["w"]
    assert (out / "checkpoint" / "manifest.json").read_bytes() == blobs1["m"]
    assert (out / "training_log.json").read_bytes() == blobs1["log"]


def test_evaluate_reproduces_logged_metrics(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    best = result.history[result.best_epoch]
    val = evaluate(result.checkpoint_dir, corpus, split="val")
    tr = evaluate(result.checkpoint_dir, corpus, split="train")
    assert val["MSLE"] == pytest.approx(best["val_MSLE"], abs=1e-9)
    assert tr["MSLE"] == pytest.approx(best["train_MSLE"], abs=1e-9)


def test_resume_with_zero_epochs_is_identity(corpus, tmp_path):
    first = train(tiny_config(corpus, tmp_path / "a"))
    resumed = train(
        tiny_config(corpus, tmp_path / "b", epochs=0, resume=str(first.checkpoint_dir))
    )
    assert resumed.history[0]["val_MSLE"] == pytest.approx(first.best_val_msle, abs=1e-12)
    w1 = (tmp_path / "a" / "checkpoint" / "weights.bin").read_bytes()
    w2 = (tmp_path / "b" / "checkpoint" / "weights.bin").read_bytes()
    assert w1 == w2


def test_old_checkpoint_restores_and_saves_byte_identically(tmp_path):
    """A checkpoint written before the current layout code still restores into
    the model its config builds, and saving it again reproduces both files, so
    a change of parameter order, naming or packing fails here."""
    model, extra, _ = _open_checkpoint(OLD_CHECKPOINT)
    save_checkpoint(tmp_path / "again", model.params(), extra=extra)
    for name in ("manifest.json", "weights.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (OLD_CHECKPOINT / name).read_bytes()


def test_checkpoint_carries_run_context(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    manifest = json.loads((result.checkpoint_dir / "manifest.json").read_text())
    assert manifest["config"]["d_model"] == 8
    assert manifest["time_unit"] == "seconds"
    assert len(manifest["users"]) == len(manifest["adjacency"])
    assert TrainConfig.from_dict(manifest["config"]) == tiny_config(corpus, tmp_path / "run")
    assert "train_mean_log" in manifest


def test_training_log_has_no_timestamps(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    log = json.loads((tmp_path / "run" / "training_log.json").read_text())
    assert log["history"] == result.history
    assert not any("time" in k or "date" in k for k in log)


def test_nan_loss_aborts_and_names_operation(corpus, tmp_path):
    from hienet.cascade import build_global_graph, load_cascades
    from hienet.features import build_batch, featurize_corpus
    from hienet.model import HIENet
    from hienet.nn.optim import Adam
    from hienet.train import _training_step

    cfg = tiny_config(corpus, tmp_path / "run")
    records = load_cascades(corpus)[:4]
    ggraph = build_global_graph(records)
    feats = featurize_corpus(records, ggraph, cfg)
    model = HIENet(replace(cfg, seed=0), vocab=ggraph.vocab)
    batch = build_batch(feats)
    params = model.params()
    # the cs embedding row of the first walk step
    params[0].data[batch.walk_idx[0], 0] = np.nan
    with pytest.raises(TrainingError, match="op 'gather_rows' produced NaN"):
        with np.errstate(invalid="ignore"):
            _training_step(model, batch, Adam(params, lr=1e-3))


def test_train_featurizes_no_test_cascade(corpus, tmp_path, monkeypatch):
    import hienet.features as F
    from hienet.cascade import load_cascades

    featurize, seen = F.featurize, []

    def recording(graph, *args):
        seen.append(graph.message_id)
        return featurize(graph, *args)

    monkeypatch.setattr(F, "featurize", recording)
    result = train(tiny_config(corpus, tmp_path / "run", epochs=1))
    splits = split_records(load_cascades(corpus))
    ids = {name: [r.message_id for r in chosen] for name, chosen in splits.items()}
    assert ids["test"] and ids["val"]
    assert set(seen) == set(ids["train"] + ids["val"])
    seen.clear()
    evaluate(result.checkpoint_dir, corpus, split="test")
    assert seen == ids["test"]


# ---------------------------------------------------------------------------
# evaluation / prediction


def test_time_unit_mismatch_rejected(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    records, manifest = generate_synthetic(SyntheticSpec(num_users=40, num_cascades=5, seed=9))
    other = replace(manifest, time_unit="years")
    data = write_corpus(tmp_path / "other", records, other)
    with pytest.raises(DataError, match="time unit"):
        evaluate(result.checkpoint_dir, data)


def test_empty_split_is_an_error(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    # two cascades can cover at most two of the three splits
    records, manifest = generate_synthetic(SyntheticSpec(num_users=40, num_cascades=2, seed=9))
    empty = next(s for s in ("val", "test") if not any(split_of(r.message_id) == s for r in records))
    data = write_corpus(tmp_path / "small", records, manifest)
    with pytest.raises(DataError, match="no cascades"):
        evaluate(result.checkpoint_dir, data, split=empty)


def test_eval_artifacts(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    out = tmp_path / "eval"
    report = evaluate(result.checkpoint_dir, corpus, split="test", out_dir=out)
    saved = json.loads((out / "metrics.json").read_text())
    assert saved["MSLE"] == report["MSLE"]
    assert saved["config"] == result.config
    lines = (out / "per_cascade.csv").read_text().strip().splitlines()
    assert lines[0] == "message_id,true,predicted"
    assert len(lines) == report["count"] + 1


def test_predict_window_must_stay_below_horizon(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run", epochs=0))
    with pytest.raises(DataError, match="horizon"):
        predict(result.checkpoint_dir, corpus, window=86400 + 10)


def test_predict_covers_every_cascade(corpus, tmp_path):
    result = train(tiny_config(corpus, tmp_path / "run"))
    out = tmp_path / "pred"
    rows = predict(result.checkpoint_dir, corpus, out_dir=out)
    assert len(rows) == 30
    for _, plog, psize in rows:
        assert plog >= 0.0
        assert psize == pytest.approx(2.0**plog - 1.0)
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert len(lines) == 31
