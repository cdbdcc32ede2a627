"""Training and evaluation loops, splits, artifacts.

Every run reads one ``TrainConfig`` (``config.py``), whose dict form is
echoed into every artifact.

Determinism: the corpus is split 80/10/10 by a hash of the message id
(stable across runs and machines); the train and val features are
extracted once up front with per-cascade seeds, and the test split is never
featurized; epoch shuffles come from (seed, epoch); model init
comes from the seed alone. Two runs with the same (seed, config, data)
therefore produce identical metric logs, and artifacts contain no
timestamps.

The per-epoch train metric is computed from a frozen post-epoch pass, not
averaged over minibatch losses, so evaluating the training split right
after training reproduces the logged value exactly. Whenever val improves,
the weights stream to a temporary file that the one ``save_checkpoint``
moves into place, so training holds one copy of the model and a run that
fails leaves the checkpoint already in its out dir as it was.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cascade import (
    CascadeRecord,
    DatasetManifest,
    GlobalSocialGraph,
    build_global_graph,
    graph_from_pairs,
    load_cascades,
    load_manifest,
)
from .config import TrainConfig
from .errors import ConfigError, DataError, TrainingError
from .features import CascadeFeatures, build_batch, featurize_corpus, from_log2p1
from .jsonio import write_json
from .model import HIENet, metrics_from_logs, msle_loss
from .nn.checkpoint import load_checkpoint, restore_into, save_checkpoint, write_weights
from .nn.optim import Adam

EVAL_BATCH = 64


# ---------------------------------------------------------------------------
# splits


def split_of(message_id: str) -> str:
    """Stable 80/10/10 assignment by message-id hash."""
    digest = hashlib.sha256(message_id.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "little") % 10
    if bucket < 8:
        return "train"
    return "val" if bucket == 8 else "test"


def split_records(records: list[CascadeRecord]) -> dict[str, list[CascadeRecord]]:
    """The records of each split, in file order."""
    out: dict[str, list[CascadeRecord]] = {"train": [], "val": [], "test": []}
    for rec in records:
        out[split_of(rec.message_id)].append(rec)
    return out


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_msle: float = float("inf")
    baseline_val_msle: float = float("nan")
    checkpoint_dir: Path | None = None
    config: dict = field(default_factory=dict)


def _batched_predict(model: HIENet, feats: list[CascadeFeatures]) -> np.ndarray:
    preds = []
    for lo in range(0, len(feats), EVAL_BATCH):
        batch = build_batch(feats[lo : lo + EVAL_BATCH])
        preds.append(model.predict_logs(batch))
    return np.concatenate(preds)


def _eval_msle(model, feats) -> float:
    preds = _batched_predict(model, feats)
    true_logs = np.array([f.true_log for f in feats])
    return metrics_from_logs(preds, true_logs)["MSLE"]


def _training_step(model: HIENet, batch, opt: Adam) -> float:
    opt.zero_grad()
    loss = msle_loss(model.forward(batch), batch.true_logs)
    if np.isnan(loss.data):
        raise TrainingError(f"op '{loss.first_nan_op()}' produced NaN in its forward output")
    loss.backward()
    opt.step()
    return float(loss.data)


def _check_output_dir(path: str | Path) -> Path:
    """``path`` if it can be a directory, creating nothing: its nearest
    existing part must be one, else a ``ConfigError``."""
    out = Path(path)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(
            f"cannot use {str(path)!r} as the output directory: {str(nearest)!r} is not a directory"
        )
    return out


def _output_dir(path: str | Path) -> Path:
    """``path`` as a directory, created with its parents if missing; a path
    that cannot be one (it or a parent is a file) is a ``ConfigError``."""
    out = _check_output_dir(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(
            f"cannot use {str(path)!r} as the output directory: {e.strerror or e}"
        ) from None
    return out


def load_corpus(
    data_path: str | Path, window: int, time_unit: str | None = None
) -> tuple[list[CascadeRecord], DatasetManifest]:
    """A non-empty cascade file and its manifest, checked against the run's settings.

    Every entry point reads its corpus here, with a window its
    ``TrainConfig`` has checked, so this is where the window is checked
    against the data: it must end before the label horizon. ``time_unit``,
    when given (a checkpoint's), must match the dataset's.
    """
    records = load_cascades(data_path)
    if not records:
        raise DataError(f"no cascades in {data_path}")
    manifest = load_manifest(data_path)
    if time_unit is not None and manifest.time_unit != time_unit:
        raise DataError(
            f"dataset time unit {manifest.time_unit!r} does not match checkpoint {time_unit!r}"
        )
    if window >= manifest.label_horizon:
        raise DataError(f"window {window} must be below the label horizon {manifest.label_horizon}")
    return records, manifest


def train(config: TrainConfig) -> TrainResult:
    if not config.data:
        raise ConfigError("config.data must point at a cascade file")
    time_unit = None
    if config.resume:
        model, extra, resumed_graph = _open_checkpoint(config.resume, config)
        time_unit = extra["time_unit"]
    records, manifest = load_corpus(config.data, config.window, time_unit)
    if len(records) < 2:
        raise DataError(f"need at least 2 cascades to train, got {len(records)}")

    splits = split_records(records)
    if not splits["train"]:
        raise DataError("empty training split")

    ggraph = build_global_graph(records)
    if not config.resume:
        model = HIENet(config, vocab=ggraph.vocab)
    elif resumed_graph.users != ggraph.users:
        # embedding row i belongs to user i, so other users would inherit its rows
        raise DataError(f"checkpoint {config.resume} holds other users than {config.data}")
    params = model.params()
    out_dir = _output_dir(config.out)
    train_feats = featurize_corpus(splits["train"], ggraph, config)
    # tiny corpora can hash to an empty validation split; fall back to the
    # training split for checkpoint selection rather than failing
    val_feats = featurize_corpus(splits["val"], ggraph, config) if splits["val"] else train_feats
    opt = Adam(params, lr=config.lr)

    train_mean_log = float(np.mean([f.true_log for f in train_feats]))
    baseline_val = metrics_from_logs(
        np.full(len(val_feats), train_mean_log), np.array([f.true_log for f in val_feats])
    )["MSLE"]

    result = TrainResult(config=config.to_dict(), baseline_val_msle=baseline_val)
    result.checkpoint_dir = out_dir / "checkpoint"
    result.checkpoint_dir.mkdir(exist_ok=True)
    best_weights = result.checkpoint_dir / "weights.bin.tmp"
    try:
        for epoch in range(config.epochs + 1):
            if epoch > 0:
                order = np.random.default_rng([config.seed, epoch]).permutation(len(train_feats))
                for lo in range(0, order.size, config.batch_size):
                    chunk = [train_feats[i] for i in order[lo : lo + config.batch_size]]
                    _training_step(model, build_batch(chunk), opt)
            train_msle = _eval_msle(model, train_feats)
            val_msle = _eval_msle(model, val_feats)
            result.history.append({"epoch": epoch, "train_MSLE": train_msle, "val_MSLE": val_msle})
            # epoch 0 always sets the best, so a NaN val MSLE still leaves weights to save
            if epoch == 0 or val_msle < result.best_val_msle:
                result.best_epoch, result.best_val_msle = epoch, val_msle
                write_weights(best_weights, params)
    except BaseException:
        best_weights.unlink(missing_ok=True)
        raise

    summary = {
        "config": result.config,
        "best_epoch": result.best_epoch,
        "best_val_MSLE": result.best_val_msle,
        "baseline_val_MSLE": baseline_val,
    }
    save_checkpoint(
        result.checkpoint_dir,
        params,
        weights=best_weights,
        extra={
            **summary,
            "users": ggraph.users,
            "adjacency": ggraph.adj,
            "time_unit": manifest.time_unit,
            "train_mean_log": train_mean_log,
        },
    )
    write_json(out_dir / "training_log.json", {**summary, "history": result.history})
    return result


# ---------------------------------------------------------------------------
# evaluation / prediction


def _checkpoint_graph(users, adjacency) -> GlobalSocialGraph:
    """The social graph a checkpoint stores, checked before featurization reads it:
    its adjacency must be the one ``graph_from_pairs`` builds from its own rows,
    as ``build_global_graph`` wrote it."""
    if not isinstance(users, list) or not all(isinstance(u, str) for u in users):
        raise DataError("checkpoint users must be a list of user ids")
    if len(set(users)) != len(users):
        raise DataError("checkpoint users repeat an id")
    if not isinstance(adjacency, list) or len(adjacency) != len(users):
        raise DataError(f"checkpoint adjacency must hold one neighbour list per user ({len(users)})")
    for row in adjacency:
        if not isinstance(row, list) or not all(
            type(v) is int and 0 <= v < len(users) for v in row
        ):
            raise DataError(f"checkpoint adjacency row {row!r} must list user indices")
    graph = graph_from_pairs(users, [(i, j) for i, row in enumerate(adjacency) for j in row])
    if graph.adj != adjacency:
        raise DataError(
            "checkpoint adjacency is not symmetric, sorted and free of self-loops and repeats"
        )
    return graph


def _open_checkpoint(
    checkpoint_dir: str | Path, config: TrainConfig | None = None
) -> tuple[HIENet, dict, GlobalSocialGraph]:
    """The model a checkpoint restores, its extra fields and its social graph.

    The model is built from ``config``, or from the checkpoint's own run
    config when none is given, and ``restore_into`` checks the stored weights
    against its layout. evaluate, predict and a resumed train all open
    checkpoints here, so a corrupt one is a ``DataError`` wherever it is read.
    """
    extra, weights = load_checkpoint(checkpoint_dir)
    for key in ("config", "users", "adjacency", "time_unit", "train_mean_log"):
        if key not in extra:
            raise DataError(f"checkpoint manifest missing {key!r}")
    try:
        stored = TrainConfig.from_dict(extra["config"])
    except (TypeError, ConfigError) as e:
        raise DataError(f"checkpoint config is invalid: {e}") from None
    mean_log = extra["train_mean_log"]
    if not (isinstance(mean_log, float) and math.isfinite(mean_log)):
        raise DataError(f"checkpoint train_mean_log {mean_log!r} is not a finite number")
    graph = _checkpoint_graph(extra["users"], extra["adjacency"])
    model = HIENet(config or stored, vocab=graph.vocab)
    restore_into(model.params(), weights)
    return model, extra, graph


def _score(
    checkpoint_dir: str | Path, data_path: str | Path, window: int | None, split: str
) -> tuple[HIENet, dict, int, list[CascadeFeatures], np.ndarray]:
    """Open a checkpoint and predict the cascades of ``split`` in ``data_path``.

    evaluate and predict both load through here, so they check the
    checkpoint, the time unit and the window the same way. Returns the
    restored model, the checkpoint's extra fields, the window used, the
    features and the predicted log-popularities.
    """
    model, extra, ggraph = _open_checkpoint(checkpoint_dir)
    # an overriding window passes the checks of the config's own
    config = model.config if window is None else replace(model.config, window=window)
    records, _ = load_corpus(data_path, config.window, time_unit=extra["time_unit"])
    chosen = records if split == "all" else split_records(records)[split]
    if not chosen:
        raise DataError(f"no cascades in split {split!r} of {data_path}")
    feats = featurize_corpus(chosen, ggraph, config)
    return model, extra, config.window, feats, _batched_predict(model, feats)


def evaluate(
    checkpoint_dir: str | Path,
    data_path: str | Path,
    window: int | None = None,
    split: str = "test",
    out_dir: str | Path | None = None,
) -> dict:
    if split not in ("train", "val", "test", "all"):
        raise ConfigError(f"split must be train/val/test/all, got {split!r}")
    if out_dir is not None:
        _check_output_dir(out_dir)
    model, extra, window, feats, pred_logs = _score(checkpoint_dir, data_path, window, split)
    true_logs = np.array([f.true_log for f in feats])
    metrics = metrics_from_logs(pred_logs, true_logs)
    baseline = metrics_from_logs(np.full_like(true_logs, extra["train_mean_log"]), true_logs)
    report = {
        "split": split,
        "window": window,
        "count": len(feats),
        "MSLE": metrics["MSLE"],
        "mSLE": metrics["mSLE"],
        "baseline_MSLE": baseline["MSLE"],
        "config": model.config.to_dict(),
    }
    if out_dir is not None:
        out = _output_dir(out_dir)
        write_json(out / "metrics.json", report)
        with open(out / "per_cascade.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["message_id", "true", "predicted"])
            for f, pred in zip(feats, pred_logs):
                writer.writerow([f.message_id, f.label, f"{from_log2p1(pred):.4f}"])
    return report


def predict(
    checkpoint_dir: str | Path,
    data_path: str | Path,
    window: int | None = None,
    out_dir: str | Path | None = None,
) -> list[tuple[str, float, float]]:
    if out_dir is not None:
        _check_output_dir(out_dir)
    _, _, _, feats, pred_logs = _score(checkpoint_dir, data_path, window, split="all")
    rows = [
        (f.message_id, float(p), float(from_log2p1(p))) for f, p in zip(feats, pred_logs)
    ]
    if out_dir is not None:
        with open(_output_dir(out_dir) / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["message_id", "predicted_log", "predicted"])
            for mid, plog, psize in rows:
                writer.writerow([mid, f"{plog:.6f}", f"{psize:.4f}"])
    return rows
