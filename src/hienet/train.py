"""Training and evaluation loops, configuration, splits, artifacts.

Config resolution: JSON file keys (flat or dotted aliases) overlaid by CLI
overrides, validated into one flat ``TrainConfig`` whose dict form is
echoed into every artifact, so any output can be traced back to the exact
run settings and a config round-trips losslessly through a checkpoint.

Determinism: the corpus is split 80/10/10 by a hash of the message id
(stable across runs and machines); features are extracted once up front
with per-cascade seeds; epoch shuffles come from (seed, epoch); model init
comes from the seed alone. Two runs with the same (seed, config, data)
therefore produce identical metric logs, and artifacts contain no
timestamps.

The per-epoch train metric is computed from a frozen post-epoch pass, not
averaged over minibatch losses, so evaluating the training split right
after training reproduces the logged value exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .cascade import (
    CascadeRecord,
    DatasetManifest,
    GlobalSocialGraph,
    build_global_graph,
    load_cascades,
    load_manifest,
)
from .errors import ConfigError, DataError, TrainingError
from .features import (
    CascadeFeatures,
    FeatureParams,
    build_batch,
    featurize_corpus,
    from_log2p1,
)
from .model import HIENet, ModelConfig, metrics_from_logs, msle_loss
from .nn.checkpoint import load_checkpoint, restore_into, save_checkpoint
from .nn.optim import Adam
from .nn.tensor import set_nan_trace

EVAL_BATCH = 64


@dataclass
class TrainConfig:
    data: str = ""
    out: str = "out"
    resume: str = ""
    window: int = 21600
    epochs: int = 100
    batch_size: int = 32
    seed: int = 1
    lr: float = 1e-4
    # feature extraction
    k_walks: int = 10
    walk_len: int = 10
    beta: float = 0.8
    alpha: float = 0.9
    max_pairs: int = 64
    m_max: int = 8
    time_bins: int = 64
    pe_dim: int = 16
    # model
    embed_dim: int = 32
    lstm_hidden: int = 32
    gcn_hidden: int = 32
    d_model: int = 32
    heads: int = 4
    ff_hidden: int = 64
    mlp_sizes: tuple[int, ...] = (128, 32)
    use_cs: bool = True
    use_sg: bool = True
    use_cg: bool = True
    fusion_mode: str = "transformer"
    hierarchical: bool = True

    def __post_init__(self) -> None:
        self.mlp_sizes = tuple(self.mlp_sizes)
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        # feature/model field ranges are validated by their own dataclasses
        self.feature_params()
        self.model_config(vocab=1)

    def feature_params(self) -> FeatureParams:
        return FeatureParams(**{f.name: getattr(self, f.name) for f in fields(FeatureParams)})

    def model_config(self, vocab: int) -> ModelConfig:
        names = [f.name for f in fields(ModelConfig) if f.name != "vocab"]
        return ModelConfig(vocab=vocab, **{name: getattr(self, name) for name in names})

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mlp_sizes"] = list(self.mlp_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


# dotted config-file keys accepted as aliases for the flat names
ALIASES = {
    "walks.k": "k_walks",
    "walks.n": "walk_len",
    "walks.beta": "beta",
    "social.alpha": "alpha",
    "social.max_pairs": "max_pairs",
    "snapshot.m_max": "m_max",
    "snapshot.time_bins": "time_bins",
    "snapshot.pe_dim": "pe_dim",
    "model.embed_dim": "embed_dim",
    "model.lstm_hidden": "lstm_hidden",
    "model.gcn_hidden": "gcn_hidden",
    "model.d_model": "d_model",
    "model.heads": "heads",
    "model.ff_hidden": "ff_hidden",
    "model.mlp_sizes": "mlp_sizes",
    "model.fusion_mode": "fusion_mode",
    "model.hierarchical": "hierarchical",
    "train.lr": "lr",
    "train.epochs": "epochs",
    "train.batch_size": "batch_size",
    "train.seed": "seed",
    "train.window": "window",
}

_FIELD_NAMES = {f.name for f in fields(TrainConfig)}


def _canonical_keys(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        name = ALIASES.get(key, key)
        if name not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        if name in out:
            raise ConfigError(f"config key {key!r} duplicates {name!r}")
        out[name] = value
    return out


def resolve_config(config_path: str | Path | None = None, overrides: dict | None = None) -> TrainConfig:
    """File keys first, CLI overrides on top, both accepting dotted aliases."""
    merged: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise DataError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise DataError(f"config file {path} must hold a JSON object")
        merged.update(_canonical_keys(raw))
    merged.update(_canonical_keys(overrides or {}))
    return TrainConfig(**merged)


# ---------------------------------------------------------------------------
# splits


def split_of(message_id: str) -> str:
    """Stable 80/10/10 assignment by message-id hash."""
    digest = hashlib.sha256(message_id.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "little") % 10
    if bucket < 8:
        return "train"
    return "val" if bucket == 8 else "test"


def split_indices(records: list[CascadeRecord]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    for i, rec in enumerate(records):
        out[split_of(rec.message_id)].append(i)
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


def _batched_predict(model: HIENet, feats: list[CascadeFeatures], table: np.ndarray) -> np.ndarray:
    preds = []
    for lo in range(0, len(feats), EVAL_BATCH):
        batch = build_batch(feats[lo : lo + EVAL_BATCH], table)
        preds.append(model.predict_logs(batch))
    return np.concatenate(preds)


def _eval_msle(model, feats, table) -> float:
    preds = _batched_predict(model, feats, table)
    true_logs = np.array([f.true_log for f in feats])
    return metrics_from_logs(preds, true_logs)["MSLE"]


def _training_step(model: HIENet, batch, opt: Adam) -> float:
    opt.zero_grad()
    loss = msle_loss(model.forward(batch), batch.true_logs)
    if np.isnan(loss.data):
        # replay the identical batch with tracing on to name the first
        # operation whose forward output went NaN
        set_nan_trace(True)
        try:
            msle_loss(model.forward(batch), batch.true_logs)
        finally:
            set_nan_trace(False)
        raise TrainingError("loss is NaN but no forward op flagged; inputs already NaN?")
    loss.backward()
    opt.step()
    return float(loss.data)


def load_corpus(
    data_path: str | Path, window: int, time_unit: str | None = None
) -> tuple[list[CascadeRecord], DatasetManifest]:
    """A cascade file and its manifest, checked against the run's settings.

    The observation window must end before the label horizon; ``time_unit``,
    when given (a checkpoint's), must match the dataset's.
    """
    records = load_cascades(data_path)
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
    records, manifest = load_corpus(config.data, config.window)
    if len(records) < 2:
        raise DataError(f"need at least 2 cascades to train, got {len(records)}")

    splits = split_indices(records)
    if not splits["train"]:
        raise DataError("empty training split")
    # tiny corpora can hash to an empty validation split; fall back to the
    # training split for checkpoint selection rather than failing
    val_ids = splits["val"] or splits["train"]

    ggraph = build_global_graph(records)
    feats = featurize_corpus(records, config.window, ggraph, config.feature_params(), config.seed)

    model = HIENet(config.model_config(vocab=ggraph.num_users + 1), seed=config.seed)
    table = model.enc_table
    params = model.params()
    if config.resume:
        _, weights = load_checkpoint(config.resume)
        restore_into(params, weights)
    opt = Adam(params, lr=config.lr)

    train_feats = [feats[i] for i in splits["train"]]
    val_feats = [feats[i] for i in val_ids]
    train_mean_log = float(np.mean([f.true_log for f in train_feats]))
    baseline_val = metrics_from_logs(
        np.full(len(val_feats), train_mean_log), np.array([f.true_log for f in val_feats])
    )["MSLE"]

    result = TrainResult(config=config.to_dict(), baseline_val_msle=baseline_val)
    best_weights = {p.name: p.data.copy() for p in params}

    def log_epoch(epoch: int) -> float:
        train_msle = _eval_msle(model, train_feats, table)
        val_msle = _eval_msle(model, val_feats, table)
        result.history.append(
            {"epoch": epoch, "train_MSLE": train_msle, "val_MSLE": val_msle}
        )
        return val_msle

    val_msle = log_epoch(0)
    result.best_epoch, result.best_val_msle = 0, val_msle

    train_ids = np.array(splits["train"])
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, epoch]).permutation(train_ids)
        for lo in range(0, order.size, config.batch_size):
            chunk = [feats[i] for i in order[lo : lo + config.batch_size]]
            _training_step(model, build_batch(chunk, table), opt)
        val_msle = log_epoch(epoch)
        if val_msle < result.best_val_msle:
            result.best_epoch, result.best_val_msle = epoch, val_msle
            best_weights = {p.name: p.data.copy() for p in params}

    for p in params:
        p.data[...] = best_weights[p.name]

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out_dir / "checkpoint"
    save_checkpoint(
        ckpt_dir,
        params,
        extra={
            "config": config.to_dict(),
            "users": ggraph.users,
            "adjacency": ggraph.adj,
            "time_unit": manifest.time_unit,
            "train_mean_log": train_mean_log,
            "best_epoch": result.best_epoch,
            "best_val_MSLE": result.best_val_msle,
            "baseline_val_MSLE": baseline_val,
        },
    )
    result.checkpoint_dir = ckpt_dir
    with open(out_dir / "training_log.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "config": result.config,
                "history": result.history,
                "best_epoch": result.best_epoch,
                "best_val_MSLE": result.best_val_msle,
                "baseline_val_MSLE": baseline_val,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return result


# ---------------------------------------------------------------------------
# evaluation / prediction


def _score(
    checkpoint_dir: str | Path, data_path: str | Path, window: int | None, split: str
) -> tuple[TrainConfig, dict, int, list[CascadeFeatures], np.ndarray]:
    """Open a checkpoint and predict the cascades of ``split`` in ``data_path``.

    evaluate and predict both load through here, so they check the
    checkpoint, the time unit and the window the same way. Returns the run
    config, the checkpoint's extra fields, the window used, the features and
    the predicted log-popularities.
    """
    extra, weights = load_checkpoint(checkpoint_dir)
    for key in ("config", "users", "adjacency", "time_unit"):
        if key not in extra:
            raise DataError(f"checkpoint manifest missing {key!r}")
    try:
        config = TrainConfig.from_dict(extra["config"])
    except (TypeError, ConfigError) as e:
        raise DataError(f"checkpoint config is invalid: {e}") from None
    users = list(extra["users"])
    ggraph = GlobalSocialGraph(
        users=users,
        index={u: i for i, u in enumerate(users)},
        adj=[list(map(int, row)) for row in extra["adjacency"]],
    )
    model = HIENet(config.model_config(vocab=ggraph.num_users + 1), seed=config.seed)
    restore_into(model.params(), weights)

    window = config.window if window is None else window
    records, _ = load_corpus(data_path, window, time_unit=extra["time_unit"])
    chosen = [r for r in records if split == "all" or split_of(r.message_id) == split]
    if not chosen:
        raise DataError(f"no cascades in split {split!r} of {data_path}")
    feats = featurize_corpus(chosen, window, ggraph, config.feature_params(), config.seed)
    return config, extra, window, feats, _batched_predict(model, feats, model.enc_table)


def evaluate(
    checkpoint_dir: str | Path,
    data_path: str | Path,
    window: int | None = None,
    split: str = "test",
    out_dir: str | Path | None = None,
) -> dict:
    if split not in ("train", "val", "test", "all"):
        raise ConfigError(f"split must be train/val/test/all, got {split!r}")
    config, extra, window, feats, pred_logs = _score(checkpoint_dir, data_path, window, split)
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
        "config": config.to_dict(),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
    _, _, _, feats, pred_logs = _score(checkpoint_dir, data_path, window, split="all")
    rows = [
        (f.message_id, float(p), float(from_log2p1(p))) for f, p in zip(feats, pred_logs)
    ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["message_id", "predicted_log", "predicted"])
            for mid, plog, psize in rows:
                writer.writerow([mid, f"{plog:.6f}", f"{psize:.4f}"])
    return rows
