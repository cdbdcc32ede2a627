"""The run configuration: one flat ``TrainConfig`` and how it is resolved.

A config file's keys are overlaid by CLI overrides, both spelled as
``TrainConfig`` field names, and validated into one ``TrainConfig``. Its
dict form is echoed into every artifact, so any output can be traced back
to the exact run settings and a config round-trips losslessly through a
checkpoint. Feature extraction and the model read their settings from the
same object, so every default and every range rule is written once, here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .jsonio import read_json_object

FUSION_MODES = ("transformer", "concat")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: what a value of each ``TrainConfig`` annotation must be; a float field keeps an int as
#: written and takes no NaN or infinity, which every range check below would let through
_FIELD_TYPES = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "float": ("a finite number", lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, ...]": (
        "a list of integers",
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
    ),
}

#: the integer fields that count or size something, so must be at least 1
_POSITIVE = (
    "window", "batch_size", "k_walks", "walk_len", "max_pairs", "m_max", "time_bins",
    "pe_dim", "embed_dim", "lstm_hidden", "gcn_hidden", "d_model", "heads", "ff_hidden",
)


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

    def __post_init__(self) -> None:
        for f in fields(self):
            kind, ok = _FIELD_TYPES[f.type]
            if not ok(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be {kind}, got {getattr(self, f.name)!r}")
        self.mlp_sizes = tuple(self.mlp_sizes)
        for name in _POSITIVE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.mlp_sizes or min(self.mlp_sizes) < 1:
            raise ConfigError(f"mlp_sizes must be one or more sizes >= 1, got {list(self.mlp_sizes)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.pe_dim % 2 != 0:
            raise ConfigError(f"pe_dim must be even, got {self.pe_dim}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not (self.use_cs or self.use_sg or self.use_cg):
            raise ConfigError("at least one branch must be enabled")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}, got {self.fusion_mode!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mlp_sizes"] = list(self.mlp_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def resolve_config(config_path: str | Path | None = None, overrides: dict | None = None) -> TrainConfig:
    """File keys first, CLI overrides on top; every key must name a field."""
    merged = read_json_object(config_path, "config file") if config_path else {}
    merged.update(overrides or {})
    unknown = sorted(set(merged) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return TrainConfig(**merged)
