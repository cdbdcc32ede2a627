"""Checkpoint serialization: JSON manifest + raw little-endian float64 blob.

A checkpoint directory holds ``manifest.json`` and ``weights.bin``. The
manifest's ``params`` list records name, shape, dtype, and byte offset of
every tensor in the blob (row-major, '<f8'); any extra metadata the caller
passes (config echo, user table, metrics) is stored alongside. Round-trips
are byte-exact: values are never re-encoded through text.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import DataError
from .tensor import Parameter

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


def pack_params(params: list[Parameter]) -> tuple[list[dict], bytes]:
    entries = []
    chunks = []
    offset = 0
    for p in params:
        raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        entries.append(
            {"name": p.name, "shape": list(p.data.shape), "dtype": "f64", "offset": offset}
        )
        chunks.append(raw)
        offset += len(raw)
    return entries, b"".join(chunks)


def unpack_params(entries: list[dict], blob: bytes) -> dict[str, np.ndarray]:
    out = {}
    for e in entries:
        if not isinstance(e, dict) or not {"name", "shape", "offset"} <= e.keys():
            raise DataError(f"checkpoint param entry {e!r} needs name, shape and offset")
        if e.get("dtype") != "f64":
            raise DataError(f"unsupported dtype {e.get('dtype')!r} for param {e['name']!r}")
        shape, start = e["shape"], e["offset"]
        if not isinstance(shape, list) or not all(
            isinstance(v, int) and v >= 0 for v in [*shape, start]
        ):
            raise DataError(f"bad shape {shape!r} or offset {start!r} for param {e['name']!r}")
        shape = tuple(shape)
        count = int(np.prod(shape)) if shape else 1
        if start + 8 * count > len(blob):
            raise DataError(
                f"param {e['name']!r} needs bytes {start}..{start + 8 * count} "
                f"but {WEIGHTS_NAME} holds {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        out[e["name"]] = arr.reshape(shape).astype(np.float64)
    return out


def save_checkpoint(path: str | Path, params: list[Parameter], extra: dict | None = None) -> None:
    """Write manifest.json + weights.bin under directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries, blob = pack_params(params)
    manifest = dict(extra or {})
    manifest["params"] = entries
    (path / WEIGHTS_NAME).write_bytes(blob)
    with open(path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint directory -> (manifest minus params, name -> array)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    weights_path = path / WEIGHTS_NAME
    if not manifest_path.is_file() or not weights_path.is_file():
        raise DataError(f"no checkpoint at {path} (need {MANIFEST_NAME} and {WEIGHTS_NAME})")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise DataError(f"checkpoint manifest {manifest_path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"checkpoint manifest {manifest_path} must hold a JSON object")
    entries = manifest.pop("params", None)
    if not isinstance(entries, list):
        raise DataError(f"checkpoint manifest {manifest_path} missing 'params'")
    weights = unpack_params(entries, weights_path.read_bytes())
    return manifest, weights


def restore_into(params: list[Parameter], weights: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into live parameters; names and shapes must match."""
    for p in params:
        if p.name not in weights:
            raise DataError(f"checkpoint missing parameter {p.name!r}")
        arr = weights[p.name]
        if arr.shape != p.data.shape:
            raise DataError(
                f"checkpoint shape {arr.shape} for {p.name!r} does not match model {p.data.shape}"
            )
        p.data[...] = arr
    unused = set(weights) - {p.name for p in params}
    if unused:
        raise DataError(f"checkpoint has unknown parameters: {sorted(unused)[:3]}")
