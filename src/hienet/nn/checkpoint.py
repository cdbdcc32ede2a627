"""Checkpoint serialization: a manifest plus a raw little-endian float64 blob.

A checkpoint directory holds ``manifest.json`` and ``weights.bin``. The
manifest's ``params`` list is ``layout(params)``: name, shape, dtype and
byte offset of every tensor in the blob (row-major, '<f8'), in ``params()``
order; any extra metadata the caller passes (config echo, user table,
metrics) is stored alongside. Loading compares the stored list against the
``layout`` of the model it restores into and the blob against that
layout's size, so a checkpoint restores only into the model that wrote
it. Round-trips are byte-exact: values are never re-encoded through text.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..jsonio import read_json_object, write_json
from .tensor import Parameter

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


def layout(params: list[Parameter]) -> list[dict]:
    """The manifest entry of each parameter, packed back to back in ``params`` order."""
    entries, offset = [], 0
    for p in params:
        entries.append({"name": p.name, "shape": list(p.data.shape), "dtype": "f64", "offset": offset})
        offset += 8 * p.data.size
    return entries


def write_weights(path: str | Path, params: list[Parameter]) -> None:
    """Write the values of ``params`` to the file ``path``, packed as ``layout`` says."""
    with open(path, "wb") as fh:
        for p in params:  # one parameter at a time, never the whole blob
            fh.write(np.ascontiguousarray(p.data, dtype="<f8"))


def save_checkpoint(
    path: str | Path, params: list[Parameter], extra: dict | None = None, weights: Path | None = None
) -> None:
    """Write manifest.json + weights.bin (``weights``, if given, moved) under directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {**(extra or {}), "params": layout(params)}
    if weights is None:
        write_weights(path / WEIGHTS_NAME, params)
    else:
        os.replace(weights, path / WEIGHTS_NAME)
    write_json(path / MANIFEST_NAME, manifest)


def load_checkpoint(path: str | Path) -> tuple[dict, tuple[object, Path]]:
    """Read a checkpoint directory's manifest -> (manifest minus params,
    (params, weights path)) for ``restore_into``, which reads the weights."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    weights_path = path / WEIGHTS_NAME
    if not manifest_path.is_file() or not weights_path.is_file():
        raise DataError(f"no checkpoint at {path} (need {MANIFEST_NAME} and {WEIGHTS_NAME})")
    manifest = read_json_object(manifest_path, "checkpoint manifest")
    return manifest, (manifest.pop("params", None), weights_path)


def restore_into(params: list[Parameter], weights: tuple[object, Path]) -> None:
    """Copy a loaded ``(stored params, weights path)`` pair into live parameters.

    The stored list must be ``layout(params)``, the blob exactly its size
    and every value in it finite. The blob is read one parameter at a time,
    so restoring holds at most one parameter beside the model; a
    ``DataError`` raised after the size check may leave the parameters
    before the bad one restored.
    """
    stored, path = weights
    entries = layout(params)
    if stored != entries:
        raise DataError(f"checkpoint params do not match this model's {len(entries)}-parameter layout")
    size = sum(8 * p.data.size for p in params)
    with open(path, "rb") as fh:
        found = os.fstat(fh.fileno()).st_size
        if found != size:
            raise DataError(f"checkpoint {WEIGHTS_NAME} holds {found} bytes, but its params need {size}")
        for p in params:  # layout packs them back to back in this order
            values = np.empty(p.data.shape, dtype="<f8")
            if fh.readinto(values) != values.nbytes:
                raise DataError(f"checkpoint {WEIGHTS_NAME} ended inside {p.name!r}")
            if not np.isfinite(values).all():
                raise DataError(f"checkpoint {WEIGHTS_NAME} holds a value that is not finite")
            p.data[...] = values
