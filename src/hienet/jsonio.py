"""The one JSON reader and the one JSON writer for every file the program uses."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataError


def write_json(path: str | Path, obj) -> None:
    """``obj`` as UTF-8 JSON: sorted keys, two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in file ``path``; a file that cannot be read as one
    is a ``DataError`` naming ``what`` and ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:  # missing, a directory, unreadable
        raise DataError(f"cannot read {what} {path}: {e.strerror or e}") from None
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise DataError(f"{what} {path} is not valid JSON: {e}") from None
    except RecursionError:
        raise DataError(f"{what} {path} nests its JSON too deeply to read") from None
    if not isinstance(raw, dict):
        raise DataError(f"{what} {path} must hold a JSON object, got {type(raw).__name__}")
    return raw
