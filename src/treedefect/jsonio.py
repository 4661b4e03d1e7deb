"""Deterministic JSON reading and writing.

All artifacts are written with sorted keys, compact separators and a trailing
newline so identical inputs produce byte-identical files. Floats go through
Python's repr (shortest round-trip), so values survive a write/read cycle
exactly. Writes are atomic: a temporary file renamed over the target.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .errors import DocumentError


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write(path: str | Path, doc: Any) -> None:
    """Write `doc` to a temporary file beside `path`, then rename it over
    `path`, so a failed write leaves any previous file as it was."""
    path = Path(path)
    text = dumps(doc)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful rename


def read(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc.strerror or exc}") from exc
    return parse(text, str(path))


def parse(text: str, source: str = "<string>") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{source}: JSON nested too deeply to read") from exc
