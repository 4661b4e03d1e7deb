"""Deterministic artifact I/O: JSON documents and CSV tables.

JSON documents are written with sorted keys, compact separators and a
trailing newline so identical inputs produce byte-identical files. Floats go
through Python's repr (shortest round-trip), so values survive a write/read
cycle exactly. CSV tables end every line with "\n". Every write is atomic: a
temporary file renamed over the target.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from .errors import DocumentError


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so a failed write leaves any previous file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful rename


def write(path: str | Path, doc: Any) -> None:
    """Write `doc` as a deterministic JSON document, atomically."""
    write_text(path, dumps(doc))


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write `rows`, the header first, as one CSV table."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    write_text(path, buffer.getvalue())


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
