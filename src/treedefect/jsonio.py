"""Deterministic artifact I/O: JSON documents and CSV tables.

JSON documents are written with sorted keys, compact separators and a
trailing newline so identical inputs produce byte-identical files. Floats go
through Python's repr (shortest round-trip), so values survive a write/read
cycle exactly. CSV tables end every line with "\n". Every write is atomic: a
temporary file renamed over the target. `parse` rejects an object that
repeats a key; readers test each JSON object they take with `known_fields`
and its values with `is_int` and `is_number`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from .errors import DocumentError

# OSErrors that a bad output path causes, reported as bad input. Others, such
# as a full disk, are not input errors and stay OSErrors, naming the target.
PATH_ERRORS = (FileExistsError, FileNotFoundError, IsADirectoryError,
               NotADirectoryError, PermissionError)


def is_int(value) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number that is a finite float: an int or float, not a bool, NaN,
    infinite or an integer too large for a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def known_fields(doc: Any, fields: Iterable[str], where: str, what: str = "document",
                 version: int | None = None) -> dict:
    """`doc`, a JSON object whose keys are all in `fields` and, if `version` is given, whose
    format_version is that JSON integer. Else a DocumentError "{where}: ...": "{what} must
    be an object", the version found, or the alphabetically first unknown key, in that order."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: {what} must be an object")
    found = doc.get("format_version")
    if version is not None and not (is_int(found) and found == version):
        raise DocumentError(f"{where}: format_version must be {version}, got {found!r}")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise DocumentError(f"{where}: unknown field {unknown[0]!r}")
    return doc


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so a failed write leaves any previous file as it was. A path that
    cannot be written raises DocumentError; any other failure an OSError
    whose filename is `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except PATH_ERRORS as exc:
        raise DocumentError(f"{path}: {exc.strerror or exc}") from exc
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
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


def read_text(path: str | Path, rows: bool = False) -> str | list[list[str]]:
    """The UTF-8 text of the file `path`, or with `rows` its CSV rows. A file
    that cannot be read, decoded or cut into rows raises DocumentError
    naming it."""
    try:
        with open(path, encoding="utf-8", newline="" if rows else None) as fh:
            return list(csv.reader(fh)) if rows else fh.read()
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DocumentError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read(path: str | Path) -> Any:
    return parse(read_text(path), str(path))


def parse(text: str, source: str = "<string>") -> Any:
    """The JSON value of `text`; DocumentError naming `source` if it is not
    JSON or an object in it repeats a key (json.loads would keep the last)."""
    def unique(pairs: list[tuple[str, Any]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise DocumentError(f"{source}: repeated key {repeated!r}")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{source}: JSON nested too deeply to read") from exc
