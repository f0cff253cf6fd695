"""Line-delimited JSON helpers shared by the pipeline's file formats."""
from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


def dump_line(record: dict[str, Any]) -> str:
    """Serialize one record to a single LF-terminated line."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def read_records(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for each non-blank line; line numbers are 1-based.

    Raises ValueError with the offending line number on malformed JSON or
    on lines that are not JSON objects.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            yield lineno, record


def dump_json(obj: Any) -> str:
    """Serialize one pretty-printed JSON document: sorted keys, two-space indent, LF-terminated."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """Open a temporary sibling of `path` for writing; on success it replaces `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records as one JSON object per line, replacing the file atomically.

    Returns the number of records written.
    """
    count = 0
    with _replacing(path) as fh:
        for record in records:
            fh.write(dump_line(record))
            count += 1
    return count


def write_json(path: str | Path, obj: Any) -> None:
    """Write `dump_json(obj)`, replacing the file atomically."""
    with _replacing(path) as fh:
        fh.write(dump_json(obj))
