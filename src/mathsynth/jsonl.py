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


def fields(path: str | Path, lineno: int, record: dict[str, Any], **kinds: type) -> list[Any]:
    """`record`'s values under the keys of `kinds`, in order, each checked against its kind.

    A kind is `str` or `float` (any JSON number but a bool). A missing key or
    a value of another kind is a ValueError naming the file and line.
    """
    values = []
    for key, kind in kinds.items():
        if key not in record:
            raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
        value = record[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = "a number" if kind is float else "a string"
            raise ValueError(f"{path}: line {lineno}: {key} must be {expected}, got {value!r}")
        values.append(value)
    return values


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
