"""Line-delimited JSON helpers shared by the pipeline's file formats."""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator


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


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records as one JSON object per line, replacing the file atomically.

    Returns the number of records written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    count = 0
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dump_line(record))
            count += 1
    os.replace(tmp, path)
    return count

