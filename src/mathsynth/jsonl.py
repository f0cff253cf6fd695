"""Line-delimited JSON helpers shared by the pipeline's file formats."""
from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple, TextIO, TypeVar

T = TypeVar("T")

# Built once: `json.dumps` with any non-default option builds an encoder per call.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode
_encode_document = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False).encode


def dump_line(record: dict[str, Any]) -> str:
    """Serialize one record to a single LF-terminated line."""
    return _encode_line(record) + "\n"


class Span(NamedTuple):
    """Where a record sits in its file: the 1-based line number and the line's bytes."""

    lineno: int
    start: int
    stop: int


def read_records(
    path: str | Path, error: type[Exception] = ValueError, spans: Iterable[Span] | None = None
) -> Iterator[tuple[Span, dict[str, Any]]]:
    """Yield (span, record) for each non-blank line, in file order.

    Given `spans` from an earlier read of the file, yield only the lines at
    those spans, in the order given, reading no other bytes; the file is
    opened once. A line that is not UTF-8, not JSON or not a JSON object
    raises `error` naming the file and line. Each line is decoded on its
    own, so the line of a bad byte is exact.
    """
    # A line longer than the read buffer is gathered a buffer at a time: at
    # the default 8 KiB a long solution line reads slower than in text mode.
    with open(path, "rb", buffering=1 << 18) as fh:
        for span, raw in _every_line(fh) if spans is None else _lines_at(fh, spans):
            try:
                line = raw.decode("utf-8")
                if not line.strip() and spans is None:
                    continue
                record = json.loads(line)  # at a span, nothing left to read is invalid
            except ValueError as exc:  # not UTF-8, a JSONDecodeError, or an integer too long
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise error(f"{path}: line {span.lineno}: invalid JSON: {reason}") from exc
            if not isinstance(record, dict):
                raise error(f"{path}: line {span.lineno}: expected a JSON object")
            yield span, record
            # A loop variable outlives its turn: drop this line before the next
            # one is read, so one line (a long solution) is held at a time.
            del raw, line, record


def _every_line(fh: BinaryIO) -> Iterator[tuple[Span, bytes]]:
    start = 0
    for lineno, raw in enumerate(fh, start=1):
        stop = start + len(raw)
        yield Span(lineno, start, stop), raw
        del raw  # see read_records
        start = stop


def _lines_at(fh: BinaryIO, spans: Iterable[Span]) -> Iterator[tuple[Span, bytes]]:
    for span in spans:
        fh.seek(span.start)
        yield span, fh.read(span.stop - span.start)


_KIND_NAMES = {bool: "true or false", str: "a string", int: "an integer", float: "a number"}
_FLOAT_MAX = sys.float_info.max


def load_spans(
    path: str | Path,
    build: Callable[[dict[str, Any]], T],
    error: type[Exception] = ValueError,
    spans: Iterable[Span] | None = None,
) -> Iterator[tuple[Span, T]]:
    """(span, `build(record)`) for each record of `path`, in file order, or for
    those at `spans` (as `read_records` reads them).

    A ValueError from `build` (a `fields` error, or a check of the object
    being built) is raised again as `error` naming the file and line.
    """
    for span, record in read_records(path, error, spans):
        try:
            value = build(record)
        except ValueError as exc:
            raise error(f"{path}: line {span.lineno}: {exc}") from None
        del record  # see read_records
        yield span, value
        del value  # before the next record is read


def load(
    path: str | Path, build: Callable[[dict[str, Any]], T], error: type[Exception] = ValueError
) -> list[T]:
    """`build(record)` for each record of `path`, in file order; errors as `load_spans`."""
    return [value for _, value in load_spans(path, build, error)]


def check(value: Any, kind: type, name: str) -> None:
    """Raise a ValueError naming `name` unless `value` is a JSON value of `kind`.

    A kind is `bool`, `str`, `int` or `float` (a JSON number that a finite
    float holds); neither number kind takes a bool (an int subclass).
    """
    wrong_kind = type(value) is not kind and (  # the exact type needs no isinstance
        (isinstance(value, bool) and kind is not bool)
        or not isinstance(value, (int, float) if kind is float else kind)
    )
    # NaN fails both comparisons; an int beyond the float range fails one
    if wrong_kind or (kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def fields(record: dict[str, Any], **kinds: type) -> list[Any]:
    """`record`'s values under the keys of `kinds`, in order, each `check`ed; a float's as a float.

    A missing key or a wrong value is a ValueError; `load` adds the file and line.
    """
    values = []
    for key, kind in kinds.items():
        try:
            value = record[key]
        except KeyError:
            raise ValueError(f"missing field {key!r}") from None
        check(value, kind, key)
        values.append(float(value) if kind is float else value)
    return values


def dump_json(obj: Any) -> str:
    """Serialize one pretty-printed JSON document: sorted keys, two-space indent, LF-terminated."""
    return _encode_document(obj) + "\n"


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """Open a temporary sibling of `path` for writing; on success it replaces `path`,
    and on any exception it is removed. No newline is translated, so each line's
    bytes are its UTF-8 encoding."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # the records or a write failed: `path` keeps its old bytes
        tmp.unlink(missing_ok=True)
        raise


def write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    """Write records as one JSON object per line, replacing the file atomically.

    Returns the number of records written.
    """
    count = 0
    with replacing(path) as fh:
        for record in records:
            fh.write(dump_line(record))
            count += 1
            del record  # see read_records
    return count


def write_json(path: str | Path, obj: Any) -> None:
    """Write `dump_json(obj)`, replacing the file atomically."""
    with replacing(path) as fh:
        fh.write(dump_json(obj))
