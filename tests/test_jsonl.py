"""Typed rows of JSONL files: `jsonl.load` with `jsonl.fields`."""
from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathsynth import jsonl, providers
from mathsynth.jsonl import check, fields, load

_GOOD = {"id": "q", "score": 1.5}


def _load_rows(tmp_path, monkeypatch, *rows, error=ValueError):
    """Load `rows` from `rows.jsonl`, named relative to the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )
    return load("rows.jsonl", lambda record: fields(record, id=str, score=float), error)


@pytest.mark.parametrize(
    "record,message",
    [
        ({"score": 2.5}, "rows.jsonl: line 3: missing field 'id'"),
        ({"id": None, "score": 2.5}, "rows.jsonl: line 3: id must be a string, got None"),
        ({"id": "q", "score": True}, "rows.jsonl: line 3: score must be a number, got True"),
        # the first bad field in the order asked for, not in the row's order
        ({"score": "x", "id": 5}, "rows.jsonl: line 3: id must be a string, got 5"),
    ],
)
def test_fields_name_the_first_bad_field(tmp_path, monkeypatch, record, message):
    with pytest.raises(ValueError) as exc:
        _load_rows(tmp_path, monkeypatch, _GOOD, _GOOD, record)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-beyond-float"],
)
def test_a_number_must_be_finite(tmp_path, monkeypatch, value):
    # json.dumps writes NaN and Infinity, and json.loads reads them back, as
    # it reads an integer of any size
    with pytest.raises(ValueError) as exc:
        _load_rows(tmp_path, monkeypatch, _GOOD, {"id": "q", "score": value})
    assert str(exc.value) == f"rows.jsonl: line 2: score must be a number, got {value!r}"


def test_an_integer_too_long_to_parse_names_its_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    row = '{"id": "q", "score": %s}\n' % ("9" * 5000)  # json.dumps would refuse it
    (tmp_path / "rows.jsonl").write_text(row, encoding="utf-8")
    with pytest.raises(ValueError, match=r"^rows\.jsonl: line 1: invalid JSON: Exceeds the limit"):
        load("rows.jsonl", lambda record: fields(record, id=str, score=float))


def test_an_integer_stands_for_a_number(tmp_path, monkeypatch):
    rows = _load_rows(tmp_path, monkeypatch, {"id": "q", "score": 3}, {"score": 2, "id": "r"})
    assert rows == [["q", 3], ["r", 2]]
    assert all(type(score) is float for _, score in rows)  # a number field reads as a float


@pytest.mark.parametrize(
    "value,kind,message",
    [
        (True, bool, None),
        (1, bool, "x must be true or false, got 1"),
        ("s", str, None),
        (1, int, None),
        (False, int, "x must be an integer, got False"),
        (1.0, int, "x must be an integer, got 1.0"),
        (10**400, int, None),
        (1, float, None),
        (True, float, "x must be a number, got True"),
        (-(10**400), float, f"x must be a number, got {-(10**400)!r}"),
        (float("nan"), float, "x must be a number, got nan"),
    ],
)
def test_check_is_the_one_kind_rule(value, kind, message):
    if message is None:
        check(value, kind, "x")
    else:
        with pytest.raises(ValueError) as exc:
            check(value, kind, "x")
        assert str(exc.value) == message


def test_load_raises_the_error_class_it_is_given(tmp_path, monkeypatch):
    class RowError(ValueError):
        pass

    with pytest.raises(RowError, match=r"^rows\.jsonl: line 1: missing field 'score'$"):
        _load_rows(tmp_path, monkeypatch, {"id": "q"}, error=RowError)


def test_load_reads_through_the_module_read_records(tmp_path, monkeypatch):
    # the benchmark tracer counts rows by patching jsonl.read_records by name
    read = []
    original = jsonl.read_records

    def counting(path, *args, **kwargs):
        read.append(path)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(jsonl, "read_records", counting)
    assert _load_rows(tmp_path, monkeypatch, _GOOD) == [["q", 1.5]]
    assert read == ["rows.jsonl"]


def _rows_then_failure():
    yield {"id": "new", "score": 1.0}
    yield {"id": "newer", "score": 2.0}
    raise RuntimeError("records failed")


@pytest.mark.parametrize(
    "records,error",
    [
        (_rows_then_failure, RuntimeError),  # the records iterator raises
        (lambda: [_GOOD, _GOOD, {"id": object()}], TypeError),  # a write raises
    ],
)
def test_a_failed_write_keeps_the_old_file_and_leaves_no_tmp(tmp_path, records, error):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "old", "score": 0.5}\n')
    with pytest.raises(error):
        jsonl.write_records(path, records())
    assert path.read_bytes() == b'{"id": "old", "score": 0.5}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_read_records_at_spans_reads_those_lines_in_the_order_given(tmp_path):
    path = tmp_path / "rows.jsonl"
    head = '{"i": 0}\n\n{"i": 1, "t": "é"}\n'
    path.write_text(head + '{"i": 2}\n', encoding="utf-8")
    spans = [span for span, _ in jsonl.read_records(path)]
    assert [span.lineno for span in spans] == [1, 3, 4]
    assert spans[2] == (4, len(head.encode("utf-8")), len(head.encode("utf-8")) + 9)
    picked = [spans[2], spans[0], spans[2]]
    at = [(span, record["i"]) for span, record in jsonl.read_records(path, spans=picked)]
    assert at == [(spans[2], 2), (spans[0], 0), (spans[2], 2)]

    class RowError(ValueError):
        pass

    path.write_text('{"i": 0}\n{"i": 10}\n', encoding="utf-8")  # line 4 is gone
    with pytest.raises(RowError, match=r"rows\.jsonl: line 4: invalid JSON"):
        list(jsonl.read_records(path, RowError, spans=[spans[2]]))


def test_load_spans_gives_each_built_row_its_span(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a", "score": 1}\n{"id": "b", "score": 2}\n', encoding="utf-8")
    build = lambda record: fields(record, id=str)[0]  # noqa: E731
    rows = list(jsonl.load_spans(path, build))
    assert [(span.lineno, value) for span, value in rows] == [(1, "a"), (2, "b")]
    assert [value for _, value in jsonl.read_records(path, spans=[rows[1][0]])] == [
        {"id": "b", "score": 2}
    ]
    assert load(path, build) == ["a", "b"]


# Nested JSON values: st.text() draws non-ASCII text and control characters,
# and the floats include NaN and both infinities.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@given(st.dictionaries(st.text(), _VALUES, max_size=6))
def test_each_encoder_built_once_writes_what_json_dumps_writes(record):
    assert jsonl.dump_line(record) == json.dumps(record, ensure_ascii=False) + "\n"
    assert jsonl.dump_json(record) == (
        json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    )
    assert providers.canonical_json(record) == json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    entry = {"endpoint": "/chat/completions", "salt": "s", "response": record}
    assert providers._encode_entry(entry) == json.dumps(entry, ensure_ascii=False, sort_keys=True)
