"""Typed field access for JSONL rows."""
from __future__ import annotations

import pytest

from mathsynth.jsonl import fields


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
def test_fields_name_the_first_bad_field(record, message):
    with pytest.raises(ValueError) as exc:
        fields("rows.jsonl", 3, record, id=str, score=float)
    assert str(exc.value) == message


def test_an_integer_stands_for_a_number():
    assert fields("rows.jsonl", 1, {"score": 3, "n": 2}, score=float, n=int) == [3, 2]
