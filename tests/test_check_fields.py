"""The one field checker behind the config file, the agents file and the
match log."""

from __future__ import annotations

import pytest
from lmfa.config import check_fields

KINDS = {"n": int, "s": str, "l": list, "o": dict, "v": (None, 1, "x")}
GOOD = {"n": 3, "s": "a", "l": [], "o": {}, "v": None}


class Refused(ValueError):
    pass


def test_a_document_of_the_right_kinds_passes():
    check_fields(GOOD, KINDS, Refused, "doc.")
    for v in KINDS["v"]:
        check_fields({**GOOD, "v": v}, KINDS, Refused, "doc.")


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "field 'doc' is not an object"),
        ({**GOOD, "n": True}, "field 'doc.n' is not an integer"),
        ({**GOOD, "n": 3.0}, "field 'doc.n' is not an integer"),
        ({**GOOD, "v": True}, "field 'doc.v' is not None or 1 or 'x'"),
        ({**GOOD, "v": 1.0}, "field 'doc.v' is not None or 1 or 'x'"),
        ({**GOOD, "v": [1]}, "field 'doc.v' is not None or 1 or 'x'"),
        ({k: GOOD[k] for k in ("s", "o")}, "lacks field(s): doc.n, doc.l, doc.v"),
        ({**GOOD, "extra": 1}, "unknown field(s): doc.extra"),
        ({**{k: GOOD[k] for k in GOOD if k != "v"}, "w": None}, "lacks field(s): doc.v"),
    ],
)
def test_each_fault_is_refused_by_its_path(doc, message):
    with pytest.raises(Refused) as caught:
        check_fields(doc, KINDS, Refused, "doc.")
    assert str(caught.value) == message


def test_a_whole_document_that_is_not_an_object():
    with pytest.raises(Refused, match="^not an object$"):
        check_fields("text", KINDS, Refused, "")


NESTED = {"top": int, "a": {"b": {"n": int}, "s": str}}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"top": 1, "a": {"b": {"n": "1"}, "s": "x"}}, "field 'doc.a.b.n' is not an integer"),
        ({"top": 1, "a": {"b": [], "s": "x"}}, "field 'doc.a.b' is not an object"),
        ({"top": 1, "a": {"b": {}, "s": "x"}}, "lacks field(s): doc.a.b.n"),
        ({"top": 1, "a": {"b": {"n": 1}, "t": "x"}}, "lacks field(s): doc.a.s"),
        ({"top": 1, "a": {"b": {"n": 1}, "s": "x", "u": 0}}, "unknown field(s): doc.a.u"),
        ({"top": 1, "a": None}, "field 'doc.a' is not an object"),
    ],
)
def test_a_nested_kind_is_checked_by_its_full_path(doc, message):
    check_fields({"top": 1, "a": {"b": {"n": 1}, "s": "x"}}, NESTED, Refused, "doc.")
    with pytest.raises(Refused) as caught:
        check_fields(doc, NESTED, Refused, "doc.")
    assert str(caught.value) == message


def test_a_nested_kind_in_a_whole_document():
    with pytest.raises(Refused) as caught:
        check_fields({"a": {"b": 1}}, {"a": {"b": {"n": int}}}, Refused, "")
    assert str(caught.value) == "field 'a.b' is not an object"
