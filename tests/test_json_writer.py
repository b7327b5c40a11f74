"""The CLI's JSON writer lays out every document byte for byte as
json.dumps(doc, indent=2, allow_nan=False) does, and refuses a float that
is not finite wherever it sits, as json.dumps does."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtransform.cli import _dumps

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, 1e-7]
NON_FINITE = [math.nan, math.inf, -math.inf]

FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
# Now and then a float that is not finite, which both must refuse.
FLOATS = st.integers(1, 40).flatmap(
    lambda k: st.sampled_from(NON_FINITE) if k == 40 else FINITE)
INTS = st.one_of(st.integers(-5, 10**6), st.integers())
# Any text: quotes, backslashes, newlines and non-ASCII all need escapes.
TEXT = st.text()
STATUS = st.sampled_from(["valid", "breakdown", "not_computed"])
# A table value: a float, an exact value's text, or null.
VALUE = st.one_of(FLOATS, st.builds("{}/{}".format, INTS, st.integers(1)),
                  INTS.map(str), st.none())
MAYBE_FLOAT = st.one_of(FLOATS, st.none())


@st.composite
def table_documents(draw):
    rows = draw(st.lists(st.fixed_dictionaries({
        "j": INTS, "n": INTS, "value": VALUE, "status": STATUS,
    }), max_size=12))
    doc = {"method": draw(st.sampled_from(["fsqd", "rs", "eps"])),
           "L": draw(INTS), "table": rows,
           "diagonal": draw(st.lists(VALUE, max_size=8))}
    if draw(st.booleans()):  # integrate
        doc["x"] = draw(FLOATS)
        doc["h"] = draw(FLOATS)
        doc["reference"] = draw(MAYBE_FLOAT)
        if draw(st.booleans()):
            doc["errors"] = draw(st.lists(MAYBE_FLOAT, max_size=8))
        else:
            doc["errors"] = None
            doc["diagonal_deltas"] = draw(st.lists(MAYBE_FLOAT, max_size=8))
    return doc


def _counts(values):
    return st.fixed_dictionaries(
        {k: values for k in ("additions", "multiplications", "divisions")})


bench_documents = st.fixed_dictionaries({
    "method": st.sampled_from(["fsqd", "fsqd_diag", "rs", "eps"]),
    "L": INTS,
    "counts": _counts(INTS),
    "normalized": _counts(FLOATS),
    "total": INTS,
    "valid": st.booleans(),
    "seed": INTS,
})

check_documents = st.fixed_dictionaries({
    "cases": INTS,
    "passed": st.booleans(),
    "first_counterexample": st.one_of(st.none(), TEXT),
})

# Keys and values of any kind the writer may meet, nested.
any_documents = st.dictionaries(TEXT, st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12,
), max_size=5)


def _row(value, status="valid"):
    return {"j": 0, "n": 1, "value": value, "status": status}


@settings(max_examples=500, deadline=None)
@example({"method": "fsqd", "L": 0, "table": [], "diagonal": []})
@example({"method": "fsqd", "L": 1, "table": [_row(math.nan)],
          "diagonal": [1.0]})
@example({"method": "rs", "L": 1, "table": [_row(None, "breakdown")],
          "diagonal": [None, -math.inf], "errors": None,
          "diagonal_deltas": []})
@example({"method": "eps", "L": 1, "table": [_row(1.0)], "diagonal": [1.0],
          "x": 0.0, "h": 1.0, "reference": 1.0, "errors": [math.inf, None]})
@example({"method": "fsqd", "L": 10,
          "counts": {"additions": 310, "multiplications": 90,
                     "divisions": 297},
          "normalized": {"additions": 3.1, "multiplications": math.inf,
                         "divisions": 2.97},
          "total": 697, "valid": True, "seed": 1})
@example({"cases": 8, "passed": False,
          "first_counterexample": 'L=2 "fsqd"\n(0,1): 1/2 != 1/3\\'})
@example({})
# Not table rows: keys out of order, a container in a row, a list below.
@example({"table": [{"n": 1, "j": 0, "value": 1.0, "status": "valid"}]})
@example({"table": [_row([1.0, {"a": None}])], "diagonal": [[], 1.0]})
@example({"rows": [_row(2.5), _row("1/3", "valid")], "x": [True, "a\nb"]})
@given(st.one_of(table_documents(), bench_documents, check_documents,
                 any_documents))
def test_writer_equals_json_dumps_indent_2(doc):
    try:
        want = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            _dumps(doc)
    else:
        assert _dumps(doc) == want
