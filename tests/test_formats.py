"""The writer and the reader of formats against per-entry references.

dumps builds each node's text from its children's texts, and parse_matrix
checks every entry and then converts the whole matrix in one array call.
The references below do the same work one entry at a time, the way the
module once did, and are kept as the specification: the writer must give
the same text, compact and pretty, and the reader the same bytes (sign of
zero included) or the same FileFormatError message.

Examples are drawn by hypothesis with a fixed seed, as in test_properties.
"""
from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from choifactor import FileFormatError, NumericalFailure, dumps
from choifactor.formats import parse_matrix

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)


# ------------------------------------------------------------- references


def _reference_format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise NumericalFailure(f"cannot serialize {x!r}: the result is not a finite number")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _reference_emit(doc, pieces: list[str], indent: int, pretty: bool) -> None:
    if isinstance(doc, dict):
        if not doc:
            pieces.append("{}")
            return
        pieces.append("{")
        pad = "\n" + "  " * (indent + 1) if pretty else ""
        for k, (key, val) in enumerate(doc.items()):
            if k:
                pieces.append("," + pad if pretty else ",")
            elif pretty:
                pieces.append(pad)
            pieces.append(json.dumps(str(key)) + (": " if pretty else ":"))
            _reference_emit(val, pieces, indent + 1, pretty)
        pieces.append("\n" + "  " * indent + "}" if pretty else "}")
    elif isinstance(doc, (list, tuple)):
        if len(doc) == 0:
            pieces.append("[]")
            return
        pieces.append("[")
        pad = "\n" + "  " * (indent + 1) if pretty else ""
        for k, val in enumerate(doc):
            if k:
                pieces.append("," + pad if pretty else ",")
            elif pretty:
                pieces.append(pad)
            _reference_emit(val, pieces, indent + 1, pretty)
        pieces.append("\n" + "  " * indent + "]" if pretty else "]")
    elif isinstance(doc, bool) or doc is None:
        pieces.append(json.dumps(doc))
    elif isinstance(doc, (int, np.integer)):
        pieces.append(str(int(doc)))
    elif isinstance(doc, (float, np.floating)):
        pieces.append(_reference_format_float(float(doc)))
    elif isinstance(doc, str):
        pieces.append(json.dumps(doc))
    else:
        raise TypeError(f"cannot serialize {type(doc).__name__}")


def reference_dumps(doc, pretty: bool = False) -> str:
    pieces: list[str] = []
    _reference_emit(doc, pieces, 0, pretty)
    return "".join(pieces)


def _reference_finite(p) -> bool:
    # an integer too long for a float is refused here as not finite
    try:
        return math.isfinite(p)
    except OverflowError:
        return False


def _reference_parse_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
        or not all(_reference_finite(p) for p in entry)
    ):
        raise FileFormatError(f"{where}: complex entries must be [re, im] finite numbers")
    return complex(float(entry[0]), float(entry[1]))


def reference_parse_matrix(doc, n: int, where: str) -> np.ndarray:
    if not isinstance(doc, list) or len(doc) != n:
        raise FileFormatError(f"{where}: expected {n} rows")
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{where}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _reference_parse_complex(entry, f"{where}[{i}][{j}]")
    return out


def _outcome(call):
    # the result, or the type and message of the exception raised instead
    try:
        return "ok", call()
    except (FileFormatError, NumericalFailure, TypeError) as exc:
        return type(exc).__name__, str(exc)


# --------------------------------------------------------------- the writer

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00é€\U0001f600'), max_size=6),
    _FLOATS,
    _FLOATS.map(np.float64),
)
# values the writer refuses, each raising in both writers
_UNWRITABLE = st.sampled_from(
    [float("nan"), float("inf"), -np.inf, np.float64("nan"), set(), np.bool_(True), 1j]
)


def _documents(leaves):
    keys = st.one_of(st.text(alphabet=st.sampled_from('k"\\é'), max_size=3), st.integers(-9, 9))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=30,
    )


@PROPERTY_SETTINGS
@given(_documents(_SCALARS), st.booleans())
def test_dumps_gives_the_reference_text(doc, pretty):
    assert dumps(doc, pretty=pretty) == reference_dumps(doc, pretty=pretty)


@PROPERTY_SETTINGS
@given(st.lists(_documents(_SCALARS), min_size=1, max_size=3), _UNWRITABLE, st.data())
def test_dumps_refuses_what_the_reference_refuses(docs, bad, data):
    where = data.draw(st.integers(0, len(docs)))
    doc = {"before": docs[:where], "bad": bad, "after": docs[where:]}
    for pretty in (False, True):
        got = _outcome(lambda: dumps(doc, pretty=pretty))
        assert got[0] != "ok"
        assert got == _outcome(lambda: reference_dumps(doc, pretty=pretty))


# --------------------------------------------------------------- the reader

_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308]),
    st.integers(-2**70, 2**70),
    st.integers(-10**300, 10**300),
)
_BAD_PARTS = st.sampled_from(
    [True, False, "1", None, float("nan"), float("inf"), -float("inf"), 10**400, -10**400,
     {"re": 1}, [1.0], (1.0, 2.0)]
)
_BAD_ENTRIES = st.one_of(
    _BAD_PARTS,
    st.sampled_from([[], [1.0], [1.0, 2.0, 3.0], (1.0,), {"re": 1.0, "im": 0.0}, "1+1j"]),
)
_BAD_ROWS = st.sampled_from([None, "row", ((0, 0), (0, 0)), [], [[0, 0]], [[0, 0]] * 4])


@st.composite
def matrix_documents(draw, corrupt: bool):
    """(n, doc): an n-by-n matrix of [re, im] entries, lists or tuples, and
    with corrupt=True one or two bad entries in it, and sometimes a bad row
    or a wrong row count."""
    n = draw(st.integers(2, 3))
    pair = st.tuples(_PARTS, _PARTS)
    rows = draw(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n))
    doc = [[list(p) if draw(st.booleans()) else p for p in row] for row in rows]
    if corrupt:
        for _ in range(draw(st.integers(1, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if draw(st.booleans()):
                entry = list(rows[i][j])
                entry[draw(st.integers(0, 1))] = draw(_BAD_PARTS)
                doc[i][j] = entry
            else:
                doc[i][j] = draw(_BAD_ENTRIES)
        if draw(st.integers(0, 3)) == 0:
            doc[draw(st.integers(0, n - 1))] = draw(_BAD_ROWS)
        if draw(st.integers(0, 3)) == 0:
            doc = doc[:-1] if draw(st.booleans()) else doc + [doc[0]]
    return n, doc


def _assert_reads_as_reference(n, doc):
    got = _outcome(lambda: parse_matrix(doc, n, "terms[1].B"))
    want = _outcome(lambda: reference_parse_matrix(doc, n, "terms[1].B"))
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert got[1] == want[1]
    return got[0]


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(matrix_documents(corrupt=False))
def test_parse_matrix_reads_the_reference_bytes(case):
    assert _assert_reads_as_reference(*case) == "ok"


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(matrix_documents(corrupt=True))
def test_parse_matrix_refuses_with_the_reference_message(case):
    _assert_reads_as_reference(*case)
