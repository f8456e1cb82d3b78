"""File schemas and deterministic JSON emission.

A map file and an element file share one shape:

    {"n": 2,
     "terms": [{"A": [[[re, im], ...], ...], "B": ...}, ...],
     "state": "tracial" | {"weights": [w1, ..., wn]}}

Complex entries are [re, im] pairs; "state" is optional and defaults to
tracial. Every entry, weight and n must be a finite number: NaN,
Infinity, 1e400, integers too long for a float and an n whose n^2 x n^2
complex operator numpy cannot index raise FileFormatError.

Output documents print every float with 17 significant digits, enough to
round-trip binary64 exactly, and -0 as 0, with keys in insertion order,
so equal inputs give bytewise equal outputs.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import FileFormatError, NumericalFailure
from .factor import FactorRep, make_factor
from .maps import PairSumMap
from .projection_algebra import PairSumElement


def _text(doc, depth: int, pretty: bool) -> str:
    # the JSON text of doc, whose first line starts at indentation depth;
    # floats, the most common node, are tested for first
    if isinstance(doc, (float, np.floating)):
        x = float(doc)
        if not math.isfinite(x):
            raise NumericalFailure(f"cannot serialize {x!r}: the result is not a finite number")
        return format(x or 0.0, ".17g")  # -0.0 is falsy: byte output ignores the sign of zero
    elif isinstance(doc, dict):
        colon = ": " if pretty else ":"
        items = [json.dumps(str(key)) + colon + _text(val, depth + 1, pretty)
                 for key, val in doc.items()]
        brackets = "{}"
    elif isinstance(doc, (list, tuple)):
        items = [_text(val, depth + 1, pretty) for val in doc]
        brackets = "[]"
    elif isinstance(doc, (bool, str)) or doc is None:  # bool before int
        return json.dumps(doc)
    elif isinstance(doc, (int, np.integer)):
        return str(int(doc))
    else:
        raise TypeError(f"cannot serialize {type(doc).__name__}")
    if not items:
        return brackets
    if not pretty:
        return brackets[0] + ",".join(items) + brackets[1]
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def dumps(doc, pretty: bool = False) -> str:
    """Deterministic JSON text, keys in insertion order, floats at .17g."""
    return _text(doc, 0, pretty)


def matrix_doc(m) -> list:
    """The entries of m, a matrix or a stack of them, as [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def vector_doc(v) -> list:
    return matrix_doc(np.ravel(v))


def _finite_number(x) -> bool:
    # json reads NaN, Infinity and 1e400 as floats that are not finite, and
    # an integer of any length, on which math.isfinite raises OverflowError
    # when a float cannot hold it
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_matrix(doc, n: int, where: str) -> np.ndarray:
    if not isinstance(doc, list) or len(doc) != n:
        raise FileFormatError(f"{where}: expected {n} rows")
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{where}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and _finite_number(entry[0]) and _finite_number(entry[1])):
                raise FileFormatError(
                    f"{where}[{i}][{j}]: complex entries must be [re, im] finite numbers")
    # each [re, im] pair becomes one complex128, rounded as float() rounds
    return np.array(doc, dtype=np.float64).view(np.complex128)[..., 0]


def _parse_common(doc) -> tuple[int, list, FactorRep]:
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    n = doc.get("n")
    if not _finite_number(n) or not isinstance(n, int) or n < 2:
        raise FileFormatError('"n" must be an integer >= 2')
    if 16 * n**4 > np.iinfo(np.intp).max:
        raise FileFormatError(f'"n" = {n} is too large: numpy cannot index an n^2 x n^2 operator')
    terms_doc = doc.get("terms")
    if not isinstance(terms_doc, list):
        raise FileFormatError('"terms" must be a list')
    terms = []
    for k, td in enumerate(terms_doc):
        if not isinstance(td, dict) or "A" not in td or "B" not in td:
            raise FileFormatError(f'terms[{k}] must be an object with "A" and "B"')
        terms.append(
            (
                parse_matrix(td["A"], n, f"terms[{k}].A"),
                parse_matrix(td["B"], n, f"terms[{k}].B"),
            )
        )
    state = doc.get("state", "tracial")
    if state == "tracial":
        rep = make_factor(n, "tracial")
    elif isinstance(state, dict) and "weights" in state:
        weights = state["weights"]
        if not isinstance(weights, list) or not all(_finite_number(w) for w in weights):
            raise FileFormatError('"state.weights" must be a list of finite numbers')
        rep = make_factor(n, [float(w) for w in weights])
    else:
        raise FileFormatError('"state" must be "tracial" or {"weights": [...]}')
    return n, terms, rep


def parse_map_file(doc) -> tuple[PairSumMap, FactorRep]:
    n, terms, rep = _parse_common(doc)
    return PairSumMap(n, tuple(terms)), rep


def parse_element_file(doc) -> PairSumElement:
    _, terms, rep = _parse_common(doc)
    return PairSumElement(rep, tuple(terms))


def load_map_file(path) -> tuple[PairSumMap, FactorRep]:
    return parse_map_file(_load_json(path))


def load_element_file(path) -> PairSumElement:
    return parse_element_file(_load_json(path))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FileFormatError(f"cannot read {path} as JSON: {exc}") from exc


def state_doc(rep: FactorRep):
    """The "state" entry of the input schema for rep."""
    return "tracial" if rep.tracial else {"weights": [float(w) for w in rep.weights]}


def map_doc(phi: PairSumMap, rep: FactorRep) -> dict:
    """A document in the input schema describing phi over rep."""
    doc: dict = {"n": phi.n}
    doc["terms"] = [{"A": a, "B": b} for a, b in zip(matrix_doc(phi.a), matrix_doc(phi.b))]
    doc["state"] = state_doc(rep)
    return doc
