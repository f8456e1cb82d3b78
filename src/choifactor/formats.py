"""File schemas and deterministic JSON emission.

A map file and an element file share one shape:

    {"n": 2,
     "terms": [{"A": [[[re, im], ...], ...], "B": ...}, ...],
     "state": "tracial" | {"weights": [w1, ..., wn]}}

Complex entries are [re, im] pairs; "state" is optional and defaults to
tracial. Output documents print every float with 17 significant digits,
enough to round-trip binary64 exactly, so equal inputs give bytewise
equal outputs.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import FileFormatError, NumericalFailure
from .factor import FactorRep, make_factor
from .maps import PairSumMap
from .projection_algebra import PairSumElement


def _format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise NumericalFailure(f"cannot serialize {x!r}: the result is not a finite number")
    if x == 0.0:  # collapse -0.0 so byte output ignores the sign of zero
        x = 0.0
    return format(x, ".17g")


def _emit(doc, pieces: list[str], indent: int, pretty: bool) -> None:
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
            _emit(val, pieces, indent + 1, pretty)
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
            _emit(val, pieces, indent + 1, pretty)
        pieces.append("\n" + "  " * indent + "]" if pretty else "]")
    elif isinstance(doc, bool) or doc is None:
        pieces.append(json.dumps(doc))
    elif isinstance(doc, (int, np.integer)):
        pieces.append(str(int(doc)))
    elif isinstance(doc, (float, np.floating)):
        pieces.append(_format_float(float(doc)))
    elif isinstance(doc, str):
        pieces.append(json.dumps(doc))
    else:
        raise TypeError(f"cannot serialize {type(doc).__name__}")


def dumps(doc, pretty: bool = False) -> str:
    """Deterministic JSON text, keys in insertion order, floats at .17g."""
    pieces: list[str] = []
    _emit(doc, pieces, 0, pretty)
    return "".join(pieces)


def complex_doc(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_doc(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_doc(z) for z in row] for row in m]


def vector_doc(v) -> list:
    return [complex_doc(z) for z in np.asarray(v, dtype=np.complex128).reshape(-1)]


def _parse_complex(entry, where: str) -> complex:
    # json accepts NaN, Infinity and overflowing literals such as 1e400
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
        or not all(math.isfinite(p) for p in entry)
    ):
        raise FileFormatError(f"{where}: complex entries must be [re, im] finite numbers")
    return complex(float(entry[0]), float(entry[1]))


def parse_matrix(doc, n: int, where: str) -> np.ndarray:
    if not isinstance(doc, list) or len(doc) != n:
        raise FileFormatError(f"{where}: expected {n} rows")
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{where}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{where}[{i}][{j}]")
    return out


def _parse_common(doc) -> tuple[int, list, FactorRep]:
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise FileFormatError('"n" must be an integer >= 2')
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
        if not isinstance(weights, list) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
        ):
            raise FileFormatError('"state.weights" must be a list of numbers')
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
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def state_doc(rep: FactorRep):
    """The "state" entry of the input schema for rep."""
    return "tracial" if rep.tracial else {"weights": [float(w) for w in rep.weights]}


def map_doc(phi: PairSumMap, rep: FactorRep) -> dict:
    """A document in the input schema describing phi over rep."""
    doc: dict = {"n": phi.n}
    doc["terms"] = [{"A": matrix_doc(a), "B": matrix_doc(b)} for a, b in phi.terms]
    doc["state"] = state_doc(rep)
    return doc
