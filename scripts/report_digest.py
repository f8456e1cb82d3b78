"""Print one SHA-256 digest per report kind over a fixed seeded case set.

Run from the repository root (with choifactor importable, e.g. installed
or with PYTHONPATH=src):

    python3 scripts/report_digest.py
    OPENBLAS_NUM_THREADS=2 python3 scripts/report_digest.py

The cases are random, completely positive, Hermiticity-preserving,
transpose-type, rank-one, equal-weight orthogonal Kraus and near-boundary
band (identity + t * transpose, t across (tol/n, n * tol)) maps at
n in {2, 3, 4, 6, 8}, at uniform and at non-uniform weights, plus
self-adjoint, projection and non-self-adjoint elements at n in {2, 3, 4}.
Eight digests are printed, each with the number of records behind it:

    check_cp      repr of the CpReport, or of the report carried by
                  InternalDisagreement, at trials in {0, 1, 4, 64}
    extension     repr of the ExtensionReport at trials in {0, 1, 2, 3, 4, 64}
    kraus         bytes of the Kraus operators and repr of the coefficients,
                  at tol in {1e-9, 1e-3}
    not_positive  min_eigenvalue, hermiticity_defect and message of the
                  NotPositive raised instead, at the same tolerances
    positive      fields and witness bytes of the check_positive certificate
                  at n in {2, 3}, restarts in {1, 32}, with the grid oracle
                  at n = 2; the random maps do not preserve Hermiticity
                  and take the direct path, which is also run on the
                  random maps at n in {4, 6}; the see-saw also runs at
                  n in {4, 6}, restarts in {1, 32}, on Hermiticity-
                  preserving decomposable maps (Kraus terms plus a
                  conjugated transpose, positive) and Kraus-minus-measure
                  maps (not positive), at uniform and non-uniform weights
    spectral      coefficients and implementer bytes of spectral_decompose,
                  or the error it raises, and for the projections the term
                  bytes of rank_one_subprojection
    algebra       raw bytes (tobytes, so the sign of zero counts) of the
                  pair-sum layer: transfer, apply_map, choi, dual_choi and
                  the terms of adjoint_map for every map case, kraus_apply
                  for every Kraus decomposition above, and materialize,
                  element_product, element_adjoint, compress and the terms
                  of identity_element for every element; the same again
                  for sparse pairs at n in {2, 3, 4}, half of whose entries
                  are zeros of either sign
    formats       for every map case, the compact and the pretty text of
                  dumps over map_doc, the Choi matrix and the dual Choi
                  operator (each as {"matrix": matrix_doc(...)}), and the
                  term and weight bytes that parse_map_file reads back from
                  the map document

A change meant to leave every report bit for bit as it was prints the
same eight lines before and after; compare the output of two checkouts
(and of one and two BLAS threads). It complements
`scripts/make_goldens.py --check`, which covers the CLI at n = 2 only.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from choifactor import (
    InternalDisagreement,
    NotPositive,
    ChoiFactorError,
    PairSumElement,
    PairSumMap,
    adjoint_map,
    apply_map,
    check_cp,
    check_positive,
    choi,
    compress,
    dual_choi,
    dumps,
    element_adjoint,
    element_product,
    element_scale,
    extension_positivity_check,
    identity_element,
    identity_map,
    kraus_apply,
    kraus_decompose,
    make_factor,
    map_doc,
    map_scale,
    map_sum,
    materialize,
    matrix_doc,
    parse_map_file,
    rank_one_subprojection,
    spectral_decompose,
    transfer,
    transpose_map,
)

SIZES = (2, 3, 4, 6, 8)
TOL = 1e-9
CP_TRIALS = (0, 1, 4, 64)
EXTENSION_TRIALS = (0, 1, 2, 3, 4, 64)
KRAUS_TOLS = (1e-9, 1e-3)
BAND_CELLS = 6
POSITIVE_SIZES = (2, 3)
DIRECT_SIZES = (4, 6)  # the direct path only: the see-saw is slow there
POSITIVE_RESTARTS = (1, 32)
SEESAW_SIZES = (4, 6)  # Hermiticity-preserving maps the see-saw decides
SPECTRAL_SIZES = (2, 3, 4)


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _conjugations(vs, weights):
    return tuple((w * np.conj(v).T, v) for w, v in zip(weights, vs))


def _weyl(n):
    # the n^2 clock-and-shift unitaries, orthogonal in the trace inner product
    shift = np.roll(np.eye(n), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(n) for b in range(n)]


def _maps(rng, n):
    k = n
    vs = [_cgauss(rng, n, n) for _ in range(k)]
    units = _weyl(n)
    yield "random", PairSumMap(n, tuple((_cgauss(rng, n, n), _cgauss(rng, n, n))
                                        for _ in range(3)))
    yield "cp", PairSumMap(n, _conjugations(vs, np.ones(k)))
    yield "hp", PairSumMap(n, _conjugations(vs, rng.standard_normal(k)))
    yield "rank_one", PairSumMap(n, _conjugations(vs[:1], [1.0]))
    yield "equal_weight_kraus", PairSumMap(n, _conjugations(units[: n + 1], np.ones(n + 1)))
    yield "transpose", transpose_map(n)
    yield "reduction", map_sum(PairSumMap(n, _conjugations(units, np.ones(n * n) / n)),
                               PairSumMap(n, _conjugations(vs[:1], [-1.0])))


def _unit(rng, n):
    z = _cgauss(rng, n)
    return z / np.linalg.norm(z)


def seesaw_cases():
    """(label, map, representation) triples of Hermiticity-preserving maps
    at n in SEESAW_SIZES, so check_positive takes the see-saw there."""
    rng = np.random.default_rng(20145)
    for n in SEESAW_SIZES:
        reps = (("tracial", make_factor(n)), ("weighted", make_factor(n, rng.uniform(0.2, 1.0, n))))
        # C -> sum V* C V + W* C^T W, with C^T = sum_ij e_ij C e_ij: positive
        vs = [_cgauss(rng, n, n) / n for _ in range(n * n)]
        w = _cgauss(rng, n, n) / n
        units = np.eye(n * n).reshape(n * n, n, n)
        transposed = tuple((np.conj(w).T @ e, e @ w) for e in units)
        decomposable = PairSumMap(n, _conjugations(vs, np.ones(n * n)) + transposed)
        # C -> sum V* C V - q <z|C|z> |w><w|, with <w|phi(z z*)|w> = -1/2
        vs = vs[:n]
        z, w = _unit(rng, n), _unit(rng, n)
        q = sum(abs(np.vdot(w, np.conj(v).T @ z)) ** 2 for v in vs) + 0.5
        measure = ((-q * np.outer(w, np.conj(z)), np.outer(z, np.conj(w))),)
        kraus_minus_measure = PairSumMap(n, _conjugations(vs, np.ones(n)) + measure)
        for kind, phi in (("decomposable", decomposable),
                          ("kraus_minus_measure", kraus_minus_measure)):
            for weighting, rep in reps:
                yield f"{kind} n={n} {weighting}", phi, rep


def cases():
    """(label, map, representation) triples in a fixed order."""
    rng = np.random.default_rng(20141)
    for n in SIZES:
        reps = (("tracial", make_factor(n)), ("weighted", make_factor(n, rng.uniform(0.2, 1.0, n))))
        for kind, phi in _maps(rng, n):
            for weighting, rep in reps:
                yield f"{kind} n={n} {weighting}", phi, rep
        if n <= 3:
            edges = np.geomspace(TOL / n, n * TOL, BAND_CELLS + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                t = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                phi = map_sum(identity_map(n), map_scale(transpose_map(n), t))
                yield f"band n={n} t={t!r}", phi, make_factor(n)


def elements():
    """(label, element, is_projection) triples in a fixed order."""
    rng = np.random.default_rng(20142)
    for n in SPECTRAL_SIZES:
        units = _weyl(n)
        reps = (("tracial", make_factor(n)), ("weighted", make_factor(n, rng.uniform(0.2, 1.0, n))))
        for weighting, rep in reps:
            pairs = [(_cgauss(rng, n, n), _cgauss(rng, n, n)) for _ in range(2)]
            selfadjoint = tuple(t for a, b in pairs for t in ((a, b), (np.conj(b).T, np.conj(a).T)))
            a = _cgauss(rng, n, n)
            tag = f"n={n} {weighting}"
            yield f"selfadjoint {tag}", PairSumElement(rep, selfadjoint), False
            yield f"selfadjoint_large {tag}", element_scale(PairSumElement(rep, selfadjoint), 1e3), False
            yield f"psd {tag}", PairSumElement(rep, ((a, np.conj(a).T),) + selfadjoint[:2]), False
            yield f"identity {tag}", identity_element(rep), True
            # orthonormal (1(x)U)x at uniform weights: a rank-(n+1) projection
            weyl = PairSumElement(rep, tuple((u, np.conj(u).T) for u in units[: n + 1]))
            yield f"weyl {tag}", weyl, rep.tracial
            yield f"weyl_doubled {tag}", element_scale(weyl, 2.0), False
            yield f"not_selfadjoint {tag}", PairSumElement(rep, selfadjoint[:1]), False


def sparse_cases():
    """(label, pairs, rep): about half of the coefficient entries are zeros
    of either sign, so that the products of the pair-sum layer are too."""
    rng = np.random.default_rng(20144)
    for n in SPECTRAL_SIZES:
        for k in (1, 2, n):
            pairs = _cgauss(rng, k, 2, n, n) * (rng.random((k, 2, n, n)) < 0.5)
            weighted = make_factor(n, rng.uniform(0.2, 1.0, n))
            for weighting, rep in (("tracial", make_factor(n)), ("weighted", weighted)):
                yield f"sparse n={n} k={k} {weighting}", pairs, rep


def _terms_bytes(obj) -> bytes:
    return b"".join(a.tobytes() + b.tobytes() for a, b in obj.terms)


def _map_bytes(phi, rep, c) -> bytes:
    return b"".join((transfer(phi).tobytes(), apply_map(phi, c).tobytes(), choi(phi).tobytes(),
                     dual_choi(phi, rep).tobytes(), _terms_bytes(adjoint_map(phi))))


def _element_bytes(element) -> bytes:
    adjoint = element_adjoint(element)
    try:
        compressed = _terms_bytes(compress(element))
    except ChoiFactorError as exc:
        compressed = f"{type(exc).__name__}: {exc}".encode()
    product = element_product(element, adjoint)
    return b"".join((materialize(element).tobytes(), _terms_bytes(product), _terms_bytes(adjoint),
                     compressed, _terms_bytes(identity_element(element.rep))))


def _formats_bytes(phi, rep) -> bytes:
    docs = (map_doc(phi, rep), {"matrix": matrix_doc(choi(phi))},
            {"matrix": matrix_doc(dual_choi(phi, rep))})
    texts = [dumps(doc, pretty=pretty) for doc in docs for pretty in (False, True)]
    phi_read, rep_read = parse_map_file(json.loads(texts[0]))
    return "\0".join(texts).encode() + _terms_bytes(phi_read) + rep_read.weights.tobytes()


def main() -> int:
    kinds = ("check_cp", "extension", "kraus", "not_positive", "positive", "spectral", "algebra",
             "formats")
    digests = {kind: hashlib.sha256() for kind in kinds}
    counts = dict.fromkeys(digests, 0)

    def record(kind, label, payload):
        digests[kind].update(label.encode() + b"\0" + payload + b"\n")
        counts[kind] += 1

    def record_positive(label, phi, rep):
        for restarts in POSITIVE_RESTARTS:
            cert = check_positive(phi, rep, restarts=restarts, tol=TOL, seed=restarts,
                                  oracle=phi.n == 2)
            fields = (cert.verdict, cert.value, cert.method, cert.seed, cert.pairing_imag)
            payload = repr(fields).encode() + cert.witness_u.tobytes() + cert.witness_v.tobytes()
            record("positive", f"{label} restarts={restarts}", payload)

    inputs = np.random.default_rng(20143)  # apply_map and kraus_apply inputs
    for label, phi, rep in cases():
        c = _cgauss(inputs, phi.n, phi.n)
        record("algebra", f"{label} maps", _map_bytes(phi, rep, c))
        record("formats", label, _formats_bytes(phi, rep))
        for trials in CP_TRIALS:
            try:
                report = check_cp(phi, tol=TOL, rep=rep, trials=trials, seed=trials)
            except InternalDisagreement as exc:
                report = exc.report
            record("check_cp", f"{label} trials={trials}", repr(report).encode())
        for trials in EXTENSION_TRIALS:
            ext = extension_positivity_check(phi, trials=trials, tol=TOL, rep=rep, seed=trials)
            record("extension", f"{label} trials={trials}", repr(ext).encode())
        for tol in KRAUS_TOLS:
            try:
                kd = kraus_decompose(phi, rep, tol=tol)
            except NotPositive as exc:
                fields = (exc.min_eigenvalue, exc.hermiticity_defect, str(exc))
                record("not_positive", f"{label} tol={tol!r}", repr(fields).encode())
                continue
            payload = repr(kd.coefficients).encode() + b"".join(v.tobytes() for v in kd.ops)
            record("kraus", f"{label} tol={tol!r}", payload)
            record("algebra", f"{label} tol={tol!r} kraus_apply", kraus_apply(kd, c).tobytes())
        if phi.n in POSITIVE_SIZES or (phi.n in DIRECT_SIZES and label.startswith("random ")):
            record_positive(label, phi, rep)

    for label, phi, rep in seesaw_cases():
        record_positive(label, phi, rep)

    for label, element, is_projection in elements():
        record("algebra", f"{label} elements", _element_bytes(element))
        try:
            sd = spectral_decompose(element, tol=TOL)
            payload = repr([c for c, _ in sd.items]).encode() + b"".join(
                s.tobytes() for _, s in sd.items)
        except ChoiFactorError as exc:
            payload = f"{type(exc).__name__}: {exc}".encode()
        if is_projection:
            payload += _terms_bytes(rank_one_subprojection(element))
        record("spectral", label, payload)

    for label, pairs, rep in sparse_cases():
        c = _cgauss(inputs, rep.n, rep.n)
        record("algebra", f"{label} maps", _map_bytes(PairSumMap(rep.n, pairs), rep, c))
        record("algebra", f"{label} elements", _element_bytes(PairSumElement(rep, pairs)))
        v = pairs[:, 1]  # the Kraus operators of C -> sum V* C V
        cp = PairSumMap(rep.n, np.stack((np.conj(v).swapaxes(1, 2), v), axis=1))
        kd = kraus_decompose(cp, rep)
        record("algebra", f"{label} kraus_apply", kraus_apply(kd, c).tobytes())

    for kind, digest in digests.items():
        print(f"{kind:<13} {counts[kind]:>4}  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
