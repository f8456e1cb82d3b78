"""Shared random generators and reference verdicts for the test suite."""
from __future__ import annotations

import numpy as np

from choifactor import PairSumMap, extension_positivity_check, make_factor


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_hermitian(rng, n):
    g = cgauss(rng, n, n)
    return (g + g.conj().T) / 2


def random_psd(rng, n):
    g = cgauss(rng, n, n)
    return g @ g.conj().T


def random_unit(rng, n):
    v = cgauss(rng, n)
    return v / np.linalg.norm(v)


def random_map(rng, n, k):
    return PairSumMap(n, tuple((cgauss(rng, n, n), cgauss(rng, n, n)) for _ in range(k)))


def random_cp_map(rng, n, k):
    vs = [cgauss(rng, n, n) for _ in range(k)]
    return PairSumMap(n, tuple((v.conj().T, v) for v in vs))


def random_hp_map(rng, n, k):
    # real combination of conjugations: Hermiticity-preserving, sign-mixed
    vs = [cgauss(rng, n, n) for _ in range(k)]
    ts = rng.standard_normal(k)
    return PairSumMap(n, tuple((t * v.conj().T, v) for t, v in zip(ts, vs)))


def e_verdict(phi, rep, tol=1e-9):
    # check_cp's amplification and extension verdict: E measured at rep,
    # and at the tracial weights as well
    return all(extension_positivity_check(phi, tol=tol, rep=r).positive
               for r in (rep, make_factor(phi.n)))


def random_selfadjoint_terms(rng, n, k_pairs, with_diagonal=False):
    # terms plus their adjoints, optionally one manifestly self-adjoint term
    terms = []
    for _ in range(k_pairs):
        a, b = cgauss(rng, n, n), cgauss(rng, n, n)
        terms.append((a, b))
        terms.append((b.conj().T, a.conj().T))
    if with_diagonal:
        a = cgauss(rng, n, n)
        terms.append((a, a.conj().T))
    return tuple(terms)


def matrix_unit(n, i, j):
    u = np.zeros((n, n), dtype=np.complex128)
    u[i, j] = 1.0
    return u


def reference_canonical_phase(v, tol=1e-8):
    # canonical_phase as it once was, one vector at a time: the first entry
    # above tol is rotated to the positive real axis, and a vector with no
    # entry above tol is returned as it is
    v = np.asarray(v, dtype=np.complex128).copy()
    big = np.abs(v) > tol
    if not np.any(big):
        return v
    pivot = v[int(np.argmax(big))]
    v *= np.conj(pivot) / abs(pivot)
    return v
