"""Property tests: the operators of a pair-sum depend on the sum, not on
how its terms are presented, the element calculus matches dense
matrices, Kraus operators rebuild a completely positive map, and the CP
verdict does not see a unitary change of basis on either side.

Examples are drawn by hypothesis with a fixed seed (derandomize=True), at
n <= 4 and at most a few terms, so the suite runs the same cases every
time. Every comparison is held to RTOL times a scale fixed by the inputs.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from choifactor import (
    InternalDisagreement,
    PairSumElement,
    PairSumMap,
    adjoint_map,
    apply_map,
    check_cp,
    choi,
    dual_choi,
    element_adjoint,
    element_product,
    kraus_decompose,
    make_factor,
    materialize,
    transfer,
)

RTOL = 1e-12
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)

ENTRIES = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def pair_sums(draw, max_terms=4):
    """(n, pairs, rep, c): pairs a (k, 2, n, n) array, rep at random weights,
    c an input matrix for apply_map."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, max_terms))
    pairs = draw(arrays(np.complex128, (k, 2, n, n), elements=ENTRIES))
    weights = draw(arrays(np.float64, n, elements=st.floats(0.1, 1.0)))
    c = draw(arrays(np.complex128, (n, n), elements=ENTRIES))
    return n, pairs, make_factor(n, weights), c


def _size(pairs) -> float:
    # sum_i |A_i| |B_i| (Frobenius): bounds every entry of the operators
    # below up to the factor n that choi carries
    norms = np.linalg.norm(pairs.reshape(len(pairs), 2, -1), axis=2)
    return float(np.sum(norms[:, 0] * norms[:, 1]))


def _assert_same_operators(n, p, q, rep, c):
    phi, psi = PairSumMap(n, p), PairSumMap(n, q)
    scale = n * (1.0 + max(_size(p), _size(q))) * (1.0 + np.linalg.norm(c))
    for f in (lambda m: dual_choi(m, rep), choi, transfer, lambda m: apply_map(m, c)):
        assert np.max(np.abs(f(phi) - f(psi))) <= RTOL * scale


@PROPERTY_SETTINGS
@given(pair_sums(), arrays(np.complex128, (4, 4), elements=ENTRIES))
def test_splitting_and_merging_a_term_keeps_the_operators(case, part):
    n, pairs, rep, c = case
    a1 = part[:n, :n]
    a, b = pairs[0]
    split = np.concatenate((pairs[1:], [(a1, b), (a - a1, b)]))
    merged = np.concatenate((pairs[1:], [(a1 + (a - a1), b)]))
    _assert_same_operators(n, pairs, split, rep, c)
    _assert_same_operators(n, split, merged, rep, c)


@PROPERTY_SETTINGS
@given(pair_sums(), st.randoms(use_true_random=False))
def test_reordering_terms_keeps_the_operators(case, random):
    n, pairs, rep, c = case
    order = list(range(len(pairs)))
    random.shuffle(order)
    _assert_same_operators(n, pairs, pairs[order], rep, c)


@PROPERTY_SETTINGS
@given(pair_sums(), st.floats(0.25, 4.0), st.floats(0.0, 2.0 * np.pi))
def test_rescaling_a_pair_keeps_the_operators(case, radius, angle):
    n, pairs, rep, c = case
    z = radius * np.exp(1j * angle)
    rescaled = pairs.copy()
    rescaled[:, 0] *= z
    rescaled[:, 1] /= z
    _assert_same_operators(n, pairs, rescaled, rep, c)


@PROPERTY_SETTINGS
@given(pair_sums(max_terms=3), arrays(np.complex128, (3, 2, 4, 4), elements=ENTRIES))
def test_element_product_materializes_to_the_matrix_product(case, more):
    n, pairs, rep, _ = case
    e1, e2 = PairSumElement(rep, pairs), PairSumElement(rep, more[:, :, :n, :n])
    m1, m2 = materialize(e1), materialize(e2)
    got = materialize(element_product(e1, e2))
    scale = n * n * (1.0 + _size(pairs)) * (1.0 + _size(more))
    assert np.max(np.abs(got - m1 @ m2)) <= RTOL * scale


@PROPERTY_SETTINGS
@given(pair_sums())
def test_element_adjoint_materializes_to_the_conjugate_transpose(case):
    n, pairs, rep, _ = case
    e = PairSumElement(rep, pairs)
    got = materialize(element_adjoint(e))
    assert np.max(np.abs(got - np.conj(materialize(e)).T)) <= RTOL * (1.0 + _size(pairs))


@PROPERTY_SETTINGS
@given(pair_sums())
def test_adjoint_map_is_an_involution(case):
    n, pairs, _, _ = case
    twice = adjoint_map(adjoint_map(PairSumMap(n, pairs)))
    assert np.array_equal(np.array(twice.terms), pairs)


def _kraus_pairs(pairs):
    # the completely positive map C -> sum_i A_i* C A_i of the A sides
    a = pairs[:, 0]
    return np.stack((np.conj(a).swapaxes(1, 2), a), axis=1)


@PROPERTY_SETTINGS
@given(pair_sums())
def test_kraus_operators_rebuild_the_transfer_matrix(case):
    n, pairs, rep, _ = case
    phi = PairSumMap(n, _kraus_pairs(pairs))
    kd = kraus_decompose(phi, rep)
    v = np.array(kd.ops, dtype=np.complex128).reshape(-1, n, n)
    rebuilt = PairSumMap(n, np.stack((np.conj(v).swapaxes(1, 2), v), axis=1))
    # an operator V_j = sqrt(c_j) S_j has omega(S_j* S_j) = 1, so |S_j|^2 is at
    # most 1 / min(w); the eigenvalues dropped at tol = 1e-9 and the
    # eigensolver's rounding, relative to sum |A_i|^2, pass through it
    size = float(np.sum(np.abs(pairs[:, 0]) ** 2))
    bound = n**3 * (1e-9 + RTOL * (1.0 + size)) / float(np.min(rep.weights))
    assert np.max(np.abs(transfer(rebuilt) - transfer(phi))) <= bound


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cp_verdict(phi, rep):
    try:
        return check_cp(phi, rep=rep).cp
    except InternalDisagreement as exc:
        return exc.report.cp


@PROPERTY_SETTINGS
@given(pair_sums(), st.booleans(), st.integers(0, 2**32 - 1))
def test_cp_verdict_ignores_a_unitary_change_of_basis(case, kraus, seed):
    # C -> U* phi(W C W*) U has the pairs (U* A_i W, W* B_i U), and its Choi
    # matrix is unitarily similar to phi's
    n, pairs, rep, _ = case
    if kraus:
        pairs = _kraus_pairs(pairs)
    rng = np.random.default_rng(seed)
    u, w = _unitary(rng, n), _unitary(rng, n)
    a = np.conj(u).T @ pairs[:, 0] @ w
    b = np.conj(w).T @ pairs[:, 1] @ u
    turned = PairSumMap(n, np.stack((a, b), axis=1))
    assert _cp_verdict(turned, rep) == _cp_verdict(PairSumMap(n, pairs), rep)
