import numpy as np
import pytest

from choifactor import DimensionMismatch, NotHermitian, NotInSpan
from choifactor.linalg import (
    canonical_phase,
    hermitian_eig,
    kron,
    leg_swap,
    opnorm,
    scaled_tol,
    subspace_coeffs,
)
from helpers import cgauss, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_kron_on_basis_vectors():
    e1 = np.array([1, 0], dtype=complex)
    e2 = np.array([0, 1], dtype=complex)
    out = kron(SX, SX) @ np.kron(e1, e1)
    assert np.allclose(out, np.kron(e2, e2))


def test_kron_identity_sides():
    a = cgauss(np.random.default_rng(3), 2, 2)
    assert np.allclose(kron(np.eye(2), a)[0:2, 0:2], a)
    assert np.allclose(kron(a, np.eye(2))[0:2, 0:2], a[0, 0] * np.eye(2))


def test_kron_mixed_product():
    rng = np.random.default_rng(7)
    a, b, c, d = (cgauss(rng, 3, 3) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_leg_swap_transposes_vec():
    rng = np.random.default_rng(11)
    m = cgauss(rng, 3, 3)
    w = leg_swap(3)
    assert np.allclose(w @ m.reshape(-1), m.T.reshape(-1))
    assert np.allclose(w @ w, np.eye(9))


def test_hermitian_eig_identity():
    evals, evecs = hermitian_eig(np.eye(4))
    assert np.allclose(evals, 1.0)
    assert np.abs(evecs @ evecs.conj().T - np.eye(4)).max() < 1e-12


def test_hermitian_eig_pauli_x():
    evals, _ = hermitian_eig(SX)
    assert np.allclose(evals, [1.0, -1.0])


def test_hermitian_eig_swap_spectrum():
    # involutive permutation with trace 2: three +1, one -1
    evals, evecs = hermitian_eig(SWAP)
    assert np.allclose(evals, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    rebuilt = (evecs * evals) @ evecs.conj().T
    assert np.abs(rebuilt - SWAP).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 6, 16, 36])
def test_hermitian_eig_reconstruction(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(5):
        m = random_hermitian(rng, dim)
        evals, evecs = hermitian_eig(m)
        rebuilt = (evecs * evals) @ evecs.conj().T
        scale = np.linalg.norm(m, 2)
        assert np.abs(rebuilt - m).max() <= 1e-10 * max(1.0, scale)
        assert np.abs(evecs.conj().T @ evecs - np.eye(dim)).max() < 1e-10
        assert np.all(np.diff(evals) <= 1e-12)


def test_hermitian_eig_deterministic_on_degenerate():
    evals1, evecs1 = hermitian_eig(SWAP)
    evals2, evecs2 = hermitian_eig(SWAP.copy())
    assert np.array_equal(evals1, evals2)
    assert np.array_equal(evecs1, evecs2)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


def test_canonical_phase():
    v = np.array([0, 1j, 1], dtype=complex)
    out = canonical_phase(v)
    assert out[1].real > 0 and abs(out[1].imag) < 1e-15
    assert np.allclose(np.abs(out), np.abs(v))


def test_subspace_coeffs_picks_basis_vector():
    basis = [np.eye(3)[:, i] for i in range(2)]
    coeffs = subspace_coeffs(basis[0], basis)
    assert np.allclose(coeffs, [1.0, 0.0])


def test_subspace_coeffs_zero_vector():
    basis = [np.eye(3)[:, i] for i in range(2)]
    assert np.allclose(subspace_coeffs(np.zeros(3), basis), 0.0)


def test_subspace_coeffs_outside_span():
    basis = [np.eye(3)[:, 0]]
    with pytest.raises(NotInSpan) as exc:
        subspace_coeffs(np.eye(3)[:, 2], basis)
    assert abs(exc.value.residual - 1.0) < 1e-12


def test_subspace_coeffs_roundtrip():
    rng = np.random.default_rng(5)
    basis = [cgauss(rng, 8) for _ in range(4)]
    c = cgauss(rng, 4)
    v = sum(ci * bi for ci, bi in zip(c, basis))
    got = subspace_coeffs(v, basis)
    rebuilt = sum(gi * bi for gi, bi in zip(got, basis))
    assert np.abs(rebuilt - v).max() < 1e-10


def test_subspace_coeffs_length_mismatch():
    with pytest.raises(DimensionMismatch):
        subspace_coeffs(np.zeros(3), [np.zeros(4)])


@pytest.mark.parametrize("tol", [1e-9, 0.0, -1e-9])
def test_scaled_tol_compares_like_the_full_threshold(tol):
    rng = np.random.default_rng(31)
    for m in (5.0 * cgauss(rng, 4, 4), 0.1 * cgauss(rng, 4, 4)):
        full = tol * max(1.0, opnorm(m))
        for x in (0.0, 1e-10, 1e-9, 2e-9, 1e-8, 1.0, float("nan")):
            lazy = scaled_tol(x, tol, m)
            assert (x <= lazy) == (x <= full)
            assert (x > lazy) == (x > full)
