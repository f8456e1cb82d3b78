import numpy as np
import pytest

from choifactor import DimensionMismatch, NotHermitian, NotInSpan, linalg
from choifactor.linalg import (
    _canonicalize,
    canonical_phase,
    hermitian_eig,
    hermitian_part,
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


def test_span_coeffs_solves_every_column_and_reports_the_first_missed():
    basis = np.eye(3)[:, :2]
    inside = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    assert np.allclose(linalg._span_coeffs(basis, inside, 1e-10), inside[:2])
    targets = np.stack([inside[:, 0], 2.0 * np.eye(3)[:, 2], np.eye(3)[:, 2]], axis=1)
    with pytest.raises(NotInSpan) as exc:
        linalg._span_coeffs(basis, targets, 1e-10)
    assert abs(exc.value.residual - 2.0) < 1e-12


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


def _counting_opnorm(monkeypatch):
    calls = []
    norm = linalg.opnorm

    def counting(m):
        calls.append(1)
        return norm(m)

    monkeypatch.setattr(linalg, "opnorm", counting)
    return calls


def test_hermitian_part_verdict_matches_the_full_threshold(monkeypatch):
    # tol placed just below, at and above the defect and the defect / ||m||,
    # for ||m|| above and below 1
    rng = np.random.default_rng(41)
    calls = _counting_opnorm(monkeypatch)
    for m in (5.0 * cgauss(rng, 4, 4), 0.1 * cgauss(rng, 4, 4),
              random_hermitian(rng, 4) + 1e-9 * cgauss(rng, 4, 4)):
        defect = float(np.max(np.abs(m - m.conj().T)))
        norm = np.linalg.norm(m, 2)
        for edge in (defect, defect / max(1.0, norm)):
            for tol in (edge * (1 - 1e-12), edge, edge * (1 + 1e-12)):
                calls.clear()
                herm, got_defect, within = hermitian_part(m, tol)
                assert np.array_equal(herm, (m + m.conj().T) / 2.0)
                assert got_defect == defect
                assert within == (not defect > tol * max(1.0, norm))
                assert len(calls) == (defect > tol)


def test_hermitian_eig_takes_no_svd_of_hermitian_input(monkeypatch):
    rng = np.random.default_rng(43)
    calls = _counting_opnorm(monkeypatch)
    for m in (random_hermitian(rng, 9), 40.0 * random_hermitian(rng, 16), SWAP):
        hermitian_eig(m)
    assert calls == []


def _hermitian_eig_reference(m, tol=1e-10):
    # eigh of the Hermitian part, with the cluster scale taken from opnorm
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    _canonicalize(w, v, max(1.0, opnorm(m)))
    return w, v


def test_hermitian_eig_degenerate_clusters_match_the_opnorm_scale():
    rng = np.random.default_rng(47)
    for spectrum in ([5.0] * 3 + [-3.0] * 2 + [2.0], [30.0] * 4 + [0.0] * 12, [-7.0] * 8 + [7.0]):
        q, _ = np.linalg.qr(cgauss(rng, len(spectrum), len(spectrum)))
        m = (q * spectrum) @ q.conj().T
        m = (m + m.conj().T) / 2.0
        assert np.linalg.norm(m, 2) > 1.0
        want_w, want_v = _hermitian_eig_reference(m)
        got_w, got_v = hermitian_eig(m)
        assert np.array_equal(got_w, want_w)
        assert np.array_equal(got_v, want_v)
    for m in (3.0 * SWAP, 2.5 * np.kron(np.eye(3), SX)):
        assert all(np.array_equal(g, w) for g, w in zip(hermitian_eig(m), _hermitian_eig_reference(m)))
