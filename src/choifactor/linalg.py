"""Dense complex linear algebra helpers with deterministic conventions.

All routines work on numpy arrays of dtype complex128 and are sized for
small dimensions (products of matrix dimensions up to a few dozen).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotInSpan

# Default relative tolerance for algebraic identities at double precision.
TOL_ALG = 1e-10

# Eigenvalues closer than this (relative to the matrix norm) are treated as
# one eigenspace when choosing a canonical basis.
_CLUSTER_RTOL = 1e-12


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(as_complex(m)).T


def kron(a, b) -> np.ndarray:
    """Kronecker product, first argument on the slow (left) index."""
    return np.kron(as_complex(a), as_complex(b))


def opnorm(m) -> float:
    """Operator (spectral) norm."""
    m = as_complex(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermiticity_defect(m) -> float:
    """Entrywise max of |m - m*|."""
    m = as_complex(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def scaled_tol(x: float, tol: float, m) -> float:
    """The threshold tol * max(1, opnorm(m)) that a defect x >= 0 is held to.

    When x <= tol the scale cannot change the comparison, so tol itself is
    returned and the SVD behind opnorm is skipped; x compares with the
    result exactly as with the full threshold, NaN included.
    """
    return tol if x <= tol else tol * max(1.0, opnorm(m))


def leg_swap(n: int) -> np.ndarray:
    """Unitary exchanging the two tensor legs of C^n (x) C^n."""
    w = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for k in range(n):
            w[i * n + k, k * n + i] = 1.0
    return w


def canonical_phase(v: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Rotate a global phase so the first entry above tol is real positive."""
    v = as_complex(v).copy()
    big = np.abs(v) > tol
    if not np.any(big):
        return v
    pivot = v[int(np.argmax(big))]
    v *= np.conj(pivot) / abs(pivot)
    return v


def _canonical_span_basis(cols: np.ndarray) -> np.ndarray:
    # Replace an arbitrary orthonormal basis of a subspace by the one obtained
    # from projecting standard basis vectors, orthonormalized in index order.
    # Depends only on the subspace, not on the basis the eigensolver returned.
    d, m = cols.shape
    proj = cols @ dagger(cols)
    out: list[np.ndarray] = []
    for i in range(d):
        cand = proj[:, i].copy()
        for q in out:
            cand -= q * np.vdot(q, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            out.append(cand / nrm)
        if len(out) == m:
            break
    if len(out) < m:  # cannot happen for a genuine rank-m projection
        return cols
    return np.stack(out, axis=1)


def hermitian_eig(m, tol: float = TOL_ALG) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns. Degenerate eigenspaces get a
    canonical basis and every column a canonical phase, so equal inputs give
    bitwise equal outputs. Raises NotHermitian if max |m - m*| exceeds
    tol * max(1, opnorm(m)).
    """
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, opnorm(m))
    defect = hermiticity_defect(m)
    if defect > tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol * scale:.3e}")
    h = (m + dagger(m)) / 2.0
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # canonical basis inside each (near-)degenerate cluster
    i = 0
    k = len(w)
    while i < k:
        j = i + 1
        while j < k and abs(w[j - 1] - w[j]) <= _CLUSTER_RTOL * scale:
            j += 1
        if j - i > 1:
            v[:, i:j] = _canonical_span_basis(v[:, i:j])
        i = j
    for c in range(k):
        v[:, c] = canonical_phase(v[:, c])
    return w, v


def subspace_coeffs(v, basis, tol: float = TOL_ALG) -> np.ndarray:
    """Coefficients expressing v in span(basis), least squares.

    basis is a sequence of equal-length vectors. Raises NotInSpan (carrying
    the residual) when the best approximation misses v by more than
    tol * max(1, |v|), and DimensionMismatch on inconsistent lengths.
    """
    v = as_complex(v).reshape(-1)
    cols = [as_complex(b).reshape(-1) for b in basis]
    for b in cols:
        if b.shape != v.shape:
            raise DimensionMismatch("basis vector length differs from target")
    vnorm = float(np.linalg.norm(v))
    bound = tol * max(1.0, vnorm)
    if not cols:
        if vnorm <= bound:
            return np.zeros(0, dtype=np.complex128)
        raise NotInSpan(vnorm)
    a = np.stack(cols, axis=1)
    coeffs, *_ = np.linalg.lstsq(a, v, rcond=None)
    residual = float(np.linalg.norm(v - a @ coeffs))
    if residual > bound:
        raise NotInSpan(residual)
    return coeffs
