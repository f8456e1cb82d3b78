"""Dense complex linear algebra helpers with deterministic conventions.

All routines work on numpy arrays of dtype complex128 and are sized for
small dimensions (products of matrix dimensions up to a few dozen).

One Hermiticity rule serves the whole package: m counts as Hermitian
within tol when max |m - m*| is not above tol * max(1, opnorm(m)), and
what is then tested or diagonalized is its Hermitian part (m + m*)/2.
hermitian_part applies the rule and psd_within adds the test that the
Hermitian part's lowest eigenvalue is >= -tol.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotInSpan, NumericalFailure

# Default relative tolerance for algebraic identities at double precision.
TOL_ALG = 1e-10

# Eigenvalues closer than this (relative to the matrix norm) are treated as
# one eigenspace when choosing a canonical basis.
_CLUSTER_RTOL = 1e-12


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(as_complex(m)).swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Kronecker product, first argument on the slow (left) index."""
    return np.kron(as_complex(a), as_complex(b))


def opnorm(m) -> float:
    """Operator (spectral) norm. An entry that is not a finite number raises
    NumericalFailure: LAPACK's SVD would print to stdout and then fail."""
    m = as_complex(m)
    if m.size == 0:
        return 0.0
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("cannot take the operator norm: entries out of floating point range")
    return float(np.linalg.norm(m, 2))


def hermiticity_defect(m) -> float:
    """Entrywise max of |m - m*|."""
    m = as_complex(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def scaled_tol(x: float, tol: float, m) -> float:
    """The threshold tol * max(1, opnorm(m)) that a defect x >= 0 is held to.

    When x is not above tol (a NaN is above no threshold) the scale cannot
    change the comparison, so tol itself is returned and the SVD behind
    opnorm is skipped; x compares with the result as with the full threshold.
    """
    return tol if not x > tol else tol * max(1.0, opnorm(m))


def hermitian_part(m, tol: float) -> tuple[np.ndarray, float, bool]:
    """(m + m*)/2, the defect max |m - m*|, and whether the defect is
    within tol * max(1, opnorm(m)); the SVD runs only when defect > tol."""
    m = as_complex(m)
    defect = hermiticity_defect(m)
    return (m + dagger(m)) / 2.0, defect, not defect > scaled_tol(defect, tol, m)


def psd_within(m, tol: float) -> tuple[bool, float]:
    """Whether m is Hermitian and psd within tol, and the lowest eigenvalue
    of its Hermitian part."""
    herm, _, hermitian = hermitian_part(m, tol)
    low = float(np.linalg.eigvalsh(herm)[0])
    return hermitian and low >= -tol, low


def matrix_units(n: int) -> np.ndarray:
    """The matrix units e_ij of M_n, stacked at index i*n + j."""
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


def leg_swap(n: int) -> np.ndarray:
    """Unitary exchanging the two tensor legs of C^n (x) C^n."""
    return matrix_units(n).transpose(0, 2, 1).reshape(n * n, n * n)


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


def _descending_eigh(m, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    # eigh of the Hermitian part, eigenvalues descending, plus the cluster
    # scale max(1, max |eigenvalue|)
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    herm, defect, hermitian = hermitian_part(m, tol)
    if not hermitian:
        bound = tol * max(1.0, opnorm(m))
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {bound:.3e}")
    w, v = np.linalg.eigh(herm)
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    return w[::-1].copy(), v[:, ::-1].copy(), scale


def _canonicalize(w: np.ndarray, v: np.ndarray, scale: float, above: float | None = None) -> None:
    # In place: a canonical basis inside each (near-)degenerate cluster and a
    # canonical phase on each of its columns, for every cluster, or with
    # `above` only for those whose largest eigenvalue is not <= above (a NaN
    # is kept, as by a caller keeping the columns with not c <= above).
    # Clusters are cut over all of w either way, so a column's bits do not
    # depend on `above`.
    i = 0
    k = len(w)
    while i < k:
        j = i + 1
        while j < k and abs(w[j - 1] - w[j]) <= _CLUSTER_RTOL * scale:
            j += 1
        if above is None or not w[i] <= above:
            if j - i > 1:
                v[:, i:j] = _canonical_span_basis(v[:, i:j])
            for c in range(i, j):
                v[:, c] = canonical_phase(v[:, c])
        i = j


def hermitian_eig(m, tol: float = TOL_ALG) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns. Degenerate eigenspaces get a
    canonical basis and every column a canonical phase, so equal inputs give
    bitwise equal outputs. Raises NotHermitian if max |m - m*| exceeds
    tol * max(1, opnorm(m)).
    """
    w, v, scale = _descending_eigh(m, tol)
    _canonicalize(w, v, scale)
    return w, v


def subspace_coeffs(v, basis, tol: float = TOL_ALG) -> np.ndarray:
    """Coefficients expressing v in span(basis), least squares.

    basis is a sequence of equal-length vectors. Raises NotInSpan (carrying
    the residual) when the best approximation misses v by more than
    tol * max(1, |v|), DimensionMismatch on inconsistent lengths, and
    NumericalFailure, as opnorm does, on an entry that is not a finite number.
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
    return _span_coeffs(np.stack(cols, axis=1), v[:, None], tol)[:, 0]


def _span_coeffs(a: np.ndarray, vs: np.ndarray, tol: float) -> np.ndarray:
    # Least-squares coefficients of every column of vs over the columns of
    # a, from one factorization of a. Raises NotInSpan with the residual of
    # the first column that its best approximation misses by more than
    # tol * max(1, |column|), and NumericalFailure on an entry that is not a
    # finite number.
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(vs))):
        raise NumericalFailure("cannot solve least squares: entries out of floating point range")
    coeffs, *_ = np.linalg.lstsq(a, vs, rcond=None)
    residuals = np.linalg.norm(vs - a @ coeffs, axis=0)
    missed = np.flatnonzero(residuals > tol * np.maximum(1.0, np.linalg.norm(vs, axis=0)))
    if missed.size:
        raise NotInSpan(float(residuals[missed[0]]))
    return coeffs
