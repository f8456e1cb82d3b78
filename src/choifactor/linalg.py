"""Dense complex linear algebra helpers with deterministic conventions.

All routines work on numpy arrays of dtype complex128 and are sized for
small dimensions (products of matrix dimensions up to a few dozen).

One Hermiticity rule serves the whole package: m counts as Hermitian
within tol when max |m - m*| is not above tol * max(1, opnorm(m)), and
what is then tested or diagonalized is its Hermitian part (m + m*)/2.
hermitian_part applies the rule and psd_within adds the test that the
Hermitian part's lowest eigenvalue is >= -tol.

Each numerical primitive has one implementation here, which every module
calls: the Hermitian split (m + m*)/2 with max |m - m*|, the finiteness
guard ahead of every LAPACK call, the eigensolver entry, the cut of a
sorted spectrum into clusters, modified Gram-Schmidt, least squares and
an orthonormal basis of a matrix's range.
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


def _require_finite(action: str, *arrays: np.ndarray) -> None:
    # LAPACK given an inf or NaN entry prints to stdout, fails or returns
    # made-up numbers, so every call into it is guarded here first
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalFailure(f"cannot {action}: entries out of floating point range")


def _check_tol(tol: float) -> None:
    # a tolerance is a finite number >= 0, as the command line's --tol
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def opnorm(m) -> float:
    """Operator (spectral) norm. An entry that is not a finite number raises
    NumericalFailure: LAPACK's SVD would print to stdout and then fail."""
    m = as_complex(m)
    if m.size == 0:
        return 0.0
    _require_finite("take the operator norm", m)
    return float(np.linalg.norm(m, 2))


def _hermitian_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (m + m*)/2 and max |m - m*| over the last two axes, for one matrix or
    # a stack of them
    adj = dagger(m)
    return (m + adj) / 2.0, np.max(np.abs(m - adj), axis=(-2, -1), initial=0.0)


def hermiticity_defect(m) -> float:
    """Entrywise max of |m - m*|."""
    return float(_hermitian_split(as_complex(m))[1])


def scaled_tol(x: float, tol: float, m) -> float:
    """A threshold that a defect x >= 0 compares with as with the full
    threshold tol * max(1, opnorm(m)).

    When x is not above tol (a NaN is above no threshold) the scale cannot
    change the comparison, so tol itself is returned. When x is above
    tol * max(1, ||m||_F), an upper bound on the full threshold since
    ||m||_F >= opnorm(m), that bound is returned. Only in between does the
    SVD behind opnorm run; a Frobenius norm that is not finite bounds
    nothing and leaves the comparison to it.
    """
    if not x > tol:
        return tol
    # widened by far more than the rounding of either norm
    with np.errstate(over="ignore"):
        upper = tol * max(1.0, float(np.linalg.norm(m)) * (1.0 + 1e-10))
    return upper if x > upper else tol * max(1.0, opnorm(m))


def hermitian_part(m, tol: float) -> tuple[np.ndarray, float, bool]:
    """(m + m*)/2, the defect max |m - m*|, and whether the defect is
    within tol * max(1, opnorm(m)); the SVD runs only when the defect lies
    between tol and scaled_tol's Frobenius bound tol * max(1, ||m||_F)."""
    m = as_complex(m)
    herm, defect = _hermitian_split(m)
    defect = float(defect)
    return herm, defect, not defect > scaled_tol(defect, tol, m)


def psd_within(m, tol: float) -> tuple[bool, float]:
    """Whether m is Hermitian and psd within tol, and the lowest eigenvalue
    of its Hermitian part. Raises NumericalFailure on an entry that is not
    a finite number."""
    return _psd_split(m, tol)[:2]


def _psd_split(m, tol: float) -> tuple[bool, float, float]:
    # psd_within's verdict and lowest eigenvalue, plus the defect
    # max |m - m*| of the one Hermitian split both are read from
    herm, defect, hermitian = hermitian_part(m, tol)
    _require_finite("diagonalize", herm)
    low = float(np.linalg.eigvalsh(herm)[0])
    return hermitian and low >= -tol, low, defect


def matrix_units(n: int) -> np.ndarray:
    """The matrix units e_ij of M_n, stacked at index i*n + j."""
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


def leg_swap(n: int) -> np.ndarray:
    """Unitary exchanging the two tensor legs of C^n (x) C^n."""
    return matrix_units(n).transpose(0, 2, 1).reshape(n * n, n * n)


def canonical_phase(v: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Rotate a global phase so the first entry above tol is real positive, in
    v or in each column of a matrix v; one with no entry above tol is left as it is."""
    v = as_complex(v).copy()
    cols = v if v.ndim == 2 else v[:, None]
    big = np.abs(cols) > tol
    some = np.flatnonzero(np.any(big, axis=0))
    if some.size:
        pivot = cols[np.argmax(big[:, some], axis=0), some]
        # hypot is what abs() of one complex number computes
        cols[:, some] *= np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    return v


def _gram_schmidt(vectors: np.ndarray, floors: np.ndarray,
                  stop: int | None = None) -> tuple[list[int], list[np.ndarray]]:
    # Modified Gram-Schmidt over the rows in index order: row i is kept when
    # its residual is longer than floors[i], until `stop` rows are kept.
    # Returns the kept indices and their orthonormal vectors.
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for i, resid in enumerate(vectors.copy()):
        if len(basis) == stop:
            break
        for q in basis:
            resid -= q * np.vdot(q, resid)
        nrm = np.linalg.norm(resid)
        if nrm > floors[i]:
            kept.append(i)
            basis.append(resid / nrm)
    return kept, basis


def _descending_eigh(herm: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    # eigh of a Hermitian part its caller has made, eigenvalues descending,
    # plus the cluster scale max(1, max |eigenvalue|); NumericalFailure on an
    # entry that is not a finite number
    _require_finite("diagonalize", herm)
    w, v = np.linalg.eigh(herm)
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    return w[::-1].copy(), v[:, ::-1].copy(), scale


def _cluster_starts(values: np.ndarray, gap: float) -> np.ndarray:
    # Where each run of sorted values whose neighbours are at most gap apart
    # begins; a NaN cuts, and no values give no runs.
    return np.flatnonzero(np.concatenate(([len(values) > 0], ~(np.abs(np.diff(values)) <= gap))))


def _cluster_runs(values: np.ndarray, gap: float) -> list[np.ndarray]:
    # The index runs of _cluster_starts, in order.
    starts = _cluster_starts(values, gap)
    return np.split(np.arange(len(values)), starts[1:]) if len(starts) else []


def _canonicalize(w: np.ndarray, v: np.ndarray, scale: float, above: float | None = None) -> None:
    # In place: a canonical basis inside each (near-)degenerate cluster and a
    # canonical phase on each of its columns, for every cluster, or with
    # `above` only for those whose largest eigenvalue is not <= above (a NaN
    # is kept, as by a caller keeping the columns with not c <= above).
    # Clusters are cut over all of w either way, so a column's bits do not
    # depend on `above`; a dropped cluster is never built.
    starts = _cluster_starts(w, _CLUSTER_RTOL * scale)
    sizes = np.diff(np.append(starts, len(w)))
    keep = np.ones(len(starts), dtype=bool) if above is None else ~(w[starts] <= above)
    multi = keep & (sizes > 1)
    for start, size in zip(starts[multi].tolist(), sizes[multi].tolist()):
        # project the standard basis vectors onto the span and orthonormalize
        # them in index order: the result depends only on the span, not on
        # the basis eigh returned
        run = np.arange(start, start + size)
        cols = v[:, run]
        _, basis = _gram_schmidt((cols @ dagger(cols)).T, np.full(len(v), 1e-6), size)
        if len(basis) == size:  # fewer cannot happen for a genuine projection
            v[:, run] = np.stack(basis, axis=1)
    kept = np.repeat(keep, sizes)
    v[:, kept] = canonical_phase(v[:, kept])


def hermitian_eig(m, tol: float = TOL_ALG) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns. Degenerate eigenspaces get a
    canonical basis and every column a canonical phase, so equal inputs give
    bitwise equal outputs. Raises NotHermitian if max |m - m*| exceeds
    tol * max(1, opnorm(m)), and NumericalFailure on an entry that is not a
    finite number.
    """
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    herm, defect, hermitian = hermitian_part(m, tol)
    if not hermitian:
        bound = tol * max(1.0, opnorm(m))
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {bound:.3e}")
    w, v, scale = _descending_eigh(herm)
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
    a = np.stack(cols, axis=1)
    _require_finite("solve least squares", a, v)
    coeffs, *_ = np.linalg.lstsq(a, v, rcond=None)
    residual = float(np.linalg.norm(v - a @ coeffs))
    if residual > bound:
        raise NotInSpan(residual)
    return coeffs


def _range_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a: the left singular vectors of a
    thin SVD with singular values above max(a.shape) * eps * sigma_0, the
    rank cut of lstsq(rcond=None). NumericalFailure on a non-finite entry."""
    _require_finite("take a range basis", a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > max(a.shape) * np.finfo(np.float64).eps * s[:1]]
