"""The *-algebra of finite-rank operators around the state projection.

An element sum_i (1 (x) A_i) E (1 (x) B_i), where E projects onto the
standard vector, is kept symbolically by its coefficient pairs (A_i, B_i).
frozen_terms stores them as two read-only (k, n, n) stacks a and b, for
elements here and for the pair-sum maps of maps.py alike, so every
operation acts on all terms at once as one array product. Because E has
rank one, products collapse by (A E B)(C E D) = omega(B C) A E D with
omega the vector state, so the symbolic calculus never leaves this form.
Materialization to a dense n^2 by n^2 matrix is explicit and one-way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAProjection,
    NotHermitian,
    NotInSpan,
    NotRankOneProjection,
    NotSelfAdjoint,
    RepMismatch,
    ZeroProjection,
)
from .factor import (
    FactorRep,
    apply_factor_to_state,
    implementer_from_vector,
    vector_state,
)
from .linalg import (TOL_ALG, _canonicalize, _cluster_runs, _descending_eigh, _gram_schmidt,
                     _range_basis, dagger, hermitian_eig, hermitian_part, matrix_units, opnorm,
                     subspace_coeffs)

# Relative gap below which kept eigenvalues share one spectral projection.
_SPECTRAL_CLUSTER_RTOL = 1e-8


def frozen_terms(n: int, terms) -> tuple[np.ndarray, np.ndarray]:
    """Validated read-only C-contiguous (k, n, n) stacks a and b of the
    coefficient pairs (A_i, B_i) in M_n, from a sequence of pairs (an array
    of shape (k, 2, n, n) is taken whole). Raises DimensionMismatch on a
    wrong shape and ValueError on a NaN or infinite entry.
    """
    if not (isinstance(terms, np.ndarray) and terms.shape[1:] == (2, n, n)):
        terms = list(terms)
        for a, b in terms:
            if np.shape(a) != (n, n) or np.shape(b) != (n, n):
                raise DimensionMismatch(
                    f"term matrices must be {n}x{n}, got {np.shape(a)} and {np.shape(b)}"
                )
    stacks = np.asarray(terms, dtype=np.complex128).reshape(-1, 2, n, n).swapaxes(0, 1).copy()
    if not np.all(np.isfinite(stacks)):
        raise ValueError("term matrices must have finite entries")
    stacks.setflags(write=False)
    return stacks[0], stacks[1]


class TermStacks:
    """Coefficient pairs (A_i, B_i) kept as the stacks a and b of frozen_terms."""

    def __init__(self, n: int, terms):
        a, b = frozen_terms(n, terms)
        # the subclasses are frozen dataclasses
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def terms(self) -> tuple:
        """The pairs (A_i, B_i), as read-only views into a and b."""
        return tuple(zip(self.a, self.b))

    def __len__(self) -> int:
        return len(self.a)


@dataclass(frozen=True, eq=False, init=False)
class PairSumElement(TermStacks):
    """sum_i (1 (x) A_i) E (1 (x) B_i) over a fixed rep."""

    rep: FactorRep

    def __init__(self, rep: FactorRep, terms):
        super().__init__(rep.n, terms)
        object.__setattr__(self, "rep", rep)


def zero_element(rep: FactorRep) -> PairSumElement:
    return PairSumElement(rep, ())


def identity_element(rep: FactorRep) -> PairSumElement:
    """The identity of B(H), which is finite rank here, as an element."""
    # term k*n + l is (S, S*) with S = e_lk / sqrt(w_k)
    scales = np.sqrt(np.repeat(rep.weights, rep.n))[:, None, None]
    ss = matrix_units(rep.n).transpose(0, 2, 1) / scales
    return PairSumElement(rep, np.stack((ss, dagger(ss)), axis=1))


def _check_same_rep(e1: PairSumElement, e2: PairSumElement) -> None:
    if not e1.rep.same_as(e2.rep):
        raise RepMismatch("elements live over different factor representations")


def element_adjoint(e: PairSumElement) -> PairSumElement:
    """Termwise (A E B)* = B* E A*."""
    return PairSumElement(e.rep, np.stack((dagger(e.b), dagger(e.a)), axis=1))


def element_product(e1: PairSumElement, e2: PairSumElement) -> PairSumElement:
    """Collapse (A E B)(C E D) = omega(B C) A E D over all term pairs; the
    pair (i, j) gives term i * len(e2) + j."""
    _check_same_rep(e1, e2)
    a = vector_state(e1.rep, e1.b[:, None] @ e2.a)[:, :, None, None] * e1.a[:, None]
    pairs = np.stack((a, np.broadcast_to(e2.b, a.shape)), axis=2)
    return PairSumElement(e1.rep, pairs.reshape(-1, 2, e1.rep.n, e1.rep.n))


def element_scale(e: PairSumElement, z: complex) -> PairSumElement:
    return PairSumElement(e.rep, np.stack((z * e.a, e.b), axis=1))


def element_add(e1: PairSumElement, e2: PairSumElement) -> PairSumElement:
    _check_same_rep(e1, e2)
    a = np.concatenate((e1.a, e2.a))
    return PairSumElement(e1.rep, np.stack((a, np.concatenate((e1.b, e2.b))), axis=1))


def _frames(rep: FactorRep, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row i: the rank-one operator |(1(x)A_i)x><(1(x)B_i*)x|, flattened, with
    # -0 entries made +0 as in a sum that starts from zero
    left = apply_factor_to_state(rep, a)
    right = np.conj(apply_factor_to_state(rep, dagger(b)))
    frames = (left[:, :, None] * right[:, None, :]).reshape(len(a), left.shape[1] ** 2)
    return np.add(frames, 0.0, out=frames)


def state_sum(rep: FactorRep, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense n^2 by n^2 matrix of sum_i (1 (x) A_i) E (1 (x) B_i) over rep,
    for stacks a and b of shape (k, n, n).

    The terms are added in index order, as a sum over the term axis does: a
    matmul over that axis sums in another order and changes the last digits
    of the golden outputs.
    """
    return _frames(rep, a, b).sum(axis=0).reshape(rep.n**2, rep.n**2)


def materialize(e: PairSumElement) -> np.ndarray:
    """Dense n^2 by n^2 matrix of the element."""
    return state_sum(e.rep, e.a, e.b)


def compress(e: PairSumElement, tol: float = TOL_ALG) -> PairSumElement:
    """Shorter element with the same materialization.

    Greedily keeps a maximal independent subset of the term frames (index
    order) and folds least-squares coefficients for the whole sum into the
    kept A sides. Never applied implicitly by the other operations.
    """
    frames = _frames(e.rep, e.a, e.b)
    total = np.sum(frames, axis=0)
    # a frame of norm <= 1e-14 is never kept
    fnorms = np.array([np.linalg.norm(f) for f in frames])
    kept, _ = _gram_schmidt(frames, np.where(fnorms <= 1e-14, np.inf, max(tol, 1e-12) * fnorms))
    if not kept:
        return zero_element(e.rep)
    coeffs = subspace_coeffs(total, frames[kept], tol=max(tol, 1e-9))
    return PairSumElement(e.rep, np.stack((coeffs[:, None, None] * e.a[kept], e.b[kept]), axis=1))


def rank_one_subprojection(p: PairSumElement, tol: float = TOL_ALG) -> PairSumElement:
    """A rank-one projection below p, still an element.

    Compresses p by the first matrix unit (row-major) whose compressed
    vector is nonzero: F = p (1(x)u) E (1(x)u*) p, normalized. The whole
    construction runs through the symbolic product, so F <= p exactly.
    """
    m = materialize(p)
    norm = opnorm(m)
    _, defect, hermitian = hermitian_part(m, tol)
    idem = float(np.max(np.abs(m @ m - m)))
    if not hermitian or idem > tol * max(1.0, norm):
        raise NotAProjection(f"hermiticity defect {defect:.3e}, idempotency defect {idem:.3e}")
    if norm <= tol:
        raise ZeroProjection("projection is numerically zero")
    for unit in matrix_units(p.rep.n):
        w = m @ apply_factor_to_state(p.rep, unit)
        wnorm2 = float(np.real(np.vdot(w, w)))
        if wnorm2 > 1e-6 * max(1.0, norm):
            middle = PairSumElement(p.rep, ((unit, dagger(unit)),))
            f = element_product(element_product(p, middle), p)
            return element_scale(f, 1.0 / wnorm2)
    raise ZeroProjection("no matrix unit has a nonzero compression")


def _implementers(rep: FactorRep, cols: np.ndarray) -> np.ndarray:
    # the S with (1 (x) S) x = y for each column y, scaled to omega(S* S) = 1
    ss = implementer_from_vector(rep, cols.T)
    return ss / np.sqrt(np.real(vector_state(rep, dagger(ss) @ ss)))[:, None, None]


def rank_one_implementer(p: PairSumElement, tol: float = TOL_ALG) -> np.ndarray:
    """For a rank-one projection p = |y><y|, the S in M_n with
    (1 (x) S) E (1 (x) S*) = p and omega(S* S) = 1.

    The range vector gets a canonical phase, so equal inputs give equal S.
    """
    m = materialize(p)
    try:
        evals, evecs = hermitian_eig(m, tol=tol)
    except NotHermitian as exc:
        raise NotRankOneProjection(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(evals))))
    if abs(evals[0] - 1.0) > max(tol * scale, 1e-12) or (
        len(evals) > 1 and np.max(np.abs(evals[1:])) > max(tol * scale, 1e-12)
    ):
        raise NotRankOneProjection(
            f"eigenvalues {np.array2string(evals, precision=3)} are not (1, 0, ..., 0)"
        )
    s = _implementers(p.rep, evecs[:, :1])[0]
    check = state_sum(p.rep, s[None], dagger(s)[None])
    if np.max(np.abs(check - m)) > 1e-8 * scale:
        raise NotRankOneProjection("implementer does not reproduce the projection")
    return s


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Items (c_j, S_j) with t = sum_j c_j (1(x)S_j) E (1(x)S_j*),
    c_j real and the S_j normalized by omega(S_j* S_j) = 1."""

    rep: FactorRep
    items: tuple

    def __len__(self) -> int:
        return len(self.items)


def decomposition_element(sd: SpectralDecomposition) -> PairSumElement:
    """The decomposition re-expressed as an element."""
    coeffs = np.array([c for c, _ in sd.items], dtype=np.float64).reshape(-1, 1, 1)
    ss = np.array([s for _, s in sd.items], dtype=np.complex128).reshape(-1, sd.rep.n, sd.rep.n)
    return PairSumElement(sd.rep, np.stack((coeffs * ss, dagger(ss)), axis=1))


def spectral_decompose(t: PairSumElement, tol: float = 1e-9) -> SpectralDecomposition:
    """Spectral resolution of a self-adjoint element into rank-one pieces.

    Eigenvalues with |c| <= tol are dropped (the kernel contributes
    nothing). Each kept spectral projection P, one per run of eigenvalues
    within 1e-8 * scale, must lie in the span of the frames of the input's
    terms, (1(x)A_i) E (1(x)B_j) = x_i y_j* with x_i = (1(x)A_i)x and
    y_j = (1(x)B_j*)x: NotInSpan carries |P - Q_X P Q_Y|_F if it exceeds
    1e-8 * max(1, |P|_F), Q_X and Q_Y projecting onto span{x_i} and span{y_j}
    with singular values up to max(n^2, k) * eps * sigma_0 cut, as lstsq does.
    """
    herm, defect, hermitian = hermitian_part(materialize(t), tol)
    if not hermitian:
        raise NotSelfAdjoint(f"self-adjointness defect {defect:.3e}")
    evals, evecs, scale = _descending_eigh(herm)
    _canonicalize(evals, evecs, scale)
    keep = np.flatnonzero(np.abs(evals) > tol)

    items = tuple(zip(evals[keep].tolist(), _implementers(t.rep, evecs[:, keep])))

    # spectral projections of nonzero eigenvalues are polynomials in t with
    # zero constant term, hence lie in the span of the frames; P -> Q_X P Q_Y
    # is the orthogonal projection onto it, so P misses it by the lstsq residual
    qx = _range_basis(apply_factor_to_state(t.rep, t.a).T)
    qy = _range_basis(apply_factor_to_state(t.rep, dagger(t.b)).T)
    for r in _cluster_runs(evals[keep], _SPECTRAL_CLUSTER_RTOL * scale):
        p = evecs[:, keep[r]] @ dagger(evecs[:, keep[r]])
        missed = float(np.linalg.norm(p - qx @ (dagger(qx) @ p @ qy) @ dagger(qy)))
        if missed > _SPECTRAL_CLUSTER_RTOL * max(1.0, float(np.linalg.norm(p))):
            raise NotInSpan(missed)

    return SpectralDecomposition(rep=t.rep, items=items)
