"""The *-algebra of finite-rank operators around the state projection.

Elements are kept symbolically as term lists: a list of coefficient pairs
(A_i, B_i) stands for sum_i (1 (x) A_i) E (1 (x) B_i), where E projects
onto the standard vector. Because E has rank one, products collapse by
(A E B)(C E D) = omega(B C) A E D with omega the vector state, so the
symbolic calculus never leaves term-list form. Materialization to a dense
n^2 by n^2 matrix is explicit and one-way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAProjection,
    NotHermitian,
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
from .linalg import (TOL_ALG, as_complex, dagger, hermitian_eig, hermitian_part, matrix_units,
                     opnorm, subspace_coeffs)

# Relative gap below which kept eigenvalues share one spectral projection.
_SPECTRAL_CLUSTER_RTOL = 1e-8


def frozen_terms(n: int, terms) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Validated read-only copies of coefficient pairs (A_i, B_i) in M_n.

    Raises DimensionMismatch on a wrong shape and ValueError on a NaN or
    infinite entry.
    """
    out = []
    for a, b in terms:
        a = np.array(a, dtype=np.complex128)
        b = np.array(b, dtype=np.complex128)
        if a.shape != (n, n) or b.shape != (n, n):
            raise DimensionMismatch(
                f"term matrices must be {n}x{n}, got {a.shape} and {b.shape}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("term matrices must have finite entries")
        a.setflags(write=False)
        b.setflags(write=False)
        out.append((a, b))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PairSumElement:
    """Term list for sum_i (1 (x) A_i) E (1 (x) B_i) over a fixed rep."""

    rep: FactorRep
    terms: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", frozen_terms(self.rep.n, self.terms))

    def __len__(self) -> int:
        return len(self.terms)


def zero_element(rep: FactorRep) -> PairSumElement:
    return PairSumElement(rep, ())


def identity_element(rep: FactorRep) -> PairSumElement:
    """The identity of B(H), which is finite rank here, as a term list."""
    # term k*n + l is (S, S*) with S = e_lk / sqrt(w_k)
    scales = np.sqrt(np.repeat(rep.weights, rep.n))[:, None, None]
    ss = matrix_units(rep.n).transpose(0, 2, 1) / scales
    return PairSumElement(rep, tuple((s, dagger(s)) for s in ss))


def _check_same_rep(e1: PairSumElement, e2: PairSumElement) -> None:
    if not e1.rep.same_as(e2.rep):
        raise RepMismatch("elements live over different factor representations")


def element_adjoint(e: PairSumElement) -> PairSumElement:
    """Termwise (A E B)* = B* E A*."""
    return PairSumElement(e.rep, tuple((dagger(b), dagger(a)) for a, b in e.terms))


def element_product(e1: PairSumElement, e2: PairSumElement) -> PairSumElement:
    """Collapse (A E B)(C E D) = omega(B C) A E D over all term pairs."""
    _check_same_rep(e1, e2)
    terms = []
    for a, b in e1.terms:
        for c, d in e2.terms:
            terms.append((vector_state(e1.rep, b @ c) * a, d))
    return PairSumElement(e1.rep, tuple(terms))


def element_scale(e: PairSumElement, z: complex) -> PairSumElement:
    return PairSumElement(e.rep, tuple((z * a, b) for a, b in e.terms))


def element_add(e1: PairSumElement, e2: PairSumElement) -> PairSumElement:
    _check_same_rep(e1, e2)
    return PairSumElement(e1.rep, e1.terms + e2.terms)


def state_sum(rep: FactorRep, terms) -> np.ndarray:
    """Dense n^2 by n^2 matrix of sum_i (1 (x) A_i) E (1 (x) B_i) over rep.

    Each term is the rank-one operator |(1(x)A)x><(1(x)B*)x|, added one
    at a time in term order: one matmul over all terms sums in another
    order and changes the last digits of the golden outputs.
    """
    n2 = rep.n * rep.n
    out = np.zeros((n2, n2), dtype=np.complex128)
    for a, b in terms:
        left = apply_factor_to_state(rep, a)
        right = apply_factor_to_state(rep, dagger(b))
        out += np.outer(left, np.conj(right))
    return out


def materialize(e: PairSumElement) -> np.ndarray:
    """Dense n^2 by n^2 matrix of the element."""
    return state_sum(e.rep, e.terms)


def compress(e: PairSumElement, tol: float = TOL_ALG) -> PairSumElement:
    """Shorter term list with the same materialization.

    Greedily keeps a maximal independent subset of the term frames (index
    order) and folds least-squares coefficients for the whole sum into the
    kept A sides. Never applied implicitly by the other operations.
    """
    if not e.terms:
        return e
    frames = [state_sum(e.rep, (term,)).reshape(-1) for term in e.terms]
    total = np.sum(frames, axis=0)
    kept: list[int] = []
    ortho: list[np.ndarray] = []
    for i, f in enumerate(frames):
        fnorm = np.linalg.norm(f)
        if fnorm <= 1e-14:
            continue
        resid = f.copy()
        for q in ortho:
            resid -= q * np.vdot(q, resid)
        if np.linalg.norm(resid) > max(tol, 1e-12) * fnorm:
            kept.append(i)
            ortho.append(resid / np.linalg.norm(resid))
    if not kept:
        return zero_element(e.rep)
    coeffs = subspace_coeffs(total, [frames[i] for i in kept], tol=max(tol, 1e-9))
    terms = tuple((coeffs[j] * e.terms[i][0], e.terms[i][1]) for j, i in enumerate(kept))
    return PairSumElement(e.rep, terms)


def rank_one_subprojection(p: PairSumElement, tol: float = TOL_ALG) -> PairSumElement:
    """A rank-one projection below p, still in term-list form.

    Compresses p by the first matrix unit (row-major) whose compressed
    vector is nonzero: F = p (1(x)u) E (1(x)u*) p, normalized. The whole
    construction runs through the symbolic product, so F <= p exactly.
    """
    m = materialize(p)
    norm = opnorm(m)
    _, herm, hermitian = hermitian_part(m, tol)
    idem = float(np.max(np.abs(m @ m - m)))
    if not hermitian or idem > tol * max(1.0, norm):
        raise NotAProjection(f"hermiticity defect {herm:.3e}, idempotency defect {idem:.3e}")
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


def rank_one_implementer(p: PairSumElement, tol: float = TOL_ALG) -> np.ndarray:
    """For a rank-one projection p = |y><y|, the S in M_n with
    (1 (x) S) E (1 (x) S*) = p and omega(S* S) = 1.

    The range vector gets a canonical phase, so equal inputs give equal S.
    """
    m = materialize(p)
    scale = max(1.0, opnorm(m))
    try:
        evals, evecs = hermitian_eig(m, tol=tol)
    except NotHermitian as exc:
        raise NotRankOneProjection(str(exc)) from exc
    if abs(evals[0] - 1.0) > max(tol * scale, 1e-12) or (
        len(evals) > 1 and np.max(np.abs(evals[1:])) > max(tol * scale, 1e-12)
    ):
        raise NotRankOneProjection(
            f"eigenvalues {np.array2string(evals, precision=3)} are not (1, 0, ..., 0)"
        )
    y = evecs[:, 0]
    s = implementer_from_vector(p.rep, y)
    val = float(np.real(vector_state(p.rep, dagger(s) @ s)))
    s = s / np.sqrt(val)
    check = state_sum(p.rep, ((s, dagger(s)),))
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
    """The decomposition re-expressed as a term list."""
    return PairSumElement(
        sd.rep, tuple((c * s, dagger(s)) for c, s in sd.items)
    )


def spectral_decompose(t: PairSumElement, tol: float = 1e-9) -> SpectralDecomposition:
    """Spectral resolution of a self-adjoint element into rank-one pieces.

    Eigenvalues with |c| <= tol are dropped (the kernel contributes
    nothing). Every kept spectral projection is checked to lie in the span
    of the frames (1(x)A_i) E (1(x)B_j) of the input's own terms; NotInSpan
    propagates if that fails.
    """
    herm, defect, hermitian = hermitian_part(materialize(t), tol)
    if not hermitian:
        raise NotSelfAdjoint(f"self-adjointness defect {defect:.3e}")
    evals, evecs = hermitian_eig(herm, tol=max(tol, TOL_ALG))
    scale = max(1.0, float(np.max(np.abs(evals), initial=0.0)))
    keep = [j for j in range(len(evals)) if abs(evals[j]) > tol]

    items = []
    for j in keep:
        y = evecs[:, j]
        s = implementer_from_vector(t.rep, y)
        val = float(np.real(vector_state(t.rep, dagger(s) @ s)))
        items.append((float(evals[j]), s / np.sqrt(val)))

    # spectral projections of nonzero eigenvalues are polynomials in t with
    # zero constant term, hence must sit inside the span of the term frames
    frames = [
        state_sum(t.rep, ((a, b),)).reshape(-1)
        for a, _ in t.terms
        for _, b in t.terms
    ]
    i = 0
    while i < len(keep):
        j = i + 1
        while (
            j < len(keep)
            and abs(evals[keep[j - 1]] - evals[keep[j]]) <= _SPECTRAL_CLUSTER_RTOL * scale
        ):
            j += 1
        cols = evecs[:, keep[i:j]]
        proj = cols @ dagger(cols)
        subspace_coeffs(proj.reshape(-1), frames, tol=_SPECTRAL_CLUSTER_RTOL)
        i = j

    return SpectralDecomposition(rep=t.rep, items=tuple(items))
