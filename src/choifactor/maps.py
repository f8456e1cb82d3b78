"""Pair-sum maps on M_n, their Choi-type operators and CP structure.

A map phi(C) = sum_i A_i C B_i is stored by its coefficient pairs, as the
(k, n, n) stacks a and b of projection_algebra.frozen_terms. Two n^2 by n^2
operators represent it:

  choi(phi)              sum_ij e_ij (x) phi(e_ij), the usual Choi matrix;
  dual_choi(phi, rep)    sum_i (1(x)B_i) E (1(x)A_i), the same data carried
                         by the state projection E of a factor
                         representation.

At uniform weights dual_choi(phi) equals choi of the adjoint map divided
by n. At any weights phi can be rebuilt from it, and Kraus operators
extracted from it when it is positive semidefinite. Vectorization is
row-major throughout: the transfer matrix sum_i kron(A_i, B_i^T) acts on
reshape(C, -1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalDisagreement,
    NotPositive,
    NumericalFailure,
    RepMismatch,
)
from .factor import FactorRep, _implementers, make_factor
from .linalg import (
    _canonicalize,
    _check_tol,
    _psd_eigh,
    _require_finite,
    as_complex,
    dagger,
    hermitian_part,
    matrix_units,
    psd_within,
    scaled_tol,
)
from .projection_algebra import TermStacks, state_sum

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False, init=False)
class PairSumMap(TermStacks):
    """C -> sum_i A_i C B_i on M_n."""

    n: int

    def __init__(self, n: int, terms):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
        super().__init__(n, terms)
        object.__setattr__(self, "n", n)


def identity_map(n: int) -> PairSumMap:
    eye = np.eye(n)
    return PairSumMap(n, ((eye, eye),))


def transpose_map(n: int) -> PairSumMap:
    units = matrix_units(n)
    return PairSumMap(n, np.stack((units, units), axis=1))


def trace_map(n: int) -> PairSumMap:
    """C -> Tr(C) I / n."""
    units = matrix_units(n)
    return PairSumMap(n, np.stack((units / n, units.transpose(0, 2, 1)), axis=1))


def conjugation_map(v) -> PairSumMap:
    """C -> V* C V, a single-term completely positive map."""
    v = as_complex(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {v.shape}")
    return PairSumMap(v.shape[0], ((dagger(v), v),))


def map_sum(phi: PairSumMap, psi: PairSumMap) -> PairSumMap:
    if phi.n != psi.n:
        raise DimensionMismatch("maps act on different dimensions")
    a = np.concatenate((phi.a, psi.a))
    return PairSumMap(phi.n, np.stack((a, np.concatenate((phi.b, psi.b))), axis=1))


def map_scale(phi: PairSumMap, z: complex) -> PairSumMap:
    return PairSumMap(phi.n, np.stack((z * phi.a, phi.b), axis=1))


def apply_map(phi: PairSumMap, c) -> np.ndarray:
    """phi(C), or phi of each matrix in a stack of shape (..., n, n)."""
    c = as_complex(c)
    if c.shape[-2:] != (phi.n, phi.n):
        raise DimensionMismatch(f"expected {phi.n}x{phi.n}, got {c.shape}")
    return _pair_sum(phi.a, c, phi.b)


def _pair_sum(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum_i A_i C B_i over complex (k, n, n) stacks a and b, for C (..., n, n), unchecked
    return (a @ c[..., None, :, :] @ b).sum(axis=-3)


def transfer(phi: PairSumMap) -> np.ndarray:
    """Matrix acting on row-major vec: vec(phi(C)) = transfer(phi) vec(C)."""
    # kron(A_i, B_i^T) as one broadcast product, entry (i*n + k, j*n + l)
    krons = phi.a[:, :, None, :, None] * phi.b.transpose(0, 2, 1)[:, None, :, None, :]
    return krons.reshape(len(phi), phi.n**2, phi.n**2).sum(axis=0)


def adjoint_map(phi: PairSumMap) -> PairSumMap:
    """The trace-pairing adjoint C -> sum_i B_i C A_i,
    so Tr(phi(C) D) = Tr(C adjoint(phi)(D))."""
    return PairSumMap(phi.n, np.stack((phi.b, phi.a), axis=1))


def choi(phi: PairSumMap) -> np.ndarray:
    """sum_ij e_ij (x) phi(e_ij)."""
    return phi.n * state_sum(_tracial(phi.n), phi.a, phi.b)


def dual_choi(phi: PairSumMap, rep: FactorRep | None = None) -> np.ndarray:
    """sum_i (1(x)B_i) E (1(x)A_i) over the given representation.

    Linear and injective in phi at every weight vector; at uniform weights
    it equals choi(adjoint_map(phi)) / n.
    """
    rep = _resolve_rep(phi, rep)
    return state_sum(rep, phi.b, phi.a)


@lru_cache(maxsize=16)
def _tracial(n: int) -> FactorRep:
    # the tracial representation, built once per n: a FactorRep and its
    # weights are immutable, so every caller can share it
    return make_factor(n, "tracial")


def _resolve_rep(phi: PairSumMap, rep: FactorRep | None) -> FactorRep:
    if rep is None:
        return _tracial(phi.n)
    if rep.n != phi.n:
        raise RepMismatch(f"map dimension {phi.n} vs representation dimension {rep.n}")
    return rep


def map_from_dual_choi(d, rep: FactorRep) -> np.ndarray:
    """Invert phi -> dual_choi(phi) at any weights.

    Returns the transfer matrix of the recovered map. Dividing entry
    ((i, a), (j, b)) of d by sqrt(w_i w_j) gives n d_u, d_u the operator at
    uniform weights; block (i, j) of n d_u is the adjoint map applied to
    e_ij, and a leg swap plus transpose turns the adjoint's transfer matrix
    into the map's own, one permutation of the four tensor indices.
    """
    d = as_complex(d)
    n = rep.n
    if d.shape != (n * n, n * n):
        raise DimensionMismatch(f"expected {n * n}x{n * n}, got {d.shape}")
    # 1 / sqrt(w_i w_j) = n r_i r_j, and r is 1 at uniform weights
    r = 1.0 / np.sqrt(n * rep.weights)
    blocks = (n * d).reshape(n, n, n, n) * r[:, None, None, None] * r[None, None, :, None]
    return blocks.transpose(2, 0, 3, 1).reshape(n * n, n * n)


@dataclass(frozen=True, eq=False)
class KrausDecomposition:
    """Operators V_j with phi(C) = sum_j V_j* C V_j.

    coefficients holds the eigenvalues c_j of the dual Choi operator the
    V_j = sqrt(c_j) S_j were cut from.
    """

    ops: tuple
    coefficients: tuple

    def __len__(self) -> int:
        return len(self.ops)


def kraus_decompose(
    phi: PairSumMap, rep: FactorRep | None = None, tol: float = 1e-9
) -> KrausDecomposition:
    """Kraus operators from the eigendecomposition of dual_choi(phi).

    Works at any weight vector. Raises NotPositive when the dual Choi
    operator is not positive semidefinite within tol, which is exactly the
    non-CP case, carrying the lowest eigenvalue of its Hermitian part, the
    min_eig_dual_choi of check_cp; one that is not Hermitian within tol is
    refused with that eigenvalue from eigvalsh, and no eigh is run. Raises
    ValueError when tol is not a finite number >= 0.
    """
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    ok, low, defect, eig = _psd_eigh(dual_choi(phi, rep), tol)
    if eig is None:
        raise NotPositive(low, hermiticity_defect=defect,
                          message="dual Choi operator is not Hermitian")
    if not ok:
        raise NotPositive(low, hermiticity_defect=defect)
    return _kraus_cut(*eig, rep, tol)


def _kraus_cut(evals: np.ndarray, evecs: np.ndarray, scale: float, rep: FactorRep,
               tol: float) -> KrausDecomposition:
    # Kraus operators from the descending eigendecomposition (evals, evecs,
    # scale) of a dual Choi operator's Hermitian part, lowest eigenvalue not
    # below -tol; only the eigenvectors kept need their canonical basis and phase
    _canonicalize(evals, evecs, scale, above=tol)
    cs, ops = _kraus_ops(evals, evecs, rep, tol)
    # descending coefficient, ties broken by the real and then the imaginary entries
    flat = ops.reshape(len(cs), rep.n * rep.n)
    order = np.lexsort(np.vstack((flat.imag.T[::-1], flat.real.T[::-1], -cs)))
    return KrausDecomposition(ops=tuple(ops[order]), coefficients=tuple(cs[order].tolist()))


def _kraus_ops(evals: np.ndarray, evecs: np.ndarray, rep: FactorRep,
               tol: float) -> tuple[np.ndarray, np.ndarray]:
    # the eigenvalues c_j not <= tol and the (k, n, n) stack of
    # V_j = sqrt(c_j) S_j, (1(x)S_j) x the eigenvector y_j, in the order given
    kept = ~(evals <= tol)
    cs = evals[kept]
    return cs, np.sqrt(cs)[:, None, None] * _implementers(rep, evecs[:, kept].T)


def kraus_apply(kd: KrausDecomposition, c) -> np.ndarray:
    """sum_j V_j* C V_j, or that of each matrix in a stack (..., n, n), n the
    operators' size (any n if there are none); DimensionMismatch otherwise."""
    c = as_complex(c)
    shape = np.shape(kd.ops[0]) if kd.ops else c.shape[-1:] * 2
    if c.ndim < 2 or c.shape[-2:] != shape:
        raise DimensionMismatch(f"expected matrices of shape {shape}, got {c.shape}")
    v = np.array(kd.ops, dtype=np.complex128).reshape((-1,) + shape)
    return _pair_sum(dagger(v), c, v)


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of sum_i (1(x)A_i) E (1(x)B_i) at the state projection E."""

    positive: bool
    min_eigenvalue: float
    hermiticity_defect: float


def _state_measured(phi: PairSumMap, rep: FactorRep, tol: float) -> tuple[bool, float, float]:
    # psd_within of E's output sum_i (1(x)A_i) E (1(x)B_i)
    return psd_within(state_sum(rep, phi.a, phi.b), tol)


def _extension_verdict(phi: PairSumMap, rep: FactorRep, choi_low: float, choi_defect: float,
                       tol: float) -> bool:
    # extension_positivity_check(phi, tol=tol, rep=r).positive at r = rep
    # and, at weights other than the tracial ones, also at the tracial r,
    # read off the lowest eigenvalue choi_low of the computed Choi matrix's
    # Hermitian part and its defect max |choi - choi*| where they settle it,
    # and measured on each E otherwise.
    #
    # Exactly: E's output (D^1/2 (x) 1) choi (D^1/2 (x) 1), D = diag(w), is a
    # congruence of choi, so by Ostrowski each of its eigenvalues is theta
    # lambda(choi) with theta in [w_min, w_max], and each entry of its defect
    # is sqrt(w_i w_j) times one of choi's, at most w_max max |choi - choi*|,
    # and the Hermiticity rule allows it at least tol. A small w_min could
    # hide a negative Choi eigenvalue far beyond tol; the tracial E, whose
    # output is choi / n, cannot. As w_min <= 1/n <= w_max, both pass when
    # the w_max bound does, and one fails when the 1/n bound does.
    #
    # Computed: with beta = sum_i ||A_i||_F ||B_i||_F, ||choi||_F and
    # ||out||_F are at most beta, term i of either at most ||A_i||_F ||B_i||_F.
    # Every rounding is a multiple of beta, with no assumption that the sums
    # do not cancel. gamma = 2 eps (dim + k) (dim + 1) bounds each of:
    # (a) the k-term sums of choi and its eigvalsh, which move choi_low and
    # the defect by at most gamma beta; (b) the k-term frame sum of out,
    # which moves out by at most gamma beta; (c) the Hermitian split and
    # eigvalsh of out, at most gamma beta. Either side needs
    # w (a) + (b) + (c), and the defect 2 (a) + 2 (b) + (c), all within the
    # margin 4 n gamma beta. A NaN or inf settles nothing (no comparison
    # below holds), and at tol = 0 only the measurement passes a
    # map with a nonzero term.
    dim = phi.n * phi.n
    # the Frobenius norms as np.linalg.norm(., axis=(1, 2)) computes them
    fro_a, fro_b = (np.sqrt(np.add.reduce((s.conj() * s).real, axis=(1, 2)))
                    for s in (phi.a, phi.b))
    gamma = 2.0 * _EPS * (dim + len(phi)) * (dim + 1)
    margin = 4.0 * phi.n * gamma * (fro_a * fro_b).sum()
    # w_max max(0, -choi_low, choi_defect) + margin <= tol, one comparison
    # per entry of the max, so that a NaN in any of them fails it
    w_max = rep.weights.max()
    if margin <= tol and w_max * -choi_low + margin <= tol and w_max * choi_defect + margin <= tol:
        return True
    if (1.0 / phi.n) * -choi_low - margin > tol:
        return False
    tracial = _tracial(phi.n)
    reps = (rep,) if np.array_equal(rep.weights, tracial.weights) else (rep, tracial)
    return all(_state_measured(phi, r, tol)[0] for r in reps)


def extension_positivity_check(
    phi: PairSumMap,
    tol: float = 1e-9,
    rep: FactorRep | None = None,
) -> ExtensionReport:
    """Evaluate the same pair-sum formula with coefficients lifted to
    1 (x) A_i acting on all of B(H), at the state projection E.

    The output is materialized by state_sum. Block (i, j) of it is
    phi(E_ij), so it is the amplification (identity (x) phi)(E), and it is
    positive exactly when phi is CP, being a congruence of the Choi
    matrix. Reports whether the output is Hermitian and psd within
    tol, its Hermitian part's lowest eigenvalue, and its defect
    max |out - out*|, under the package's one Hermiticity rule (see
    linalg). Raises ValueError when tol is not a finite number >= 0.
    """
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    positive, low, defect = _state_measured(phi, rep, tol)
    return ExtensionReport(positive=positive, min_eigenvalue=low, hermiticity_defect=defect)


@dataclass(frozen=True)
class CpReport:
    """Five equivalent complete-positivity checks, which must agree."""

    cp: bool
    amplification_positive: bool
    extension_positive: bool
    kraus_exists: bool
    dual_choi_psd: bool
    choi_psd: bool
    min_eig_dual_choi: float
    min_eig_choi: float
    tol: float


def check_cp(phi: PairSumMap, tol: float = 1e-9, rep: FactorRep | None = None) -> CpReport:
    """Run all five CP characterizations and assert they agree.

    (1) identity (x) phi preserves positivity on the state projection E;
    (2) the lifted pair-sum formula is positive on E;
    (3) Kraus extraction from the dual Choi operator succeeds and the
        Kraus map has the Choi matrix of phi, within 10 max(tol, 1e-12)
        max(1, ||choi||); the operators are cut from the eigendecomposition
        of (4) as it stands, without kraus_decompose's canonical basis,
        phase and order, none of which changes sum_j V_j* C V_j;
    (4) the dual Choi operator is psd;
    (5) the Choi matrix is psd.

    In finite dimension the lifted formula of (2) applied to X is
    (identity (x) phi)(X), and at E it is (D^1/2 (x) 1) choi (D^1/2 (x) 1),
    D = diag(weights): a congruence of the Choi matrix by an invertible
    matrix, psd exactly when choi is (Sylvester). So (1) and (2) share one
    verdict, E's. The congruence scales each Choi eigenvalue by a factor
    in [w_min, w_max], so at weights other than the tracial ones the
    tracial state's projection, whose output is choi / n, is judged as
    well, and a small weight cannot hide a negative Choi eigenvalue. The
    verdict is that of extension_positivity_check at rep, and also at
    make_factor(n) when the weights differ from it.

    The Choi spectrum of (5), scaled by the weights and allowed its
    rounding, settles that verdict where it can, and E's output,
    materialized by state_sum, is measured only where it cannot. So (1) and
    (2) are computed apart from (5) only where E is measured: a map with
    room to spare on either side of tol gets their verdict from the same
    eigenvalues as (5).

    (3) and (4) take the spectral step of kraus_decompose on the dual Choi
    operator: min_eig_dual_choi is the lowest eigenvalue of its Hermitian
    part, and the Kraus operators are cut from the same eigenvalues and
    eigenvectors, so the two verdicts compare one number with -tol. A dual
    Choi operator that is not Hermitian within tol fails both, and only its
    lowest eigenvalue is computed, by eigvalsh.

    Raises InternalDisagreement when the verdicts conflict, and ValueError
    when tol is not a finite number >= 0.
    """
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    c = choi(phi)
    # an overflowed Choi matrix has no spectrum, and E's output, a congruence
    # of it, would be refused with the same error
    _require_finite("diagonalize", c)
    choi_ok, choi_low, choi_defect = psd_within(c, tol)
    ext_ok = _extension_verdict(phi, rep, choi_low, choi_defect, tol)

    dual_ok, dual_low, _, eig = _psd_eigh(dual_choi(phi, rep), tol)
    kraus_ok = False
    if dual_ok:
        # sum_j V_j* C V_j does not depend on the basis, phase or order of
        # the V_j inside an eigenspace, so they need not be canonical here
        _, v = _kraus_ops(eig[0], eig[1], rep, tol)
        # phi -> choi(phi) is injective (Choi), so equal Choi matrices mean equal maps
        c_kraus = phi.n * state_sum(_tracial(phi.n), dagger(v), v)
        worst = float(np.abs(c_kraus - c).max())
        kraus_ok = worst <= scaled_tol(worst, 10.0 * max(tol, 1e-12), c)

    verdicts = (ext_ok, ext_ok, kraus_ok, dual_ok, choi_ok)
    report = CpReport(
        cp=all(verdicts),
        amplification_positive=ext_ok,
        extension_positive=ext_ok,
        kraus_exists=kraus_ok,
        dual_choi_psd=dual_ok,
        choi_psd=choi_ok,
        min_eig_dual_choi=dual_low,
        min_eig_choi=choi_low,
        tol=tol,
    )
    if len(set(verdicts)) != 1:
        raise InternalDisagreement(report)
    return report


@dataclass(frozen=True)
class AdjointSymmetryReport:
    """How the adjoint map's Choi matrix relates to the original's."""

    swap_transpose_error: float
    choi_hermitian: bool
    conjugation_error: float | None
    min_eig_choi: float
    min_eig_adjoint_choi: float
    positivity_agree: bool


def adjoint_choi_symmetry(
    phi: PairSumMap, tol: float = 1e-9, rep: FactorRep | None = None
) -> AdjointSymmetryReport:
    """Check the structural identities tying choi(adjoint) to choi.

    (a) choi(adjoint) = W choi(phi)^T W always, with W the leg swap;
    (b) choi(adjoint) = W conj(choi(phi)) W, i.e. conjugation by the
        modular involution, whenever choi(phi) is Hermitian (skipped and
        reported as None otherwise);
    (c) the two Choi matrices are psd together or not at all, as
        psd_within judges each, so neither is psd when it is not Hermitian.

    All three concern choi, which does not depend on the weights, so rep
    only has to have phi's dimension. The minimum eigenvalues are NaN when
    choi(phi) is out of floating point range. Raises ValueError when tol is
    not a finite number >= 0.
    """
    _check_tol(tol)
    _resolve_rep(phi, rep)
    c = choi(phi)
    c_adj = choi(adjoint_map(phi))
    # W M W with W the leg swap exchanges the two legs of both indices
    c4 = c.reshape((phi.n,) * 4)
    swapped_t = c4.transpose(3, 2, 1, 0).reshape(c.shape)  # W c^T W
    swapped = c4.transpose(1, 0, 3, 2).reshape(c.shape)  # W c W
    swap_err = float(np.max(np.abs(c_adj - swapped_t)))
    _, defect, hermitian = hermitian_part(c, tol)
    # a NaN (overflowed) defect passes the rule but is not reported Hermitian
    hermitian = hermitian and not np.isnan(defect)
    conj_err = float(np.max(np.abs(c_adj - np.conj(swapped)))) if hermitian else None
    try:
        (ok_c, low_c, _), (ok_a, low_a, _) = psd_within(c, tol), psd_within(c_adj, tol)
    except NumericalFailure:
        # an overflowed Choi matrix has no eigenvalues to report
        ok_c, ok_a, low_c, low_a = False, False, np.nan, np.nan
    agree = ok_c == ok_a
    return AdjointSymmetryReport(
        swap_transpose_error=swap_err,
        choi_hermitian=bool(hermitian),
        conjugation_error=conj_err,
        min_eig_choi=float(low_c),
        min_eig_adjoint_choi=float(low_a),
        positivity_agree=bool(agree),
    )
