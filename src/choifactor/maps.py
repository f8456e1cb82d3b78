"""Pair-sum maps on M_n, their Choi-type operators and CP structure.

A map phi(C) = sum_i A_i C B_i is stored by its coefficient pairs. Two
n^2 by n^2 operators represent it:

  choi(phi)              sum_ij e_ij (x) phi(e_ij), the usual Choi matrix;
  dual_choi(phi, rep)    sum_i (1(x)B_i) E (1(x)A_i), the same data carried
                         by the state projection E of a factor
                         representation.

At uniform weights dual_choi(phi) equals choi of the adjoint map divided
by n, and phi can be rebuilt from it block by block. Kraus extraction from
a positive semidefinite dual_choi works at any weights. Vectorization is
row-major throughout: the transfer matrix sum_i kron(A_i, B_i^T) acts on
reshape(C, -1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalDisagreement,
    NotPositive,
    NotTracial,
    RepMismatch,
)
from .factor import FactorRep, implementer_from_vector, make_factor
from .linalg import as_complex, dagger, hermitian_eig, hermiticity_defect, opnorm, scaled_tol
from .projection_algebra import frozen_terms, state_sum


@dataclass(frozen=True, eq=False)
class PairSumMap:
    """Coefficient pairs (A_i, B_i) of C -> sum_i A_i C B_i on M_n."""

    n: int
    terms: tuple = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "terms", frozen_terms(self.n, self.terms))

    def __len__(self) -> int:
        return len(self.terms)


def identity_map(n: int) -> PairSumMap:
    eye = np.eye(n)
    return PairSumMap(n, ((eye, eye),))


def transpose_map(n: int) -> PairSumMap:
    terms = []
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[i, j] = 1.0
            terms.append((unit, unit))
    return PairSumMap(n, tuple(terms))


def trace_map(n: int) -> PairSumMap:
    """C -> Tr(C) I / n."""
    terms = []
    for i in range(n):
        for j in range(n):
            unit_ij = np.zeros((n, n), dtype=np.complex128)
            unit_ij[i, j] = 1.0
            terms.append((unit_ij / n, unit_ij.T.copy()))
    return PairSumMap(n, tuple(terms))


def conjugation_map(v) -> PairSumMap:
    """C -> V* C V, a single-term completely positive map."""
    v = as_complex(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {v.shape}")
    return PairSumMap(v.shape[0], ((dagger(v), v),))


def map_sum(phi: PairSumMap, psi: PairSumMap) -> PairSumMap:
    if phi.n != psi.n:
        raise DimensionMismatch("maps act on different dimensions")
    return PairSumMap(phi.n, phi.terms + psi.terms)


def map_scale(phi: PairSumMap, z: complex) -> PairSumMap:
    return PairSumMap(phi.n, tuple((z * a, b) for a, b in phi.terms))


def apply_map(phi: PairSumMap, c) -> np.ndarray:
    c = as_complex(c)
    if c.shape != (phi.n, phi.n):
        raise DimensionMismatch(f"expected {phi.n}x{phi.n}, got {c.shape}")
    out = np.zeros((phi.n, phi.n), dtype=np.complex128)
    for a, b in phi.terms:
        out += a @ c @ b
    return out


def transfer(phi: PairSumMap) -> np.ndarray:
    """Matrix acting on row-major vec: vec(phi(C)) = transfer(phi) vec(C)."""
    n = phi.n
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for a, b in phi.terms:
        # kron(a, b^T) as one broadcast product, entry (i*n + k, j*n + l)
        out += (a[:, None, :, None] * b.T[None, :, None, :]).reshape(n * n, n * n)
    return out


def adjoint_map(phi: PairSumMap) -> PairSumMap:
    """The trace-pairing adjoint C -> sum_i B_i C A_i,
    so Tr(phi(C) D) = Tr(C adjoint(phi)(D))."""
    return PairSumMap(phi.n, tuple((b, a) for a, b in phi.terms))


def choi(phi: PairSumMap) -> np.ndarray:
    """sum_ij e_ij (x) phi(e_ij)."""
    return phi.n * state_sum(make_factor(phi.n, "tracial"), phi.terms)


def dual_choi(phi: PairSumMap, rep: FactorRep | None = None) -> np.ndarray:
    """sum_i (1(x)B_i) E (1(x)A_i) over the given representation.

    Linear and injective in phi at every weight vector; at uniform weights
    it equals choi(adjoint_map(phi)) / n.
    """
    rep = _resolve_rep(phi, rep)
    return state_sum(rep, tuple((b, a) for a, b in phi.terms))


def _resolve_rep(phi: PairSumMap, rep: FactorRep | None) -> FactorRep:
    if rep is None:
        return make_factor(phi.n, "tracial")
    if rep.n != phi.n:
        raise RepMismatch(f"map dimension {phi.n} vs representation dimension {rep.n}")
    return rep


def map_from_dual_choi(d, rep: FactorRep) -> np.ndarray:
    """Invert phi -> dual_choi(phi) at uniform weights.

    Returns the transfer matrix of the recovered map: block (i, j) of n*d
    is the adjoint map applied to e_ij, and a leg swap plus transpose turns
    the adjoint's transfer matrix into the map's own. Both steps together
    are one permutation of the four tensor indices.
    """
    if not rep.tracial:
        raise NotTracial("map recovery from the dual Choi operator needs uniform weights")
    d = as_complex(d)
    n = rep.n
    if d.shape != (n * n, n * n):
        raise DimensionMismatch(f"expected {n * n}x{n * n}, got {d.shape}")
    return (n * d).reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)


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

    Works at any weight vector. Raises NotPositive (carrying the minimum
    eigenvalue of the Hermitian part) when the dual Choi operator is not
    positive semidefinite within tol, which is exactly the non-CP case.
    """
    rep = _resolve_rep(phi, rep)
    d = dual_choi(phi, rep)
    defect = hermiticity_defect(d)
    herm = (d + dagger(d)) / 2.0
    evals, evecs = hermitian_eig(herm, tol=max(tol, 1e-6))
    if defect > scaled_tol(defect, tol, d):
        raise NotPositive(float(evals[-1]), hermiticity_defect=defect,
                          message="dual Choi operator is not Hermitian")
    if evals[-1] < -tol:
        raise NotPositive(float(evals[-1]), hermiticity_defect=defect)

    pieces = []
    for j in range(len(evals)):
        c = float(evals[j])
        if c <= tol:
            continue
        s = implementer_from_vector(rep, evecs[:, j])
        pieces.append((c, np.sqrt(c) * s))
    pieces.sort(
        key=lambda cv: (-cv[0],)
        + tuple(np.concatenate([cv[1].real.reshape(-1), cv[1].imag.reshape(-1)]))
    )
    return KrausDecomposition(
        ops=tuple(v for _, v in pieces), coefficients=tuple(c for c, _ in pieces)
    )


def kraus_apply(kd: KrausDecomposition, c) -> np.ndarray:
    c = as_complex(c)
    out = np.zeros_like(c)
    for v in kd.ops:
        out += dagger(v) @ c @ v
    return out


def _psd_within(m: np.ndarray, tol: float) -> tuple[bool, float]:
    # Hermitian within tol (relative) and min eigenvalue of the Hermitian
    # part >= -tol. Returns (ok, min eigenvalue).
    low = float(np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0])
    defect = hermiticity_defect(m)
    if defect > scaled_tol(defect, tol, m):
        return False, low
    return low >= -tol, low


# Probes are evaluated in stacks of at most this many bytes per complex
# (count, n^2, n^2) copy: all 65 default probes in one stack at n = 2, three
# per stack at n = 6, one at a time at n = 8. Larger stacks would raise peak
# memory at n >= 6, where one call per probe costs little anyway.
_STACK_BYTES = 1 << 16


def _random_psd(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    # count psd matrices scaled to operator norm at most 1; each draws its
    # real part and then its imaginary part, as one draw per probe would
    s = rng.standard_normal((count, 2, dim, dim))
    g = s[:, 0] + 1j * s[:, 1]
    m = g @ np.conj(g).swapaxes(1, 2)
    return m / np.maximum(1.0, np.linalg.norm(m, 2, axis=(1, 2)))[:, None, None]


def _blocks_as_rows(m: np.ndarray, n: int) -> np.ndarray:
    # Row i*n + j of each matrix in the stack holds its block (i, j) read
    # out row-major; an involution.
    return m.reshape(-1, n, n, n, n).transpose(0, 1, 3, 2, 4).reshape(m.shape)


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of probing sum_i (1(x)A_i) X (1(x)B_i) on psd inputs X."""

    positive: bool
    min_eigenvalue: float
    hermiticity_defect: float
    trials: int
    seed: int


def extension_positivity_check(
    phi: PairSumMap,
    trials: int = 64,
    tol: float = 1e-9,
    rep: FactorRep | None = None,
    seed: int = 42,
) -> ExtensionReport:
    """Probe the same pair-sum formula with coefficients lifted to 1 (x) A_i
    acting on all of B(H).

    Inputs are the state projection E plus `trials` random psd matrices of
    size n^2 (unit operator norm). Block (i, j) of
    sum_i (1(x)A_i) X (1(x)B_i) is phi(X_ij), so the output is the
    amplification (identity (x) phi)(X), computed with the transfer
    matrix. Reports the worst (lowest) output eigenvalue and the worst
    output Hermiticity defect relative to max(1, ||out||).

    Probes are drawn, multiplied and diagonalized in stacks of up to 64 KB
    per copy. Since ||out|| >= ||(out + out*)/2|| = max |eigenvalue|, the
    eigenvalues already give an upper bound on each probe's relative
    defect, and ||out|| is computed only for probes whose bound exceeds
    the worst defect so far.
    """
    rep = _resolve_rep(phi, rep)
    rng = np.random.default_rng(seed)
    n = phi.n
    dim = n * n
    t_rows = transfer(phi).T
    x0 = rep.state_vector
    per_stack = max(1, _STACK_BYTES // (16 * dim * dim))  # complex128 entries
    worst_low = np.inf
    worst_defect = 0.0
    for start in range(0, trials + 1, per_stack):
        count = min(per_stack, trials + 1 - start)
        if start:
            x = _random_psd(rng, count, dim)
        else:  # E leads the first stack
            x = np.concatenate([np.outer(x0, np.conj(x0))[None], _random_psd(rng, count - 1, dim)])
        out = _blocks_as_rows(_blocks_as_rows(x, n) @ t_rows, n)
        adj = np.conj(out).swapaxes(1, 2)
        defects = np.max(np.abs(out - adj), axis=(1, 2))
        evals = np.linalg.eigvalsh((out + adj) / 2.0)
        # max |eigenvalue| shrunk by far more than the eigensolver's and the
        # SVD's rounding, so each bound stays above defect / max(1, ||out||)
        bounds = defects / np.maximum(1.0, np.max(np.abs(evals), axis=1) * (1.0 - 1e-10))
        for j, bound in enumerate(bounds.tolist()):
            if bound > worst_defect:
                worst_defect = max(worst_defect, float(defects[j]) / max(1.0, opnorm(out[j])))
        worst_low = min([worst_low] + evals[:, 0].tolist())
    ok = worst_low >= -tol and worst_defect <= tol
    return ExtensionReport(
        positive=bool(ok),
        min_eigenvalue=float(worst_low),
        hermiticity_defect=float(worst_defect),
        trials=trials,
        seed=seed,
    )


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
    trials: int
    seed: int


def check_cp(
    phi: PairSumMap,
    tol: float = 1e-9,
    rep: FactorRep | None = None,
    trials: int = 64,
    seed: int = 42,
) -> CpReport:
    """Run all five CP characterizations and assert they agree.

    (1) identity (x) phi preserves positivity on E and random psd inputs;
    (2) the lifted pair-sum formula is positive on B(H) (same probes);
    (3) Kraus extraction from the dual Choi operator succeeds and the
        Kraus map has the transfer matrix of phi;
    (4) the dual Choi operator is psd;
    (5) the Choi matrix is psd.

    In finite dimension the lifted formula of (2) applied to X is
    (identity (x) phi)(X), so (1) and (2) read their verdict from one
    probe pass of extension_positivity_check.

    Raises InternalDisagreement when the verdicts conflict.
    """
    rep = _resolve_rep(phi, rep)
    ext = extension_positivity_check(phi, trials=trials, tol=tol, rep=rep, seed=seed)
    amp_ok = ext.positive

    kraus_ok = False
    try:
        kd = kraus_decompose(phi, rep, tol=tol)
    except NotPositive:
        kd = None
    if kd is not None:
        t = transfer(phi)
        t_kraus = transfer(PairSumMap(phi.n, tuple((dagger(v), v) for v in kd.ops)))
        worst = float(np.max(np.abs(t_kraus - t)))
        kraus_ok = worst <= scaled_tol(worst, 10.0 * max(tol, 1e-12), t)

    dual_ok, dual_low = _psd_within(dual_choi(phi, rep), tol)
    choi_ok, choi_low = _psd_within(choi(phi), tol)

    verdicts = (amp_ok, ext.positive, kraus_ok, dual_ok, choi_ok)
    report = CpReport(
        cp=all(verdicts),
        amplification_positive=amp_ok,
        extension_positive=ext.positive,
        kraus_exists=kraus_ok,
        dual_choi_psd=dual_ok,
        choi_psd=choi_ok,
        min_eig_dual_choi=dual_low,
        min_eig_choi=choi_low,
        tol=tol,
        trials=trials,
        seed=seed,
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
    (c) the two Choi matrices are psd together or not at all.

    The modular form of (b) presumes uniform weights; passing an explicit
    non-tracial representation raises NotTracial.
    """
    rep = _resolve_rep(phi, rep)
    if not rep.tracial:
        raise NotTracial("Choi symmetry checks are stated at uniform weights")
    c = choi(phi)
    c_adj = choi(adjoint_map(phi))
    # W M W with W the leg swap exchanges the two legs of both indices
    c4 = c.reshape((phi.n,) * 4)
    swapped_t = c4.transpose(3, 2, 1, 0).reshape(c.shape)  # W c^T W
    swapped = c4.transpose(1, 0, 3, 2).reshape(c.shape)  # W c W
    swap_err = float(np.max(np.abs(c_adj - swapped_t)))
    defect = hermiticity_defect(c)
    hermitian = defect <= scaled_tol(defect, tol, c)
    conj_err = float(np.max(np.abs(c_adj - np.conj(swapped)))) if hermitian else None
    _, low_c = _psd_within(c, tol)
    _, low_a = _psd_within(c_adj, tol)
    agree = (low_c >= -tol) == (low_a >= -tol) if hermitian else True
    return AdjointSymmetryReport(
        swap_transpose_error=swap_err,
        choi_hermitian=bool(hermitian),
        conjugation_error=conj_err,
        min_eig_choi=float(low_c),
        min_eig_adjoint_choi=float(low_a),
        positivity_agree=bool(agree),
    )
