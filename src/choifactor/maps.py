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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalDisagreement,
    NotPositive,
    NumericalFailure,
    RepMismatch,
)
from .factor import FactorRep, implementer_from_vector, make_factor, state_projection
from .linalg import (
    _canonicalize,
    _check_tol,
    _descending_eigh,
    _hermitian_split,
    _require_finite,
    as_complex,
    dagger,
    hermitian_part,
    matrix_units,
    opnorm,
    psd_within,
    scaled_tol,
)
from .projection_algebra import TermStacks, state_sum


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
    c = as_complex(c)
    if c.shape != (phi.n, phi.n):
        raise DimensionMismatch(f"expected {phi.n}x{phi.n}, got {c.shape}")
    return (phi.a @ c @ phi.b).sum(axis=0)


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
    return phi.n * state_sum(make_factor(phi.n, "tracial"), phi.a, phi.b)


def dual_choi(phi: PairSumMap, rep: FactorRep | None = None) -> np.ndarray:
    """sum_i (1(x)B_i) E (1(x)A_i) over the given representation.

    Linear and injective in phi at every weight vector; at uniform weights
    it equals choi(adjoint_map(phi)) / n.
    """
    rep = _resolve_rep(phi, rep)
    return state_sum(rep, phi.b, phi.a)


def _resolve_rep(phi: PairSumMap, rep: FactorRep | None) -> FactorRep:
    if rep is None:
        return make_factor(phi.n, "tracial")
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

    Works at any weight vector. Raises NotPositive (carrying the minimum
    eigenvalue of the Hermitian part) when the dual Choi operator is not
    positive semidefinite within tol, which is exactly the non-CP case,
    and ValueError when tol is not a finite number >= 0.
    """
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    return _kraus_from_dual_choi(dual_choi(phi, rep), rep, tol)


def _kraus_from_dual_choi(d: np.ndarray, rep: FactorRep, tol: float) -> KrausDecomposition:
    herm, defect, hermitian = hermitian_part(d, tol)
    evals, evecs, scale = _descending_eigh(herm)
    if not hermitian:
        raise NotPositive(float(evals[-1]), hermiticity_defect=defect,
                          message="dual Choi operator is not Hermitian")
    if evals[-1] < -tol:
        raise NotPositive(float(evals[-1]), hermiticity_defect=defect)
    # only the eigenvectors kept below need their canonical basis and phase
    _canonicalize(evals, evecs, scale, above=tol)

    kept = ~(evals <= tol)
    cs = evals[kept]
    ops = np.sqrt(cs)[:, None, None] * implementer_from_vector(rep, evecs[:, kept].T)
    # descending coefficient, ties broken by the real and then the imaginary entries
    flat = ops.reshape(len(cs), rep.n * rep.n)
    order = np.lexsort(np.vstack((flat.imag.T[::-1], flat.real.T[::-1], -cs)))
    return KrausDecomposition(ops=tuple(ops[order]), coefficients=tuple(cs[order].tolist()))


def kraus_apply(kd: KrausDecomposition, c) -> np.ndarray:
    c = as_complex(c)
    v = np.array(kd.ops, dtype=np.complex128).reshape((-1,) + c.shape)
    return (dagger(v) @ c @ v).sum(axis=0)


# Random probes are evaluated in stacks of at most this many bytes per
# complex (count, n^2, n^2) copy: all 64 default probes in one stack at
# n = 2, three per stack at n = 6, one at a time at n = 8; E goes ahead in a
# stack of its own. Larger stacks would raise peak memory at n >= 6, where
# one call per probe costs little anyway.
_STACK_BYTES = 1 << 16

# The last seeded probe set drawn to the end is kept, read-only, for the next
# pass with the same (n^2, trials, seed), when its complex (trials, n^2, n^2)
# array fits this many bytes: every set up to n = 6 at the default 64 trials,
# none at n = 8 (4 MiB).
_PROBE_CACHE_BYTES = 1 << 21

# ((n^2, trials, seed), probes) of the set kept, replaced by one assignment
_held_probes: tuple[tuple[int, int, int], np.ndarray] | None = None

# The Cholesky certificate of check_cp allows gamma = _CERT_ROUNDING * dim *
# (dim + 1) of rounding relative to ||herm(out)||_F at probe dimension dim: a
# bound on the backward error of Cholesky, of eigvalsh and of the products
# that form the exact path's scaled outputs, each of order dim^2 eps.
_CERT_ROUNDING = 2.0 * np.finfo(np.float64).eps


def _random_gram(rng: np.random.Generator, count: int, dim: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    # count psd Gram matrices g g*, written to out when given; each g draws
    # its real part and then its imaginary part, as one draw per probe would
    s = rng.standard_normal((count, 2, dim, dim))
    g = s[:, 0] + 1j * s[:, 1]
    return np.matmul(g, np.conj(g).swapaxes(1, 2), out=out)


def _unit_scaled(m: np.ndarray) -> np.ndarray:
    # each matrix of the stack scaled to operator norm at most 1
    return m / np.maximum(1.0, np.linalg.norm(m, 2, axis=(1, 2)))[:, None, None]


def _blocks_as_rows(m: np.ndarray, n: int) -> np.ndarray:
    # Row i*n + j of each matrix in the stack holds its block (i, j) read
    # out row-major; an involution.
    return m.reshape(-1, n, n, n, n).transpose(0, 1, 3, 2, 4).reshape(m.shape)


def _amplified(x: np.ndarray, n: int, t_rows: np.ndarray) -> np.ndarray:
    # (identity (x) phi)(x) for each matrix of the stack, t_rows the
    # transposed transfer matrix of phi
    return _blocks_as_rows(_blocks_as_rows(x, n) @ t_rows, n)


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of probing sum_i (1(x)A_i) X (1(x)B_i) on psd inputs X."""

    positive: bool
    min_eigenvalue: float
    hermiticity_defect: float
    trials: int
    seed: int


def _probe_stacks(
    n: int, trials: int, rep: FactorRep, seed: int
) -> Iterator[tuple[np.ndarray, bool]]:
    # The inputs of the probe pass: E as a stack of its own, then the seeded
    # Gram stacks of `trials` random probes, each with whether it still has
    # to be scaled to unit operator norm (E has norm one already). The
    # random stacks are slices of the held set when its key matches; a set
    # small enough to hold is drawn into one array, which is published only
    # once the pass has drawn it all.
    global _held_probes
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    dim = n * n
    per_stack = max(1, _STACK_BYTES // (16 * dim * dim))  # complex128 entries
    yield state_projection(rep)[1][None], False
    # only an integer seed names its stream; a Generator passed as the seed
    # gives other probes each time
    key = (dim, trials, int(seed)) if isinstance(seed, (int, np.integer)) else None
    held = _held_probes
    if key is not None and held is not None and held[0] == key:
        for start in range(0, trials, per_stack):
            yield held[1][start:start + per_stack], True
        return
    rng = np.random.default_rng(seed)
    keep = key is not None and 16 * dim * dim * trials <= _PROBE_CACHE_BYTES
    probes = np.empty((trials, dim, dim), dtype=np.complex128) if keep else None
    for start in range(0, trials, per_stack):
        count = min(per_stack, trials - start)
        out = probes[start:start + count] if keep else None
        yield _random_gram(rng, count, dim, out), True
    if keep:
        probes.flags.writeable = False
        _held_probes = (key, probes)


def _measured(out: np.ndarray, worst_low: float, worst_defect: float) -> tuple[float, float]:
    # The exact evaluation of a stack of outputs: the running worst (lowest)
    # eigenvalue and worst defect relative to max(1, ||out||), updated by
    # the stack's. An output's SVD runs only when its bound cannot decide.
    herm, defects = _hermitian_split(out)
    _require_finite("diagonalize", herm)
    evals = np.linalg.eigvalsh(herm)
    # max |eigenvalue| shrunk by far more than the eigensolver's and the
    # SVD's rounding, so each bound stays above defect / max(1, ||out||)
    bounds = defects / np.maximum(1.0, np.max(np.abs(evals), axis=1) * (1.0 - 1e-10))
    for j, bound in enumerate(bounds.tolist()):
        if bound > worst_defect:
            worst_defect = max(worst_defect, float(defects[j]) / max(1.0, opnorm(out[j])))
    return min([worst_low] + evals[:, 0].tolist()), worst_defect


def _extension_probes(
    phi: PairSumMap, trials: int, rep: FactorRep, seed: int
) -> Iterator[tuple[float, float]]:
    # The probe pass of extension_positivity_check. Yields the running worst
    # (lowest) output eigenvalue and worst relative output defect after E,
    # which is a stack of its own, and after each stack of random probes.
    # Both running values are monotone and exact at every yield, so the
    # first yield that fails the tolerance decides the whole pass.
    t_rows = transfer(phi).T
    worst = (np.inf, 0.0)
    for m, drawn in _probe_stacks(phi.n, trials, rep, seed):
        worst = _measured(_amplified(_unit_scaled(m) if drawn else m, phi.n, t_rows), *worst)
        yield worst


def _certified(m: np.ndarray, out: np.ndarray, tol: float) -> bool:
    # Whether every output of the stack, out = (identity (x) phi)(m) for
    # unscaled probes m, passes the exact test of its probe scaled to
    # m / s, s = max(1, ||m||): a Cholesky of herm(out) + c I succeeding
    # proves lambda_min(herm(out)) > -c up to Cholesky's backward error, and
    # c = tol s_lo - gamma ||herm(out)||_F with s_lo = max(1, ||m||_F /
    # sqrt(dim)) <= s leaves gamma to cover that error, eigvalsh's and the
    # scaling's. The defect is held to tol s_lo (1 - gamma) <= tol s.
    dim = out.shape[-1]
    if not np.all(np.isfinite(out)):
        return False
    gamma = _CERT_ROUNDING * dim * (dim + 1)
    herm, defects = _hermitian_split(out)
    s_lo = np.maximum(1.0, np.linalg.norm(m, axis=(1, 2)) / np.sqrt(dim))
    shift = tol * s_lo - gamma * np.linalg.norm(herm, axis=(1, 2))
    if not (np.all(shift > 0.0) and np.all(defects <= tol * s_lo * (1.0 - gamma))):
        return False
    diagonal = np.arange(dim)
    herm[:, diagonal, diagonal] += shift[:, None]
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return False
    return True


def _cp_probes_pass(n: int, t_rows: np.ndarray, trials: int, rep: FactorRep, seed: int,
                    tol: float) -> bool:
    # check_cp's verdict on the probes of extension_positivity_check, t_rows
    # the transposed transfer matrix of the map: each stack is certified
    # from its unscaled outputs, or, where the certificate cannot decide,
    # measured as that check measures it. The first failing stack ends the
    # pass: the verdict cannot change after it.
    for m, drawn in _probe_stacks(n, trials, rep, seed):
        out = _amplified(m, n, t_rows)
        if _certified(m, out, tol):
            continue
        if drawn:
            out = _amplified(_unit_scaled(m), n, t_rows)
        # the worst defect starts at tol: an output needs its SVD only when
        # its bound exceeds tol
        if not _within(*_measured(out, np.inf, tol), tol):
            return False
    return True


def _within(low: float, defect: float, tol: float) -> bool:
    return low >= -tol and defect <= tol


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
    output Hermiticity defect relative to max(1, ||out||), over every
    probe. Raises ValueError when trials < 0 or tol is not a finite
    number >= 0.

    E is evaluated first, then the random probes are drawn, multiplied and
    diagonalized in stacks of up to 64 KB per copy. The seeded probe set
    is drawn once per process: while it is the last set drawn to the end
    and fits 2 MiB (up to n = 6 at 64 trials), a call with the same n,
    trials and integer seed reuses it, read-only and bit for bit, as
    check_cp does. Since
    ||out|| >= ||(out + out*)/2|| = max |eigenvalue|, the eigenvalues
    already give an upper bound on each probe's relative defect, and
    ||out|| is computed only for probes whose bound exceeds the worst
    defect so far.
    """
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    *_, (low, defect) = _extension_probes(phi, trials, rep, seed)
    return ExtensionReport(
        positive=_within(low, defect, tol),
        min_eigenvalue=float(low),
        hermiticity_defect=float(defect),
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
    probe pass over the probes of extension_positivity_check, drawn
    alike. Its verdict is the one that check gives at tol: a stack of
    probes whose outputs a Cholesky certificate proves positive with room
    for rounding is not measured, any other stack is measured exactly, and
    the pass ends at the first failing probe, since the rest cannot change
    the verdict. extension_positivity_check itself still measures and
    reports every probe. Both checks draw the seeded probe set once per
    process and reuse it while it is the last set drawn to the end and
    fits 2 MiB (up to n = 6 at 64 trials); a pass ended by a failing
    probe keeps nothing.

    Raises InternalDisagreement when the verdicts conflict, and ValueError
    when trials < 0 or tol is not a finite number >= 0.
    """
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    t = transfer(phi)
    ext_ok = _cp_probes_pass(phi.n, t.T, trials, rep, seed, tol)

    d = dual_choi(phi, rep)
    kraus_ok = False
    try:
        kd = _kraus_from_dual_choi(d, rep, tol)
    except NotPositive:
        kd = None
    if kd is not None:
        v = np.array(kd.ops, dtype=np.complex128).reshape(-1, phi.n, phi.n)
        t_kraus = transfer(PairSumMap(phi.n, np.stack((dagger(v), v), axis=1)))
        worst = float(np.max(np.abs(t_kraus - t)))
        kraus_ok = worst <= scaled_tol(worst, 10.0 * max(tol, 1e-12), t)

    dual_ok, dual_low = psd_within(d, tol)
    choi_ok, choi_low = psd_within(choi(phi), tol)

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

    All three concern choi, which does not depend on the weights, so rep
    only has to have phi's dimension. The minimum eigenvalues are NaN when
    choi(phi) is out of floating point range.
    """
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
        low_c, low_a = psd_within(c, tol)[1], psd_within(c_adj, tol)[1]
    except NumericalFailure:
        # an overflowed Choi matrix has no eigenvalues to report
        low_c = low_a = np.nan
    agree = (low_c >= -tol) == (low_a >= -tol) if hermitian else True
    return AdjointSymmetryReport(
        swap_transpose_error=swap_err,
        choi_hermitian=bool(hermitian),
        conjugation_error=conj_err,
        min_eig_choi=float(low_c),
        min_eig_adjoint_choi=float(low_a),
        positivity_agree=bool(agree),
    )
