"""Positivity of pair-sum maps via product-vector pairings.

A Hermiticity-preserving map is positive exactly when
<u (x) v | D | u (x) v> >= 0 for every pair of unit vectors, with D the
dual Choi operator, u on the commutant (first) leg and v on the factor
(second) leg. Minimizing that pairing is a biquadratic problem; fixing
one leg makes the other an eigenvalue problem, which the see-saw
alternates. A dense grid over the Bloch sphere gives a slow but
assumption-free oracle at n = 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NumericalFailure, UnsupportedDimension
from .factor import FactorRep
from .linalg import (_check_tol, _require_finite, as_complex, canonical_phase, dagger,
                     hermitian_part, opnorm, psd_within)
from .maps import PairSumMap, _resolve_rep, apply_map, choi, dual_choi


@dataclass(frozen=True)
class PositivityCertificate:
    """Verdict plus the product vector that witnesses it.

    value is <u (x) v | D | u (x) v> at the reported witness, recomputable
    from the fields. For the seesaw and brute methods the pairing is real;
    the direct method flags maps that fail to preserve Hermiticity, where
    the violation shows up as a nonzero imaginary part.
    """

    verdict: str  # "positive" | "not-positive" | "inconclusive"
    value: float
    witness_u: np.ndarray
    witness_v: np.ndarray
    method: str  # "seesaw" | "brute" | "direct"
    seed: int
    pairing_imag: float = 0.0


def product_pairing(d, u, v) -> complex:
    """<u (x) v | d | u (x) v>."""
    d = as_complex(d)
    p = np.kron(as_complex(u).reshape(-1), as_complex(v).reshape(-1))
    if d.shape != (p.shape[0], p.shape[0]):
        raise DimensionMismatch(f"operator shape {d.shape} vs product length {p.shape[0]}")
    return complex(np.vdot(p, d @ p))


def _side_dim(d: np.ndarray) -> int:
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {d.shape}")
    n = int(round(np.sqrt(d.shape[0])))
    if n * n != d.shape[0]:
        raise DimensionMismatch(f"side {d.shape[0]} is not a perfect square")
    return n


def _contract_u(d4: np.ndarray, u: np.ndarray) -> np.ndarray:
    # matrix acting on the second leg once the first is fixed at u
    return np.einsum("i,iajb,j->ab", np.conj(u), d4, u)


def _contract_v(d4: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("a,iajb,b->ij", np.conj(v), d4, v)


def _min_eigvec(m: np.ndarray) -> tuple[float, np.ndarray]:
    evals, evecs = np.linalg.eigh(m)
    return float(evals[0]), evecs[:, 0]


def _check_descent(value: float, previous: float, scale: float) -> None:
    # each half-step minimizes over a set holding the previous point, so
    # the objective can rise only by rounding, or not be a number at all
    if not value <= previous + 1e-12 * scale:
        raise NumericalFailure(
            f"seesaw step went from {previous!r} to {value!r} instead of down: "
            "the pairing operator is out of floating point range"
        )


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts!r}")


def seesaw_product_min(
    d,
    restarts: int = 32,
    iters: int = 500,
    tol: float = 1e-9,
    seed: int = 42,
) -> PositivityCertificate:
    """Alternating minimization of the product pairing of a Hermitian d.

    Each half-step solves a small eigenvalue problem, so the objective
    never increases; a restart stops when a full sweep improves by less
    than tol. Restart r draws its starting vector from
    default_rng(seed + r); the best restart wins, ties to the lowest
    index. Heuristic: a value above -tol does not prove positivity.
    Raises ValueError when restarts < 1.
    """
    _check_restarts(restarts)
    d = as_complex(d)
    n = _side_dim(d)
    scale = max(1.0, opnorm(d))
    d, _, hermitian = hermitian_part(d, 1e-9)
    if not hermitian:
        raise NotHermitian("seesaw needs a Hermitian pairing operator")
    d4 = d.reshape(n, n, n, n)

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        value, v = _min_eigvec(_contract_u(d4, u))
        for _ in range(iters):
            sweep_start = value
            value, u = _min_eigvec(_contract_v(d4, v))
            _check_descent(value, sweep_start, scale)
            half = value
            value, v = _min_eigvec(_contract_u(d4, u))
            _check_descent(value, half, scale)
            if sweep_start - value < tol:
                break
        if best is None or value < best[0]:
            best = (value, u, v)

    _, u, v = best
    u = canonical_phase(u)
    v = canonical_phase(v)
    final = product_pairing(d, u, v)
    value = float(np.real(final))
    verdict = "not-positive" if value < -tol else "positive"
    return PositivityCertificate(
        verdict=verdict,
        value=value,
        witness_u=u,
        witness_v=v,
        method="seesaw",
        seed=seed,
    )


def brute_product_min(d, resolution: int = 90) -> tuple[float, np.ndarray, np.ndarray]:
    """Exhaustive product-pairing minimum at n = 2.

    Sweeps u over a resolution^2 grid of Bloch angles (theta from 0 to pi
    inclusive, phi over a full turn) and minimizes exactly over v for each
    u. Accuracy is O(1/resolution); other dimensions raise
    UnsupportedDimension, resolution < 1 raises ValueError, and an
    operator out of floating point range raises NumericalFailure.
    """
    d = as_complex(d)
    n = _side_dim(d)
    if n != 2:
        raise UnsupportedDimension("the dense grid oracle is implemented for n = 2 only")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution!r}")
    # the grid minimizes over the Hermitian part, whatever the defect
    d4 = hermitian_part(d, np.inf)[0].reshape(2, 2, 2, 2)

    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    us = np.stack(
        [np.cos(tt / 2.0).ravel(), np.exp(1j * pp.ravel()) * np.sin(tt / 2.0).ravel()],
        axis=1,
    )
    mats = np.einsum("gi,iajb,gj->gab", np.conj(us), d4, us)
    _require_finite("diagonalize", mats)
    evals, evecs = np.linalg.eigh(mats)
    lows = evals[:, 0]
    g = int(np.argmin(lows))
    u = canonical_phase(us[g])
    v = canonical_phase(evecs[g][:, 0])
    return float(lows[g]), u, v


def _direct_hermiticity_witness(
    phi: PairSumMap, rep: FactorRep, d: np.ndarray, seed: int
) -> PositivityCertificate:
    # A positive map sends Hermitian inputs to Hermitian outputs, so a
    # Hermiticity defect on some rank-one input already refutes positivity.
    # Probe rank-one projections spanning the Hermitian matrices, take the
    # worst offender, and read the witness off its output's skew part.
    eye = np.eye(phi.n, dtype=np.complex128)
    # e_a, then (e_a + e_b)/sqrt(2) and (e_a + i e_b)/sqrt(2) for each b > a
    probes = np.array([v for a in range(phi.n) for v in [eye[a]] + [
        (eye[a] + z * eye[b]) / np.sqrt(2.0) for b in range(a + 1, phi.n) for z in (1, 1j)]])
    # phi of every projection v v* at once, as apply_map computes each
    outs = (phi.a @ (probes[:, :, None] * np.conj(probes)[:, None, :])[:, None] @ phi.b).sum(axis=1)
    skews = (outs - dagger(outs)) / 2j
    _require_finite("take the operator norm", skews)
    # the first probe of largest skew part wins
    k = int(np.argmax(np.linalg.norm(skews, 2, axis=(1, 2))))
    v, skew = probes[k], skews[k]
    evals, evecs = np.linalg.eigh(skew)
    pick = int(np.argmax(np.abs(evals)))
    w = evecs[:, pick]
    u = np.conj(w) / np.sqrt(rep.weights)
    u = canonical_phase(u / np.linalg.norm(u))
    v = canonical_phase(v)
    pairing = product_pairing(d, u, v)
    return PositivityCertificate(
        verdict="not-positive",
        value=float(np.real(pairing)),
        witness_u=u,
        witness_v=v,
        method="direct",
        seed=seed,
        pairing_imag=float(np.imag(pairing)),
    )


def check_positive(
    phi: PairSumMap,
    rep: FactorRep | None = None,
    *,
    restarts: int = 32,
    iters: int = 500,
    tol: float = 1e-9,
    seed: int = 42,
    oracle: bool = False,
    resolution: int = 90,
) -> PositivityCertificate:
    """Positivity certificate for a pair-sum map.

    Maps that fail to preserve Hermiticity are refused directly. Otherwise
    the pairing of the dual Choi operator is minimized by seesaw; a value
    below -tol is cross-checked by applying phi to the witness rank-one
    input, which must show a negative output eigenvalue (else the verdict
    degrades to inconclusive). With oracle=True (n = 2 only) the grid
    search confirms or overrides the seesaw. Raises ValueError when
    restarts < 1 or tol is not a finite number >= 0, whichever method
    decides.
    """
    _check_restarts(restarts)
    _check_tol(tol)
    rep = _resolve_rep(phi, rep)
    d = dual_choi(phi, rep)

    if not hermitian_part(choi(phi), tol)[2]:
        return _direct_hermiticity_witness(phi, rep, d, seed)

    cert = seesaw_product_min(d, restarts=restarts, iters=iters, tol=tol, seed=seed)
    value, u, v = cert.value, cert.witness_u, cert.witness_v
    method = "seesaw"

    if oracle:
        if phi.n != 2:
            raise UnsupportedDimension("oracle confirmation needs n = 2")
        bval, bu, bv = brute_product_min(d, resolution=resolution)
        if bval < value:
            value, u, v = bval, bu, bv
        method = "brute"

    value = float(np.real(product_pairing(d, u, v)))
    if value < -tol:
        out = apply_map(phi, np.outer(v, np.conj(v)))
        _, low = psd_within(out, tol / 2.0)
        verdict = "not-positive" if low < -tol / 2.0 else "inconclusive"
    else:
        verdict = "positive"
    return PositivityCertificate(
        verdict=verdict,
        value=value,
        witness_u=u,
        witness_v=v,
        method=method,
        seed=seed,
    )
