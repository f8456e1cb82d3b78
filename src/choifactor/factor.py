"""A matrix factor in standard form.

The algebra M = 1 (x) M_n acts on C^n (x) C^n. A weight vector
(lambda_1, ..., lambda_n), positive and summing to one, fixes the unit
vector x = sum_i sqrt(lambda_i) e_i (x) e_i, which is cyclic and separating
for M: every vector is (1 (x) S)x for one S in M_n. This module owns that
correspondence; its kernels _state_vectors and _implementers map each way.

Basis order: e_i (x) e_k sits at flat index i*n + k, so the commutant
M' = M_n (x) 1 owns the first (slow) leg and the factor the second.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadWeights, DimensionMismatch
from .linalg import as_complex, dagger, kron


def _positive_weights(n: int, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != n:
        raise BadWeights(f"expected {n} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise BadWeights("weights must be finite and strictly positive")
    return w


@dataclass(frozen=True, eq=False)
class FactorRep:
    """Dimension plus the weight vector of the standard vector."""

    n: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = _positive_weights(self.n, self.weights).copy()
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise BadWeights(f"weights must sum to 1, got {float(w.sum())}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def tracial(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, atol=1e-12, rtol=0.0))

    @cached_property
    def state_vector(self) -> np.ndarray:
        x = np.diag(self._sqrt_weights).reshape(-1).astype(np.complex128)
        x.setflags(write=False)
        return x

    @cached_property
    def _sqrt_weights(self) -> np.ndarray:
        # sqrt(weights), read-only: the diagonal of x, which the kernels scale by
        s = np.sqrt(self.weights)
        s.setflags(write=False)
        return s

    def same_as(self, other: "FactorRep") -> bool:
        return self.n == other.n and bool(
            np.allclose(self.weights, other.weights, atol=1e-12, rtol=0.0)
        )


def make_factor(n: int, weights="tracial") -> FactorRep:
    """Build a representation; weights="tracial" means uniform 1/n.

    Explicit weights are normalized to sum one. Zero or negative entries,
    or a wrong count, raise BadWeights.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    if isinstance(weights, str):
        if weights != "tracial":
            raise BadWeights(f"unknown weight preset {weights!r}")
        w = np.full(n, 1.0 / n)
    else:
        # checked before normalizing, or (-1, -1) would pass as (1/2, 1/2)
        w = _positive_weights(n, weights)
        with np.errstate(over="ignore"):
            # a sum out of float range is taken of w / max(w) instead
            w = w if np.isfinite(w.sum()) else w / w.max()
        w = w / w.sum()
    return FactorRep(n=n, weights=w)


def state_projection(rep: FactorRep) -> tuple[np.ndarray, np.ndarray]:
    """The standard vector x and the rank-one projection onto it."""
    x = rep.state_vector
    return x.copy(), np.outer(x, np.conj(x))


def embed(rep: FactorRep, a, side: str = "factor") -> np.ndarray:
    """Lift an n-by-n matrix to the factor (1 (x) a) or commutant (a (x) 1)."""
    a = as_complex(a)
    if a.shape != (rep.n, rep.n):
        raise DimensionMismatch(f"expected {rep.n}x{rep.n}, got {a.shape}")
    eye = np.eye(rep.n)
    if side == "factor":
        return kron(eye, a)
    if side == "commutant":
        return kron(a, eye)
    raise ValueError(f"side must be 'factor' or 'commutant', got {side!r}")


def vector_state(rep: FactorRep, a):
    """State value sum_i lambda_i a_ii, i.e. <x, (1 (x) a) x>; for a stack
    (..., n, n) of matrices, the array of their values."""
    a = as_complex(a)
    if a.shape[-2:] != (rep.n, rep.n):
        raise DimensionMismatch(f"expected {rep.n}x{rep.n}, got {a.shape}")
    values = np.sum(rep.weights * np.diagonal(a, axis1=-2, axis2=-1), axis=-1)
    return complex(values) if a.ndim == 2 else values


def apply_factor_to_state(rep: FactorRep, a) -> np.ndarray:
    """The vector (1 (x) a) x without forming the n^2 by n^2 matrix; for a
    stack (..., n, n) of matrices, the (..., n^2) stack of their vectors.

    Under the flat index i*n + k this is the matrix diag(sqrt(weights)) a^T
    read out row-major.
    """
    a = as_complex(a)
    if a.shape[-2:] != (rep.n, rep.n):
        raise DimensionMismatch(f"expected {rep.n}x{rep.n}, got {a.shape}")
    return _state_vectors(rep, a)


def _state_vectors(rep: FactorRep, a: np.ndarray) -> np.ndarray:
    # apply_factor_to_state of a complex (..., n, n) stack, unchecked
    return (rep._sqrt_weights[:, None] * a.swapaxes(-1, -2)).reshape(a.shape[:-2] + (rep.n**2,))


def implementer_from_vector(rep: FactorRep, y) -> np.ndarray:
    """The unique S in M_n with (1 (x) S) x = y; for a stack (..., n^2) of
    vectors, the (..., n, n) stack of their S.

    Writing y as an n-by-n array Y (row-major over the flat index),
    S = Y^T diag(weights)^(-1/2).
    """
    y = as_complex(y)
    if y.shape[-1:] != (rep.n * rep.n,):
        raise DimensionMismatch(f"expected length {rep.n * rep.n}, got shape {y.shape}")
    return _implementers(rep, y)


def _implementers(rep: FactorRep, y: np.ndarray) -> np.ndarray:
    # implementer_from_vector of a complex (..., n^2) stack, unchecked
    ymat = y.reshape(y.shape[:-1] + (rep.n, rep.n))
    return ymat.swapaxes(-1, -2) * (1.0 / rep._sqrt_weights)


def modular_conjugate(rep: FactorRep, v) -> np.ndarray:
    """Modular conjugation: reshape, adjoint, flatten.

    J(Y) = Y* in the Hilbert-Schmidt picture, whatever the weights: the
    standard vector x = diag(sqrt(weights)) is self-adjoint there. J is
    antilinear, squares to the identity, fixes x, and conjugates 1 (x) A
    to conj(A) (x) 1.
    """
    v = as_complex(v).reshape(-1)
    if v.shape[0] != rep.n * rep.n:
        raise DimensionMismatch(f"expected length {rep.n * rep.n}, got {v.shape[0]}")
    return dagger(v.reshape(rep.n, rep.n)).reshape(-1)
