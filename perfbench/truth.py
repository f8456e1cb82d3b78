"""Reference answers in plain numpy, written from the definitions.

The benchmark checks the program's answers against these, so none of them
calls into choifactor. Term stacks are arrays of shape (k, n, n): a map is
C -> sum_t A[t] C B[t], an element is sum_t (1 (x) A[t]) E (1 (x) B[t]),
and w is the weight vector of the standard vector
x = sum_i sqrt(w_i) e_i (x) e_i (flat index i*n + k).
"""
from __future__ import annotations

import numpy as np


def transfer(a, b) -> np.ndarray:
    """vec(phi(C)) = T vec(C), row-major: T = sum_t kron(A_t, B_t^T)."""
    n = a.shape[1]
    return np.einsum("tij,tkl->iljk", a, b).reshape(n * n, n * n)


def choi(a, b) -> np.ndarray:
    """sum_ij e_ij (x) phi(e_ij); entry ((i,a),(j,b)) is sum_t A[t,a,i] B[t,j,b]."""
    n = a.shape[1]
    return np.einsum("tai,tjb->iajb", a, b).reshape(n * n, n * n)


def state_sum(a, b, w) -> np.ndarray:
    """Dense sum_t |(1 (x) A_t) x><(1 (x) B_t*) x|."""
    n = a.shape[1]
    s = np.sqrt(w)
    m = np.einsum("tki,tjl->ikjl", a, b) * s[:, None, None, None] * s[None, None, :, None]
    return m.reshape(n * n, n * n)


def dual_choi(a, b, w) -> np.ndarray:
    """sum_t (1 (x) B_t) E (1 (x) A_t)."""
    return state_sum(b, a, w)


def implemented_vector(s, w) -> np.ndarray:
    """(1 (x) S) x."""
    return (np.sqrt(w)[:, None] * s.T).reshape(-1)


def apply(a, b, c) -> np.ndarray:
    return np.einsum("tij,jk,tkl->il", a, c, b)


def pairing(d, u, v) -> complex:
    """<u (x) v | d | u (x) v>."""
    p = np.kron(u, v)
    return complex(np.vdot(p, d @ p))


def hermitian_part_min(m) -> tuple[float, float]:
    """(max |m - m*|, lowest eigenvalue of the Hermitian part)."""
    defect = float(np.max(np.abs(m - m.conj().T)))
    return defect, float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def cp_verdict(a, b) -> bool:
    """Complete positivity from the Choi matrix; refuses the grey zone."""
    j = choi(a, b)
    scale = max(1.0, float(np.linalg.norm(j, 2)))
    defect, low = hermitian_part_min(j)
    if defect > 1e-6 * scale or low < -1e-6 * scale:
        return False
    if low >= -1e-9:
        return True
    raise ValueError(f"Choi minimum eigenvalue {low:.3e} is too close to the tolerance")


def close(x, y, rtol: float) -> bool:
    """max |x - y| within rtol times max(1, max |y|)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and float(np.max(np.abs(x - y))) <= rtol * max(
        1.0, float(np.max(np.abs(y)))
    )
