"""An exact complete-positivity oracle for pair-sum maps, in rational arithmetic.

Every float of the term stacks converts exactly to a Fraction, so the Choi
matrix of the map the floats define is formed without rounding, and its
psd test is a symmetric elimination with exact pivots. It decides maps
whose Choi eigenvalues sit at any distance from zero, which no tolerance
on a computed spectrum can; it is meant for small n only.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def _exact(z) -> tuple[Fraction, Fraction]:
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def exact_choi(a, b, shift=0) -> list[list[tuple[Fraction, Fraction]]]:
    """choi[(i, k), (j, l)] = sum_t A_t[k, i] B_t[j, l], plus shift * 1, as
    (real, imaginary) Fraction pairs, rows and columns at i * n + k."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1]
    ea = [[[_exact(x) for x in row] for row in m] for m in a]
    eb = [[[_exact(x) for x in row] for row in m] for m in b]
    choi = []
    for i in range(n):
        for k in range(n):
            row = []
            for j in range(n):
                for l in range(n):
                    re = im = Fraction(0)
                    for at, bt in zip(ea, eb):
                        (ar, ai), (br, bi) = at[k][i], bt[j][l]
                        re += ar * br - ai * bi
                        im += ar * bi + ai * br
                    row.append((re, im))
            choi.append(row)
    for r in range(n * n):
        choi[r][r] = (choi[r][r][0] + Fraction(shift), choi[r][r][1])
    return choi


def _psd_symmetric(m: list[list[Fraction]]) -> bool:
    # symmetric elimination without pivoting: a real symmetric matrix is psd
    # exactly when no pivot is negative and a zero pivot has a zero row
    # (else a 2x2 principal minor [[0, x], [x, y]] is negative)
    m = [row[:] for row in m]
    size = len(m)
    for p in range(size):
        pivot = m[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(m[p][j] for j in range(p + 1, size)):
                return False
            continue
        for i in range(p + 1, size):
            f = m[i][p] / pivot
            if f:
                for j in range(p + 1, size):
                    m[i][j] -= f * m[p][j]
    return True


def exact_choi_psd(a, b, shift=0) -> bool:
    """Whether choi + shift * 1 of the map sum_t A_t C B_t is psd, exactly:
    False if it is not exactly Hermitian, else the verdict of its real
    embedding [[Re, -Im], [Im, Re]], which is psd exactly when it is."""
    choi = exact_choi(a, b, shift)
    size = len(choi)
    for r in range(size):
        for c in range(r, size):
            (xr, xi), (yr, yi) = choi[r][c], choi[c][r]
            if xr != yr or xi != -yi:
                return False
    real = [[choi[r][c][0] for c in range(size)] + [-choi[r][c][1] for c in range(size)]
            for r in range(size)]
    real += [[choi[r][c][1] for c in range(size)] + [choi[r][c][0] for c in range(size)]
             for r in range(size)]
    return _psd_symmetric(real)
