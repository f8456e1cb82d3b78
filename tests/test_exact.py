"""check_cp against an exact rational oracle (tests/exact.py), and the
oracle against maps whose Choi spectrum is known."""
import numpy as np
import pytest

from choifactor import (
    InternalDisagreement,
    PairSumMap,
    check_cp,
    choi,
    conjugation_map,
    identity_map,
    map_scale,
    map_sum,
    trace_map,
    transpose_map,
)
from exact import exact_choi_psd
from helpers import cgauss, matrix_unit, random_cp_map

ROADMAP_1 = "ROADMAP item 1"


def _sign_mixed(rng, n, k_plus, k_minus):
    # sum of k_plus conjugations minus k_minus: Hermiticity-preserving
    # exactly, since conjugating and negating a float round nothing
    vs = cgauss(rng, k_plus + k_minus, n, n)
    signs = np.repeat([1.0, -1.0], [k_plus, k_minus])
    return PairSumMap(n, np.stack((signs[:, None, None] * vs.conj().swapaxes(1, 2), vs), axis=1))


def _maps_far_from_tol():
    rng = np.random.default_rng(7)
    maps = [identity_map(3), trace_map(2), transpose_map(2), transpose_map(3),
            conjugation_map(cgauss(rng, 3, 3))]
    maps += [random_cp_map(rng, n, k) for n, k in ((2, 1), (2, 4), (3, 2))]
    maps += [_sign_mixed(rng, n, kp, km) for n, kp, km in ((2, 1, 1), (2, 3, 1), (3, 2, 1))]
    return maps


def _band(n, t):
    return map_sum(identity_map(n), map_scale(transpose_map(n), t))


@pytest.mark.parametrize("index", range(len(_maps_far_from_tol())))
def test_check_cp_agrees_with_the_exact_oracle_far_from_tol(index):
    phi = _maps_far_from_tol()[index]
    w = np.abs(np.linalg.eigvalsh(choi(phi)))
    # every Choi eigenvalue is rounding-sized or far beyond the default tol
    assert not np.any((w > 1e-12) & (w < 1e-6))
    assert check_cp(phi).cp is exact_choi_psd(phi.a, phi.b)


def test_oracle_reads_the_transpose_spectrum_exactly():
    # choi(transpose) is the leg swap, with eigenvalues +-1
    t = transpose_map(2)
    assert exact_choi_psd(t.a, t.b, shift=1)
    assert not exact_choi_psd(t.a, t.b, shift=1 - 2.0**-40)


def test_oracle_refuses_an_exactly_non_hermitian_choi_matrix():
    phi = PairSumMap(2, ((matrix_unit(2, 0, 1), np.eye(2)),))
    assert not exact_choi_psd(phi.a, phi.b, shift=10)


@pytest.mark.parametrize("n, t", [(3, 2e-9), (2, 1.5e-9)])
def test_oracle_puts_the_band_maps_lowest_choi_eigenvalue_at_minus_t(n, t):
    phi = _band(n, t)
    assert not exact_choi_psd(phi.a, phi.b)
    assert exact_choi_psd(phi.a, phi.b, shift=t)
    assert not exact_choi_psd(phi.a, phi.b, shift=t * (1 - 1e-6))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ROADMAP_1)
def test_check_cp_is_scale_invariant_on_the_exactly_cp_scaled_identity():
    phi = map_scale(identity_map(3), 1e7)
    assert exact_choi_psd(phi.a, phi.b)
    assert check_cp(phi).cp


@pytest.mark.xfail(strict=True, raises=InternalDisagreement, reason=ROADMAP_1)
@pytest.mark.parametrize("n, t", [(3, 2e-9), (2, 1.5e-9)])
def test_check_cp_reports_the_oracles_verdict_on_a_band_map(n, t):
    phi = _band(n, t)
    assert check_cp(phi).cp is exact_choi_psd(phi.a, phi.b)
