import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from choifactor import (
    DimensionMismatch,
    InternalDisagreement,
    NotPositive,
    NumericalFailure,
    PairSumElement,
    PairSumMap,
    adjoint_choi_symmetry,
    adjoint_map,
    apply_map,
    check_cp,
    check_positive,
    choi,
    conjugation_map,
    dual_choi,
    embed,
    extension_positivity_check,
    identity_map,
    implementer_from_vector,
    kraus_apply,
    kraus_decompose,
    make_factor,
    map_from_dual_choi,
    map_scale,
    map_sum,
    materialize,
    parse_element_file,
    parse_map_file,
    spectral_decompose,
    state_projection,
    trace_map,
    transfer,
    transpose_map,
)
from choifactor import linalg, maps, positivity, projection_algebra
from choifactor.linalg import hermitian_eig, hermiticity_defect, matrix_units
from choifactor.maps import _STACK_BYTES, _extension_probes, _random_gram, _unit_scaled
from helpers import cgauss, matrix_unit, random_cp_map, random_hp_map, random_map

TRACIAL2 = make_factor(2)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_apply_identity_and_transpose():
    rng = np.random.default_rng(1)
    c = cgauss(rng, 2, 2)
    assert np.abs(apply_map(identity_map(2), c) - c).max() < 1e-15
    assert np.abs(apply_map(transpose_map(2), c) - c.T).max() < 1e-15
    assert np.allclose(apply_map(transpose_map(2), matrix_unit(2, 0, 1)), matrix_unit(2, 1, 0))


def test_apply_empty_map_is_zero():
    z = PairSumMap(2, ())
    assert np.allclose(apply_map(z, np.eye(2)), 0.0)


def test_apply_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        apply_map(identity_map(2), np.eye(3))


def test_trace_map_action():
    rng = np.random.default_rng(2)
    c = cgauss(rng, 2, 2)
    assert np.abs(apply_map(trace_map(2), c) - np.trace(c) * np.eye(2) / 2).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_transfer_matches_action(n):
    rng = np.random.default_rng(3 + n)
    phi = random_map(rng, n, 3)
    t = transfer(phi)
    for _ in range(5):
        c = cgauss(rng, n, n)
        assert np.abs((t @ c.reshape(-1)).reshape(n, n) - apply_map(phi, c)).max() < 1e-12


def test_adjoint_swaps_sides():
    phi = adjoint_map(identity_map(2))
    assert np.abs(transfer(phi) - np.eye(4)).max() < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjoint_trace_pairing(n):
    rng = np.random.default_rng(5 + n)
    phi = random_map(rng, n, 3)
    adj = adjoint_map(phi)
    for _ in range(5):
        a, b = cgauss(rng, n, n), cgauss(rng, n, n)
        lhs = np.trace(apply_map(phi, a) @ b)
        rhs = np.trace(a @ apply_map(adj, b))
        assert abs(lhs - rhs) < 1e-11


def test_adjoint_involution():
    rng = np.random.default_rng(7)
    phi = random_map(rng, 3, 4)
    assert np.abs(transfer(adjoint_map(adjoint_map(phi))) - transfer(phi)).max() < 1e-15


def test_choi_identity():
    _, e = state_projection(TRACIAL2)
    assert np.abs(choi(identity_map(2)) - 2 * e).max() < 1e-15


def test_choi_transpose_is_swap():
    c = choi(transpose_map(2))
    assert np.abs(c - SWAP).max() < 1e-15
    evals = np.linalg.eigvalsh(c)
    assert np.allclose(evals, [-1, 1, 1, 1], atol=1e-12)


def test_choi_linear():
    rng = np.random.default_rng(11)
    phi = random_map(rng, 2, 2)
    assert np.abs(choi(map_scale(phi, 3.0)) - 3 * choi(phi)).max() < 1e-12
    assert np.allclose(choi(PairSumMap(2, ())), 0.0)


def test_dual_choi_identity_map():
    _, e = state_projection(TRACIAL2)
    assert np.abs(dual_choi(identity_map(2), TRACIAL2) - e).max() < 1e-15


def test_dual_choi_transpose():
    assert np.abs(dual_choi(transpose_map(2), TRACIAL2) - SWAP / 2).max() < 1e-15


def test_dual_choi_conjugation_psd():
    rng = np.random.default_rng(13)
    v = cgauss(rng, 3, 3)
    rep = make_factor(3, [0.2, 0.3, 0.5])
    d = dual_choi(conjugation_map(v), rep)
    assert np.abs(d - d.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(d).min() > -1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_choi_bridge(n):
    # at uniform weights, dual Choi = Choi of the adjoint divided by n
    rng = np.random.default_rng(17 + n)
    rep = make_factor(n)
    for k in (1, 3, 5):
        phi = random_map(rng, n, k)
        lhs = dual_choi(phi, rep)
        rhs = choi(adjoint_map(phi)) / n
        assert np.abs(lhs - rhs).max() < 1e-12


def test_dual_choi_matches_element_materialization():
    rng = np.random.default_rng(19)
    rep = make_factor(3, [0.5, 0.25, 0.25])
    phi = random_map(rng, 3, 3)
    swapped = tuple((b, a) for a, b in phi.terms)
    elem = PairSumElement(rep, swapped)
    assert np.abs(dual_choi(phi, rep) - materialize(elem)).max() < 1e-14


def test_map_from_dual_choi_fixed_points():
    _, e = state_projection(TRACIAL2)
    assert np.abs(map_from_dual_choi(e, TRACIAL2) - np.eye(4)).max() < 1e-12
    got = map_from_dual_choi(SWAP / 2, TRACIAL2)
    assert np.abs(got - transfer(transpose_map(2))).max() < 1e-12
    assert np.allclose(map_from_dual_choi(np.zeros((4, 4)), TRACIAL2), 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_map_from_dual_choi_roundtrip(n):
    rng = np.random.default_rng(23 + n)
    rep = make_factor(n)
    for k in (1, 2, 5):
        phi = random_map(rng, n, k)
        rebuilt = map_from_dual_choi(dual_choi(phi, rep), rep)
        assert np.abs(rebuilt - transfer(phi)).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_map_from_dual_choi_roundtrip_at_any_weights(n):
    rng = np.random.default_rng(53 + n)
    rep = make_factor(n, rng.uniform(0.1, 1.0, n))
    for k in (1, 2, 5):
        phi = random_map(rng, n, k)
        rebuilt = map_from_dual_choi(dual_choi(phi, rep), rep)
        assert np.abs(rebuilt - transfer(phi)).max() < 1e-10


def test_adjoint_choi_symmetry_at_any_weights():
    # its claims concern choi, which the weights do not enter
    rng = np.random.default_rng(59)
    phi = random_hp_map(rng, 3, 4)
    rep = make_factor(3, [0.2, 0.3, 0.5])
    assert adjoint_choi_symmetry(phi, rep=rep) == adjoint_choi_symmetry(phi)


def test_cancelling_presentation_vanishes():
    rng = np.random.default_rng(29)
    a, b = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    phi = PairSumMap(2, ((a, b), (-a, b)))
    assert np.abs(dual_choi(phi, TRACIAL2)).max() < 1e-12
    assert np.abs(transfer(phi)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_dual_choi_faithful(n):
    # zero dual Choi operator forces the zero map, and conversely
    rng = np.random.default_rng(31 + n)
    rep = make_factor(n)
    phi = random_map(rng, n, 3)
    psi_terms = phi.terms + tuple((-a, b) for a, b in phi.terms)
    psi = PairSumMap(n, psi_terms)
    assert np.abs(dual_choi(psi, rep)).max() < 1e-12
    assert np.abs(transfer(psi)).max() < 1e-12
    d = dual_choi(phi, rep)
    if np.abs(transfer(phi)).max() > 1e-6:
        assert np.abs(d).max() > 1e-12


def test_kraus_single_conjugation():
    rng = np.random.default_rng(37)
    v = cgauss(rng, 2, 2)
    phi = conjugation_map(v)
    kd = kraus_decompose(phi)
    assert len(kd) == 1
    got = kd.ops[0]
    # equal to v up to the phase convention
    overlap = abs(np.vdot(got.reshape(-1), v.reshape(-1)))
    assert abs(overlap - np.linalg.norm(v) ** 2) < 1e-9


def test_kraus_trace_map_units():
    kd = kraus_decompose(trace_map(2), TRACIAL2)
    assert len(kd) == 4
    assert np.allclose(kd.coefficients, 0.25, atol=1e-12)
    expected = {
        (i, j): matrix_unit(2, i, j) / np.sqrt(2) for i in range(2) for j in range(2)
    }
    for op in kd.ops:
        match = min(
            np.abs(op - want).max() for want in expected.values()
        )
        assert match < 1e-12
    rebuilt = kraus_apply(kd, np.eye(2))
    assert np.abs(rebuilt - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("rep", [TRACIAL2, make_factor(2, [0.25, 0.75]), make_factor(3)])
def test_kraus_roundtrip_random_cp(rep):
    rng = np.random.default_rng(41 + rep.n)
    n = rep.n
    for k in (1, 2, 4):
        phi = random_cp_map(rng, n, k)
        kd = kraus_decompose(phi, rep)
        for i in range(n):
            for j in range(n):
                u = matrix_unit(n, i, j)
                assert np.abs(kraus_apply(kd, u) - apply_map(phi, u)).max() < 1e-9


def test_kraus_transpose_not_positive():
    with pytest.raises(NotPositive) as exc:
        kraus_decompose(transpose_map(2), TRACIAL2)
    assert abs(exc.value.min_eigenvalue - (-0.5)) < 1e-10


def test_kraus_respects_tolerance_sign():
    # slightly negative dual Choi within tol still decomposes
    phi = map_sum(identity_map(2), map_scale(trace_map(2), -1e-12))
    kd = kraus_decompose(phi, TRACIAL2, tol=1e-9)
    assert len(kd) >= 1


def test_kraus_deterministic():
    kd1 = kraus_decompose(trace_map(2), TRACIAL2)
    kd2 = kraus_decompose(trace_map(2), TRACIAL2)
    for a, b in zip(kd1.ops, kd2.ops):
        assert np.array_equal(a, b)


def test_check_cp_identity():
    report = check_cp(identity_map(2))
    assert report.cp
    assert report.amplification_positive
    assert report.extension_positive
    assert report.kraus_exists
    assert report.dual_choi_psd
    assert report.choi_psd
    assert report.min_eig_dual_choi > -1e-12


def test_check_cp_transpose():
    report = check_cp(transpose_map(2))
    assert not report.cp
    assert not report.amplification_positive
    assert not report.extension_positive
    assert not report.kraus_exists
    assert not report.dual_choi_psd
    assert not report.choi_psd
    assert abs(report.min_eig_dual_choi - (-0.5)) < 1e-10
    assert abs(report.min_eig_choi - (-1.0)) < 1e-10


def test_check_cp_trace_and_zero():
    assert check_cp(trace_map(2)).cp
    assert check_cp(PairSumMap(2, ())).cp


def test_check_cp_weighted_rep():
    rep = make_factor(2, [0.25, 0.75])
    rng = np.random.default_rng(43)
    assert check_cp(random_cp_map(rng, 2, 2), rep=rep).cp
    assert not check_cp(transpose_map(2), rep=rep).cp


def test_extension_check_identity():
    report = extension_positivity_check(identity_map(2))
    assert report.positive
    assert report.min_eigenvalue > -1e-12


def test_extension_check_transpose():
    # the state projection probe already produces Choi/n = SWAP/2
    report = extension_positivity_check(transpose_map(2))
    assert not report.positive
    assert report.min_eigenvalue <= -0.5 + 1e-10


def test_extension_check_flags_nonhermitian_output():
    rng = np.random.default_rng(47)
    phi = PairSumMap(2, ((cgauss(rng, 2, 2), cgauss(rng, 2, 2)),))
    report = extension_positivity_check(phi)
    assert not report.positive
    assert report.hermiticity_defect > 1e-6


def _lifted_extension_reference(phi, rep, trials, seed):
    # sum_i (1(x)A_i) X (1(x)B_i) with the coefficients lifted to n^2 x n^2,
    # on E and then on the seeded psd probes in extension_positivity_check's order
    rng = np.random.default_rng(seed)
    dim = phi.n * phi.n
    x0 = rep.state_vector
    probes = [np.outer(x0, np.conj(x0))]
    for _ in range(trials):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        probes.append(m / max(1.0, np.linalg.norm(m, 2)))
    lifted = [(embed(rep, a), embed(rep, b)) for a, b in phi.terms]
    worst_low, worst_defect = np.inf, 0.0
    for x in probes:
        out = sum((la @ x @ lb for la, lb in lifted), np.zeros_like(x))
        defect = np.max(np.abs(out - out.conj().T)) / max(1.0, np.linalg.norm(out, 2))
        worst_defect = max(worst_defect, defect)
        worst_low = min(worst_low, np.linalg.eigvalsh((out + out.conj().T) / 2)[0])
    return worst_low, worst_defect


def _band_map(n, t):
    return map_sum(identity_map(n), map_scale(transpose_map(n), t))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("weighted", [False, True])
def test_extension_check_matches_lifted_reference(n, weighted):
    # tolerance fixed from double precision: sums of n^2 products of O(1) terms
    rtol = 1e-12
    rng = np.random.default_rng(60 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    maps = [random_map(rng, n, 3), random_cp_map(rng, n, 2), random_hp_map(rng, n, 3)]
    maps += [_band_map(n, t) for t in (1e-10, 1.5e-9, 3e-9, 1e-6)]
    for phi in maps:
        report = extension_positivity_check(phi, trials=6, rep=rep, seed=7)
        low, defect = _lifted_extension_reference(phi, rep, trials=6, seed=7)
        scale = max(1.0, np.linalg.norm(transfer(phi), 2))
        assert abs(report.min_eigenvalue - low) <= rtol * scale
        assert abs(report.hermiticity_defect - defect) <= rtol


def _per_probe_extension_reference(phi, rep, trials, seed):
    # the probe loop one matrix at a time: E, then each seeded psd probe with
    # its real and imaginary draws, the output's defect relative to its SVD norm
    rng = np.random.default_rng(seed)
    n = phi.n
    dim = n * n
    t_rows = transfer(phi).T

    def blocks_as_rows(m):
        return m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(dim, dim)

    x0 = rep.state_vector
    x = np.outer(x0, np.conj(x0))
    worst_low, worst_defect = np.inf, 0.0
    for k in range(trials + 1):
        if k:
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ np.conj(g).T
            x = m / max(1.0, np.linalg.norm(m, 2))
        out = blocks_as_rows(blocks_as_rows(x) @ t_rows)
        defect = np.max(np.abs(out - np.conj(out).T))
        worst_defect = max(worst_defect, defect / max(1.0, np.linalg.norm(out, 2)))
        worst_low = min(worst_low, float(np.linalg.eigvalsh((out + np.conj(out).T) / 2.0)[0]))
    ok = worst_low >= -1e-9 and worst_defect <= 1e-9
    return ok, worst_low, worst_defect


@pytest.mark.parametrize("n", [2, 3, 6, 8])
@pytest.mark.parametrize("weighted", [False, True])
def test_stacked_extension_check_matches_per_probe_loop(n, weighted):
    # stacks hold 256 probes at n = 2, 50 at n = 3, 3 at n = 6 and 1 at n = 8:
    # E plus 0-4 trials fills an n = 6 stack partly, exactly and one over, and
    # 64 trials take two stacks at n = 3. Tolerance fixed beforehand: the
    # stacks do the same floating point work as the loop.
    rtol = 1e-14
    rng = np.random.default_rng(90 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    maps = [random_map(rng, n, 2), random_hp_map(rng, n, 2), _band_map(n, 1.5e-9)]
    for phi in maps:
        for trials in (0, 1, 2, 3, 4, 64):
            report = extension_positivity_check(phi, trials=trials, rep=rep, seed=trials)
            ok, low, defect = _per_probe_extension_reference(phi, rep, trials, seed=trials)
            assert report.positive == ok
            assert abs(report.min_eigenvalue - low) <= rtol * abs(low)
            assert abs(report.hermiticity_defect - defect) <= rtol * defect
            assert (report.trials, report.seed) == (trials, trials)


@pytest.mark.parametrize("dim", [4, 9, 36])
def test_stacked_probe_draws_match_sequential_draws(dim):
    rng_stacked, rng_seq = np.random.default_rng(11), np.random.default_rng(11)
    stacks = [_unit_scaled(_random_gram(rng_stacked, count, dim)) for count in (3, 0, 1, 5)]
    want = []
    for _ in range(9):
        g = rng_seq.standard_normal((dim, dim)) + 1j * rng_seq.standard_normal((dim, dim))
        m = g @ np.conj(g).T
        want.append(m / max(1.0, np.linalg.norm(m, 2)))
    assert np.array_equal(np.concatenate(stacks), np.array(want))
    assert rng_stacked.standard_normal() == rng_seq.standard_normal()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_transfer_equals_kronecker_sum(n):
    rng = np.random.default_rng(80 + n)
    for phi in (random_map(rng, n, 7), transpose_map(n), trace_map(n)):
        want = np.zeros((n * n, n * n), dtype=np.complex128)
        for a, b in phi.terms:
            want += np.kron(a, b.T)
        assert np.array_equal(transfer(phi), want)


def _outer_product_sum(rep, terms):
    n2 = rep.n * rep.n
    out = np.zeros((n2, n2), dtype=np.complex128)
    for a, b in terms:
        left = embed(rep, a) @ rep.state_vector
        right = embed(rep, b.conj().T) @ rep.state_vector
        out += np.outer(left, right.conj())
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("weighted", [False, True])
def test_state_sums_match_outer_product_loop(n, weighted):
    rng = np.random.default_rng(70 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    phi = random_map(rng, n, 4)
    swapped = tuple((b, a) for a, b in phi.terms)
    assert np.array_equal(choi(phi), n * _outer_product_sum(make_factor(n), phi.terms))
    assert np.array_equal(dual_choi(phi, rep), _outer_product_sum(rep, swapped))
    element = PairSumElement(rep, phi.terms)
    assert np.array_equal(materialize(element), _outer_product_sum(rep, phi.terms))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_terms_reject_nonfinite_entries(bad):
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(ValueError):
        PairSumMap(2, ((a, np.eye(2)),))
    with pytest.raises(ValueError):
        PairSumElement(TRACIAL2, ((np.eye(2), a),))


def test_adjoint_choi_symmetry_conjugation():
    rng = np.random.default_rng(53)
    phi = conjugation_map(cgauss(rng, 2, 2))
    report = adjoint_choi_symmetry(phi)
    assert report.swap_transpose_error < 1e-12
    assert report.choi_hermitian
    assert report.conjugation_error is not None and report.conjugation_error < 1e-10
    assert report.positivity_agree
    assert report.min_eig_choi > -1e-10
    assert report.min_eig_adjoint_choi > -1e-10


def test_adjoint_choi_symmetry_one_sided():
    # phi(C) = e_11 C is not Hermiticity-preserving: the modular relation
    # is skipped but the swap-transpose identity still holds, and the
    # adjoint's Choi matrix is the plain adjoint of the original's
    phi = PairSumMap(2, ((matrix_unit(2, 0, 0), np.eye(2)),))
    report = adjoint_choi_symmetry(phi)
    assert report.swap_transpose_error < 1e-12
    assert not report.choi_hermitian
    assert report.conjugation_error is None
    assert np.abs(choi(adjoint_map(phi)) - choi(phi).conj().T).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_choi_symmetry_random_hp(n):
    rng = np.random.default_rng(59 + n)
    for _ in range(5):
        phi = random_hp_map(rng, n, 3)
        report = adjoint_choi_symmetry(phi)
        assert report.swap_transpose_error < 1e-10
        assert report.choi_hermitian
        assert report.conjugation_error < 1e-10
        assert report.positivity_agree


def test_adjoint_choi_symmetry_zero_map():
    report = adjoint_choi_symmetry(PairSumMap(2, ()))
    assert report.swap_transpose_error == 0.0
    assert report.conjugation_error == 0.0
    assert report.positivity_agree


# ---------------------------------------------------------------- early exit


def _haar(rng, n):
    q, r = np.linalg.qr(cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _transpose_type(rng, n):
    # C -> U (W C W*)^T U*, never CP
    u, w = _haar(rng, n), _haar(rng, n)
    return PairSumMap(n, tuple((u @ matrix_unit(n, i, j) @ w,
                                w.conj().T @ matrix_unit(n, i, j) @ u.conj().T)
                               for i in range(n) for j in range(n)))


def _reduction_type(rng, n, k):
    # k - 1 Kraus terms minus one unitary conjugation, never CP
    return map_sum(random_cp_map(rng, n, k - 1), map_scale(conjugation_map(_haar(rng, n)), -1.0))


def _cp_sweep_maps(rng, n):
    # one map of each cp_sweep family: Kraus, transpose-type, reduction-type,
    # sign-mixed conjugations, and unpaired terms (not Hermiticity-preserving);
    # plus a Kraus map times 1 + 1e-3 i, whose outputs fail on their defect
    # alone, the Hermitian part staying psd
    return [random_cp_map(rng, n, n), _transpose_type(rng, n), _reduction_type(rng, n, n),
            random_hp_map(rng, n, n), random_map(rng, n, n),
            map_scale(random_cp_map(rng, n, 2), 1 + 1e-3j)]


def _cp_report(phi, rep, **kw):
    try:
        return check_cp(phi, rep=rep, **kw)
    except InternalDisagreement as exc:
        return exc.report


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("weighted", [False, True])
def test_early_exit_keeps_the_extension_verdict(n, weighted):
    rng = np.random.default_rng(110 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    maps_ = _cp_sweep_maps(rng, n)
    if n <= 3 and not weighted:
        # the near-boundary band, t log-spaced across (tol/n, n tol)
        maps_ += [_band_map(n, t) for t in np.geomspace(1e-9 / n, n * 1e-9, 8)]
    for phi in maps_:
        for trials, seed in ((64, 42), (5, 3)):
            report = _cp_report(phi, rep, trials=trials, seed=seed)
            ext = extension_positivity_check(phi, trials=trials, rep=rep, seed=seed)
            assert report.extension_positive == ext.positive
            assert report.amplification_positive == ext.positive


@pytest.mark.parametrize("n, trials", [(6, 64), (6, 7), (8, 12)])
def test_probe_pass_yields_the_report_of_each_prefix(n, trials):
    # E alone, then stacks of per_stack random probes: after the j-th yield
    # the pass has seen exactly the probes of a check with that many trials
    per_stack = max(1, _STACK_BYTES // (16 * n**4))
    rng = np.random.default_rng(120 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n))
    for phi in (random_map(rng, n, 2), random_hp_map(rng, n, 2), _band_map(n, 1.5e-9)):
        yields = list(_extension_probes(phi, trials, rep, seed=9))
        prefixes = [0] + [min(trials, j * per_stack) for j in range(1, -(-trials // per_stack) + 1)]
        assert len(yields) == len(prefixes)
        for (low, defect), count in zip(yields, prefixes):
            report = extension_positivity_check(phi, trials=count, rep=rep, seed=9)
            assert (low, defect) == (report.min_eigenvalue, report.hermiticity_defect)


@pytest.fixture
def draws(monkeypatch):
    # the counts of the random probes drawn during the test, which starts
    # with no probe set held; the set it leaves held is dropped after it
    monkeypatch.setattr(maps, "_held_probes", None)
    calls = []
    draw = maps._random_gram

    def counting(rng, count, dim, out=None):
        calls.append(count)
        return draw(rng, count, dim, out)

    monkeypatch.setattr(maps, "_random_gram", counting)
    return calls


def test_check_cp_on_the_transpose_draws_no_random_probe(draws):
    assert not check_cp(transpose_map(8)).cp
    assert draws == []
    # the counter sees the draws of a pass that runs to the end
    assert check_cp(identity_map(4)).cp
    assert sum(draws) == 64


def test_a_second_pass_with_the_same_key_reuses_the_held_probes(draws, monkeypatch):
    rng = np.random.default_rng(141)
    rep = make_factor(4, rng.uniform(0.2, 1.0, 4))
    phi, other = random_cp_map(rng, 4, 3), random_hp_map(rng, 4, 2)
    first = check_cp(phi, rep=rep)
    ext = extension_positivity_check(other, rep=rep)
    assert sum(draws) == 64

    def no_generator(seed):
        raise AssertionError("a held probe set needs no Generator")

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", no_generator)
        assert check_cp(phi, rep=rep) == first
        assert extension_positivity_check(other, rep=rep) == ext
    assert sum(draws) == 64
    # and the held probes carry the bits of a fresh draw
    monkeypatch.setattr(maps, "_held_probes", None)
    assert extension_positivity_check(other, rep=rep) == ext
    assert sum(draws) == 128


def test_another_key_draws_its_probes_again(draws):
    rng = np.random.default_rng(142)
    phi = random_cp_map(rng, 3, 2)
    keys = [(64, 42), (64, 42), (64, 7), (10, 7), (10, 7), (64, 42)]
    totals = []
    for trials, seed in keys:
        check_cp(phi, trials=trials, seed=seed)
        totals.append(sum(draws))
    assert totals == [64, 64, 128, 138, 138, 202]
    # the same trials and seed at another n
    check_cp(random_cp_map(rng, 2, 2))
    assert sum(draws) == 266


def test_a_pass_that_stops_early_leaves_the_held_probes(draws):
    check_cp(identity_map(4))
    held = maps._held_probes
    assert held[0] == (16, 64, 42)
    # C -> Tr(C) e_00: E's output is diagonal, with exact zero eigenvalues, and
    # at tol 0 the rounding of the zero eigenvalues of the first random stack
    # ends the pass after 16 of the 64 probes, held (seed 42) or drawn (43)
    units = matrix_units(4).reshape(4, 4, 4, 4)
    phi = PairSumMap(4, np.stack((units[0], units[:, 0]), axis=1))
    for seed, drawn in ((42, []), (43, [16])):
        draws.clear()
        assert not _cp_report(phi, make_factor(4), tol=0.0, seed=seed).extension_positive
        assert draws == drawn
        assert maps._held_probes is held
    # a pass closed after its first random stack publishes nothing either
    stacks = maps._probe_stacks(4, 64, make_factor(4), 43)
    next(stacks), next(stacks)
    stacks.close()
    assert maps._held_probes is held


def test_threads_sharing_the_held_probes_get_the_reports_of_one_thread(draws):
    # calls at three keys interleave, so sets are published while other
    # threads read the one held before
    rng = np.random.default_rng(144)
    phis = [random_cp_map(rng, n, 2) for n in (2, 3, 4, 3)]
    want = [check_cp(phi) for phi in phis]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(check_cp, phis[i % 4]) for i in range(48)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert got == [want[i % 4] for i in range(48)]


def test_the_held_probes_are_read_only_and_kept_up_to_n_6(draws):
    check_cp(random_cp_map(np.random.default_rng(143), 6, 2))
    key, probes = maps._held_probes
    assert key == (36, 64, 42) and probes.shape == (64, 36, 36)
    assert probes.nbytes <= maps._PROBE_CACHE_BYTES
    assert not probes.flags.writeable
    with pytest.raises(ValueError):
        probes[0, 0, 0] = 0.0
    # the 4 MiB set at n = 8 is never held, and leaves the held set as it was
    assert check_cp(identity_map(8)).cp
    assert maps._held_probes[1] is probes
    maps._held_probes = None
    assert check_cp(identity_map(8)).cp
    assert maps._held_probes is None


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("weighted", [False, True])
def test_certified_probe_verdicts_match_the_exact_pass_across_the_band(n, weighted):
    # check_cp certifies each probe stack by a Cholesky with a rounding margin
    # and measures the stacks it cannot certify as extension_positivity_check
    # does. The band identity + t * transpose, t across (tol/n, n tol), puts
    # E's lowest output eigenvalue -t/n (uniform weights) in (-tol, -tol/n^2);
    # scaled by 1e6 and 1e7, ||out|| eps approaches and passes tol, so the
    # margin, not the shift, decides whether the certificate may answer, and
    # the exact path's own rounding decides its verdict
    rng = np.random.default_rng(130 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    trials = 8
    for scale in (1.0, 1e6, 1e7):
        for t in np.geomspace(1e-9 / n, n * 1e-9, 6):
            phi = map_scale(_band_map(n, t / scale), scale)
            report = _cp_report(phi, rep, trials=trials, seed=5)
            ext = extension_positivity_check(phi, trials=trials, rep=rep, seed=5)
            assert report.extension_positive == ext.positive, (scale, t)


def test_check_cp_measures_only_the_probes_it_cannot_certify(monkeypatch):
    measured = []
    measure = maps._measured

    def counting(out, worst_low, worst_defect):
        measured.append(len(out))
        return measure(out, worst_low, worst_defect)

    monkeypatch.setattr(maps, "_measured", counting)
    rng = np.random.default_rng(140)
    for phi in (identity_map(4), random_cp_map(rng, 4, 3), random_cp_map(rng, 8, 2)):
        assert check_cp(phi).cp
    assert measured == []
    # at 1e6 the rounding margin exceeds tol on every probe: all 65 are measured
    assert check_cp(map_scale(identity_map(4), 1e6)).cp
    assert sum(measured) == 65


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_tolerances_other_than_finite_numbers_at_least_zero_are_refused(tol, monkeypatch):
    def no_work(phi, rep):
        raise AssertionError("work began before tol was checked")

    monkeypatch.setattr(maps, "_resolve_rep", no_work)
    monkeypatch.setattr(positivity, "_resolve_rep", no_work)
    for call in (lambda: check_cp(identity_map(2), tol=tol),
                 lambda: extension_positivity_check(identity_map(2), tol=tol),
                 lambda: kraus_decompose(transpose_map(2), tol=tol),
                 lambda: check_positive(transpose_map(2), tol=tol)):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            call()


def test_negative_trials_are_refused():
    for check in (check_cp, extension_positivity_check):
        with pytest.raises(ValueError, match="trials"):
            check(identity_map(2), trials=-1)
    assert check_cp(transpose_map(2), trials=0).trials == 0


# ------------------------------------------------ deferred canonicalization


def _kraus_reference(phi, rep, tol):
    # Kraus extraction on the public hermitian_eig, which canonicalizes every
    # eigenvector before positivity is decided
    d = dual_choi(phi, rep)
    defect = hermiticity_defect(d)
    evals, evecs = hermitian_eig((d + d.conj().T) / 2.0, tol=max(tol, 1e-6))
    if defect > tol * max(1.0, np.linalg.norm(d, 2)):
        raise NotPositive(float(evals[-1]), hermiticity_defect=defect,
                          message="dual Choi operator is not Hermitian")
    if evals[-1] < -tol:
        raise NotPositive(float(evals[-1]), hermiticity_defect=defect)
    pieces = [(float(c), np.sqrt(c) * implementer_from_vector(rep, evecs[:, j]))
              for j, c in enumerate(evals) if c > tol]
    pieces.sort(key=lambda cv: (-cv[0],) + tuple(np.concatenate(
        [cv[1].real.reshape(-1), cv[1].imag.reshape(-1)])))
    return [c for c, _ in pieces], [v for _, v in pieces]


def _orthogonal_kraus_map(rng, rep, coefficients):
    # C -> sum_j c_j S_j* C S_j with (1 (x) S_j) x orthonormal: the dual Choi
    # operator has the c_j (and zeros) as its eigenvalues
    n = rep.n
    ys = _haar(rng, n * n)[:, : len(coefficients)]
    ss = [implementer_from_vector(rep, ys[:, j]) for j in range(len(coefficients))]
    return PairSumMap(n, tuple((c * s.conj().T, s) for c, s in zip(coefficients, ss)))


def _clusters(evals, gap):
    # runs of eigenvalues at most gap apart (1e-12 is the canonicalization's
    # cluster width at scale 1)
    runs, start = [], 0
    for j in range(1, len(evals) + 1):
        if j == len(evals) or abs(evals[j - 1] - evals[j]) > gap:
            runs.append(evals[start:j])
            start = j
    return runs


def _assert_kraus_matches_reference(phi, rep, tol):
    coefficients, ops = _kraus_reference(phi, rep, tol)
    kd = kraus_decompose(phi, rep, tol=tol)
    assert list(kd.coefficients) == coefficients
    assert len(kd.ops) == len(ops)
    for got, want in zip(kd.ops, ops):
        assert np.array_equal(got, want)


def test_deferred_canonicalization_degenerate_kept_cluster():
    rng = np.random.default_rng(127)
    for rep in (make_factor(3), make_factor(3, [0.2, 0.3, 0.5]), make_factor(4)):
        phi = _orthogonal_kraus_map(rng, rep, np.ones(rep.n + 1))
        evals = np.linalg.eigvalsh(dual_choi(phi, rep))[::-1]
        assert [len(run) for run in _clusters(evals, 1e-12)] == [rep.n + 1, rep.n**2 - rep.n - 1]
        _assert_kraus_matches_reference(phi, rep, 1e-9)


def test_deferred_canonicalization_large_null_cluster():
    rng = np.random.default_rng(131)
    for rep in (make_factor(8), make_factor(8, rng.uniform(0.2, 1.0, 8))):
        phi = conjugation_map(cgauss(rng, 8, 8))
        _assert_kraus_matches_reference(phi, rep, 1e-9)
        assert len(kraus_decompose(phi, rep)) == 1


def test_deferred_canonicalization_cluster_straddling_tol():
    tol = 1e-3
    rep = make_factor(3, [0.2, 0.3, 0.5])
    phi = _orthogonal_kraus_map(np.random.default_rng(139), rep,
                                [1.0, 1.0, 0.5, tol + 5e-14, tol - 5e-14])
    evals = np.linalg.eigvalsh(dual_choi(phi, rep))[::-1]
    straddling = [run for run in _clusters(evals, 1e-12) if run[0] > tol >= run[-1]]
    assert len(straddling) == 1 and len(straddling[0]) == 2
    _assert_kraus_matches_reference(phi, rep, tol)
    assert len(kraus_decompose(phi, rep, tol=tol)) == 4


def _orthogonal_element(rng, rep, coefficients):
    # sum_j c_j (1 (x) S_j) E (1 (x) S_j*) with (1 (x) S_j) x orthonormal: the
    # c_j (and zeros) are its eigenvalues
    ys = _haar(rng, rep.n * rep.n)[:, : len(coefficients)]
    ss = [implementer_from_vector(rep, ys[:, j]) for j in range(len(coefficients))]
    return PairSumElement(rep, tuple((c * s, s.conj().T) for c, s in zip(coefficients, ss)))


def test_canonicalize_and_spectral_decompose_cut_the_reference_runs(monkeypatch):
    cut = linalg._cluster_runs
    calls = []

    def recording(values, gap):
        runs = cut(values, gap)
        calls.append((values.copy(), gap, runs))
        return runs

    monkeypatch.setattr(linalg, "_cluster_runs", recording)
    monkeypatch.setattr(projection_algebra, "_cluster_runs", recording)
    rng = np.random.default_rng(149)
    # at scale 1, neighbours just inside and just outside the canonicalization's
    # width 1e-12 and the spectral width 1e-8
    w = np.array([1.0, 1.0 - 5e-13, 1.0 - 2e-12, 0.5, 0.5, 0.25 + 2e-8, 0.25 + 5e-9, 0.25, -0.25])
    linalg._canonicalize(w, _haar(rng, len(w)), 1.0)
    for rep in (make_factor(3), make_factor(3, [0.2, 0.3, 0.5])):
        kraus_decompose(_orthogonal_kraus_map(rng, rep, np.ones(rep.n + 1)), rep)
        spectral_decompose(_orthogonal_element(rng, rep, w))
    assert {round(gap / 1e-12) for _, gap, _ in calls} == {1, 10000}
    for values, gap, runs in calls:
        want = _clusters(values, gap)
        assert len(runs) == len(want)
        assert all(np.array_equal(values[r], v) for r, v in zip(runs, want))
    assert [len(r) for r in calls[0][2]] == [2, 1, 2, 1, 1, 1, 1]


def test_deferred_canonicalization_not_positive_fields():
    rng = np.random.default_rng(137)
    for n in (2, 3, 8):
        rep = make_factor(n, rng.uniform(0.2, 1.0, n))
        for phi in (transpose_map(n), random_hp_map(rng, n, 3), random_map(rng, n, 2)):
            for tol in (1e-9, 1e-3):
                with pytest.raises(NotPositive) as want:
                    _kraus_reference(phi, rep, tol)
                with pytest.raises(NotPositive) as got:
                    kraus_decompose(phi, rep, tol=tol)
                assert got.value.min_eigenvalue == want.value.min_eigenvalue
                assert got.value.hermiticity_defect == want.value.hermiticity_defect
                assert str(got.value) == str(want.value)


# ------------------------------------------------------ one Hermiticity rule


def test_check_cp_builds_the_dual_choi_operator_once(monkeypatch):
    calls = []
    build = maps.dual_choi

    def counting(phi, rep=None):
        calls.append(1)
        return build(phi, rep)

    monkeypatch.setattr(maps, "dual_choi", counting)
    rng = np.random.default_rng(151)
    rep = make_factor(3, [0.2, 0.3, 0.5])
    for phi in (random_cp_map(rng, 3, 2), transpose_map(3), random_map(rng, 3, 2)):
        calls.clear()
        _cp_report(phi, rep)
        assert len(calls) == 1


def test_kraus_and_spectral_take_one_hermitian_part_per_operator(monkeypatch):
    calls = []
    split = linalg.hermitian_part

    def counting(m, tol):
        calls.append(1)
        return split(m, tol)

    for module in (linalg, maps, projection_algebra):
        monkeypatch.setattr(module, "hermitian_part", counting)
    rng = np.random.default_rng(155)
    rep = make_factor(3, [0.2, 0.3, 0.5])
    for phi in (random_cp_map(rng, 3, 2), random_hp_map(rng, 3, 2)):
        calls.clear()
        try:
            kraus_decompose(phi, rep)
        except NotPositive:
            pass
        assert len(calls) == 1
    calls.clear()
    spectral_decompose(_orthogonal_element(rng, rep, [2.0, -1.0]))
    assert len(calls) == 1


# the "ab" document of test_cli.py: the products of its entries overflow
_OVERFLOWING = {"n": 2, "terms": [{"A": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]],
                                   "B": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]}]}


def test_overflowed_operators_are_refused_before_the_eigensolver():
    phi, rep = parse_map_file(_OVERFLOWING)
    element = parse_element_file(_OVERFLOWING)
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (lambda: hermitian_eig(dual_choi(phi, rep)),
                     lambda: hermitian_eig(materialize(element)),
                     lambda: kraus_decompose(phi, rep),
                     lambda: spectral_decompose(element),
                     lambda: extension_positivity_check(phi, rep=rep),
                     lambda: check_cp(phi, rep=rep)):
            with pytest.raises(NumericalFailure, match="cannot diagonalize"):
                call()


def test_kraus_decompose_takes_no_svd_of_a_hermitian_dual_choi(monkeypatch):
    calls = []
    norm = linalg.opnorm

    def counting(m):
        calls.append(1)
        return norm(m)

    monkeypatch.setattr(linalg, "opnorm", counting)
    rng = np.random.default_rng(157)
    for n in (2, 4, 8):
        rep = make_factor(n, rng.uniform(0.2, 1.0, n))
        kraus_decompose(map_scale(random_cp_map(rng, n, 3), 5.0), rep)
        with pytest.raises(NotPositive):
            kraus_decompose(random_hp_map(rng, n, 3), rep)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_matrix_unit_maps_keep_their_term_bytes(n):
    # the hand-built loops the matrix-unit stack replaced, row-major (i, j)
    units = [matrix_unit(n, i, j) for i in range(n) for j in range(n)]
    for phi, want in ((transpose_map(n), [(u, u) for u in units]),
                      (trace_map(n), [(u / n, u.T.copy()) for u in units])):
        assert len(phi.terms) == len(want)
        for (a, b), (wa, wb) in zip(phi.terms, want):
            assert a.tobytes() == wa.tobytes() and b.tobytes() == wb.tobytes()
            assert a.flags.c_contiguous and b.flags.c_contiguous


def test_adjoint_choi_symmetry_does_not_call_an_overflowed_choi_hermitian():
    # the Choi matrix of this map holds inf, so its Hermiticity defect is NaN
    big = np.diag([1e200, 1.0]).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        report = adjoint_choi_symmetry(PairSumMap(2, ((big, big),)))
    assert not report.choi_hermitian
    assert report.conjugation_error is None
