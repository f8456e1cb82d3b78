import numpy as np
import pytest

from choifactor import (
    DimensionMismatch,
    NotPositive,
    NotTracial,
    PairSumElement,
    PairSumMap,
    adjoint_choi_symmetry,
    adjoint_map,
    apply_map,
    check_cp,
    choi,
    conjugation_map,
    dual_choi,
    embed,
    extension_positivity_check,
    identity_map,
    kraus_apply,
    kraus_decompose,
    make_factor,
    map_from_dual_choi,
    map_scale,
    map_sum,
    materialize,
    state_projection,
    trace_map,
    transfer,
    transpose_map,
)
from choifactor.maps import _random_psd
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


def test_map_from_dual_choi_needs_tracial():
    rep = make_factor(2, [0.25, 0.75])
    with pytest.raises(NotTracial):
        map_from_dual_choi(np.eye(4), rep)


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
    stacks = [_random_psd(rng_stacked, count, dim) for count in (3, 0, 1, 5)]
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
