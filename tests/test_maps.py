import numpy as np
import pytest

import choifactor
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
    compress,
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
    rank_one_implementer,
    rank_one_subprojection,
    seesaw_product_min,
    spectral_decompose,
    state_projection,
    trace_map,
    transfer,
    transpose_map,
)
from choifactor import factor, linalg, maps, positivity, projection_algebra
from choifactor.linalg import hermitian_eig, hermiticity_defect, matrix_units
from helpers import cgauss, e_verdict, matrix_unit, random_cp_map, random_hp_map, random_map

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
    with pytest.raises(DimensionMismatch):
        apply_map(identity_map(2), np.zeros((3, 2, 3)))
    with pytest.raises(DimensionMismatch):
        apply_map(identity_map(2), np.zeros(2))


def test_trace_map_action():
    rng = np.random.default_rng(2)
    c = cgauss(rng, 2, 2)
    assert np.abs(apply_map(trace_map(2), c) - np.trace(c) * np.eye(2) / 2).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_transfer_matches_action(n):
    rng = np.random.default_rng(3 + n)
    phi = random_map(rng, n, 3)
    t = transfer(phi)
    cs = np.array([cgauss(rng, n, n) for _ in range(5)])
    for c in cs:
        assert np.abs((t @ c.reshape(-1)).reshape(n, n) - apply_map(phi, c)).max() < 1e-12
    # a stack, also a nested one, gives each matrix's own bits
    each = np.array([apply_map(phi, c) for c in cs])
    assert np.array_equal(apply_map(phi, cs), each)
    assert np.array_equal(apply_map(phi, cs.reshape(5, 1, n, n)), each.reshape(5, 1, n, n))


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


def test_kraus_apply_is_apply_map_and_refuses_other_sizes():
    rng = np.random.default_rng(24)
    phi = trace_map(2)
    kd = kraus_decompose(phi)
    for shape in ((2, 2), (3, 2, 2), (2, 3, 2, 2)):
        c = cgauss(rng, *shape)
        assert np.abs(kraus_apply(kd, c) - apply_map(phi, c)).max() < 1e-12
    for shape in ((4, 4), (3, 3), (2, 3, 3), (2,), ()):
        with pytest.raises(DimensionMismatch):
            kraus_apply(kd, np.zeros(shape))
    # the zero map has no operators, and every square input goes to zero
    none = kraus_decompose(map_scale(identity_map(3), 0.0))
    assert len(none) == 0
    assert np.array_equal(kraus_apply(none, np.ones((2, 3, 3))), np.zeros((2, 3, 3)))
    for shape in ((3, 4), (3,), ()):
        with pytest.raises(DimensionMismatch):
            kraus_apply(none, np.zeros(shape))


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


def _lifted_extension_reference(phi, rep):
    # sum_i (1(x)A_i) E (1(x)B_i) with the coefficients lifted to n^2 x n^2
    x0 = rep.state_vector
    e = np.outer(x0, np.conj(x0))
    return sum((embed(rep, a) @ e @ embed(rep, b) for a, b in phi.terms), np.zeros_like(e))


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
        report = extension_positivity_check(phi, rep=rep)
        out = _lifted_extension_reference(phi, rep)
        low = np.linalg.eigvalsh((out + out.conj().T) / 2)[0]
        defect = np.max(np.abs(out - out.conj().T))
        scale = max(1.0, np.linalg.norm(transfer(phi), 2))
        assert abs(report.min_eigenvalue - low) <= rtol * scale
        assert abs(report.hermiticity_defect - defect) <= rtol * scale


@pytest.mark.parametrize("weighted", [False, True])
def test_extension_report_is_the_split_of_the_materialized_element(weighted):
    # E's output is the lifted pair-sum as an element materializes it, bit for bit
    rng = np.random.default_rng(70 + weighted)
    for n in (2, 3, 4):
        rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
        for phi in (random_map(rng, n, 3), random_cp_map(rng, n, 2), random_hp_map(rng, n, 3),
                    _band_map(n, 2e-9)):
            report = extension_positivity_check(phi, rep=rep)
            want = linalg.psd_within(materialize(PairSumElement(rep, phi.terms)), 1e-9)
            assert (report.positive, report.min_eigenvalue, report.hermiticity_defect) == want



@pytest.mark.parametrize("norm, defect, positive", [
    (1e-2, 1e-11, True), (1e-2, 5e-9, False),  # below 1: max |out - out*| <= tol
    (1e3, 1e-7, True), (1e3, 1e-5, False),     # above 1: <= tol ||out||
])
@pytest.mark.parametrize("weighted", [False, True])
def test_extension_check_takes_the_one_hermiticity_rule(norm, defect, positive, weighted):
    # a full-rank Kraus map plus a non-Hermiticity-preserving term, scaled so
    # that E's output has the operator norm `norm` and about the defect
    # `defect`: the report carries the absolute defect of hermitian_part and
    # the verdict of psd_within on the lifted output
    n, tol = 3, 1e-9
    rng = np.random.default_rng(65)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    base, skew = random_cp_map(rng, n, n * n), random_map(rng, n, 1)
    scale = norm / np.linalg.norm(_lifted_extension_reference(base, rep), 2)
    skew_defect = hermiticity_defect(_lifted_extension_reference(skew, rep))
    phi = map_scale(map_sum(base, map_scale(skew, defect / (scale * skew_defect))), scale)
    out = _lifted_extension_reference(phi, rep)
    report = extension_positivity_check(phi, tol=tol, rep=rep)
    assert report.positive == linalg.psd_within(out, tol)[0] == positive
    # both outputs round each entry by a few eps ||out||; tolerance fixed beforehand
    assert abs(report.hermiticity_defect - linalg.hermitian_part(out, tol)[1]) <= 1e-13 * norm


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


@pytest.mark.parametrize("oks", [(True, True), (True, False), (False, True), (False, False)])
def test_adjoint_choi_symmetry_compares_psd_withins_verdicts(monkeypatch, oks):
    # point (c) applies no psd rule of its own: whatever psd_within says of
    # the Choi matrix and then of the adjoint's, positivity_agree follows it
    psd_within = maps.psd_within
    verdicts = iter(oks)

    def judged(m, tol):
        return (next(verdicts),) + psd_within(m, tol)[1:]

    monkeypatch.setattr(maps, "psd_within", judged)
    report = adjoint_choi_symmetry(transpose_map(2))
    assert report.positivity_agree is (oks[0] == oks[1])
    assert (report.min_eig_choi, report.min_eig_adjoint_choi) == pytest.approx((-1.0, -1.0))


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
    # check_cp reads its extension verdict off the Choi spectrum where it
    # can, yet it is that of E measured
    rng = np.random.default_rng(110 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    maps_ = _cp_sweep_maps(rng, n)
    if n <= 3 and not weighted:
        # the near-boundary band, t log-spaced across (tol/n, n tol)
        maps_ += [_band_map(n, t) for t in np.geomspace(1e-9 / n, n * 1e-9, 8)]
    for phi in maps_:
        report = _cp_report(phi, rep)
        assert report.extension_positive == e_verdict(phi, rep)
        assert report.amplification_positive == report.extension_positive


@pytest.fixture
def measured(monkeypatch):
    # whether the rep of each E measured during the test was the tracial one
    calls = []
    measure = maps._state_measured

    def counting(phi, rep, tol):
        calls.append(rep.tracial)
        return measure(phi, rep, tol)

    monkeypatch.setattr(maps, "_state_measured", counting)
    return calls


def _refuse_random_draws(patch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random probe was drawn")

    patch.setattr(np.random, "default_rng", refuse)


def test_check_cp_on_the_transpose_draws_no_random_probe(monkeypatch, measured):
    _refuse_random_draws(monkeypatch)
    assert not check_cp(transpose_map(8)).cp
    assert check_cp(_band_map(4, 7e-10)).cp
    assert measured == []
    # the counter sees the one measurement of extension_positivity_check
    extension_positivity_check(_band_map(4, 7e-10))
    assert measured == [True]


def _trace_e00(n):
    # C -> Tr(C) e_00 (A_i = e_0i, B_i = e_i0): completely positive, with a
    # diagonal Choi matrix whose zero eigenvalues are exact
    units = matrix_units(n).reshape(n, n, n, n)
    return PairSumMap(n, np.stack((units[0], units[:, 0]), axis=1))


def _sweep_and_band_maps(rng):
    # one map of each cp_sweep family at each of its sizes (n, k), then the
    # near-boundary band at n in {2, 3}, t log-spaced across (tol/n, n tol)
    families = (lambda n, k: random_cp_map(rng, n, k), lambda n, k: _transpose_type(rng, n),
                lambda n, k: _reduction_type(rng, n, k), lambda n, k: random_hp_map(rng, n, k))
    sizes = ((4, 1), (4, 4), (4, 16), (6, 1), (6, 6), (6, 36), (8, 1), (8, 8))
    maps_ = [family(n, k) for n, k in sizes for family in families]
    return maps_ + [_band_map(n, t) for n in (2, 3) for t in np.geomspace(1e-9 / n, n * 1e-9, 12)]


def test_check_cp_draws_no_random_probe_on_the_cp_sweep_families_and_the_band(monkeypatch):
    rng = np.random.default_rng(150)
    cases = []
    for phi in _sweep_and_band_maps(rng):
        cases += [(phi, make_factor(phi.n)), (phi, make_factor(phi.n, rng.uniform(0.2, 1.0, phi.n)))]

    with monkeypatch.context() as patch:
        _refuse_random_draws(patch)
        reports = [_cp_report(phi, rep) for phi, rep in cases]
    for (phi, rep), report in zip(cases, reports):
        assert report.extension_positive == e_verdict(phi, rep)


def _weightings(rng, n, weighted):
    # uniform weights, or random weights and weights with w_min = 1e-6
    if not weighted:
        return [make_factor(n)]
    return [make_factor(n, rng.uniform(0.2, 1.0, n)),
            make_factor(n, np.r_[1e-6, np.full(n - 1, (1.0 - 1e-6) / (n - 1))])]


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("weighted", [False, True])
def test_certified_probe_verdicts_match_the_exact_pass_across_the_band(n, weighted):
    # check_cp's extension verdict is E's measured one, and at other than
    # the tracial weights the tracial E's as well. The band identity + t *
    # transpose, t across (tol/n 1e-3, n tol 1e6), puts E's lowest output
    # eigenvalue -theta t, theta in [w_min, w_max], inside, across and far
    # outside tol; scaled by 1e6 and 1e7, ||out|| eps approaches and passes
    # tol, so the measurement's own rounding decides its verdict
    rng = np.random.default_rng(130 + n)
    for rep in _weightings(rng, n, weighted):
        for scale in (1.0, 1e6, 1e7):
            for t in np.geomspace(1e-12 / n, n * 1e-3, 14):
                phi = map_scale(_band_map(n, t / scale), scale)
                report = _cp_report(phi, rep)
                assert report.extension_positive == e_verdict(phi, rep), (scale, t)
                assert report.amplification_positive == report.extension_positive


def test_check_cp_measures_only_the_probes_it_cannot_certify(measured):
    # the one probe check_cp ever measures is E, once, where the Choi
    # spectrum's window cannot settle it, and after it the tracial E at
    # other weights
    rng = np.random.default_rng(140)
    weighted = make_factor(4, rng.uniform(0.2, 1.0, 4))
    for phi in (identity_map(4), random_cp_map(rng, 4, 3), _normalized_kraus_map(rng, 8, 2)):
        assert check_cp(phi).cp
    assert check_cp(identity_map(4), rep=weighted).cp
    assert not check_cp(transpose_map(4), rep=weighted).cp
    assert measured == []
    # at 1e6 the rounding margin exceeds tol
    assert check_cp(map_scale(identity_map(4), 1e6)).cp
    assert measured == [True]
    assert check_cp(map_scale(identity_map(4), 1e6), rep=weighted).cp
    assert measured == [True, False, True]


def _normalized_kraus_map(rng, n, k):
    # C -> sum_t V_t* C V_t with sum_t |V_t|_F^2 about n, as cp_sweep draws it
    return map_scale(random_cp_map(rng, n, k), 1.0 / (k * n))


def test_check_cp_builds_no_transfer_matrix(monkeypatch):
    # E is materialized by state_sum, and the Kraus check compares Choi matrices
    calls = []
    build = maps.transfer

    def counting(phi):
        calls.append(phi)
        return build(phi)

    monkeypatch.setattr(maps, "transfer", counting)
    rng = np.random.default_rng(175)
    for n in (2, 4, 6):
        for rep in (make_factor(n), make_factor(n, rng.uniform(0.2, 1.0, n))):
            # Kraus, transpose-type, band, and un-normalized maps, one of
            # them scaled until E has to be measured
            for phi in (_normalized_kraus_map(rng, n, n), _transpose_type(rng, n),
                        _band_map(n, 1e-9), random_cp_map(rng, n, 3),
                        map_scale(identity_map(n), 1e6)):
                _cp_report(phi, rep)
    assert calls == []


class _Unsettled(Exception):
    pass


def _settled(phi, tol, rep=None, low=None, defect=None):
    # the verdict the Choi spectrum's window gives on E, or None where E
    # would have to be measured; low and defect replace the computed ones
    rep = make_factor(phi.n) if rep is None else rep
    _, choi_low, choi_defect = linalg.psd_within(choi(phi), tol)
    low = choi_low if low is None else low
    defect = choi_defect if defect is None else defect

    def unsettled(*args):
        raise _Unsettled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_state_measured", unsettled)
        try:
            return maps._extension_verdict(phi, rep, low, defect, tol)
        except _Unsettled:
            return None


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("weighted", [False, True])
def test_a_cp_map_with_room_to_spare_draws_and_measures_no_probe(n, weighted, monkeypatch,
                                                                measured):
    rng = np.random.default_rng(160 + n)
    rep = make_factor(n, rng.uniform(0.2, 1.0, n)) if weighted else make_factor(n)
    _refuse_random_draws(monkeypatch)
    for k in (1, n, n * n) if n < 8 else (1, n):
        phi = _normalized_kraus_map(rng, n, k)
        report = check_cp(phi, rep=rep)
        assert report.cp
        assert measured == []
        # E's measurement agrees
        assert extension_positivity_check(phi, rep=rep).positive
        measured.clear()


def test_the_choi_certificate_needs_room_a_finite_margin_and_tol_above_0():
    rng = np.random.default_rng(166)
    phi = _normalized_kraus_map(rng, 4, 4)
    assert _settled(phi, 1e-9) is True
    assert _settled(phi, 0.0) is None
    assert _settled(map_scale(identity_map(3), 1e-3), 0.0) is None
    # C -> Tr(C) e_00 has a diagonal Choi matrix, psd and Hermitian to the
    # last bit, yet E's output may round: the margin alone leaves it to the
    # measurement
    trace_e00 = _trace_e00(4)
    assert linalg.psd_within(choi(trace_e00), 0.0)[1:] == (0.0, 0.0)
    assert _settled(trace_e00, 0.0) is None
    assert _settled(PairSumMap(3, ()), 0.0) is True
    # each entry of E's defect is at most w_max times the Choi matrix's
    tilted = map_scale(identity_map(4), 1 + 1e-9j)
    assert _settled(tilted, 1e-9) is True
    assert e_verdict(tilted, make_factor(4))
    # a NaN or inf spectrum or defect, and Frobenius norms that overflow
    # while the Choi matrix stays finite
    for defect, low in ((np.inf, 0.0), (np.nan, 0.0), (0.0, np.nan)):
        assert _settled(phi, 1e-9, low=low, defect=defect) is None
    assert _settled(phi, 1e-9, low=-np.inf, defect=0.0) is False
    big = PairSumMap(2, ((np.diag([1e200, 1.0]), np.diag([1e-200, 1.0])),))
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(choi(big)))
        assert _settled(big, 1e-9) is None
    # at uniform weights E's lowest eigenvalue is -t/n on the band: passed
    # below n tol, failed above it, and measured where the margin straddles it
    for n in (2, 3, 4):
        for t in np.geomspace(1.01e-9 / n, 0.95 * n * 1e-9, 7):
            assert _settled(_band_map(n, t), 1e-9) is True
        assert _settled(_band_map(n, 1.05 * n * 1e-9), 1e-9) is False
        assert _settled(_band_map(n, n * 1e-9), 1e-9) is None
    # at w_min = 1e-6 the tracial E's -t/n settles the fail side where it
    # does at uniform weights
    rep = _weightings(rng, 3, True)[1]
    assert _settled(_band_map(3, 3 * 1e-9), 1e-9, rep) is None
    for t in (1.01 * 3 * 1e-9, 2e-3):
        assert _settled(_band_map(3, t), 1e-9, rep) is False
    # and on the map that E alone would pass
    assert _settled(_hidden_by_a_small_weight(1e-4), 1e-9, make_factor(2, [1e-6, 1 - 1e-6])) is False


def _hidden_by_a_small_weight(s):
    # (A, B) = (-s e_10, e_01): Choi matrix -s e_00 (x) e_11, whose one
    # negative eigenvalue E's output scales by the weight w_0
    return PairSumMap(2, ((-s * matrix_unit(2, 1, 0), matrix_unit(2, 0, 1)),))


@pytest.mark.parametrize("s, weights", [(1e-4, [1e-6, 1.0 - 1e-6]), (5e-8, [0.01, 0.99]),
                                        (1e-4, [0.01, 0.99])])
def test_a_small_weight_hides_no_negative_choi_eigenvalue(s, weights):
    # E's output has the eigenvalue -s w_0, within tol, but the map is not
    # CP and all five checks say so; E alone would disagree with the others
    phi, rep = _hidden_by_a_small_weight(s), make_factor(2, weights)
    assert extension_positivity_check(phi, rep=rep).min_eigenvalue == pytest.approx(
        -s * weights[0])
    report = check_cp(phi, rep=rep)
    assert not report.cp
    assert not (report.amplification_positive or report.extension_positive
                or report.kraus_exists or report.dual_choi_psd or report.choi_psd)


@pytest.mark.parametrize("tol", [0.0, 1e-17, 1e-9])
def test_check_cp_passes_the_trace_onto_e00_at_any_tol(tol):
    # E's output is diagonal with exact zero eigenvalues; random probes
    # round those zeros to about -1e-17, below -tol at tol 0
    phi = _trace_e00(4)
    report = check_cp(phi, tol=tol)
    assert report.cp and report.extension_positive and report.kraus_exists
    assert extension_positivity_check(phi, tol=tol).positive


def test_check_cp_diagonalizes_the_dual_choi_operator_once(monkeypatch):
    # where the Choi spectrum's window settles E, the only eigensolves are
    # eigvalsh of the Choi matrix and eigh of the dual Choi operator, which
    # serves both min_eig_dual_choi and the Kraus cut
    rng = np.random.default_rng(170)
    weighted = make_factor(4, rng.uniform(0.2, 1.0, 4))
    cases = [(_normalized_kraus_map(rng, 4, 3), weighted), (_normalized_kraus_map(rng, 4, 16), None),
             (transpose_map(4), weighted), (random_hp_map(rng, 4, 4), None)]
    for phi, rep in cases:
        assert _settled(phi, 1e-9, rep) is not None
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(m, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for phi, rep in cases:
        calls.clear()
        _cp_report(phi, rep)
        assert sorted(calls) == ["eigh", "eigvalsh"]


def test_min_eig_dual_choi_is_the_eigenvalue_kraus_decompose_refuses():
    # both are read from one spectral step on the dual Choi operator: one eigh
    # of its Hermitian part, or one eigvalsh when it is not Hermitian
    rng = np.random.default_rng(175)
    for n in (2, 3, 4, 6):
        reps = (make_factor(n), make_factor(n, rng.uniform(0.2, 1.0, n)))
        sign_mixed = map_sum(random_cp_map(rng, n, n), map_scale(random_cp_map(rng, n, 1), -1.0))
        # the pair u e_01 w, w* e_01 u* of a transpose-type map, not Hermiticity-preserving
        one_pair = PairSumMap(n, _transpose_type(rng, n).terms[1:2])
        for phi, hermitian in ((sign_mixed, True), (_transpose_type(rng, n), True),
                               (_reduction_type(rng, n, n), True), (_band_map(n, 1e-3), True),
                               (random_map(rng, n, 2), False), (one_pair, False)):
            for rep in reps:
                with pytest.raises(NotPositive) as refused:
                    kraus_decompose(phi, rep)
                assert ("not Hermitian" in str(refused.value)) is not hermitian
                report = _cp_report(phi, rep)
                assert not report.dual_choi_psd
                assert report.min_eig_dual_choi == refused.value.min_eigenvalue


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


_UNIT_ELEMENT = PairSumElement(make_factor(2), ((np.eye(2), np.eye(2)),))


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("call", [
    lambda tol: compress(_UNIT_ELEMENT, tol=tol),
    lambda tol: spectral_decompose(_UNIT_ELEMENT, tol=tol),
    lambda tol: rank_one_subprojection(_UNIT_ELEMENT, tol=tol),
    lambda tol: rank_one_implementer(_UNIT_ELEMENT, tol=tol),
    lambda tol: seesaw_product_min(dual_choi(identity_map(2)), tol=tol),
    lambda tol: adjoint_choi_symmetry(identity_map(2), tol=tol),
], ids=["compress", "spectral_decompose", "rank_one_subprojection", "rank_one_implementer",
        "seesaw_product_min", "adjoint_choi_symmetry"])
def test_the_other_tolerance_taking_calls_refuse_the_same_tolerances(call, tol):
    # unchecked, nan would keep no spectral item and no term, and -1 would
    # make the identity map's see-saw say not positive
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        call(tol)


# ------------------------------------------------ deferred canonicalization


def _kraus_reference(phi, rep, tol):
    # Kraus extraction on the public hermitian_eig, which canonicalizes every
    # eigenvector before positivity is decided; an operator that is not
    # Hermitian is refused with eigvalsh's lowest eigenvalue of its Hermitian part
    d = dual_choi(phi, rep)
    defect = hermiticity_defect(d)
    herm = (d + d.conj().T) / 2.0
    if defect > tol * max(1.0, np.linalg.norm(d, 2)):
        raise NotPositive(float(np.linalg.eigvalsh(herm)[0]), hermiticity_defect=defect,
                          message="dual Choi operator is not Hermitian")
    evals, evecs = hermitian_eig(herm, tol=max(tol, 1e-6))
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
    # both cut their spectra through linalg._cluster_starts, spectral_decompose
    # by way of _cluster_runs
    cut = linalg._cluster_starts
    calls = []

    def recording(values, gap):
        starts = cut(values, gap)
        runs = np.split(np.arange(len(values)), starts[1:]) if len(starts) else []
        calls.append((values.copy(), gap, runs))
        return starts

    monkeypatch.setattr(linalg, "_cluster_starts", recording)
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


def test_check_cp_diagonalizes_no_dual_choi_operator_that_is_not_hermitian(monkeypatch):
    # Kraus extraction refuses such an operator, so its eigh would be wasted,
    # in check_cp and in kraus_decompose
    calls = []
    eigh = linalg._descending_eigh

    def counting(herm):
        calls.append(1)
        return eigh(herm)

    monkeypatch.setattr(linalg, "_descending_eigh", counting)
    rng = np.random.default_rng(152)
    rep = make_factor(3, [0.2, 0.3, 0.5])
    phi = random_map(rng, 3, 2)
    report = _cp_report(phi, rep)
    assert not report.kraus_exists and not report.dual_choi_psd
    with pytest.raises(NotPositive, match="not Hermitian"):
        kraus_decompose(phi, rep)
    assert calls == []
    _cp_report(random_cp_map(rng, 3, 2), rep)
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


# ------------------------------------- the Kraus check's cut and the tracial rep


def _kraus_check_maps(rng, n, rep):
    # Kraus, band (inside and above the tolerance band), identity, trace
    # (a fully degenerate dual Choi spectrum) and transpose-type maps
    return [_normalized_kraus_map(rng, n, n), _band_map(n, 1e-11), _band_map(n, 2e-9),
            identity_map(n), trace_map(n), _transpose_type(rng, n),
            _orthogonal_kraus_map(rng, rep, np.ones(n + 1))]


def test_check_cp_cuts_no_canonical_kraus_operators_and_builds_no_rep(monkeypatch):
    rng = np.random.default_rng(191)
    cases = [(phi, rep) for n in (2, 3, 4)
             for rep in (make_factor(n), make_factor(n, rng.uniform(0.2, 1.0, n)))
             for phi in _kraus_check_maps(rng, n, rep)]
    for n in (2, 3, 4):
        check_cp(identity_map(n))

    def refused(*args, **kwargs):
        raise AssertionError("check_cp reached a canonical Kraus cut or built a rep")

    for name in ("_canonicalize", "_kraus_cut", "make_factor"):
        monkeypatch.setattr(maps, name, refused)
    kraus_found = 0
    for phi, rep in cases:
        kraus_found += _cp_report(phi, rep).kraus_exists
    # the Kraus, identity, trace and orthogonal Kraus maps at both weightings
    assert kraus_found >= 4 * 2 * 3


def test_check_cp_forms_no_vector_through_the_public_factor_helpers(monkeypatch):
    # its term stacks are validated once by frozen_terms and its eigenvectors
    # come from eigh, so the checks of the public helpers would be repeated
    rng = np.random.default_rng(199)
    cases = [(phi, rep) for n in (2, 3, 4)
             for rep in (make_factor(n), make_factor(n, rng.uniform(0.2, 1.0, n)))
             for phi in _kraus_check_maps(rng, n, rep) + [random_map(rng, n, 2),
                                                         map_scale(identity_map(n), 1e6)]]

    def refused(*args, **kwargs):
        raise AssertionError("check_cp called a public factor helper")

    for module in (choifactor, factor, maps, projection_algebra):
        for name in ("apply_factor_to_state", "implementer_from_vector"):
            monkeypatch.setattr(module, name, refused, raising=False)
    kraus_found = 0
    for phi, rep in cases:
        kraus_found += _cp_report(phi, rep).kraus_exists
    # the Kraus, identity, trace, orthogonal Kraus and scaled identity maps
    # at both weightings
    assert kraus_found >= 5 * 2 * 3


def _canonical_kraus_verdict(phi, rep, tol):
    # check (3) on the canonical operators kraus_decompose returns
    try:
        kd = kraus_decompose(phi, rep, tol)
    except NotPositive:
        return False
    v = np.array(kd.ops, dtype=np.complex128).reshape(-1, phi.n, phi.n)
    c = choi(phi)
    worst = float(np.max(np.abs(choi(PairSumMap(phi.n, np.stack((v.conj().swapaxes(1, 2), v),
                                                                 axis=1))) - c)))
    return worst <= linalg.scaled_tol(worst, 10.0 * max(tol, 1e-12), c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_kraus_check_gives_the_verdict_of_the_canonical_cut(n):
    rng = np.random.default_rng(193 + n)
    tol = 1e-9
    rotated = 0
    for rep in (make_factor(n), make_factor(n, rng.uniform(0.2, 1.0, n))):
        cases = [trace_map(n), _orthogonal_kraus_map(rng, rep, np.ones(n + 1)),
                 _orthogonal_kraus_map(rng, rep, np.full(n * n, 0.5))]
        cases += [_band_map(n, t) for t in np.geomspace(1.1 * tol, 0.99 * n * tol, 5)]
        for phi in cases:
            assert _cp_report(phi, rep, tol=tol).kraus_exists == _canonical_kraus_verdict(phi, rep,
                                                                                          tol)
            # count the maps whose canonical cut differs from the one check_cp makes
            herm, _, _ = linalg.hermitian_part(dual_choi(phi, rep), tol)
            evals, evecs, _ = linalg._descending_eigh(herm)
            if evals[-1] >= -tol:
                _, raw = maps._kraus_ops(evals, evecs, rep, tol)
                canonical = np.array(kraus_decompose(phi, rep, tol).ops).reshape(raw.shape)
                rotated += not np.array_equal(raw, canonical)
    # at least trace_map at the tracial weights and both orthogonal Kraus
    # maps at both weightings
    assert rotated >= 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_cached_tracial_rep_gives_the_bytes_of_a_fresh_one(n):
    rng = np.random.default_rng(197 + n)
    for phi in (random_cp_map(rng, n, 2), random_map(rng, n, 3), trace_map(n)):
        fresh = make_factor(n)
        assert choi(phi).tobytes() == (n * projection_algebra.state_sum(fresh, phi.a,
                                                                        phi.b)).tobytes()
        assert dual_choi(phi).tobytes() == dual_choi(phi, fresh).tobytes()
    phi = random_cp_map(rng, n, 3)
    cached, explicit = kraus_decompose(phi), kraus_decompose(phi, make_factor(n))
    assert cached.coefficients == explicit.coefficients
    assert [v.tobytes() for v in cached.ops] == [v.tobytes() for v in explicit.ops]
    assert make_factor(n) is not make_factor(n)
    assert maps._tracial(n) is maps._tracial(n)
    weights = maps._tracial(n).weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.5
