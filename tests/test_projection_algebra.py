import numpy as np
import pytest

from choifactor import (
    NotAProjection,
    NotRankOneProjection,
    NotSelfAdjoint,
    PairSumElement,
    RepMismatch,
    ZeroProjection,
    compress,
    element_add,
    element_adjoint,
    element_product,
    element_scale,
    identity_element,
    make_factor,
    materialize,
    rank_one_implementer,
    rank_one_subprojection,
    spectral_decompose,
    state_projection,
    transpose_map,
    vector_state,
    zero_element,
)
from choifactor import projection_algebra
from helpers import cgauss, matrix_unit, random_selfadjoint_terms

TRACIAL2 = make_factor(2)
WEIGHTED2 = make_factor(2, [0.25, 0.75])
REPS = [TRACIAL2, make_factor(3), WEIGHTED2, make_factor(3, [0.2, 0.3, 0.5])]

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def unit_element(rep):
    eye = np.eye(rep.n)
    return PairSumElement(rep, ((eye, eye),))


def transpose_element(rep):
    return PairSumElement(rep, transpose_map(rep.n).terms)


def test_materialize_unit_term_is_projection():
    for rep in REPS:
        _, e = state_projection(rep)
        assert np.abs(materialize(unit_element(rep)) - e).max() < 1e-15


def test_materialize_transpose_terms_swap():
    m = materialize(transpose_element(TRACIAL2))
    assert np.abs(m - SWAP / 2).max() < 1e-15


def test_materialize_linear():
    rep = TRACIAL2
    rng = np.random.default_rng(3)
    a, b = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    single = PairSumElement(rep, ((a, b),))
    doubled = PairSumElement(rep, ((a, b), (a, b)))
    assert np.abs(materialize(doubled) - 2 * materialize(single)).max() < 1e-14
    assert np.allclose(materialize(zero_element(rep)), 0.0)


def test_adjoint_fixes_projection():
    e = unit_element(TRACIAL2)
    assert np.abs(materialize(element_adjoint(e)) - materialize(e)).max() < 1e-15


@pytest.mark.parametrize("rep", REPS)
def test_adjoint_matches_materialization(rep):
    rng = np.random.default_rng(5)
    terms = tuple((cgauss(rng, rep.n, rep.n), cgauss(rng, rep.n, rep.n)) for _ in range(3))
    e = PairSumElement(rep, terms)
    assert (
        np.abs(materialize(element_adjoint(e)) - materialize(e).conj().T).max() < 1e-12
    )


def test_adjoint_of_empty():
    e = element_adjoint(zero_element(TRACIAL2))
    assert len(e) == 0


def test_product_of_projections():
    e = unit_element(TRACIAL2)
    assert np.abs(materialize(element_product(e, e)) - materialize(e)).max() < 1e-15


def test_product_collapses_middle():
    # (A E sx)(sx E D) = omega(sx sx) A E D = A E D
    rep = TRACIAL2
    rng = np.random.default_rng(7)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    a, d = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    prod = element_product(PairSumElement(rep, ((a, sx),)), PairSumElement(rep, ((sx, d),)))
    assert len(prod) == 1
    got_a, got_b = prod.terms[0]
    assert np.abs(got_a - a).max() < 1e-14
    assert np.abs(got_b - d).max() < 1e-14


@pytest.mark.parametrize("rep", REPS)
def test_product_identity_random(rep):
    rng = np.random.default_rng(11)
    n = rep.n
    for _ in range(25):
        a, b, c, d = (cgauss(rng, n, n) for _ in range(4))
        lhs = materialize(
            element_product(PairSumElement(rep, ((a, b),)), PairSumElement(rep, ((c, d),)))
        )
        rhs = vector_state(rep, b @ c) * materialize(PairSumElement(rep, ((a, d),)))
        assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("rep", REPS)
def test_product_homomorphism(rep):
    rng = np.random.default_rng(13)
    n = rep.n
    e1 = PairSumElement(rep, tuple((cgauss(rng, n, n), cgauss(rng, n, n)) for _ in range(3)))
    e2 = PairSumElement(rep, tuple((cgauss(rng, n, n), cgauss(rng, n, n)) for _ in range(2)))
    lhs = materialize(element_product(e1, e2))
    rhs = materialize(e1) @ materialize(e2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_product_adjoint_compatibility():
    rep = make_factor(3, [0.5, 0.3, 0.2])
    rng = np.random.default_rng(17)
    e1 = PairSumElement(rep, tuple((cgauss(rng, 3, 3), cgauss(rng, 3, 3)) for _ in range(2)))
    e2 = PairSumElement(rep, tuple((cgauss(rng, 3, 3), cgauss(rng, 3, 3)) for _ in range(2)))
    lhs = materialize(element_adjoint(element_product(e1, e2)))
    rhs = materialize(element_product(element_adjoint(e2), element_adjoint(e1)))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_product_rejects_mixed_reps():
    with pytest.raises(RepMismatch):
        element_product(unit_element(TRACIAL2), unit_element(WEIGHTED2))


def test_zero_times_anything():
    e = unit_element(TRACIAL2)
    z = element_product(zero_element(TRACIAL2), e)
    assert np.allclose(materialize(z), 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_span_density(n):
    # matrix-unit frames span all of B(H): dimension n^4
    for rep in (make_factor(n), make_factor(n, list(range(1, n + 1)))):
        frames = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        e = PairSumElement(
                            rep, ((matrix_unit(n, i, j), matrix_unit(n, k, l)),)
                        )
                        frames.append(materialize(e).reshape(-1))
        rank = np.linalg.matrix_rank(np.stack(frames, axis=1))
        assert rank == n**4


def test_identity_element():
    for rep in REPS:
        assert np.abs(materialize(identity_element(rep)) - np.eye(rep.n**2)).max() < 1e-12


@pytest.mark.parametrize("rep", [TRACIAL2, make_factor(3)])
@pytest.mark.parametrize("power", [2, 3])
def test_power_coefficients(rep, power):
    # coefficients of t^m in the frame basis are the (m-1)-th Gram power
    rng = np.random.default_rng(19 + power)
    n = rep.n
    k = 3
    terms = tuple((cgauss(rng, n, n), cgauss(rng, n, n)) for _ in range(k))
    t = PairSumElement(rep, terms)
    gram = np.array(
        [[vector_state(rep, terms[i][1] @ terms[j][0]) for j in range(k)] for i in range(k)]
    )
    coeff = np.linalg.matrix_power(gram, power - 1)
    rebuilt = sum(
        coeff[i, j] * materialize(PairSumElement(rep, ((terms[i][0], terms[j][1]),)))
        for i in range(k)
        for j in range(k)
    )
    direct = np.linalg.matrix_power(materialize(t), power)
    assert np.abs(rebuilt - direct).max() < 1e-9


def test_compress_shrinks_duplicates():
    rep = TRACIAL2
    rng = np.random.default_rng(23)
    a, b = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    fat = PairSumElement(rep, ((a, b), (2 * a, b), (a, b)))
    slim = compress(fat)
    assert len(slim) < len(fat)
    assert np.abs(materialize(slim) - materialize(fat)).max() < 1e-10


def test_compress_keeps_independent():
    rep = TRACIAL2
    rng = np.random.default_rng(29)
    terms = tuple((cgauss(rng, 2, 2), cgauss(rng, 2, 2)) for _ in range(3))
    e = PairSumElement(rep, terms)
    slim = compress(e)
    assert len(slim) == 3
    assert np.abs(materialize(slim) - materialize(e)).max() < 1e-10


def test_rank_one_subprojection_of_state_projection():
    _, e = state_projection(TRACIAL2)
    f = rank_one_subprojection(unit_element(TRACIAL2))
    assert np.abs(materialize(f) - e).max() < 1e-12


@pytest.mark.parametrize("rep", REPS)
def test_rank_one_subprojection_of_identity(rep):
    p = identity_element(rep)
    f = rank_one_subprojection(p)
    m = materialize(f)
    assert np.abs(m @ m - m).max() < 1e-10
    assert np.abs(m - m.conj().T).max() < 1e-10
    assert np.linalg.matrix_rank(m, tol=1e-8) == 1
    # below p: p f = f
    assert np.abs(materialize(element_product(p, f)) - m).max() < 1e-10


def test_rank_one_subprojection_of_rank_two():
    # symmetric rank-2 projection assembled from spectral pieces of SWAP/2
    rep = TRACIAL2
    sd = spectral_decompose(transpose_element(rep))
    items = [(c, s) for c, s in sd.items if c > 0][:2]
    terms = tuple((s, s.conj().T) for _, s in items)
    p = PairSumElement(rep, terms)
    f = rank_one_subprojection(p)
    m = materialize(f)
    assert np.linalg.matrix_rank(m, tol=1e-8) == 1
    assert np.abs(materialize(element_product(p, f)) - m).max() < 1e-10


def test_rank_one_subprojection_rejections():
    rep = TRACIAL2
    rng = np.random.default_rng(31)
    bad = PairSumElement(rep, ((cgauss(rng, 2, 2), cgauss(rng, 2, 2)),))
    with pytest.raises(NotAProjection):
        rank_one_subprojection(bad)
    with pytest.raises(ZeroProjection):
        rank_one_subprojection(zero_element(rep))


def test_rank_one_implementer_state_projection():
    s = rank_one_implementer(unit_element(TRACIAL2))
    assert np.abs(s - np.eye(2)).max() < 1e-12


def test_rank_one_implementer_singlet():
    rep = TRACIAL2
    sd = spectral_decompose(transpose_element(rep))
    c, s_neg = sd.items[-1]
    p = PairSumElement(rep, ((s_neg, s_neg.conj().T),))
    s = rank_one_implementer(p)
    assert np.allclose(s, np.array([[0, -1], [1, 0]]), atol=1e-12)
    assert abs(vector_state(rep, s.conj().T @ s) - 1.0) < 1e-12


def test_rank_one_implementer_phase_independent():
    rep = WEIGHTED2
    rng = np.random.default_rng(37)
    y = cgauss(rng, 4)
    y /= np.linalg.norm(y)
    from choifactor import implementer_from_vector

    for phase in (1.0, np.exp(0.7j)):
        s0 = implementer_from_vector(rep, phase * y)
        p = PairSumElement(rep, ((s0, s0.conj().T),))
        s = rank_one_implementer(p)
        rebuilt = materialize(PairSumElement(rep, ((s, s.conj().T),)))
        assert np.abs(rebuilt - materialize(p)).max() < 1e-10
        if phase == 1.0:
            first = s
    assert np.abs(first - s).max() < 1e-10


def test_rank_one_implementer_rejects_higher_rank():
    with pytest.raises(NotRankOneProjection):
        rank_one_implementer(identity_element(TRACIAL2))


def test_spectral_state_projection():
    sd = spectral_decompose(unit_element(TRACIAL2))
    assert len(sd) == 1
    c, s = sd.items[0]
    assert abs(c - 1.0) < 1e-12
    assert np.abs(s - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("rep", REPS)
def test_spectral_single_positive_term(rep):
    rng = np.random.default_rng(41)
    a = cgauss(rng, rep.n, rep.n) + 2 * np.eye(rep.n)  # keep it invertible
    sd = spectral_decompose(PairSumElement(rep, ((a, a.conj().T),)))
    assert len(sd) == 1
    c, s = sd.items[0]
    target = complex(vector_state(rep, a.conj().T @ a)).real
    assert abs(c - target) < 1e-9 * max(1.0, target)
    # s proportional to a up to the phase convention
    ratio = np.vdot(s.reshape(-1), a.reshape(-1))
    aligned = a * np.exp(-1j * np.angle(ratio))
    assert np.abs(aligned / np.sqrt(target) - s).max() < 1e-9


def test_spectral_transpose_element():
    sd = spectral_decompose(transpose_element(TRACIAL2))
    cs = [c for c, _ in sd.items]
    assert np.allclose(cs, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
    assert np.allclose(sd.items[-1][1], np.array([[0, -1], [1, 0]]), atol=1e-12)


@pytest.mark.parametrize("rep", REPS)
def test_spectral_random_selfadjoint(rep):
    rng = np.random.default_rng(43 + rep.n)
    for trial in range(4):
        terms = random_selfadjoint_terms(rng, rep.n, 2, with_diagonal=trial % 2 == 0)
        t = PairSumElement(rep, terms)
        m = materialize(t)
        sd = spectral_decompose(t)
        rebuilt = sum(
            c * materialize(PairSumElement(rep, ((s, s.conj().T),))) for c, s in sd.items
        )
        assert np.abs(rebuilt - m).max() < 1e-9
        # rank-one pieces are mutually orthogonal projections
        projs = [materialize(PairSumElement(rep, ((s, s.conj().T),))) for _, s in sd.items]
        for i in range(len(projs)):
            for j in range(len(projs)):
                want = projs[i] if i == j else 0.0
                assert np.abs(projs[i] @ projs[j] - want).max() < 1e-10


def test_spectral_decompose_checks_every_cluster_in_one_solve(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counting(a, b, rcond=None):
        calls.append(b.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    rng = np.random.default_rng(49)
    t = PairSumElement(make_factor(3), random_selfadjoint_terms(rng, 3, 3))
    sd = spectral_decompose(t)
    assert len(sd) == 6
    assert calls == [(81, 6)]


def test_spectral_rejects_non_selfadjoint():
    rng = np.random.default_rng(47)
    t = PairSumElement(TRACIAL2, ((cgauss(rng, 2, 2), cgauss(rng, 2, 2)),))
    with pytest.raises(NotSelfAdjoint):
        spectral_decompose(t)


def test_spectral_drops_kernel():
    # E has one nonzero eigenvalue; the three zeros must not appear
    sd = spectral_decompose(unit_element(make_factor(3)))
    assert len(sd) == 1


def test_scale_and_add():
    rep = TRACIAL2
    rng = np.random.default_rng(53)
    e = PairSumElement(rep, ((cgauss(rng, 2, 2), cgauss(rng, 2, 2)),))
    assert np.abs(materialize(element_scale(e, 2j)) - 2j * materialize(e)).max() < 1e-12
    both = element_add(e, e)
    assert np.abs(materialize(both) - 2 * materialize(e)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_identity_element_keeps_its_term_bytes(n):
    # the hand-built loop the matrix-unit stack replaced: k outer, l inner
    rep = make_factor(n, np.random.default_rng(n).uniform(0.2, 1.0, n))
    want = []
    for k in range(n):
        for l in range(n):
            s = matrix_unit(n, l, k) / np.sqrt(rep.weights[k])
            want.append((s, s.conj().T))
    got = identity_element(rep).terms
    assert len(got) == len(want)
    for (a, b), (wa, wb) in zip(got, want):
        assert a.tobytes() == wa.tobytes() and b.tobytes() == wb.tobytes()


def test_rank_one_subprojection_takes_one_opnorm(monkeypatch):
    calls = []
    norm = projection_algebra.opnorm

    def counting(m):
        calls.append(1)
        return norm(m)

    monkeypatch.setattr(projection_algebra, "opnorm", counting)
    for rep in REPS:
        calls.clear()
        rank_one_subprojection(identity_element(rep))
        assert len(calls) == 1


def test_rank_one_implementer_takes_no_opnorm(monkeypatch):
    # its tests are scaled by the largest eigenvalue it already has
    calls = []
    norm = projection_algebra.opnorm

    def counting(m):
        calls.append(1)
        return norm(m)

    monkeypatch.setattr(projection_algebra, "opnorm", counting)
    for rep in REPS:
        x = np.eye(rep.n)
        s = rank_one_implementer(PairSumElement(rep, ((x, x),)))
        assert np.abs(s - np.eye(rep.n)).max() < 1e-12
        with pytest.raises(NotRankOneProjection):
            rank_one_implementer(identity_element(rep))
    assert calls == []
