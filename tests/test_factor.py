import numpy as np
import pytest

from choifactor import (
    BadWeights,
    DimensionMismatch,
    embed,
    implementer_from_vector,
    make_factor,
    modular_conjugate,
    state_projection,
    vector_state,
)
from choifactor.factor import apply_factor_to_state
from helpers import cgauss, matrix_unit

REPS = [make_factor(2, "tracial"), make_factor(3, [0.2, 0.3, 0.5])]


def test_make_factor_tracial():
    rep = make_factor(3)
    assert rep.tracial
    assert np.allclose(rep.weights, 1 / 3)


def test_make_factor_normalizes():
    rep = make_factor(2, [1.0, 3.0])
    assert np.allclose(rep.weights, [0.25, 0.75])
    assert not rep.tracial


@pytest.mark.parametrize(
    "weights", [(1, 0), (1, -1), (1, 1, 1), (-1, -1), (float("nan"), 1), (float("inf"), 1)]
)
def test_make_factor_bad_weights(weights):
    with pytest.raises(BadWeights):
        make_factor(2, weights)


def test_make_factor_bad_dimension():
    with pytest.raises(ValueError):
        make_factor(1)


def test_state_projection_tracial():
    rep = make_factor(2)
    x, e = state_projection(rep)
    assert np.allclose(x, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    # E = (1/n) sum_ij e_ij (x) e_ij
    direct = sum(
        np.kron(matrix_unit(2, i, j), matrix_unit(2, i, j)) for i in range(2) for j in range(2)
    ) / 2
    assert np.abs(e - direct).max() < 1e-15


def test_state_projection_weighted():
    rep = make_factor(2, [0.25, 0.75])
    x, e = state_projection(rep)
    assert np.allclose(x, [0.5, 0, 0, np.sqrt(0.75)])
    assert np.abs(e @ e - e).max() < 1e-15
    assert np.abs(e - e.conj().T).max() < 1e-15
    assert np.allclose(e @ x, x)
    assert np.linalg.matrix_rank(e) == 1


@pytest.mark.parametrize("rep", REPS)
def test_embed_sides_commute(rep):
    rng = np.random.default_rng(17)
    a, b = cgauss(rng, rep.n, rep.n), cgauss(rng, rep.n, rep.n)
    fa = embed(rep, a, "factor")
    cb = embed(rep, b, "commutant")
    assert np.abs(fa @ cb - cb @ fa).max() < 1e-12


def test_embed_shapes_and_sides():
    rep = make_factor(2)
    assert np.allclose(embed(rep, np.eye(2), "factor"), np.eye(4))
    u = matrix_unit(2, 0, 0)
    assert np.allclose(embed(rep, u, "factor"), np.kron(np.eye(2), u))
    assert np.allclose(embed(rep, u, "commutant"), np.kron(u, np.eye(2)))
    with pytest.raises(DimensionMismatch):
        embed(rep, np.eye(3))
    with pytest.raises(ValueError):
        embed(rep, np.eye(2), "both")


def test_vector_state_values():
    rep = make_factor(2)
    assert vector_state(rep, np.eye(2)) == pytest.approx(1.0)
    assert vector_state(rep, np.diag([1.0, 3.0])) == pytest.approx(2.0)
    assert vector_state(rep, matrix_unit(2, 0, 1)) == pytest.approx(0.0)
    rep2 = make_factor(2, [0.25, 0.75])
    assert vector_state(rep2, np.diag([1.0, 3.0])) == pytest.approx(2.5)


@pytest.mark.parametrize("rep", REPS)
def test_vector_state_matches_expectation(rep):
    rng = np.random.default_rng(23)
    x, _ = state_projection(rep)
    for _ in range(10):
        a = cgauss(rng, rep.n, rep.n)
        lifted = embed(rep, a, "factor")
        assert abs(vector_state(rep, a) - np.vdot(x, lifted @ x)) < 1e-12


@pytest.mark.parametrize("rep", REPS)
def test_state_compression_identity(rep):
    # omega(a) E = E (1 (x) a) E
    rng = np.random.default_rng(29)
    _, e = state_projection(rep)
    for _ in range(10):
        a = cgauss(rng, rep.n, rep.n)
        lhs = vector_state(rep, a) * e
        rhs = e @ embed(rep, a, "factor") @ e
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("rep", REPS)
def test_cyclic(rep):
    # vectors (1 (x) a) x span the whole space
    n = rep.n
    cols = [
        apply_factor_to_state(rep, matrix_unit(n, i, j))
        for i in range(n)
        for j in range(n)
    ]
    assert np.linalg.matrix_rank(np.stack(cols, axis=1)) == n * n


@pytest.mark.parametrize("rep", REPS)
def test_separating(rep):
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = cgauss(rng, rep.n, rep.n)
        a /= np.linalg.norm(a, 2)
        nrm = np.linalg.norm(apply_factor_to_state(rep, a))
        assert nrm >= 0.99 * np.sqrt(rep.weights.min())


def test_implementer_from_state_vector_is_identity():
    for rep in REPS:
        x, _ = state_projection(rep)
        assert np.abs(implementer_from_vector(rep, x) - np.eye(rep.n)).max() < 1e-12


def test_implementer_zero():
    rep = make_factor(2)
    assert np.allclose(implementer_from_vector(rep, np.zeros(4)), 0.0)


def test_implementer_singlet():
    rep = make_factor(2)
    y = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    s = implementer_from_vector(rep, y)
    assert np.allclose(s, np.array([[0, -1], [1, 0]]))
    assert np.allclose(apply_factor_to_state(rep, s), y)


@pytest.mark.parametrize("rep", REPS)
def test_implementer_roundtrip(rep):
    rng = np.random.default_rng(37)
    for _ in range(10):
        y = cgauss(rng, rep.n * rep.n)
        s = implementer_from_vector(rep, y)
        assert np.abs(apply_factor_to_state(rep, s) - y).max() < 1e-12


def test_modular_conjugation_props():
    rep = make_factor(3)
    rng = np.random.default_rng(41)
    x, _ = state_projection(rep)
    assert np.allclose(modular_conjugate(rep, x), x)
    v = cgauss(rng, 9)
    assert np.abs(modular_conjugate(rep, modular_conjugate(rep, v)) - v).max() < 1e-15
    assert np.allclose(modular_conjugate(rep, 1j * v), -1j * modular_conjugate(rep, v))
    a = cgauss(rng, 3, 3)
    lhs = modular_conjugate(rep, embed(rep, a, "factor") @ x)
    rhs = embed(rep, a.conj().T, "factor") @ x
    assert np.abs(lhs - rhs).max() < 1e-12


def test_modular_conjugation_swaps_legs():
    # J (1 (x) A) J = conj(A) (x) 1 as linear operators
    rep = make_factor(2)
    rng = np.random.default_rng(43)
    a = cgauss(rng, 2, 2)
    lifted = embed(rep, a, "factor")
    cols = []
    for k in range(4):
        ek = np.zeros(4, dtype=complex)
        ek[k] = 1.0
        cols.append(modular_conjugate(rep, lifted @ modular_conjugate(rep, ek)))
    sandwich = np.stack(cols, axis=1)
    assert np.abs(sandwich - embed(rep, a.conj(), "commutant")).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modular_conjugation_at_any_weights(n):
    # J(Y) = Y* does not depend on the weights: an antilinear involution
    # fixing x, with J (1 (x) A) J = conj(A) (x) 1
    rng = np.random.default_rng(47 + n)
    rep = make_factor(n, rng.uniform(0.1, 1.0, n))
    x, _ = state_projection(rep)
    assert np.abs(modular_conjugate(rep, x) - x).max() < 1e-15
    v, z = cgauss(rng, n * n), complex(*rng.standard_normal(2))
    assert np.array_equal(modular_conjugate(rep, modular_conjugate(rep, v)), v)
    assert np.abs(modular_conjugate(rep, z * v) - np.conj(z) * modular_conjugate(rep, v)).max() < 1e-14
    a = cgauss(rng, n, n)
    lifted = embed(rep, a, "factor")
    cols = [modular_conjugate(rep, lifted @ modular_conjugate(rep, e)) for e in np.eye(n * n)]
    assert np.abs(np.stack(cols, axis=1) - embed(rep, a.conj(), "commutant")).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tomita_operator_sends_a_x_to_a_star_x(n):
    # S = J Delta^(1/2) with Delta^(1/2)(Y) = D^(-1/2) Y D^(1/2), D = diag(w),
    # in the Hilbert-Schmidt picture: S (1 (x) A) x = (1 (x) A*) x
    rng = np.random.default_rng(53 + n)
    rep = make_factor(n, rng.uniform(0.1, 1.0, n))
    root = np.sqrt(rep.weights)
    for _ in range(5):
        a = cgauss(rng, n, n)
        y = apply_factor_to_state(rep, a).reshape(n, n)
        got = modular_conjugate(rep, y / root[:, None] * root[None, :])
        want = apply_factor_to_state(rep, a.conj().T)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(a).max())
