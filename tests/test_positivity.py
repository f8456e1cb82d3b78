import numpy as np
import pytest

from choifactor import (
    NotHermitian,
    NumericalFailure,
    PairSumMap,
    UnsupportedDimension,
    apply_map,
    brute_product_min,
    check_positive,
    dual_choi,
    identity_map,
    make_factor,
    map_scale,
    map_sum,
    product_pairing,
    seesaw_product_min,
    state_projection,
    trace_map,
    transpose_map,
)
from helpers import cgauss, random_hermitian, random_hp_map, random_psd

TRACIAL2 = make_factor(2)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def tensor_pairing(d, u, v):
    w = np.kron(u, v)
    return np.vdot(w, d @ w)


def half_trace_minus_id():
    # C -> Tr(C) I/2 - C, whose dual Choi operator is I/4 - E
    return map_sum(trace_map(2), map_scale(identity_map(2), -1.0))


def test_product_pairing_value():
    rng = np.random.default_rng(1)
    d = random_hermitian(rng, 4)
    u, v = cgauss(rng, 2), cgauss(rng, 2)
    assert abs(product_pairing(d, u, v) - tensor_pairing(d, u, v)) < 1e-13


def test_seesaw_state_projection():
    _, e = state_projection(TRACIAL2)
    cert = seesaw_product_min(e)
    assert -1e-12 < cert.value < 1e-10
    assert abs(np.linalg.norm(cert.witness_u) - 1) < 1e-12
    assert abs(np.linalg.norm(cert.witness_v) - 1) < 1e-12


def test_seesaw_swap_half():
    # positive on product vectors despite a negative eigenvalue
    cert = seesaw_product_min(SWAP / 2)
    assert cert.value >= -1e-9
    assert cert.value < 1e-3
    assert cert.verdict == "positive"


def test_seesaw_quarter_gap():
    d = dual_choi(half_trace_minus_id(), TRACIAL2)
    cert = seesaw_product_min(d)
    assert cert.verdict == "not-positive"
    assert abs(cert.value - (-0.25)) < 1e-9
    assert abs(product_pairing(d, cert.witness_u, cert.witness_v) - cert.value) < 1e-12


def test_seesaw_psd_input():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        d = random_psd(rng, n * n)
        assert seesaw_product_min(d).value >= -1e-10


def test_seesaw_rejects_nonhermitian():
    rng = np.random.default_rng(5)
    with pytest.raises(NotHermitian):
        seesaw_product_min(cgauss(rng, 4, 4))


def test_seesaw_deterministic():
    d = dual_choi(half_trace_minus_id(), TRACIAL2)
    a = seesaw_product_min(d)
    b = seesaw_product_min(d)
    assert a.value == b.value
    assert np.array_equal(a.witness_u, b.witness_u)
    assert np.array_equal(a.witness_v, b.witness_v)


def test_brute_identity():
    value, _, _ = brute_product_min(np.eye(4))
    assert abs(value - 1.0) < 1e-12


def test_brute_swap_half():
    value, u, v = brute_product_min(SWAP / 2)
    assert -1e-9 <= value <= 1e-3
    assert abs(tensor_pairing(SWAP / 2, u, v) - value) < 1e-12


def test_brute_quarter_gap():
    d = dual_choi(half_trace_minus_id(), TRACIAL2)
    value, _, _ = brute_product_min(d, resolution=90)
    assert abs(value - (-0.25)) < 1e-3


def test_brute_wrong_dimension():
    with pytest.raises(UnsupportedDimension):
        brute_product_min(np.eye(9))


@pytest.mark.parametrize("seed", range(10))
def test_seesaw_brute_agree(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        d = random_hermitian(rng, 4)
        s = seesaw_product_min(d).value
        b, _, _ = brute_product_min(d, resolution=90)
        assert abs(s - b) < 5e-3
        # coarse grid can only overshoot the true minimum
        assert s <= b + 1e-9


def test_check_positive_transpose():
    cert = check_positive(transpose_map(2))
    assert cert.verdict == "positive"
    assert cert.method == "seesaw"
    assert cert.value >= -1e-9


def test_check_positive_identity():
    cert = check_positive(identity_map(2))
    assert cert.verdict == "positive"


def test_check_positive_gap_map():
    cert = check_positive(half_trace_minus_id())
    assert cert.verdict == "not-positive"
    assert abs(cert.value - (-0.25)) < 1e-6
    # the witness pair certifies a negative output eigenvalue
    out = apply_map(half_trace_minus_id(), np.outer(cert.witness_v, cert.witness_v.conj()))
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() < -0.4


def test_check_positive_witness_is_replayable():
    cert = check_positive(half_trace_minus_id())
    d = dual_choi(half_trace_minus_id(), TRACIAL2)
    replay = product_pairing(d, cert.witness_u, cert.witness_v)
    assert abs(replay - cert.value) < 1e-12


def test_check_positive_oracle():
    cert = check_positive(half_trace_minus_id(), oracle=True)
    assert cert.verdict == "not-positive"
    assert cert.method in ("seesaw", "brute")
    assert abs(cert.value - (-0.25)) < 1e-3


def test_check_positive_oracle_wrong_dimension():
    with pytest.raises(UnsupportedDimension):
        check_positive(trace_map(3), oracle=True)


def test_check_positive_weighted_rep():
    rep = make_factor(2, [0.25, 0.75])
    cert = check_positive(transpose_map(2), rep=rep)
    assert cert.verdict == "positive"
    cert2 = check_positive(half_trace_minus_id(), rep=rep)
    assert cert2.verdict == "not-positive"


def test_check_positive_detects_nonhermitian_outputs():
    # C -> iC has non-Hermitian outputs, caught by a direct witness
    phi = PairSumMap(2, ((1j * np.eye(2), np.eye(2)),))
    cert = check_positive(phi)
    assert cert.verdict == "not-positive"
    assert cert.method == "direct"
    assert abs(cert.pairing_imag) > 1e-8
    out = apply_map(phi, np.outer(cert.witness_v, cert.witness_v.conj()))
    assert np.abs(out - out.conj().T).max() > 1e-8


def test_check_positive_positive_but_not_cp_separation():
    from choifactor import check_cp

    cert = check_positive(transpose_map(2))
    report = check_cp(transpose_map(2))
    assert cert.verdict == "positive"
    assert not report.cp


def _grid_output_min(phi, resolution=60):
    # worst output eigenvalue over a Bloch grid of rank-one inputs
    theta = np.linspace(0.0, np.pi, resolution)
    ang = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, ang, indexing="ij")
    vs = np.stack(
        [np.cos(tt / 2.0).ravel(), np.exp(1j * pp.ravel()) * np.sin(tt / 2.0).ravel()],
        axis=1,
    )
    a_stack = np.stack([a for a, _ in phi.terms])
    b_stack = np.stack([b for _, b in phi.terms])
    outs = np.einsum("tia,ga,gb,tbj->gij", a_stack, vs, vs.conj(), b_stack)
    outs = (outs + outs.conj().transpose(0, 2, 1)) / 2
    return float(np.linalg.eigvalsh(outs)[:, 0].min())


def test_two_positivity_characterizations_agree():
    # positivity read off the output spectra and positivity read off the
    # product pairing must reach the same verdict; with a margin away
    # from zero the two grid minima also agree numerically (one is half
    # the other at uniform weights)
    rng = np.random.default_rng(777)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 2000
        phi = random_hp_map(rng, 2, 2)
        d = dual_choi(phi, TRACIAL2)
        scale = max(1.0, np.abs(d).max())
        m_pair, _, _ = brute_product_min(d, resolution=60)
        if abs(m_pair) < 0.02 * scale:
            continue
        accepted += 1
        m_out = _grid_output_min(phi, resolution=60)
        assert (m_pair < 0) == (m_out < 0)
        assert abs(2.0 * m_pair - m_out) < 2e-2 * scale


@pytest.mark.parametrize("seed", range(6))
def test_product_min_consistent_with_output_spectrum(seed):
    # negative product pairing forces a negative output eigenvalue and
    # a floor of the product minimum over all unit pairs, checked on a
    # grid fine enough to trust both sides
    rng = np.random.default_rng(300 + seed)
    found = 0
    while found < 3:
        phi = random_hp_map(rng, 2, 2)
        d = dual_choi(phi, TRACIAL2)
        b, _, v = brute_product_min(d, resolution=60)
        if abs(b) < 0.02:
            continue
        found += 1
        out = apply_map(phi, np.outer(v, v.conj()))
        low = np.linalg.eigvalsh((out + out.conj().T) / 2).min()
        if b < 0:
            assert low <= 2 * b + 1e-9
        else:
            assert seesaw_product_min(d).value >= -1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_seesaw_reports_overflow_as_numerical_failure():
    # products of the 1e200 entries overflow to inf and the see-saw's pairing
    # turns into NaN; the descent check must say so, also under python -O
    big = np.diag([1e200, 1.0]).astype(complex)
    phi = PairSumMap(2, ((big, big),))
    with pytest.raises(NumericalFailure):
        check_positive(phi)


def test_grid_oracle_refuses_an_overflowed_operator():
    # the dual Choi operator of this map holds inf and NaN entries
    a = np.array([[1e200, 0.0], [1j, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        d = dual_choi(PairSumMap(2, ((a, a),)), TRACIAL2)
        with pytest.raises(NumericalFailure, match="cannot diagonalize"):
            brute_product_min(d)


def test_restarts_and_resolution_below_one_are_refused():
    d = dual_choi(transpose_map(2), TRACIAL2)
    with pytest.raises(ValueError, match="restarts"):
        seesaw_product_min(d, restarts=0)
    # refused also where the direct witness would decide without a restart
    rng = np.random.default_rng(151)
    non_hp = PairSumMap(2, ((cgauss(rng, 2, 2), cgauss(rng, 2, 2)),))
    for phi in (transpose_map(2), non_hp):
        with pytest.raises(ValueError, match="restarts"):
            check_positive(phi, restarts=0)
    with pytest.raises(ValueError, match="resolution"):
        brute_product_min(d, resolution=0)
    assert seesaw_product_min(d, restarts=1).verdict == "positive"
