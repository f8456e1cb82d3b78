"""Each input guard raises its documented type with its message."""
import numpy as np
import pytest

from choifactor import (
    BadWeights,
    DimensionMismatch,
    FactorRep,
    FileFormatError,
    NotRankOneProjection,
    PairSumElement,
    PairSumMap,
    RepMismatch,
    conjugation_map,
    dual_choi,
    identity_map,
    implementer_from_vector,
    make_factor,
    map_from_dual_choi,
    map_sum,
    modular_conjugate,
    parse_map_file,
    product_pairing,
    rank_one_implementer,
    seesaw_product_min,
    vector_state,
)
from choifactor.factor import apply_factor_to_state
from choifactor.linalg import opnorm
from helpers import matrix_unit

REP2 = make_factor(2)

GUARDS = {
    "weights-sum": (lambda: FactorRep(2, np.array([0.3, 0.3])),
                    BadWeights, "weights must sum to 1, got 0.6"),
    "weight-preset": (lambda: make_factor(2, "uniform"),
                      BadWeights, "unknown weight preset 'uniform'"),
    "vector-state-shape": (lambda: vector_state(REP2, np.eye(3)),
                           DimensionMismatch, "expected 2x2, got (3, 3)"),
    "apply-to-state-shape": (lambda: apply_factor_to_state(REP2, np.eye(3)),
                             DimensionMismatch, "expected 2x2, got (3, 3)"),
    "implementer-length": (lambda: implementer_from_vector(REP2, np.zeros(3)),
                           DimensionMismatch, "expected length 4, got shape (3,)"),
    "modular-conjugate-length": (lambda: modular_conjugate(REP2, np.zeros(3)),
                                 DimensionMismatch, "expected length 4, got 3"),
    "map-dimension": (lambda: PairSumMap(1, ()),
                      ValueError, "dimension must be an integer >= 2, got 1"),
    "conjugation-shape": (lambda: conjugation_map(np.zeros((2, 3))),
                          DimensionMismatch, "expected a square matrix, got shape (2, 3)"),
    "map-sum-dimensions": (lambda: map_sum(identity_map(2), identity_map(3)),
                           DimensionMismatch, "maps act on different dimensions"),
    "rep-dimension": (lambda: dual_choi(identity_map(2), make_factor(3)),
                      RepMismatch, "map dimension 2 vs representation dimension 3"),
    "dual-choi-shape": (lambda: map_from_dual_choi(np.zeros((3, 3)), REP2),
                        DimensionMismatch, "expected 4x4, got (3, 3)"),
    "pairing-shape": (lambda: product_pairing(np.eye(4), np.ones(2), np.ones(3)),
                      DimensionMismatch, "operator shape (4, 4) vs product length 6"),
    "seesaw-not-square": (lambda: seesaw_product_min(np.zeros((2, 3))),
                          DimensionMismatch, "square matrix, got shape (2, 3)"),
    "seesaw-empty": (lambda: seesaw_product_min(np.zeros((0, 0))),
                     DimensionMismatch, "nonempty square matrix, got shape (0, 0)"),
    "seesaw-side": (lambda: seesaw_product_min(np.eye(3)),
                    DimensionMismatch, "side 3 is not a perfect square"),
    "term-shape": (lambda: PairSumElement(REP2, [(np.eye(3), np.eye(2))]),
                   DimensionMismatch, "term matrices must be 2x2, got (3, 3) and (2, 2)"),
    "rank-one-not-hermitian": (
        lambda: rank_one_implementer(PairSumElement(REP2, [(matrix_unit(2, 0, 1), np.eye(2))])),
        NotRankOneProjection, "hermiticity defect"),
    "terms-not-list": (lambda: parse_map_file({"n": 2, "terms": {}}),
                       FileFormatError, '"terms" must be a list'),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises_its_type_and_message(name):
    call, error, fragment = GUARDS[name]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_opnorm_of_an_empty_matrix_is_zero():
    assert opnorm(np.zeros((0, 0))) == 0.0
