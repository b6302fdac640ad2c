"""Commutation relations, Casimir centrality, and the pencil subalgebra."""

from fractions import Fraction

import pytest

from pastroq.algebra import (
    affine_generators,
    alpha1,
    alpha2,
    casimir_centrality,
    casimir_element,
    qhahn_embedding,
    verify_affine_relations,
    verify_raw_relations,
)
from pastroq.qcore import QParams
from pastroq.qdiff import QDiffOperator, make_operators

REFERENCE = QParams(Fraction(1, 2), 3, Fraction(1, 5))
SECOND = QParams(Fraction(-4, 5), 6, -2)
LARGE_BASE = QParams(3, Fraction(1, 2), Fraction(5, 7))

POINTS = [REFERENCE, SECOND, LARGE_BASE]


def test_structure_constants_frozen():
    assert alpha1(REFERENCE) == Fraction(1, 60)
    assert alpha2(REFERENCE) == Fraction(-11, 45)


@pytest.mark.parametrize("params", POINTS)
def test_raw_relations_pass(params):
    for check in verify_raw_relations(params):
        assert check.status == "PASS", (check.name, check.witness)


@pytest.mark.parametrize("params", POINTS)
def test_affine_relations_pass(params):
    for check in verify_affine_relations(params):
        assert check.status == "PASS", (check.name, check.witness)


def test_affine_presentation_constants_recorded():
    checks = verify_affine_relations(REFERENCE)
    presentation = {check.name: check for check in checks}[
        "askey-wilson-cyclic-presentation"
    ]
    assert presentation.params["beta1"] == "0"
    assert presentation.params["beta2"] == "1"
    assert presentation.params["delta1"] == "0"
    assert presentation.params["delta2"] == "1"
    assert presentation.params["alpha1"] == "1/60"
    assert presentation.params["alpha2"] == "-11/45"


@pytest.mark.parametrize("params", POINTS)
def test_casimir_central(params):
    for check in casimir_centrality(params):
        assert check.status == "PASS", (check.name, check.witness)


def test_casimir_acts_as_frozen_scalar():
    # in the Laurent-polynomial realization the Casimir is a pure scalar;
    # -74/5 was computed by hand from its action on the constant function
    element = casimir_element(REFERENCE)
    assert element == Fraction(-74, 5) * QDiffOperator.identity(REFERENCE.q)


@pytest.mark.parametrize("params", POINTS)
@pytest.mark.parametrize("mu", [Fraction(2, 3), Fraction(-3, 2), Fraction(0)])
def test_qhahn_embedding_passes(params, mu):
    constants, checks = qhahn_embedding(params, mu)
    for check in checks:
        assert check.status == "PASS", (check.name, check.witness)
    assert constants.degenerate is (mu == 0)


def test_qhahn_constants_frozen():
    constants, _ = qhahn_embedding(REFERENCE, Fraction(2, 3))
    assert constants.gamma1 == Fraction(113, 135)
    assert constants.gamma2 == Fraction(1, 90)
    assert constants.gamma3 == Fraction(-3, 2)
    assert constants.gamma1 == constants.mu * constants.alpha2 + 1
    assert constants.gamma2 == constants.mu * constants.alpha1


def test_qhahn_degenerate_flag_in_context():
    _, degenerate_checks = qhahn_embedding(REFERENCE, 0)
    for check in degenerate_checks:
        assert check.params.get("degenerate") == "true"
    _, generic_checks = qhahn_embedding(REFERENCE, Fraction(2, 3))
    for check in generic_checks:
        assert "degenerate" not in check.params


def test_corrupted_raw_triple_fails():
    X, Y, Z = make_operators(REFERENCE)
    bad_terms = {shift: -coeff if shift == -1 else coeff for shift, coeff in X.items()}
    bad_x = QDiffOperator(X.q, bad_terms)
    checks = verify_raw_relations(REFERENCE, operators=(bad_x, Y, Z))
    failed = [check for check in checks if check.status == "FAIL"]
    assert failed
    for check in failed:
        assert check.witness and "shift" in check.witness


def test_corrupted_affine_triple_fails():
    Xp, Yp, Zp = affine_generators(REFERENCE)
    checks = verify_affine_relations(REFERENCE, generators=(Xp + Yp, Yp, Zp))
    assert any(check.status == "FAIL" for check in checks)


def test_perturbed_casimir_fails_centrality():
    element = casimir_element(REFERENCE)
    Xp, _, _ = affine_generators(REFERENCE)
    checks = casimir_centrality(REFERENCE, casimir=element + Xp)
    assert any(check.status == "FAIL" for check in checks)
    # the true Casimir still passes when injected explicitly
    for check in casimir_centrality(REFERENCE, casimir=element):
        assert check.status == "PASS"


def test_gamma4_is_central():
    constants, _ = qhahn_embedding(REFERENCE, Fraction(2, 3))
    for generator in affine_generators(REFERENCE):
        assert constants.gamma4 @ generator == generator @ constants.gamma4
