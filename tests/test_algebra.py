"""Commutation relations, Casimir centrality, and the pencil subalgebra."""

from fractions import Fraction

import pytest

from pastroq.algebra import (
    casimir_centrality,
    make_algebra_rep,
    qhahn_embedding,
    verify_affine_relations,
    verify_raw_relations,
)
from pastroq.qcore import QParams
from pastroq.qdiff import QDiffOperator

REFERENCE = QParams(Fraction(1, 2), 3, Fraction(1, 5))
SECOND = QParams(Fraction(-4, 5), 6, -2)
LARGE_BASE = QParams(3, Fraction(1, 2), Fraction(5, 7))

POINTS = [REFERENCE, SECOND, LARGE_BASE]


def test_structure_constants_frozen():
    rep = make_algebra_rep(REFERENCE)
    assert rep.alpha1 == Fraction(1, 60)
    assert rep.alpha2 == Fraction(-11, 45)


@pytest.mark.parametrize("params", POINTS)
def test_raw_relations_pass(params):
    for check in verify_raw_relations(make_algebra_rep(params)):
        assert check.status == "PASS", (check.name, check.witness)


@pytest.mark.parametrize("params", POINTS)
def test_affine_relations_pass(params):
    for check in verify_affine_relations(make_algebra_rep(params)):
        assert check.status == "PASS", (check.name, check.witness)


def test_affine_presentation_constants_recorded():
    checks = verify_affine_relations(make_algebra_rep(REFERENCE))
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
    for check in casimir_centrality(make_algebra_rep(params)):
        assert check.status == "PASS", (check.name, check.witness)


def test_casimir_acts_as_frozen_scalar():
    # in the Laurent-polynomial realization the Casimir is a pure scalar;
    # -74/5 was computed by hand from its action on the constant function
    element = make_algebra_rep(REFERENCE).casimir
    assert element == Fraction(-74, 5) * QDiffOperator.identity(REFERENCE.q)


@pytest.mark.parametrize("params", POINTS)
@pytest.mark.parametrize("mu", [Fraction(2, 3), Fraction(-3, 2), Fraction(0)])
def test_qhahn_embedding_passes(params, mu):
    constants, checks = qhahn_embedding(make_algebra_rep(params), mu)
    for check in checks:
        assert check.status == "PASS", (check.name, check.witness)
    assert constants.degenerate is (mu == 0)


def test_qhahn_constants_frozen():
    constants, _ = qhahn_embedding(make_algebra_rep(REFERENCE), Fraction(2, 3))
    assert constants.gamma1 == Fraction(113, 135)
    assert constants.gamma2 == Fraction(1, 90)
    assert constants.gamma3 == Fraction(-3, 2)
    assert constants.gamma1 == constants.mu * constants.alpha2 + 1
    assert constants.gamma2 == constants.mu * constants.alpha1


def test_qhahn_degenerate_flag_in_context():
    rep = make_algebra_rep(REFERENCE)
    _, degenerate_checks = qhahn_embedding(rep, 0)
    for check in degenerate_checks:
        assert check.params.get("degenerate") == "true"
    _, generic_checks = qhahn_embedding(rep, Fraction(2, 3))
    for check in generic_checks:
        assert "degenerate" not in check.params


def test_corrupted_raw_triple_fails():
    rep = make_algebra_rep(REFERENCE)
    bad_terms = {shift: -coeff if shift == -1 else coeff for shift, coeff in rep.X.items()}
    bad_x = QDiffOperator(rep.X.q, bad_terms)
    checks = verify_raw_relations(rep._replace(X=bad_x))
    failed = [check for check in checks if check.status == "FAIL"]
    assert failed
    for check in failed:
        assert check.witness and "shift" in check.witness


def test_corrupted_affine_triple_fails():
    rep = make_algebra_rep(REFERENCE)
    checks = verify_affine_relations(rep._replace(Xp=rep.Xp + rep.Yp))
    assert any(check.status == "FAIL" for check in checks)


def test_perturbed_casimir_fails_centrality():
    rep = make_algebra_rep(REFERENCE)
    checks = casimir_centrality(rep._replace(casimir=rep.casimir + rep.Xp))
    assert any(check.status == "FAIL" for check in checks)
    # the record's own Casimir still passes
    for check in casimir_centrality(rep):
        assert check.status == "PASS"


def test_gamma4_is_central():
    rep = make_algebra_rep(REFERENCE)
    constants, _ = qhahn_embedding(rep, Fraction(2, 3))
    for generator in (rep.Xp, rep.Yp, rep.Zp):
        assert constants.gamma4 @ generator == generator @ constants.gamma4


def _algebra_suite(rep):
    """Every algebra check of a rep, the pencil at mu = 2/3."""
    checks = verify_raw_relations(rep) + verify_affine_relations(rep) + casimir_centrality(rep)
    return checks + qhahn_embedding(rep, Fraction(2, 3))[1]


def _identity(rep):
    return QDiffOperator.identity(rep.params.q)


#: One field of an AlgebraRep moved, and the exact set of checks it FAILs.
ALGEBRA_FAULTS = {
    "Y + I": (
        lambda rep: rep._replace(Y=rep.Y + _identity(rep)),
        {"raw-relation-XY", "raw-relation-YZ"},
    ),
    "Z + I": (
        lambda rep: rep._replace(Z=rep.Z + _identity(rep)),
        {"raw-relation-YZ", "raw-relation-ZX"},
    ),
    "X' + I": (
        lambda rep: rep._replace(Xp=rep.Xp + _identity(rep)),
        {
            "affine-relation-XY",
            "affine-relation-YZ",
            "affine-relation-ZX",
            "askey-wilson-cyclic-presentation",
            "qhahn-LZ",
            "qhahn-ML",
            "qhahn-ZM",
        },
    ),
    "casimir + X'": (
        lambda rep: rep._replace(casimir=rep.casimir + rep.Xp),
        {"casimir-central-Y", "casimir-central-Z", "qhahn-ML"},
    ),
    "casimir + Y'": (
        lambda rep: rep._replace(casimir=rep.casimir + rep.Yp),
        {"casimir-central-X", "casimir-central-Z", "qhahn-ML"},
    ),
    "casimir + I": (
        lambda rep: rep._replace(casimir=rep.casimir + _identity(rep)),
        {"qhahn-ML"},
    ),
    "alpha1 + 1": (
        lambda rep: rep._replace(alpha1=rep.alpha1 + 1),
        {
            "affine-relation-YZ",
            "askey-wilson-cyclic-presentation",
            "qhahn-LZ",
            "qhahn-ML",
            "qhahn-ZM",
        },
    ),
}


@pytest.mark.parametrize("fault", list(ALGEBRA_FAULTS))
@pytest.mark.parametrize("params", POINTS)
def test_algebra_fault_fails_exactly_its_checks(fault, params):
    corrupt, names = ALGEBRA_FAULTS[fault]
    failed = [c for c in _algebra_suite(corrupt(make_algebra_rep(params))) if c.status != "PASS"]
    assert {check.name for check in failed} == names
    assert all(check.witness for check in failed)


def test_every_algebra_check_fails_under_a_pinned_fault():
    names = {check.name for check in _algebra_suite(make_algebra_rep(REFERENCE))}
    assert len(names) == 13
    assert set().union(*(failed for _, failed in ALGEBRA_FAULTS.values())) == names
