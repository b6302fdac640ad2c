"""Differential tests: the stepped families against the reference routes.

``family_reference`` holds the closed products of P_n and R_n on ints,
the recurrence-in-Fractions P_n, the series P_n (``pastro_poly_series``),
the ``q_pochhammer``/``phi21_terminating`` R_n, and the degree-by-degree
closed forms of the scalar table. ``pastro_family``, ``partner_family``,
``pastro_poly``, ``biorthogonal_partner`` and ``baxter_coefficients`` must
give the same polynomials and scalars, or raise a
``ResonantParameterError`` with the same text, at admissible points and at
points placed on the factors that vanish; a family raises at its first
member whose closed form raises. Against the series P_n, which checks
(b;q)_n before the series factors, only the error's class must agree.
"""

from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import family_reference
from pastroq.pastro import (
    baxter_coefficients,
    biorthogonal_partner,
    partner_family,
    pastro_family,
    pastro_poly,
)
from pastroq.qcore import ParameterError, QParams, ResonantParameterError

#: Small rationals, where factors vanish often, and heights up to 1000 (such
#: as q = 997/991), where the units share few factors; both signs of each.
_rationals = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000)),
)

#: How b (or a) is placed relative to q, each with an offset j:
#: "b*q^j=1" b = q^-j; "(b/a)*q^j=1" b = a q^-j; "(a/b)*q^j=1" a = b q^-j
#: (a vanishing factor of R_n's series numerator); "(b/q;q)" b = q^(1-j)
#: (a zero of the prefactor's (b/q;q)_n).
_PLACEMENTS = ("free", "b*q^j=1", "(b/a)*q^j=1", "(a/b)*q^j=1", "(b/q;q)")


def _place(placement: str, q: Fraction, a: Fraction, b: Fraction, j: int):
    if placement == "b*q^j=1":
        b = q**-j
    elif placement == "(b/a)*q^j=1":
        b = a * q**-j
    elif placement == "(a/b)*q^j=1":
        a = b * q**-j
    elif placement == "(b/q;q)":
        b = q ** (1 - j)
    return q, a, b


def _outcome(build, n: int, params: QParams):
    """The built polynomial, or the error's text."""
    try:
        return "poly", build(n, params)
    except ResonantParameterError as exc:
        return "error", str(exc)


def assert_normal_form(poly) -> None:
    low, nums, den = poly._low, poly._nums, poly._den
    assert den > 0
    if not nums:
        assert (low, den) == (0, 1)
    else:
        assert nums[0] and nums[-1]
        assert gcd(den, *nums) == 1


@given(
    _rationals,
    _rationals,
    _rationals,
    st.integers(0, 20),
    st.sampled_from(_PLACEMENTS),
    st.integers(-2, 21),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_builders_match_fraction_routes(q, a, b, n, placement, j):
    assume(q not in (0, 1, -1))
    try:
        params = QParams(*_place(placement, q, a, b, j))
    except ParameterError:
        assume(False)
    for build, reference in (
        (pastro_poly, family_reference.pastro_poly),
        (biorthogonal_partner, family_reference.biorthogonal_partner),
    ):
        outcome = _outcome(build, n, params)
        assert outcome == _outcome(reference, n, params)
        if outcome[0] == "poly":
            assert_normal_form(outcome[1])
    kind, built = _outcome(pastro_poly, n, params)
    series = _outcome(family_reference.pastro_poly_series, n, params)
    assert series[0] == kind
    if kind == "poly":
        assert series[1] == built


#: The closed form of each column of the scalar table, by field name.
_COLUMNS = {
    "alpha": family_reference.alpha_coefficient,
    "beta": family_reference.beta_coefficient,
    "h": family_reference.norm_constant,
    "lam": family_reference.eigenvalue,
    "mu1": family_reference.mu1_coefficient,
    "mu2": family_reference.mu2_coefficient,
    "raise_factor": family_reference.raise_factor,
}


@given(
    _rationals,
    _rationals,
    _rationals,
    st.integers(0, 20),
    st.sampled_from(_PLACEMENTS),
    st.integers(-2, 21),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_baxter_coefficients_match_closed_forms_at_drawn_points(q, a, b, n_max, placement, j):
    assume(q not in (0, 1, -1))
    try:
        params = QParams(*_place(placement, q, a, b, j))
    except ParameterError:
        assume(False)
    expected = family_reference.first_closed_form_error(n_max, params)
    if expected is not None:
        with pytest.raises(ResonantParameterError) as raised:
            baxter_coefficients(n_max, params)
        assert str(raised.value) == expected
        return
    data = baxter_coefficients(n_max, params)
    for column, closed_form in _COLUMNS.items():
        assert getattr(data, column) == [closed_form(n, params) for n in range(n_max + 1)], column


@pytest.mark.parametrize(
    "q, a, b, n",
    [
        (Fraction(1, 2), Fraction(3), Fraction(1, 5), 0),
        (Fraction(-4, 5), Fraction(6), Fraction(-2), 0),
        (Fraction(1, 2), Fraction(3), Fraction(1, 5), 12),
        (Fraction(-7, 5), Fraction(5, 3), Fraction(2, 9), 24),
        (Fraction(-7, 5), Fraction(5, 3), Fraction(2, 9), 40),
        (Fraction(-7, 5), Fraction(-3), Fraction(-2, 9), 64),
        (Fraction(997, 991), Fraction(3), Fraction(1, 5), 40),
        (Fraction(997, 991), Fraction(-5, 3), Fraction(2, 9), 64),
    ],
)
def test_builders_match_at_fixed_points(q, a, b, n):
    params = QParams(q, a, b)
    for build, reference in (
        (pastro_poly, family_reference.pastro_poly),
        (biorthogonal_partner, family_reference.biorthogonal_partner),
    ):
        poly = build(n, params)
        assert poly == reference(n, params)
        assert_normal_form(poly)


@pytest.mark.parametrize(
    "a, b, message",
    [
        # (a/b) q^2 = 1 would zero R_4's series terms from k = 2 on, but the
        # same factor is (1 - (b/a) q^-2) of ((b/a)q^-4;q)_4, checked first.
        (Fraction(4, 5), Fraction(1, 5), "((b/a)*q^-4;q)_4 vanishes: partner of degree 4 degenerates"),
        # b = q^-1 would zero the prefactor's (b/q;q)_4, but then
        # lower*q^1 = q^(1+2-4)/b = 1 too, and the series factor is checked.
        (Fraction(3), Fraction(2), "series denominator factor (1 - lower*q^1) vanishes (lower = 2, q = 1/2)"),
    ],
)
def test_vanishing_partner_factors_raise_first(a, b, message):
    params = QParams(Fraction(1, 2), a, b)
    for build in (biorthogonal_partner, family_reference.biorthogonal_partner):
        with pytest.raises(ResonantParameterError) as raised:
            build(4, params)
        assert str(raised.value) == message


def _members(family, n_max: int):
    """Members 0..n_max of a family as ("poly", member) outcomes, ending
    early with ("error", text) at the first member that raises."""
    outcomes = []
    try:
        for member in islice(family, n_max + 1):
            outcomes.append(("poly", member))
    except ResonantParameterError as exc:
        outcomes.append(("error", str(exc)))
    return outcomes


def _closed_members(closed, n_max: int, params: QParams):
    """The outcomes of ``closed`` at n = 0..n_max, up to its first error."""
    outcomes = []
    for n in range(n_max + 1):
        outcomes.append(_outcome(closed, n, params))
        if outcomes[-1][0] == "error":
            break
    return outcomes


def _parts(outcomes):
    """Outcomes with each polynomial as its exact int parts (low, nums, den)."""
    return [
        (kind, (value._low, value._nums, value._den) if kind == "poly" else value)
        for kind, value in outcomes
    ]


#: Each family with its single-degree builder, its closed product on ints
#: and its Fraction route.
_FAMILIES = (
    (pastro_family, pastro_poly, family_reference.pastro_poly_closed, family_reference.pastro_poly),
    (
        partner_family,
        biorthogonal_partner,
        family_reference.biorthogonal_partner_closed,
        family_reference.biorthogonal_partner,
    ),
)


@given(
    _rationals,
    _rationals,
    _rationals,
    st.integers(0, 40),
    st.sampled_from(_PLACEMENTS),
    st.integers(-2, 41),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_families_match_the_closed_products_at_drawn_points(q, a, b, n_max, placement, j):
    # Every member, or the text of the first one that raises, is the closed
    # product's, byte for byte; the last member reached is the Fraction
    # route's too, and so is the single-degree builder at n_max.
    assume(q not in (0, 1, -1))
    try:
        params = QParams(*_place(placement, q, a, b, j))
    except ParameterError:
        assume(False)
    for family, single, closed, fraction_route in _FAMILIES:
        stepped = _members(family(params), n_max)
        assert _parts(stepped) == _parts(_closed_members(closed, n_max, params))
        for kind, member in stepped:
            if kind == "poly":
                assert_normal_form(member)
        last = len(stepped) - 1
        assert stepped[-1] == _outcome(fraction_route, last, params)
        assert _parts([_outcome(single, n_max, params)]) == _parts([_outcome(closed, n_max, params)])


@pytest.mark.parametrize(
    "q, a, b", [(Fraction(997, 991), Fraction(3), Fraction(1, 5)), (Fraction(997, 991), Fraction(-5, 3), Fraction(2, 9))]
)
def test_families_match_the_closed_products_to_degree_64(q, a, b):
    # q = 997/991: heights near 1000, where the units share few factors
    params = QParams(q, a, b)
    for family, single, closed, _ in _FAMILIES:
        stepped = _members(family(params), 64)
        assert _parts(stepped) == _parts(_closed_members(closed, 64, params))
        assert single(64, params) == stepped[64][1]


def test_resonant_members_raise_the_closed_product_texts():
    # b q^3 = 1: P_4 is the first member with the unit 1 - b q^3. At degree
    # 6 the closed form checks it third, after the pairs (1 - (b/a) q^0,
    # 1 - b q^5) and (1 - (b/a) q^-1, 1 - b q^4), so the family and the
    # single-degree builder both name it.
    params = QParams(Fraction(1, 2), Fraction(3), Fraction(8))
    outcomes = _members(pastro_family(params), 6)
    assert outcomes[-1] == ("error", "factor (1 - b*q^3) vanishes")
    assert len(outcomes) == 5
    for n in (4, 6):
        with pytest.raises(ResonantParameterError) as raised:
            pastro_poly(n, params)
        assert str(raised.value) == "factor (1 - b*q^3) vanishes"


@pytest.mark.parametrize(
    "q, a, b, n, single_text, family_text",
    [
        # 1 - (b/a) q^0 and 1 - b q^0 both vanish: at degree 1 the shift
        # factor is checked first
        (
            Fraction(1, 2), Fraction(1), Fraction(1), 1,
            "factor (1 - (b/a)*q^0) vanishes: monic family of degree 1 degenerates",
            "factor (1 - (b/a)*q^0) vanishes: monic family of degree 1 degenerates",
        ),
        # 1 - (b/a) q^-1 and 1 - b q^1 both vanish: degree 3 checks them as
        # one pair, shift factor first; P_2 already meets 1 - b q^1 first
        (
            Fraction(1, 2), Fraction(4), Fraction(2), 3,
            "factor (1 - (b/a)*q^-1) vanishes: monic family of degree 3 degenerates",
            "factor (1 - b*q^1) vanishes",
        ),
        # the two new units of P_3, 1 - b q^2 and 1 - (b/a) q^-2, both vanish:
        # from degree 2 on the b factor comes first
        (
            Fraction(1, 2), Fraction(16), Fraction(4), 3,
            "factor (1 - b*q^2) vanishes",
            "factor (1 - b*q^2) vanishes",
        ),
    ],
)
def test_vanishing_pastro_factors_raise_in_closed_form_order(q, a, b, n, single_text, family_text):
    params = QParams(q, a, b)
    for build in (pastro_poly, family_reference.pastro_poly_closed):
        with pytest.raises(ResonantParameterError) as raised:
            build(n, params)
        assert str(raised.value) == single_text
    assert _members(pastro_family(params), n)[-1] == ("error", family_text)


def test_partner_checks_its_prefactor_before_its_series():
    # (a/b) q = 1 zeroes A_1 and b = q zeroes W_0: R_1 names ((b/a)q^-1;q)_1
    params = QParams(Fraction(1, 2), Fraction(1), Fraction(1, 2))
    text = "((b/a)*q^-1;q)_1 vanishes: partner of degree 1 degenerates"
    for build in (biorthogonal_partner, family_reference.biorthogonal_partner_closed):
        with pytest.raises(ResonantParameterError) as raised:
            build(1, params)
        assert str(raised.value) == text
    assert _members(partner_family(params), 1)[-1] == ("error", text)
