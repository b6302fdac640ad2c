"""Differential tests: the integer builders against the Fraction routes.

``family_reference`` holds the recurrence-in-Fractions P_n, the series
P_n (``pastro_poly_series``), the ``q_pochhammer``/``phi21_terminating``
R_n, and the degree-by-degree closed forms of the scalar table.
``pastro_poly``, ``biorthogonal_partner`` and ``baxter_coefficients`` must
give the same polynomials and scalars, or raise a
``ResonantParameterError`` with the same text, at admissible points and at
points placed on the factors that vanish. Against the series P_n, which
checks (b;q)_n before the series factors, only the error's class must
agree.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import family_reference
from pastroq.pastro import baxter_coefficients, biorthogonal_partner, pastro_poly
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
