"""Exact scalar parsing, Laurent polynomial arithmetic, and q-series.

The terminating 2phi1 series is the test suite's own reference route
(``family_reference.phi21_terminating``); its tests live here with the
q-Pochhammer symbol it is built from.
"""

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family_reference import phi21_terminating
from pastroq.algebra import make_algebra_rep, qhahn_embedding
from pastroq.biorth import tau_parameter
from pastroq.pastro import grid_weights
from pastroq.qcore import (
    GridVector,
    LaurentPoly,
    ParameterError,
    QParams,
    ResonantParameterError,
    format_rational,
    parse_rational,
    q_pochhammer,
    x,
)
from pastroq.qdiff import QDiffOperator, linear_combination, q_commutator


def test_parse_rational_reduces():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("+2/4") == Fraction(1, 2)
    assert parse_rational(" 5/3 ") == Fraction(5, 3)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "1/-2", "--3", "1/2/3", "nan"])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ParameterError):
        parse_rational(bad)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ParameterError, match="zero denominator"):
        parse_rational("1/0")


def test_format_rational():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(0) == "0"


@given(st.fractions(max_denominator=50, min_value=-100, max_value=100))
@settings(max_examples=60, derandomize=True)
def test_parse_format_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@contextmanager
def digit_limit(limit: int):
    """Run with the interpreter's int_max_str_digits set to ``limit``."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


#: Values on both sides of the 4300-digit default limit and of the 640-digit
#: smallest one: an odd split, a lower half that starts with zeros, signs.
_LARGE_VALUES = [
    Fraction(10**4300 - 1),
    Fraction(10**4300),
    Fraction(-(10**9000) - 7),
    Fraction(-(7**20000), 3**9001),
    Fraction(2**45000 + 1, 10**700 + 3),
    Fraction(10**640, 11),
]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no digit limit"
)
@pytest.mark.parametrize("limit", [4300, 640])
@pytest.mark.parametrize("value", _LARGE_VALUES)
def test_format_rational_has_no_digit_limit(value, limit):
    with digit_limit(0):
        expected = f"{value.numerator}/{value.denominator}".removesuffix("/1")
    with digit_limit(limit):
        text = format_rational(value)
        assert parse_rational(text) == value
        assert parse_rational(f" +{text} " if value > 0 else text) == value
        assert sys.get_int_max_str_digits() == limit
    assert text == expected


def test_laurent_normal_form_drops_zeros():
    p = LaurentPoly({2: 0, 1: Fraction(1, 3), 0: 1})
    assert p.support == (0, 1)
    assert (p - p) == LaurentPoly.zero()
    assert not (p - p)


def test_laurent_constructor_accumulates_duplicates():
    p = LaurentPoly([(1, 2), (1, -2), (0, 1)])
    assert p == LaurentPoly.one()


def test_laurent_add_mul():
    p = (x() - 1) * (x() + 1)
    assert p == LaurentPoly({2: 1, 0: -1})
    assert 3 * x(2) == LaurentPoly({2: 3})
    assert (x() + 2) - (x() + 2) == 0


def test_laurent_eval():
    assert x(-1).eval_at(Fraction(1, 4)) == 4
    p = LaurentPoly({2: 1, 0: 1})
    assert p.eval_at(Fraction(1, 2)) == Fraction(5, 4)
    assert LaurentPoly({3: 2}).eval_at(0) == 0
    with pytest.raises(ZeroDivisionError):
        x(-2).eval_at(0)


def test_laurent_dilate():
    p = LaurentPoly({2: 1, 0: 1})
    assert p.dilate(Fraction(1, 2)) == LaurentPoly({2: Fraction(1, 4), 0: 1})
    assert x(-1).dilate(Fraction(1, 2)) == LaurentPoly({-1: 2})
    with pytest.raises(ValueError):
        p.dilate(0)


def test_laurent_derivative():
    p = LaurentPoly({-2: 1, 0: 5, 3: Fraction(1, 2)})
    assert p.derivative() == LaurentPoly({-3: -2, 2: Fraction(3, 2)})
    assert LaurentPoly.constant(7).derivative() == 0


def test_laurent_invert_variable():
    p = LaurentPoly({2: 3, -1: Fraction(1, 5)})
    assert p.invert_variable() == LaurentPoly({-2: 3, 1: Fraction(1, 5)})
    assert p.invert_variable().invert_variable() == p


def test_laurent_div():
    assert (2 * x()) / 2 == x()
    with pytest.raises(ZeroDivisionError):
        _ = x() / 0


def test_laurent_degree_valuation():
    p = LaurentPoly({-3: 1, 4: 2})
    assert p.degree == 4
    assert p.valuation == -3
    assert p.leading_coefficient == 2
    assert LaurentPoly.zero().degree is None
    assert LaurentPoly.zero().valuation is None
    assert LaurentPoly({0: 1, 2: 5}).valuation == 0


_small_fractions = st.fractions(max_denominator=4, min_value=-3, max_value=3)
_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4), _small_fractions, max_size=5
).map(LaurentPoly)


@given(_polys, _small_fractions.filter(lambda c: c != 0))
@settings(max_examples=60, derandomize=True)
def test_dilate_round_trip(p, c):
    assert p.dilate(c).dilate(1 / c) == p


@given(_polys, _polys, _small_fractions.filter(lambda v: v != 0))
@settings(max_examples=60, derandomize=True)
def test_eval_is_ring_homomorphism(p, r, point):
    assert (p * r).eval_at(point) == p.eval_at(point) * r.eval_at(point)
    assert (p + r).eval_at(point) == p.eval_at(point) + r.eval_at(point)


def _eval_by_powers(poly: LaurentPoly, point: Fraction) -> Fraction:
    """The sum of c * point^e over the terms: the reference for Horner's rule."""
    return sum((c * point**e for e, c in poly.items()), Fraction(0))


_wide_polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.fractions(max_denominator=50, min_value=-100, max_value=100),
    max_size=12,
).map(LaurentPoly)


@given(_wide_polys, st.fractions(max_denominator=9, min_value=-5, max_value=5))
@settings(max_examples=200, derandomize=True)
def test_eval_at_matches_sum_of_powers(p, point):
    if point == 0 and p.valuation is not None and p.valuation < 0:
        with pytest.raises(ZeroDivisionError):
            p.eval_at(point)
        return
    value = p.eval_at(point)
    assert type(value) is Fraction
    assert value == _eval_by_powers(p, point)


@given(
    _wide_polys,
    st.fractions(max_denominator=9, min_value=-5, max_value=5).filter(bool),
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=8),
)
@settings(max_examples=200, derandomize=True)
def test_sample_at_powers_is_eval_at_over_the_lcm(p, q, exponents):
    values = [p.eval_at(q**k) for k in exponents]
    den = lcm(*(value.denominator for value in values))
    expected = [value.numerator * (den // value.denominator) for value in values]
    samples = p.sample_at_powers(q, exponents)
    assert type(samples) is GridVector
    assert samples == GridVector(expected, den) == (expected, den)


def test_sample_at_powers_rejects_points_off_the_powers():
    with pytest.raises(ValueError):
        x().sample_at_powers(0, [1, 2])
    with pytest.raises(ValueError):
        x().sample_at_powers(Fraction(1, 2), [0, 1])


def test_q_pochhammer_values():
    assert q_pochhammer(Fraction(1, 3), Fraction(1, 2), 0) == 1
    # independent product evaluation
    z, q = Fraction(1, 5), Fraction(1, 2)
    expected = (1 - z) * (1 - z * q)
    assert q_pochhammer(z, q, 2) == expected == Fraction(18, 25)
    assert q_pochhammer(1, Fraction(1, 2), 1) == 0
    with pytest.raises(ValueError):
        q_pochhammer(z, q, -1)


def test_q_pochhammer_splitting_identity():
    # (z;q)_(m+n) = (z;q)_m (z q^m;q)_n
    q = Fraction(-2, 3)
    z = Fraction(5, 7)
    for m in range(6):
        for n in range(6):
            assert q_pochhammer(z, q, m + n) == q_pochhammer(z, q, m) * q_pochhammer(
                z * q**m, q, n
            )


@pytest.mark.parametrize("q,z", [(Fraction(1, 2), Fraction(2, 7)), (Fraction(-3, 5), Fraction(1, 3))])
def test_terminating_q_binomial_theorem(q, z):
    # sum_k (q^-n;q)_k / (q;q)_k z^k = (q^-n z;q)_n
    for n in range(11):
        total = Fraction(0)
        term = Fraction(1)
        for k in range(n + 1):
            total += term * z**k
            term *= (1 - q ** (k - n)) / (1 - q ** (k + 1))
        assert total == q_pochhammer(q**-n * z, q, n)


def test_phi21_order_zero_is_one():
    assert phi21_terminating(0, Fraction(1, 3), Fraction(1, 7), Fraction(1, 2), x()) == 1


def test_phi21_order_one_expansion():
    q, upper, lower = Fraction(1, 2), Fraction(1, 5), Fraction(1, 15)
    coefficient = (1 - 1 / q) * (1 - upper) / ((1 - lower) * (1 - q))
    assert phi21_terminating(1, upper, lower, q, x()) == LaurentPoly(
        {0: 1, 1: coefficient}
    )


def test_phi21_scalar_argument():
    q, upper, lower = Fraction(1, 2), Fraction(1, 5), Fraction(1, 15)
    value = phi21_terminating(2, upper, lower, q, Fraction(3, 4))
    assert value.support in ((), (0,))
    poly = phi21_terminating(2, upper, lower, q, x())
    assert value.coefficient(0) == poly.eval_at(Fraction(3, 4))


def test_phi21_resonant_lower_parameter():
    with pytest.raises(ResonantParameterError):
        phi21_terminating(1, Fraction(1, 5), Fraction(1), Fraction(1, 2), x())
    with pytest.raises(ResonantParameterError):
        phi21_terminating(2, Fraction(1, 5), Fraction(2), Fraction(1, 2), x())


def test_phi21_rejects_root_of_unity_base():
    with pytest.raises(ResonantParameterError):
        phi21_terminating(2, Fraction(1, 5), Fraction(1, 7), Fraction(1), x())


@pytest.mark.parametrize("q", [0, 1, -1])
def test_qparams_rejects_degenerate_q(q):
    with pytest.raises(ParameterError):
        QParams(Fraction(q), Fraction(3), Fraction(1, 5))


def test_qparams_rejects_zero_a_b():
    with pytest.raises(ParameterError):
        QParams(Fraction(1, 2), 0, Fraction(1, 5))
    with pytest.raises(ParameterError):
        QParams(Fraction(1, 2), Fraction(3), 0)


@pytest.mark.parametrize("q, a, b", [(0, 3, 5), (1, 3, 5), (-1, 3, 5), (2, 0, 5), (2, 3, 0)])
def test_qparams_refuses_int_arguments_too(q, a, b):
    with pytest.raises(ParameterError):
        QParams(q, a, b)


def test_qparams_coerces_to_fractions_and_is_immutable():
    params = QParams(2, -3, Fraction(1, 5))
    assert [type(value) for value in params] == [Fraction] * 3
    assert params == (Fraction(2), Fraction(-3), Fraction(1, 5))
    assert QParams(q=2, a=-3, b=Fraction(1, 5)) == params
    for field in ("q", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(params, field, Fraction(1, 3))
    with pytest.raises(AttributeError):
        params.c = Fraction(1, 3)  # no instance dict either


_SAMPLE = LaurentPoly({-1: Fraction(2, 3), 2: 1})

#: Each public entry point that turns a scalar argument into a Fraction.
_SCALAR_ENTRIES = {
    "QParams": lambda s: QParams(Fraction(1, 2), 3, s),
    "LaurentPoly": lambda s: LaurentPoly({0: s}),
    "monomial": lambda s: LaurentPoly.monomial(s, 1),
    "truediv": lambda s: _SAMPLE / s,
    "dilate": lambda s: _SAMPLE.dilate(s),
    "sample_at_powers": lambda s: _SAMPLE.sample_at_powers(s, (1, 2)),
    "eval_at": lambda s: _SAMPLE.eval_at(s),
    "q_pochhammer": lambda s: q_pochhammer(s, Fraction(1, 2), 3),
    "grid_weights": lambda s: grid_weights(3, Fraction(1, 5), s),
    "tau_parameter": lambda s: tau_parameter(s, Fraction(1, 2), 3),
    "QDiffOperator": lambda s: QDiffOperator(s, {1: 1}),
    "linear_combination": lambda s: linear_combination(1, ((s, QDiffOperator(1, {1: 1})),)),
    "q_commutator": lambda s: q_commutator(s, QDiffOperator(1, {1: 1}), QDiffOperator(1)),
    "qhahn_embedding": lambda s: qhahn_embedding(
        make_algebra_rep(QParams(Fraction(1, 2), 3, Fraction(1, 5))), s
    ),
}


@pytest.mark.parametrize("value", [0.5, "1/2"], ids=["float", "str"])
@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRIES))
def test_library_scalars_must_be_exact(entry, value):
    # A float or a str would enter as an inexact or parsed rational
    # (0.2 as 3602879701896397/18014398509481984); only int and Fraction pass.
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        _SCALAR_ENTRIES[entry](value)
    _SCALAR_ENTRIES[entry](Fraction(1, 2))


def test_qparams_vanishing_factors():
    clean = QParams(Fraction(1, 2), Fraction(3), Fraction(1, 5))
    assert clean.vanishing_factors(10) == []

    b_resonant = QParams(Fraction(1, 2), Fraction(3), Fraction(4))  # b q^2 = 1
    factors = b_resonant.vanishing_factors(4)
    assert any("b*q^2" in text for text in factors)

    ratio_resonant = QParams(Fraction(1, 2), Fraction(2, 5), Fraction(1, 5))  # b/a = 1/2 = q
    assert any("(b/a)" in text for text in ratio_resonant.vanishing_factors(3))


def test_qparams_replace_b():
    params = QParams(Fraction(1, 2), Fraction(3), Fraction(1, 5))
    shifted = params._replace(b=params.b * params.q)
    assert type(shifted) is QParams
    assert shifted.b == Fraction(1, 10)
    assert (shifted.q, shifted.a) == (params.q, params.a)


_VALID_TRIPLE = {"q": Fraction(1, 2), "a": Fraction(3), "b": Fraction(1, 5)}

#: Every route to a QParams, each given a valid triple with one field
#: replaced: the constructor, the NamedTuple ``_make``, and ``_replace`` of
#: that field on a valid point.
_CONSTRUCTION_ROUTES = {
    "QParams": lambda field, value: QParams(**(_VALID_TRIPLE | {field: value})),
    "_make": lambda field, value: QParams._make((_VALID_TRIPLE | {field: value}).values()),
    "_replace": lambda field, value: QParams(**_VALID_TRIPLE)._replace(**{field: value}),
}


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("q", 0.5, TypeError),
        ("a", 0.5, TypeError),
        ("b", "1/3", TypeError),
        ("q", 0, ParameterError),
        ("q", 1, ParameterError),
        ("q", -1, ParameterError),
        ("a", 0, ParameterError),
        ("b", 0, ParameterError),
    ],
)
@pytest.mark.parametrize("route", sorted(_CONSTRUCTION_ROUTES))
def test_every_qparams_route_refuses_what_the_constructor_refuses(route, field, value, error):
    build = _CONSTRUCTION_ROUTES[route]
    with pytest.raises(error):
        build(field, value)
    built = build(field, Fraction(2))
    assert type(built) is QParams
    assert getattr(built, field) == Fraction(2)


_FACTOR_NAME = re.compile(r"\(1 - (b|\(b/a\))\*q\^(-?\d+)\) vanishes\Z")
#: Small rationals, where factors vanish often, and heights up to 1000, where
#: p^j and r^j grow large; both signs of each.
_parameter_values = st.one_of(
    st.fractions(max_denominator=5, min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000)),
)


@st.composite
def _maybe_resonant_params(draw):
    """(q, a, b), with b often placed on b*q^j = 1 or (b/a)*q^j = 1."""
    q = draw(_parameter_values.filter(lambda v: v not in (0, 1, -1)))
    a = draw(_parameter_values.filter(bool))
    j = draw(st.integers(min_value=-16, max_value=16))
    b = draw(st.sampled_from([None, q**-j, a * q**-j]))
    if b is None:
        b = draw(_parameter_values.filter(bool))
    return QParams(q, a, b)


@given(_maybe_resonant_params(), st.integers(min_value=0, max_value=14))
@settings(max_examples=200, derandomize=True)
def test_vanishing_factors_are_exact(params, n_max):
    q, a, b = params.q, params.a, params.b
    named = set()
    for text in params.vanishing_factors(n_max):
        match = _FACTOR_NAME.match(text)
        assert match, text
        named.add((match[1], int(match[2])))
    factors = {("b", j): 1 - b * q**j for j in range(-1 if n_max else 0, n_max + 1)}
    factors.update({("(b/a)", j): 1 - (b / a) * q**j for j in range(-(n_max + 1), 1)})
    assert named <= set(factors)
    for key, value in factors.items():
        assert (value == 0) == (key in named), key
    assert len(params.vanishing_factors(n_max)) == len(named)
