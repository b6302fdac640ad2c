"""Differential tests: the integer-numerator LaurentPoly against the old dict class.

``laurent_reference.LaurentPoly`` is the dict/Fraction implementation the
package used before. Every operation of the package's class must give the
same exact terms, strings and equalities as the reference, and every result
must be in the integer-numerator normal form.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurent_reference import LaurentPoly as Reference
from pastroq.qcore import LaurentPoly, format_rational, x
from pastroq.report import poly_mismatch_witness

_small = st.fractions(max_denominator=6, min_value=-4, max_value=4)
#: Coefficients with numerators and denominators of up to ~100 bits, so that
#: the terms of one polynomial have large and unequal denominators.
_large = st.builds(
    Fraction,
    st.integers(min_value=-(2**100), max_value=2**100),
    st.integers(min_value=1, max_value=2**100),
)
#: Exponent caps of 2, 3, 5 and 7 that keep a product of their powers
#: below ~2^65.
_PRIME_CAPS = {2: 16, 3: 10, 5: 7, 7: 6}


@st.composite
def _smooth_terms(draw):
    """Terms whose numerators and denominators are products of powers of 2, 3, 5, 7.

    Two of the primes, drawn per polynomial, divide every numerator; the
    other two make up the denominators. So in most pairs the content of one
    polynomial shares primes with the denominator of the other, and the two
    denominators share primes: both Gauss gcds of a product and the gcd
    bound of a sum are nontrivial, with valuations that differ or coincide.
    """
    tops = draw(st.sets(st.sampled_from(sorted(_PRIME_CAPS)), min_size=2, max_size=2))
    terms = {}
    for exponent in draw(st.sets(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6)):
        num = den = 1
        for prime, cap in _PRIME_CAPS.items():
            if prime in tops:
                num *= prime ** draw(st.integers(1, cap))
            else:
                den *= prime ** draw(st.integers(1, cap))
        terms[exponent] = Fraction(draw(st.sampled_from([1, -1])) * num, den)
    return terms


_smooth_ints = st.builds(
    lambda *powers: prod(prime**power for prime, power in zip(_PRIME_CAPS, powers)),
    *(st.integers(0, cap) for cap in _PRIME_CAPS.values()),
)
_smooth = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from([1, -1]),
    _smooth_ints,
    _smooth_ints,
)
_coefficients = st.one_of(_small, _large, st.integers(min_value=-5, max_value=5))
_terms = st.dictionaries(st.integers(min_value=-7, max_value=7), _coefficients, max_size=8)
_scalars = st.one_of(st.integers(min_value=-6, max_value=6), _small, _large)
_points = st.one_of(st.just(Fraction(0)), _small, _large)
_factors = st.one_of(_small, _large).filter(bool)

_settings = settings(max_examples=120, derandomize=True, deadline=None)


def _pair(terms):
    return LaurentPoly(terms), Reference(terms)


def assert_same(poly: LaurentPoly, reference: Reference) -> None:
    """Same terms as the reference, and the parts in normal form."""
    items = list(poly.items())
    assert items == list(reference.items())
    assert all(type(e) is int and type(c) is Fraction for e, c in items)
    low, nums, den = poly._low, poly._nums, poly._den
    assert den > 0
    if not nums:
        assert (low, den) == (0, 1)
    else:
        assert nums[0] and nums[-1]
        assert gcd(den, *nums) == 1


def _old_witness(lhs: Reference, rhs: Reference) -> str | None:
    """The witness loop of ``poly_mismatch_witness`` without its equality shortcut."""
    for exponent in sorted(set(lhs.support) | set(rhs.support)):
        left, right = lhs.coefficient(exponent), rhs.coefficient(exponent)
        if left != right:
            return (
                f"exponent {exponent}: lhs {format_rational(left)}, "
                f"rhs {format_rational(right)}"
            )
    return None


@given(st.lists(st.tuples(st.integers(min_value=-5, max_value=5), _coefficients), max_size=10))
@_settings
def test_constructor_accumulates_like_reference(pairs):
    assert_same(LaurentPoly(pairs), Reference(pairs))
    assert_same(LaurentPoly(dict(pairs)), Reference(dict(pairs)))


@given(_terms, _terms)
@_settings
def test_ring_operations_match_reference(left, right):
    p, p_ref = _pair(left)
    r, r_ref = _pair(right)
    assert_same(p + r, p_ref + r_ref)
    assert_same(p - r, p_ref - r_ref)
    assert_same(-p, -p_ref)
    assert_same(p * r, p_ref * r_ref)
    assert_same(p * p, p_ref * p_ref)


@given(_terms, _scalars)
@_settings
def test_scalar_operations_match_reference(terms, scalar):
    p, p_ref = _pair(terms)
    assert_same(p * scalar, p_ref * scalar)
    assert_same(scalar * p, scalar * p_ref)
    assert_same(p + scalar, p_ref + scalar)
    assert_same(scalar + p, scalar + p_ref)
    assert_same(p - scalar, p_ref - scalar)
    assert_same(scalar - p, scalar - p_ref)
    assert_same(LaurentPoly.constant(scalar), Reference.constant(scalar))
    assert_same(LaurentPoly.monomial(scalar, -3), Reference.monomial(scalar, -3))
    if scalar:
        assert_same(p / scalar, p_ref / scalar)
    else:
        with pytest.raises(ZeroDivisionError):
            p / scalar


@given(_smooth_terms(), _smooth_terms(), _smooth)
@_settings
def test_content_rules_match_reference(left, right, scalar):
    p, p_ref = _pair(left)
    r, r_ref = _pair(right)
    assert_same(p * r, p_ref * r_ref)
    assert_same(r * p, r_ref * p_ref)
    assert_same(p * scalar, p_ref * scalar)
    assert_same(scalar * p, scalar * p_ref)
    assert_same(p * scalar.numerator, p_ref * scalar.numerator)
    assert_same(p * LaurentPoly.monomial(scalar, 2), p_ref * Reference.monomial(scalar, 2))
    assert_same(p + r, p_ref + r_ref)
    assert_same(p - r, p_ref - r_ref)
    assert_same(p + scalar, p_ref + scalar)
    assert_same(p * scalar + r, p_ref * scalar + r_ref)
    assert_same(p * scalar - p, p_ref * scalar - p_ref)
    assert_same(p.dilate(scalar), p_ref.dilate(scalar))
    assert_same(p.dilate(1), p_ref.dilate(1))
    assert_same(p.dilate(Fraction(1)), p_ref.dilate(Fraction(1)))


@given(_terms, st.integers(min_value=0, max_value=3))
@_settings
def test_power_matches_reference(terms, power):
    p, p_ref = _pair(terms)
    assert_same(p**power, p_ref**power)


@given(_terms, _points)
@_settings
def test_eval_at_matches_reference(terms, point):
    p, p_ref = _pair(terms)
    if point == 0 and p_ref.valuation is not None and p_ref.valuation < 0:
        with pytest.raises(ZeroDivisionError):
            p.eval_at(point)
        return
    value = p.eval_at(point)
    assert type(value) is Fraction
    assert value == p_ref.eval_at(point)
    assert p.eval_at(-point) == p_ref.eval_at(-point)


@given(_terms, _factors)
@_settings
def test_substitutions_match_reference(terms, factor):
    p, p_ref = _pair(terms)
    assert_same(p.dilate(factor), p_ref.dilate(factor))
    assert_same(p.dilate(-factor), p_ref.dilate(-factor))
    assert_same(p.invert_variable(), p_ref.invert_variable())
    assert_same(p.derivative(), p_ref.derivative())
    with pytest.raises(ValueError):
        p.dilate(0)


@given(_terms, st.integers(min_value=-6, max_value=6))
@_settings
def test_times_x_is_the_product_by_a_monomial(terms, k):
    p, p_ref = _pair(terms)
    shifted = p.times_x(k)
    assert shifted == x(k) * p
    assert_same(shifted, Reference.monomial(1, k) * p_ref)


@given(_terms)
@_settings
def test_accessors_and_rendering_match_reference(terms):
    p, p_ref = _pair(terms)
    assert p.support == p_ref.support
    assert p.degree == p_ref.degree
    assert p.valuation == p_ref.valuation
    assert bool(p) == bool(p_ref)
    assert p.leading_coefficient == p_ref.leading_coefficient
    assert type(p.leading_coefficient) is Fraction
    for exponent in range(-9, 10):
        assert p.coefficient(exponent) == p_ref.coefficient(exponent)
        assert type(p.coefficient(exponent)) is Fraction
    assert str(p) == str(p_ref)
    assert repr(p) == repr(p_ref)


@given(_terms, _terms, _scalars)
@_settings
def test_equality_and_hash_match_reference(left, right, scalar):
    p, p_ref = _pair(left)
    r, r_ref = _pair(right)
    assert (p == r) == (p_ref == r_ref)
    assert (p == scalar) == (p_ref == scalar)
    assert (p == Fraction(scalar)) == (p_ref == Fraction(scalar))
    same = (p + r) - r
    assert same == p
    assert hash(same) == hash(p)
    if p == r:
        assert hash(p) == hash(r)


@given(st.one_of(_terms, st.builds(lambda c: {0: c}, _scalars)), _scalars)
@_settings
def test_hash_agrees_with_equality_to_scalars(terms, scalar):
    p = LaurentPoly(terms)
    constant = LaurentPoly.constant(scalar)
    for value in (scalar, Fraction(scalar)):
        assert constant == value
        assert hash(constant) == hash(value)
        assert len({constant, value}) == 1
        if p == value:
            assert hash(p) == hash(value)
    for value in (0, Fraction(0)):
        assert p - p == value
        assert hash(p - p) == hash(value)


@given(_terms, _terms)
@_settings
def test_mismatch_witness_matches_old_loop(left, right):
    p, p_ref = _pair(left)
    r, r_ref = _pair(right)
    assert poly_mismatch_witness(p, r) == _old_witness(p_ref, r_ref)
    assert poly_mismatch_witness(p, p + 0) is None


def test_zero_polynomial_matches_reference():
    zero, zero_ref = LaurentPoly.zero(), Reference.zero()
    assert_same(zero, zero_ref)
    assert (zero._low, zero._nums, zero._den) == (0, [], 1)
    assert str(zero) == str(zero_ref) == "0"
    assert repr(zero) == repr(zero_ref)
    assert zero.eval_at(0) == zero.eval_at(Fraction(-3, 7)) == 0
    assert zero == 0 and zero == Fraction(0)
    assert_same(zero.dilate(-2), zero_ref.dilate(-2))
    assert_same(zero.invert_variable(), zero_ref.invert_variable())
    assert_same(zero * LaurentPoly({1: 2}), zero_ref * Reference({1: 2}))
