"""Exact rational scalars, Laurent polynomials, and the q-Pochhammer symbol.

This module is the arithmetic substrate for the whole package. Scalars are
arbitrary-precision rationals (``fractions.Fraction``), Laurent polynomials
are dense lists of int numerators over one common denominator, kept in a
unique normal form (no zero end terms, content 1), and their values at the
points q^k come back in the same layout, as a :class:`GridVector`. The
q-Pochhammer symbol is evaluated exactly, and the factors 1 - z q^j of a
parameter point are one table of int units. Since the deformation
parameter q is a rational outside {0, 1, -1}, it is never a root of unity,
so denominators of the form 1 - q^m (m != 0) never vanish and every
identity downstream reduces to literal equality of normal forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "Scalar",
    "ParameterError",
    "ResonantParameterError",
    "parse_rational",
    "format_rational",
    "GridVector",
    "LaurentPoly",
    "x",
    "q_pochhammer",
    "QParams",
]

#: Anything accepted where an exact scalar is expected.
Scalar = Union[Fraction, int]


class ParameterError(ValueError):
    """A parameter violates a structural requirement (q in {0,1,-1}, ...)."""


class ResonantParameterError(ParameterError):
    """A parameter choice makes a factor vanish that must be invertible."""


_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def _parse_int(text: str) -> int:
    """``int(text)`` for a signed decimal literal of any length: past the
    interpreter's int_max_str_digits limit, it converts the halves."""
    try:
        return int(text)
    except ValueError:
        digits = text.lstrip("+-")
        half = len(digits) // 2
        value = _parse_int(digits[:-half]) * 10**half + _parse_int(digits[-half:])
        return -value if text.startswith("-") else value


def _int_text(value: int) -> str:
    """``str(value)`` for an int of any size: past the digit limit, it splits
    by a power of ten into halves, the lower one padded with zeros."""
    try:
        return str(value)
    except ValueError:
        half = value.bit_length() * 3 // 20
        high, low = divmod(abs(value), 10**half)
        return ("-" if value < 0 else "") + _int_text(high) + _int_text(low).zfill(half)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``p`` or ``p/r`` into a reduced fraction.

    Only integer and slash-fraction literals are accepted. Decimal points,
    exponents and other float syntax are rejected so exactness cannot be
    lost at the input boundary. Literals of any length are accepted.
    """
    literal = text.strip()
    if not _RATIONAL_PATTERN.match(literal):
        raise ParameterError(f"not a rational literal: {text!r}")
    num_text, _, den_text = literal.partition("/")
    den = _parse_int(den_text) if den_text else 1
    if den == 0:
        raise ParameterError(f"zero denominator: {text!r}")
    return Fraction(_parse_int(num_text), den)


def format_rational(value: Scalar) -> str:
    """Format an exact rational as ``p`` or ``p/r``; inverse of
    :func:`parse_rational`. A float or a str raises TypeError, as in :func:`_exact`."""
    value = _exact(value)
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _exact(value: Scalar) -> Fraction:
    """``value`` as a Fraction; anything but an int or a Fraction raises
    TypeError, so a float or a str cannot enter as an inexact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar (int or Fraction), got {value!r}")


class GridVector(NamedTuple):
    """Values at a list of points as int numerators over one positive
    denominator: the :class:`LaurentPoly` layout applied to vectors.

    Entry s is ``nums[s] / den``. The numerators and the denominator need
    not be coprime: two vectors are proportional, or a dot product vanishes,
    whatever common factor they carry.
    """

    nums: list[int]
    den: int

    def values(self) -> list[Fraction]:
        """The entries as reduced Fractions."""
        return [Fraction(num, self.den) for num in self.nums]


class LaurentPoly:
    """A Laurent polynomial in one variable with exact rational coefficients.

    The polynomial sum_i (nums[i] / den) x^(low + i) is stored as its
    valuation ``_low``, a dense list ``_nums`` of int numerators and one
    positive int denominator ``_den`` (the layout of FLINT's ``fmpq_poly``).
    The normal form is unique: ``_nums[0]`` and ``_nums[-1]`` are nonzero,
    ``gcd(_den, *_nums) == 1``, and zero is ``(0, [], 1)``. So structural
    equality coincides with semantic equality. Results reach the normal
    form from what the operands' normal forms already fix, not by reducing
    every coefficient:

    - a product divides gcd(den_b, *a) out of a and gcd(den_a, *b) out of
      b before it multiplies; by Gauss's lemma that is the whole content,
      so the product needs no further gcd (a scalar is b = [numerator]
      over its denominator);
    - a sum's content divides gcd(den_a, den_b), so its one gcd starts from
      that bound and is free when the denominators are coprime;
    - ``dilate(1)`` is the polynomial itself; any other dilation and the
      derivative take one content gcd over the whole denominator;
    - ``times_x(k)``, the product by x^k, moves only the valuation.

    Instances are treated as immutable.
    """

    __slots__ = ("_low", "_nums", "_den")

    def __init__(
        self,
        terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] | None = None,
    ) -> None:
        data: dict[int, Fraction] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exponent, coefficient in items:
                if not isinstance(exponent, int):
                    raise TypeError(f"exponent must be int, got {exponent!r}")
                data[exponent] = data.get(exponent, 0) + _exact(coefficient)
        data = {e: c for e, c in data.items() if c}
        if not data:
            self._low, self._nums, self._den = 0, [], 1
            return
        low = min(data)
        den = lcm(*(c.denominator for c in data.values()))
        nums = [0] * (max(data) - low + 1)
        for exponent, coefficient in data.items():
            nums[exponent - low] = coefficient.numerator * (den // coefficient.denominator)
        self._low, self._nums, self._den = low, nums, den

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _raw(0, [], 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _raw(0, [1], 1)

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPoly":
        return cls.monomial(value, 0)

    @classmethod
    def monomial(cls, coefficient: Scalar, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be int, got {exponent!r}")
        coefficient = _exact(coefficient)
        if not coefficient:
            return _raw(0, [], 1)
        return _raw(exponent, [coefficient.numerator], coefficient.denominator)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        low, den = self._low, self._den
        return ((low + i, Fraction(n, den)) for i, n in enumerate(self._nums) if n)

    def coefficient(self, exponent: int) -> Fraction:
        index = exponent - self._low
        if 0 <= index < len(self._nums):
            return Fraction(self._nums[index], self._den)
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        low = self._low
        return tuple(low + i for i, n in enumerate(self._nums) if n)

    @property
    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self._low + len(self._nums) - 1 if self._nums else None

    @property
    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self._low if self._nums else None

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._nums:
            return Fraction(0)
        return Fraction(self._nums[-1], self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if type(other) is not LaurentPoly:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self._low == other._low and self._den == other._den and self._nums == other._nums
        )

    def __hash__(self) -> int:
        # A constant (zero included) equals its Fraction, so it hashes as one.
        nums = self._nums
        if not nums:
            return hash(0)
        if self._low == 0 and len(nums) == 1:
            return hash(Fraction(nums[0], self._den))
        return hash((self._low, self._den, tuple(nums)))

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return _signed_sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw(self._low, [-n for n in self._nums], self._den)

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return _signed_sum(self, other, -1)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return LaurentPoly.constant(other) - self

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        # Both factors are in normal form, so by Gauss's lemma the content of
        # the product is gcd(den_b, *a) * gcd(den_a, *b): divide each out of
        # its factor first, and the product is in normal form as it comes.
        if isinstance(other, LaurentPoly):
            b, b_low, b_den = other._nums, other._low, other._den
        elif isinstance(other, (int, Fraction)):
            b, b_low, b_den = [other.numerator] if other else [], 0, other.denominator
        else:
            return NotImplemented
        a, a_den = self._nums, self._den
        if not a or not b:
            return _raw(0, [], 1)
        if b_den != 1:
            common = gcd(b_den, *a)
            if common != 1:
                a, b_den = [n // common for n in a], b_den // common
        if a_den != 1:
            common = gcd(a_den, *b)
            if common != 1:
                b, a_den = [n // common for n in b], a_den // common
        return _raw(self._low + b_low, _product(a, b), a_den * b_den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LaurentPoly":
        divisor = _exact(other)
        if divisor == 0:
            raise ZeroDivisionError("division of a Laurent polynomial by zero")
        return self * (1 / divisor)

    def eval_at(self, point: Scalar) -> Fraction:
        """Evaluate at a rational point (nonzero if negative exponents occur).

        A nonzero point is the one-point :meth:`sample_at_powers` at q^1.
        """
        point = _exact(point)
        if not point:
            if self._nums and self._low < 0:
                raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
            return self.coefficient(0)
        (value,), den = self.sample_at_powers(point, (1,))
        return Fraction(value, den)

    def sample_at_powers(self, q: Scalar, exponents: Sequence[int]) -> GridVector:
        """Values at the points q^k, k in ``exponents``, over one denominator.

        The value at q^k is ``nums[i] / den``, and ``den`` is positive and
        the lcm of the values' reduced denominators: no Fraction is built
        per point. q must be nonzero and every k >= 1.
        """
        q = _exact(q)
        if not q or min(exponents, default=1) < 1:
            raise ValueError("sample points must be q^k with q nonzero and k >= 1")
        nums, low = self._nums, self._low
        if not nums:
            return GridVector([0] * len(exponents), 1)
        p, r = q.numerator, q.denominator
        size, high = abs(p), low + len(nums) - 1
        K = max(exponents, default=0)
        # With q^k = p^k / r^k, Horner's rule on ints gives
        # sum_i nums[i] p^(ki) r^(k(top-i)); the value is that sum times
        # p^(k low) / (den r^(k high)), high = low + top. Over the common
        # denominator den r^(K max(high, 0)) |p|^(K max(-low, 0)) the sum is
        # scaled by sgn(p)^(k low) |p|^a r^c, both exponents >= 0.
        values = []
        for k in exponents:
            pk, rk = p**k, r**k
            value = 0
            r_power = 1
            for n in reversed(nums):
                value = value * pk + n * r_power
                r_power *= rk
            a = k * low if low >= 0 else (K - k) * -low
            c = (K - k) * high if high >= 0 else -k * high
            sign = -1 if p < 0 and k * low % 2 else 1
            values.append(sign * value * size**a * r**c)
        den = self._den * r ** (K * max(high, 0)) * size ** (K * max(-low, 0))
        common = gcd(den, *values)
        return GridVector([value // common for value in values], den // common)

    def dilate(self, factor: Scalar) -> "LaurentPoly":
        """Substitute x -> factor*x, i.e. scale the exponent-k term by factor^k."""
        factor = _exact(factor)
        if factor == 0:
            raise ValueError("dilation factor must be nonzero")
        if not self._nums or factor == 1:
            return self
        # The one content gcd divides out the powers of r that the
        # dilation's numerators and denominator share.
        scaled, scale_den = _dilation(self._low, self._nums, factor.numerator, factor.denominator)
        den = self._den * scale_den
        return _make(self._low, scaled, den, den)

    def derivative(self) -> "LaurentPoly":
        """Formal derivative, valid for all integer exponents."""
        low = self._low
        den = self._den
        return _make(low - 1, [n * (low + i) for i, n in enumerate(self._nums)], den, den)

    def times_x(self, k: int) -> "LaurentPoly":
        """x^k * self, by moving the valuation: no coefficient is touched."""
        if not self._nums:
            return self
        return _raw(self._low + k, self._nums, self._den)

    def invert_variable(self) -> "LaurentPoly":
        """Substitute x -> 1/x, negating every exponent."""
        if not self._nums:
            return self
        return _raw(1 - self._low - len(self._nums), self._nums[::-1], self._den)

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        pieces: list[str] = []
        for exponent, coefficient in reversed(list(self.items())):
            if exponent == 0:
                body = format_rational(abs(coefficient))
            else:
                var = "x" if exponent == 1 else f"x^{exponent}"
                magnitude = abs(coefficient)
                body = var if magnitude == 1 else f"{format_rational(magnitude)}*{var}"
            if not pieces:
                pieces.append(body if coefficient > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coefficient > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"


def _operand(other: object) -> LaurentPoly:
    """``other`` as the right operand of ``+``, ``-`` or ``==``: a scalar as
    a constant, a LaurentPoly as itself, anything else NotImplemented.

    The operators call this only when ``type(other)`` is not LaurentPoly:
    ``Fraction``'s metaclass is ``ABCMeta``, whose ``isinstance`` runs in
    Python, so the common case skips it.
    """
    if isinstance(other, (int, Fraction)):
        return LaurentPoly.constant(other)
    if isinstance(other, LaurentPoly):
        return other
    return NotImplemented


def _raw(low: int, nums: list[int], den: int) -> LaurentPoly:
    """A LaurentPoly from parts already in normal form."""
    poly = object.__new__(LaurentPoly)
    poly._low, poly._nums, poly._den = low, nums, den
    return poly


def _make(low: int, nums: list[int], den: int, bound: int) -> LaurentPoly:
    """A LaurentPoly in normal form from any parts with ``den > 0``.

    ``bound`` is a positive divisor of ``den`` that the content
    gcd(den, *nums) is known to divide (``den`` itself when nothing is
    known). Strips the zero end terms and divides out gcd(bound, *nums),
    which is that content; a bound of 1 costs no gcd. Parts whose end terms
    are both nonzero are not scanned.
    """
    if not (nums and nums[0] and nums[-1]):
        stop = len(nums)
        while stop and not nums[stop - 1]:
            stop -= 1
        if not stop:
            return _raw(0, [], 1)
        start = 0
        while not nums[start]:
            start += 1
        nums = nums[start:stop]
        low += start
    if bound != 1:
        content = gcd(bound, *nums)
        if content != 1:
            den //= content
            nums = [n // content for n in nums]
    return _raw(low, nums, den)


# The three integer kernels of polynomial arithmetic, shared by LaurentPoly
# and the operator sums below. Each works on the int parts (low, nums, den)
# of sum_i (nums[i] / den) x^(low + i), normalizes nothing and changes no
# list in place, so an operand may share the numerators of a LaurentPoly;
# each caller makes its own normal form.


def _signed_sum(a: LaurentPoly, b: LaurentPoly, sign: int) -> LaurentPoly:
    """a + sign b in normal form, sign = 1 or -1. b enters :func:`_sum`
    with its sign, term by term, so no negated copy of b is built."""
    if not b._nums:
        return a
    if not a._nums:
        return b if sign == 1 else -b
    # Only a prime of equal valuation in both denominators can divide
    # the content of the sum, so gcd(den_a, den_b) bounds it.
    common = gcd(a._den, b._den)
    low, nums, den = _sum(a._low, a._nums, a._den, b._low, b._nums, b._den, common, sign)
    return _make(low, nums, den, common)


def _sum(
    a_low: int,
    a_nums: list[int],
    a_den: int,
    b_low: int,
    b_nums: list[int],
    b_den: int,
    common: int,
    b_sign: int = 1,
) -> list:
    """The parts ``[low, nums, den]`` of a + b_sign b, over lcm(a_den, b_den),
    given ``common`` = gcd(a_den, b_den).

    a is placed, lifted, into zeros and b added onto it; each part is lifted
    (b with its sign) term by term as it is consumed, so no lifted copy of a
    part is held. The lifts are the cofactors b_den/common and a_den/common
    of the two denominators, so no quotient of the lcm is taken, and the
    lcm a_den * (b_den/common) is made last: while the numerators are built,
    the lifts and ``common`` are the only ints held.
    """
    a_lift, b_lift = b_den // common, b_sign * (a_den // common)
    low = min(a_low, b_low)
    nums = [0] * (max(a_low + len(a_nums), b_low + len(b_nums)) - low)
    start = a_low - low
    nums[start : start + len(a_nums)] = a_nums if a_lift == 1 else map(mul, a_nums, repeat(a_lift))
    start = b_low - low
    stop = start + len(b_nums)
    if b_lift != 1:
        b_nums = map(mul, b_nums, repeat(b_lift))
    nums[start:stop] = map(add, nums[start:stop], b_nums)
    # A list, not a tuple: :func:`_merge` keeps it, and a freed 3-tuple
    # stays on the interpreter's tuple free list, counted in the traced peak.
    return [low, nums, a_den * a_lift]


def _product(a: list[int], b: list[int]) -> list[int]:
    """The numerators of the product of two nonempty numerator lists:
    the schoolbook product, one row per term of the shorter list. A
    shorter list of one or two terms, a scalar or a linear multiplier,
    takes one pass over the longer one."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        factor = b[0]
        return [n * factor for n in a]
    if len(b) == 2:
        # c_i = u a_i + v a_(i-1), into a list of the exact length: a
        # product is kept as a polynomial's numerators.
        u, v = b
        nums = [0] * (len(a) + 1)
        before = 0
        for i, n in enumerate(a):
            nums[i] = u * n + v * before
            before = n
        nums[-1] = v * before
        return nums
    width = len(a)
    nums = [0] * (width + len(b) - 1)
    for i, factor in enumerate(b):
        if factor:
            nums[i : i + width] = map(add, nums[i : i + width], [n * factor for n in a])
    return nums


def _dilation(low: int, nums: list[int], p: int, r: int) -> tuple[list[int], int]:
    """The numerators of f(p/r x), f = sum_i nums[i] x^(low+i) and r > 0,
    and the one extra int denominator they are over.

    The exponent-(low+i) term is scaled by p^i r^(top-i) times the common
    factor p^low / r^(low+top), kept as two ints: for low < 0 it is
    r^-low / (|p|^-low r^top), the sign of p^low on the numerator.
    """
    top = len(nums) - 1
    if low >= 0:
        scale, extra = p**low, r ** (low + top)
    else:
        scale = -(r**-low) if p < 0 and low % 2 else r**-low
        extra = abs(p) ** -low * r**top
    return [n * p**i * r ** (top - i) * scale for i, n in enumerate(nums)], extra


def _merge(sums: dict[int, list], shift: int, low: int, nums: list[int], den: int) -> None:
    """Add (sum_i nums[i] x^(low+i)) / den to the running sum of ``shift``.

    ``sums`` maps a shift to ``[low, nums, den]`` with ``den > 0``, not
    normalized; a second part at a shift is added by :func:`_sum`.
    """
    total = sums.get(shift)
    if total is None:
        sums[shift] = [low, nums, den]
    else:
        sums[shift] = _sum(*total, low, nums, den, gcd(total[2], den))


def _finish(sums: dict[int, list]) -> dict[int, LaurentPoly]:
    """The coefficients, by shift, of the running sums of :func:`_merge`.

    One content gcd per shift brings each sum to normal form, and a shift
    that sums to zero is dropped.
    """
    terms = {}
    for shift, (low, nums, den) in sums.items():
        coefficient = _make(low, nums, den, den)
        if coefficient._nums:
            terms[shift] = coefficient
    return terms


def _accumulate_scaled(
    sums: dict[int, list], weight: Scalar, terms: Mapping[int, LaurentPoly]
) -> None:
    """Add weight * sum_k c_k T^k to ``sums``.

    With weight = w_num / w_den, each c_k enters as its numerators times
    w_num over its denominator times w_den. A zero weight adds nothing.
    """
    w_num, w_den = weight.as_integer_ratio()
    if not w_num:
        return
    for shift, c in terms.items():
        nums = c._nums if w_num == 1 else [n * w_num for n in c._nums]
        _merge(sums, shift, c._low, nums, c._den * w_den)


def _accumulate_product(
    sums: dict[int, list],
    q: Fraction,
    weight: Scalar,
    left: Mapping[int, LaurentPoly],
    right: Mapping[int, LaurentPoly],
) -> None:
    """Add weight * (sum_j a_j T^j)(sum_k b_k T^k) over q to ``sums``.

    The twisted product rule (a T^j)(b T^k) = a(x) b(q^j x) T^(j+k) is
    worked on the int parts: the weight scales each a_j once, and the
    :func:`_dilation` of b by q^j = N/D times a by :func:`_product` is
    merged into the sum of shift j + k. Nothing is normalized here;
    :func:`_finish` takes one content gcd per shift. An operator holds no
    zero coefficient and its q is nonzero, so no term pair is empty and
    every power of q is defined. A zero weight adds nothing.
    """
    w_num, w_den = weight.as_integer_ratio()
    if not w_num:
        return
    p, r = q.numerator, q.denominator
    for j, a in left.items():
        a_nums, a_low, a_den = a._nums, a._low, a._den * w_den
        if w_num != 1:
            a_nums = [n * w_num for n in a_nums]
        if j:
            # q^j = N/D with D > 0.
            N, D = (p**j, r**j) if j > 0 else (r**-j, p**-j)
            if D < 0:
                N, D = -N, -D
        for k, b in right.items():
            nums, den = b._nums, a_den * b._den
            if j:
                nums, extra = _dilation(b._low, nums, N, D)
                den *= extra
            _merge(sums, j + k, b._low + a_low, _product(a_nums, nums), den)


def x(power: int = 1) -> LaurentPoly:
    """The monomial x^power (power may be negative)."""
    return LaurentPoly.monomial(1, power)


def q_pochhammer(z: Scalar, q: Scalar, n: int) -> Fraction:
    """The q-shifted factorial (z; q)_n = prod_{j=0}^{n-1} (1 - z*q^j)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"length must be a nonnegative integer, got {n!r}")
    z = _exact(z)
    q = _exact(q)
    product = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        product *= 1 - z * power
        power *= q
    return product


def _powers(base: int, n: int) -> list[int]:
    """[base^0, base^1, ..., base^n]."""
    return list(accumulate(repeat(base, n), mul, initial=1))


class _Units(NamedTuple):
    """The int units of a parameter point at one j, with q = p/r: a row of
    :func:`_unit_rows`.

    The fields ``a``, ``b``, ``ab``, ``bq`` and ``one`` hold, for z = a, b,
    a/b, b/q and 1, the unit z_den r^j - z_num p^j, so that
    1 - z q^j = unit / (z_den r^j). ``p_pow`` and ``r_pow`` hold p^j and
    r^j.
    """

    p_pow: int
    r_pow: int
    a: int
    b: int
    ab: int
    bq: int
    one: int


def _unit_list(num: int, den: int, p_pow: list[int], r_pow: list[int]) -> list[int]:
    """[den r^j - num p^j] over the powers p^j, r^j of ``p_pow`` and
    ``r_pow``: for z = num/den and q = p/r, the units of 1 - z q^j."""
    return [den * r_j - num * p_j for p_j, r_j in zip(p_pow, r_pow)]


def _unit_rows(params: QParams) -> Iterator[_Units]:
    """The units of ``params`` for j = 0, 1, 2, ..., one row at a time, off
    running powers of p and r, for a reader that holds only the rows it
    keeps."""
    q, a, b = params
    p, r = q.as_integer_ratio()
    ratios = [z.as_integer_ratio() for z in (a, b, a / b, b / q)] + [(1, 1)]
    p_j = r_j = 1
    while True:
        yield _Units(p_j, r_j, *[den * r_j - num * p_j for num, den in ratios])
        p_j *= p
        r_j *= r


class _QTriple(NamedTuple):
    q: Fraction
    a: Fraction
    b: Fraction


class QParams(_QTriple):
    """The parameter triple (q, a, b), all exact rationals.

    Structural requirements are enforced at construction: q outside
    {0, 1, -1} (hence never a root of unity, q being rational), a and b
    nonzero, each an int or a Fraction. Every route to an instance checks
    them: ``_make``, and so ``_replace`` (``params._replace(b=...)`` is the
    point with b replaced), build through :meth:`__new__`. Resonance checks
    against vanishing q-Pochhammer factors are separate, because the
    offending factors depend on the degree range.
    """

    __slots__ = ()

    def __new__(cls, q: Scalar, a: Scalar, b: Scalar) -> "QParams":
        q, a, b = _exact(q), _exact(a), _exact(b)
        if q in (0, 1, -1):
            raise ParameterError(f"q must lie outside {{0, 1, -1}}, got {format_rational(q)}")
        if a == 0:
            raise ParameterError("a must be nonzero")
        if b == 0:
            raise ParameterError("b must be nonzero")
        return super().__new__(cls, q, a, b)

    @classmethod
    def _make(cls, iterable: Iterable[Scalar]) -> "QParams":
        """The triple of ``iterable``, through :meth:`__new__`: the
        NamedTuple ``_make``, which ``_replace`` calls too, would skip it.
        The triple is unpacked, not starred: ``_replace`` passes a map, and
        a tuple built from it would be resized into the interpreter's tuple
        free list on every call, which the traced peak counts."""
        q, a, b = iterable
        return cls(q, a, b)

    def vanishing_factors(self, n_max: int) -> list[str]:
        """Names of the factors, needed up to degree n_max, that vanish.

        These are the denominators the verify suite divides by up to degree
        n_max: b*q^j != 1 for -1 <= j <= n_max (for 0 <= j when n_max = 0)
        and (b/a)*q^j != 1 for -(n_max + 1) <= j <= 0. Empty means
        admissible. Each factor is read off the int units of
        :func:`_unit_rows`, j = 0..n_max+1: 1 - b*q^-1 is the unit bq of
        j = 0, 1 - b*q^j is the unit b of j, and 1 - (b/a)*q^-j vanishes
        exactly when the unit ab of j does.
        """
        rows = list(islice(_unit_rows(self), n_max + 2))
        offending = ["(1 - b*q^-1) vanishes"] if n_max and not rows[0].bq else []
        offending += [f"(1 - b*q^{j}) vanishes" for j in range(n_max + 1) if not rows[j].b]
        offending += [
            f"(1 - (b/a)*q^{-j}) vanishes" for j in range(n_max + 1, -1, -1) if not rows[j].ab
        ]
        return offending

    def describe(self) -> dict[str, str]:
        """Parameter map with formatted rational values (for reports)."""
        return {
            "q": format_rational(self.q),
            "a": format_rational(self.a),
            "b": format_rational(self.b),
        }
