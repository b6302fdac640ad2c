"""The dict/Fraction ``LaurentPoly`` that ``pastroq.qcore`` used before its
integer-numerator form, kept as the reference of the differential tests.

It stores a map ``exponent -> Fraction`` with zero coefficients dropped and
reduces every coefficient after every operation. The class keeps its old
name, so its ``repr`` reads the same as the package's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from pastroq.qcore import Scalar, format_rational


class LaurentPoly:
    """A Laurent polynomial in one variable with exact rational coefficients.

    Terms are stored as a finite map ``exponent -> coefficient`` with zero
    coefficients dropped, so structural equality coincides with semantic
    equality. Instances are treated as immutable.
    """

    __slots__ = ("_terms",)

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
                total = data.get(exponent, Fraction(0)) + Fraction(coefficient)
                if total:
                    data[exponent] = total
                elif exponent in data:
                    del data[exponent]
        self._terms = data

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPoly":
        return cls({0: value})

    @classmethod
    def monomial(cls, coefficient: Scalar, exponent: int) -> "LaurentPoly":
        return cls({exponent: coefficient})

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    @property
    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    @property
    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return self._terms[max(self._terms)]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == LaurentPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        merged = dict(self._terms)
        for exponent, coefficient in other._terms.items():
            total = merged.get(exponent, Fraction(0)) + coefficient
            if total:
                merged[exponent] = total
            elif exponent in merged:
                del merged[exponent]
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = merged
        return result

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = {e: -c for e, c in self._terms.items()}
        return result

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return LaurentPoly.constant(other) - self

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            result = LaurentPoly.__new__(LaurentPoly)
            result._terms = (
                {e: c * factor for e, c in self._terms.items()} if factor else {}
            )
            return result
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        product: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exponent = e1 + e2
                total = product.get(exponent, Fraction(0)) + c1 * c2
                if total:
                    product[exponent] = total
                elif exponent in product:
                    del product[exponent]
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = product
        return result

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LaurentPoly":
        divisor = Fraction(other)
        if divisor == 0:
            raise ZeroDivisionError("division of a Laurent polynomial by zero")
        return self * (1 / divisor)

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        result = LaurentPoly.one()
        base = self
        remaining = power
        while remaining:
            if remaining & 1:
                result = result * base
            base = base * base
            remaining >>= 1
        return result

    def eval_at(self, point: Scalar) -> Fraction:
        """Evaluate at a rational point (nonzero if negative exponents occur)."""
        point = Fraction(point)
        if not self._terms:
            return Fraction(0)
        low, high = min(self._terms), max(self._terms)
        if point == 0 and low < 0:
            raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
        # Horner's rule over [valuation, degree], then scale by point^valuation.
        value = Fraction(0)
        for exponent in range(high, low - 1, -1):
            value = value * point + self._terms.get(exponent, 0)
        return value * point**low

    def dilate(self, factor: Scalar) -> "LaurentPoly":
        """Substitute x -> factor*x, i.e. scale the exponent-k term by factor^k."""
        factor = Fraction(factor)
        if factor == 0:
            raise ValueError("dilation factor must be nonzero")
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = {e: c * factor**e for e, c in self._terms.items()}
        return result

    def derivative(self) -> "LaurentPoly":
        """Formal derivative, valid for all integer exponents."""
        return LaurentPoly({e - 1: c * e for e, c in self._terms.items() if e})

    def invert_variable(self) -> "LaurentPoly":
        """Substitute x -> 1/x, negating every exponent."""
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = {-e: c for e, c in self._terms.items()}
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exponent, coefficient in sorted(self._terms.items(), reverse=True):
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
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"
