"""q-difference operators and the operator triple acting on the family.

An operator is a finite sum sum_k c_k(x) T^k where T^k dilates the
argument, (T^k f)(x) = f(q^k x), and each coefficient c_k is a Laurent
polynomial. Operators compose by the twisted product rule
(c1 T^j)(c2 T^k) = c1(x) c2(q^j x) T^(j+k) and are kept in normal form
(at most one term per shift, zero coefficients dropped), so operator
equality is literal equality of normal forms. Compositions, linear
combinations and q-commutators share one merge of int numerators by
shift and one content gcd per output shift.

The triple (X, Y, Z) below satisfies the generalized eigenvalue problem
Y P_n = lambda_n X P_n on the monic family, with Z = (1/x) X acting
degree-preservingly. The verification functions check the eigenvalue
problem, the explicit q-difference equation, the parameter-shift
(contiguity) relations, and the recurrence structure, all exactly. They
read one :class:`DegreeRecord` each, built by :func:`degree_records` in a
single pass over the degrees.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .qcore import (
    LaurentPoly,
    ParameterError,
    QParams,
    Scalar,
    _accumulate_product,
    _accumulate_scaled,
    _exact,
    _finish,
    format_rational,
    x,
)
from .pastro import ScalarRow, pastro_family
from .report import Check, equality_check, poly_mismatch_witness

__all__ = [
    "QDiffOperator",
    "linear_combination",
    "q_commutator",
    "operator_mismatch_witness",
    "make_operators",
    "DegreeRecord",
    "degree_records",
    "verify_gevp",
    "verify_qdiff_equation",
    "verify_contiguity",
    "verify_recurrence",
]


class QDiffOperator:
    """A finite sum of shifted multiplication operators c_k(x) T^k over a
    nonzero q."""

    __slots__ = ("q", "_terms")

    def __init__(
        self, q: Scalar, terms: Mapping[int, LaurentPoly | Scalar] | None = None
    ) -> None:
        self.q = _ambient_q(q)
        data: dict[int, LaurentPoly] = {}
        if terms is not None:
            for shift, coefficient in terms.items():
                if not isinstance(shift, int):
                    raise TypeError(f"shift must be int, got {shift!r}")
                if not isinstance(coefficient, LaurentPoly):
                    coefficient = LaurentPoly.constant(coefficient)
                if coefficient:
                    data[shift] = coefficient
        self._terms = data

    @classmethod
    def identity(cls, q: Scalar) -> "QDiffOperator":
        return cls(q, {0: LaurentPoly.one()})

    def items(self) -> Iterator[tuple[int, LaurentPoly]]:
        """Terms in ascending shift order."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, shift: int) -> LaurentPoly:
        return self._terms.get(shift, LaurentPoly.zero())

    @property
    def shifts(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        return self.q == other.q and self._terms == other._terms

    def __matmul__(self, other: "QDiffOperator") -> "QDiffOperator":
        """Composition: (c1 T^j)(c2 T^k) = c1(x) c2(q^j x) T^(j+k).

        Worked on the coefficients' int numerators with one content gcd per
        output shift: no ``LaurentPoly`` product or dilation per term pair.
        """
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        _require_ambient(self.q, other)
        sums: dict[int, list] = {}
        _accumulate_product(sums, self.q, 1, self._terms, other._terms)
        return _wrap(self.q, _finish(sums))

    def apply(
        self, f: LaurentPoly, dilations: Mapping[int, LaurentPoly] | None = None
    ) -> LaurentPoly:
        """Apply to a Laurent polynomial: sum_k c_k(x) f(q^k x).

        ``dilations``, if given, maps every shift k of the operator to
        f(q^k x) already built, so operators that share shifts can share
        the dilations of one f; otherwise f is dilated here.
        """
        if not isinstance(f, LaurentPoly):
            raise TypeError(f"operand must be a LaurentPoly, got {f!r}")
        if dilations is None:
            dilations = {k: f.dilate(self.q**k) for k in self._terms}
        total = LaurentPoly.zero()
        for k, coefficient in self._terms.items():
            total = total + coefficient * dilations[k]
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*T^{k}" for k, c in sorted(self._terms.items()))

    def __repr__(self) -> str:
        return f"QDiffOperator(q={format_rational(self.q)}, {dict(sorted(self._terms.items()))!r})"


def linear_combination(
    q: Scalar, parts: Iterable[tuple[Scalar, QDiffOperator]]
) -> QDiffOperator:
    """The operator sum_i w_i A_i over q, from the pairs (w_i, A_i).

    Each coefficient's int numerators are scaled by w_i and merged by
    shift over a common denominator, as a composition merges its term
    pairs; one content gcd per shift brings the sums to normal form, and a
    shift that sums to zero is dropped. A weight of 0 contributes nothing.
    Every A_i must be over q.
    """
    q = _ambient_q(q)
    sums: dict[int, list] = {}
    for weight, operator in parts:
        weight = _exact(weight)
        _require_ambient(q, operator)
        _accumulate_scaled(sums, weight, operator._terms)
    return _wrap(q, _finish(sums))


def q_commutator(c: Scalar, A: QDiffOperator, B: QDiffOperator) -> QDiffOperator:
    """c AB - BA, both compositions merged into one sum and finished once."""
    c = _exact(c)
    if not isinstance(A, QDiffOperator):
        raise TypeError(f"expected a QDiffOperator, got {A!r}")
    _require_ambient(A.q, B)
    sums: dict[int, list] = {}
    _accumulate_product(sums, A.q, c, A._terms, B._terms)
    _accumulate_product(sums, A.q, -1, B._terms, A._terms)
    return _wrap(A.q, _finish(sums))


def _ambient_q(q: Scalar) -> Fraction:
    """q as a Fraction, refused if zero: T^k would dilate by q^k."""
    q = _exact(q)
    if not q:
        raise ParameterError("an operator's q must be nonzero, got 0")
    return q


def _require_ambient(q: Fraction, operator: object) -> None:
    """Refuse anything but an operator over q."""
    if not isinstance(operator, QDiffOperator):
        raise TypeError(f"expected a QDiffOperator, got {operator!r}")
    if operator.q != q:
        raise ValueError(
            f"ambient q mismatch: {format_rational(q)} vs {format_rational(operator.q)}"
        )


def _wrap(q: Fraction, terms: dict[int, LaurentPoly]) -> QDiffOperator:
    """The operator over q with ``terms``, already in normal form, as its terms.

    q is nonzero: it comes from an operator already built or has passed
    :func:`_ambient_q`.
    """
    result = QDiffOperator.__new__(QDiffOperator)
    result.q = q
    result._terms = terms
    return result


def operator_mismatch_witness(lhs: QDiffOperator, rhs: QDiffOperator) -> str | None:
    """First (shift, exponent) where two operators differ, or None."""
    if lhs == rhs:
        return None
    for shift in sorted(set(lhs.shifts) | set(rhs.shifts)):
        mismatch = poly_mismatch_witness(lhs.coefficient(shift), rhs.coefficient(shift))
        if mismatch:
            return f"shift {shift}, {mismatch}"
    return None


def make_operators(params: QParams) -> tuple[QDiffOperator, QDiffOperator, QDiffOperator]:
    """The operator triple (X, Y, Z) for the parameter triple (q, a, b).

      X = (x - q) T^-1 + (q - b x) I        raises degree by one,
      Y = (x - q/a) T^+1 + (q/a - x/b) I    raises degree by one,
      Z = (1 - q/x) T^-1 + (q/x - b) I      preserves degree, Z = (1/x) X.
    """
    q, a, b = params.q, params.a, params.b
    X = QDiffOperator(q, {-1: x() - q, 0: q - x() * b})
    Y = QDiffOperator(q, {1: x() - q / a, 0: LaurentPoly.constant(q / a) - x() / b})
    Z = QDiffOperator(
        q,
        {
            -1: LaurentPoly({0: 1, -1: -q}),
            0: LaurentPoly({-1: q, 0: -b}),
        },
    )
    return X, Y, Z


class DegreeRecord(NamedTuple):
    """Everything the per-degree checks read at one degree n.

    The eigenvalue-route P_(n-1) (zero at n = 0), P_n and P_(n+1); the two
    dilations P_n(qx) and P_n(x/q), the only ones taken at this degree;
    P_n at the shifted parameter bq; the images X P_n, Y P_n, Z P_n, summed
    from P_n and those two dilations; ``row``, the
    :class:`pastroq.pastro.ScalarRow` of degree n, from which the checks
    read every scalar they compare with (lambda_n, mu1_n, mu2_n, the raise
    factor, the X and Z action coefficients and the Y contiguity factor),
    and the Baxter checks alpha_n, beta_n and h_n; ``qdiff_coefficients``,
    the four coefficients x - q/a, q/a - x/b, x - q and q - b x of the
    q-difference equation; and ``context``, the report parameters
    ``params.describe()`` plus n and the caller's keys, one dict that every
    check of the record carries.
    The coefficients are built once per parameter point and shared by
    every record. The Baxter checks step the coupled pair P~_n, Q_n
    themselves; a record holds only eigenvalue-route polynomials.
    """

    n: int
    context: dict[str, str]
    row: ScalarRow
    qdiff_coefficients: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]
    p_prev: LaurentPoly
    p: LaurentPoly
    p_next: LaurentPoly
    p_qx: LaurentPoly
    p_x_over_q: LaurentPoly
    p_shifted: LaurentPoly
    x_image: LaurentPoly
    y_image: LaurentPoly
    z_image: LaurentPoly


def degree_records(
    params: QParams,
    n_max: int,
    rows: Iterable[ScalarRow],
    context: dict[str, str] | None = None,
) -> Iterator[DegreeRecord]:
    """The records of n = 0..n_max, built in one pass over the degrees.

    X, Y, Z are built once, and so are the q-difference coefficients,
    straight from x and the parameters, not from the coefficients of X and
    Y; :func:`pastroq.pastro.pastro_family` steps each P_k once from
    P_(k-1), and a second family at bq steps P_n(.; bq) after P_(n+1). Each
    P_k is held only while a record still needs it (as P_(n+1), then P_n,
    then P_(n-1)); each P_n is dilated once by q and
    once by 1/q, and X, Y, Z sum their images from those two results
    (through :meth:`QDiffOperator.apply`), as the q-difference equation reads
    them from the record. ``rows`` yields the scalar rows of ``params``,
    n = 0, 1, ..., as :func:`pastroq.pastro.scalar_rows` does; the record of
    degree n reads the row of n, one row per record, and carries it. The
    keys of ``context`` (a sweep's draw label, say) join each record's
    context.
    """
    X, Y, Z = make_operators(params)
    q, a, b = params.q, params.a, params.b
    qdiff_coefficients = (
        x() - q / a,
        LaurentPoly.constant(q / a) - x() / b,
        x() - q,
        q - x() * b,
    )
    q_inv = 1 / q
    described = params.describe() | (context or {})
    family = pastro_family(params)
    shifted = pastro_family(params._replace(b=params.b * params.q))
    p_prev, p = LaurentPoly.zero(), next(family)
    for n, row in zip(range(n_max + 1), rows):
        p_next = next(family)
        dilations = {-1: p.dilate(q_inv), 0: p, 1: p.dilate(q)}
        yield DegreeRecord(
            n=n,
            context=described | {"n": str(n)},
            row=row,
            qdiff_coefficients=qdiff_coefficients,
            p_prev=p_prev,
            p=p,
            p_next=p_next,
            p_qx=dilations[1],
            p_x_over_q=dilations[-1],
            p_shifted=next(shifted),
            x_image=X.apply(p, dilations),
            y_image=Y.apply(p, dilations),
            z_image=Z.apply(p, dilations),
        )
        p_prev, p = p, p_next
        del dilations  # P_n(qx) and P_n(x/q) are not held while P_(n+2) is stepped


def verify_gevp(record: DegreeRecord) -> Check:
    """Check the generalized eigenvalue identity Y P_n = lambda_n X P_n."""
    lam = record.row.lam
    witness = poly_mismatch_witness(record.y_image, record.x_image * lam)
    return equality_check(
        "gevp", "Y P_n = lambda_n X P_n, lambda_n = -q^n/b", record.context, witness
    )


def verify_qdiff_equation(record: DegreeRecord) -> Check:
    """Check the explicit q-difference equation, written out with dilations.

    (x - q/a) P_n(qx) + (q/a - x/b) P_n(x)
        = lambda_n [ (x - q) P_n(x/q) + (q - b x) P_n(x) ].
    This route reads P_n, its dilations P_n(qx) and P_n(x/q) and the four
    coefficients from the record. The dilations are the ones X, Y, Z sum
    their images from, so only the substrate call is shared: the
    coefficients come from x and the parameters, not from X and Y, and no
    operator object is built, so the route is independent of the operator
    calculus exercised by :func:`verify_gevp`.
    """
    p = record.p
    lhs_dilated, lhs_fixed, rhs_dilated, rhs_fixed = record.qdiff_coefficients
    lam = record.row.lam
    lhs = lhs_dilated * record.p_qx + lhs_fixed * p
    rhs = (rhs_dilated * record.p_x_over_q + rhs_fixed * p) * lam
    return equality_check(
        "q-difference-equation",
        "(x - q/a) P_n(qx) + (q/a - x/b) P_n(x) = "
        "lambda_n ((x - q) P_n(x/q) + (q - b x) P_n(x))",
        record.context,
        poly_mismatch_witness(lhs, rhs),
    )


def verify_contiguity(record: DegreeRecord) -> list[Check]:
    """Check that X, Y, Z map the family at b to the family at bq.

      X P_n(.; b) = q^-n (1 - b q^n) x P_n(.; bq),
      Y P_n(.; b) = -(1/b) (1 - b q^n) x P_n(.; bq),
      Z P_n(.; b) = q^-n (1 - b q^n) P_n(.; bq).
    Both factors are read from ``record.row``: the raise factor and
    ``y_raise``. The X and Z right-hand sides are one product,
    P_n(.; bq) times the raise factor, shifted by x for X.
    """
    p_shifted, row = record.p_shifted, record.row
    raised = p_shifted * row.raise_factor
    return [
        equality_check(
            "contiguity-X",
            "X P_n(.; b) = q^-n (1 - b q^n) x P_n(.; bq)",
            record.context,
            poly_mismatch_witness(record.x_image, raised.times_x(1)),
        ),
        equality_check(
            "contiguity-Y",
            "Y P_n(.; b) = -(1/b) (1 - b q^n) x P_n(.; bq)",
            record.context,
            poly_mismatch_witness(record.y_image, p_shifted.times_x(1) * row.y_raise),
        ),
        equality_check(
            "contiguity-Z",
            "Z P_n(.; b) = q^-n (1 - b q^n) P_n(.; bq)",
            record.context,
            poly_mismatch_witness(record.z_image, raised),
        ),
    ]


def verify_recurrence(record: DegreeRecord) -> list[Check]:
    """Check the degree-basis actions of X and Z and the three-term recurrence.

      X P_n = q^-n (1 - b q^n) P_(n+1) + q (1 - (b/a) q^-n) P_n,
      Z P_n = q^-n (1 - b q^n) P_n
              + [b q (1 - q^-n)(1 - a q^(n-1)) / (a (1 - b q^(n-1)))] P_(n-1),
      P_(n+1) + mu1_n P_n = x (P_n + mu2_n P_(n-1)),
      x (Z P_n) = X P_n.
    Every scalar is read from ``record.row``: the raise factor,
    ``x_action``, ``z_action``, mu1_n and mu2_n. The P_(n-1) terms drop at
    n = 0, where P_(-1) = 0 and z_action_0 = mu2_0 = 0.
    """
    p_prev, p_now, p_next = record.p_prev, record.p, record.p_next
    row = record.row
    # Each witness is taken as soon as its two sides exist, so that no
    # right-hand side outlives its check.
    x_witness = poly_mismatch_witness(
        record.x_image, p_next * row.raise_factor + p_now * row.x_action
    )
    z_witness = poly_mismatch_witness(
        record.z_image, p_now * row.raise_factor + p_prev * row.z_action
    )
    three_witness = poly_mismatch_witness(
        p_next + p_now * row.mu1, (p_now + p_prev * row.mu2).times_x(1)
    )

    return [
        equality_check(
            "recurrence-X-action",
            "X P_n = q^-n (1 - b q^n) P_(n+1) + q (1 - (b/a) q^-n) P_n",
            record.context,
            x_witness,
        ),
        equality_check(
            "recurrence-Z-action",
            "Z P_n = q^-n (1 - b q^n) P_n "
            "+ b q (1 - q^-n)(1 - a q^(n-1)) / (a (1 - b q^(n-1))) P_(n-1)",
            record.context,
            z_witness,
        ),
        equality_check(
            "recurrence-three-term",
            "P_(n+1) + mu1_n P_n = x (P_n + mu2_n P_(n-1))",
            record.context,
            three_witness,
        ),
        equality_check(
            "recurrence-X-from-Z",
            "x (Z P_n) = X P_n",
            record.context,
            poly_mismatch_witness(record.z_image.times_x(1), record.x_image),
        ),
    ]
