"""The operator routes that ``QDiffOperator`` took before its arithmetic
worked on int numerators, kept as the reference of the differential tests.

Composition: every term pair (c1 T^j)(c2 T^k) is one ``LaurentPoly``
product c1 * c2.dilate(q^j), each in normal form, and the products are
merged by shift j + k through ``LaurentPoly`` sums; the constructor drops
a shift whose sum is zero. A linear combination scales each coefficient by
a ``LaurentPoly`` scalar product and merges equal shifts through
``LaurentPoly`` sums, and a q-commutator c AB - BA is the linear
combination of the two compositions.
"""

from __future__ import annotations

from itertools import product

from pastroq.qcore import LaurentPoly
from pastroq.qdiff import QDiffOperator


def compose(left: QDiffOperator, right: QDiffOperator) -> QDiffOperator:
    """left @ right by the twisted product rule, one polynomial product per term pair."""
    if left.q != right.q:
        raise ValueError("ambient q mismatch")
    q = left.q
    merged: dict[int, LaurentPoly] = {}
    for (j, c1), (k, c2) in product(left.items(), right.items()):
        term = c1 * c2.dilate(q**j)
        merged[j + k] = merged[j + k] + term if j + k in merged else term
    return QDiffOperator(q, merged)


def linear_combination(q, parts) -> QDiffOperator:
    """sum_i w_i A_i over q, one polynomial scalar product per coefficient."""
    merged: dict[int, LaurentPoly] = {}
    for weight, operator in parts:
        if operator.q != q:
            raise ValueError("ambient q mismatch")
        for shift, coefficient in operator.items():
            term = coefficient * weight
            merged[shift] = merged[shift] + term if shift in merged else term
    return QDiffOperator(q, merged)


def q_commutator(c, A: QDiffOperator, B: QDiffOperator) -> QDiffOperator:
    """c AB - BA from the two reference compositions."""
    return linear_combination(A.q, ((c, compose(A, B)), (-1, compose(B, A))))
