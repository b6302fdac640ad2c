"""The composition route that ``QDiffOperator.__matmul__`` took before it
worked on int numerators, kept as the reference of the differential tests.

Every term pair (c1 T^j)(c2 T^k) is one ``LaurentPoly`` product
c1 * c2.dilate(q^j), each in normal form, and the products are merged by
shift j + k through ``LaurentPoly`` sums; the constructor drops a shift
whose sum is zero.
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
