"""The operator algebra: commutation relations, Casimir element, pencil.

The triple (X, Y, Z) closes under q-commutators with parameter-dependent
structure constants. An affine change of generators turns two of the three
relations into pure q-canonical pairs; the third keeps two constants
alpha1, alpha2. In the new generators a cubic Casimir element commutes
with everything, and the pencil L = X' + mu Y' generates a q-Hahn type
subalgebra whose relations close on L, Z' and their q-commutator M.
All relation checks are exact operator equalities in normal form. Each
q-commutator c AB - BA is one :func:`q_commutator` and each linear
expression one :func:`linear_combination`, its scalars distributed over
the terms, so every side is merged and normalized once. Each check reads
one :class:`AlgebraRep`, built once per parameter point, so a record
corrupted with ``_replace`` demonstrably FAILs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .qcore import QParams, Scalar, format_rational
from .qdiff import (
    QDiffOperator,
    linear_combination,
    make_operators,
    operator_mismatch_witness,
    q_commutator,
)
from .report import Check, equality_check

__all__ = [
    "AlgebraRep",
    "make_algebra_rep",
    "verify_raw_relations",
    "verify_affine_relations",
    "casimir_element",
    "casimir_centrality",
    "AlgebraConstants",
    "qhahn_embedding",
]


class AlgebraRep(NamedTuple):
    """Everything the algebra checks read, built once per parameter point.

    ``context`` is ``params.describe()``; X, Y, Z the raw triple; Xp, Yp,
    Zp the normalized generators X', Y', Z'; alpha1, alpha2 the structure
    constants; and ``casimir`` the cubic Casimir Q of X', Y', Z'.
    """

    params: QParams
    context: dict[str, str]
    X: QDiffOperator
    Y: QDiffOperator
    Z: QDiffOperator
    Xp: QDiffOperator
    Yp: QDiffOperator
    Zp: QDiffOperator
    alpha1: Fraction
    alpha2: Fraction
    casimir: QDiffOperator


def make_algebra_rep(params: QParams) -> AlgebraRep:
    """Build the triple, the normalized generators, the constants and the Casimir.

    The affine change of generators that normalizes two of the relations,
      X' = a/(bq(q-1)) X - a/(b(q-1)) I,
      Y' = (b/q) Y - (b/a) I,
      Z' = -(1/a) Z - (b/a) I,
    and the structure constants of the third,
      alpha1 = b (q-1)^2 (q+1) / (a^2 q),
      alpha2 = (q-1)(ab + aq + bq) / (a^2 q).
    Requires q != 1, which QParams already guarantees.
    """
    X, Y, Z = make_operators(params)
    q, a, b = params.q, params.a, params.b
    I = QDiffOperator.identity(q)
    Xp = linear_combination(q, ((a / (b * q * (q - 1)), X), (-a / (b * (q - 1)), I)))
    Yp = linear_combination(q, ((b / q, Y), (-b / a, I)))
    Zp = linear_combination(q, ((-1 / a, Z), (-b / a, I)))
    a1 = b * (q - 1) ** 2 * (q + 1) / (a**2 * q)
    a2 = (q - 1) * (a * b + a * q + b * q) / (a**2 * q)
    casimir = casimir_element(q, (Xp, Yp, Zp), a1, a2)
    return AlgebraRep(params, params.describe(), X, Y, Z, Xp, Yp, Zp, a1, a2, casimir)


def verify_raw_relations(rep: AlgebraRep) -> list[Check]:
    """Check the three q-commutation relations of the raw triple (X, Y, Z).

      q XY - YX = q (q-1) ((1/a) X + Y),
      q YZ - ZY = (q-1) [ -(1+q)/(bq) X - b Y + (q/a) Z + (1-b)(a-bq)/(ab) ],
      q ZX - XZ = (q-1) (-b X + q Z).
    """
    X, Y, Z, context = rep.X, rep.Y, rep.Z, rep.context
    q, a, b = rep.params.q, rep.params.a, rep.params.b
    I = QDiffOperator.identity(q)

    checks = [
        equality_check(
            "raw-relation-XY",
            "q XY - YX = q (q-1) ((1/a) X + Y)",
            context,
            operator_mismatch_witness(
                q_commutator(q, X, Y),
                linear_combination(q, ((q * (q - 1) / a, X), (q * (q - 1), Y))),
            ),
        ),
        equality_check(
            "raw-relation-YZ",
            "q YZ - ZY = (q-1) (-(1+q)/(bq) X - b Y + (q/a) Z + (1-b)(a-bq)/(ab) I)",
            context,
            operator_mismatch_witness(
                q_commutator(q, Y, Z),
                linear_combination(
                    q,
                    (
                        ((q - 1) * -(1 + q) / (b * q), X),
                        ((q - 1) * -b, Y),
                        ((q - 1) * q / a, Z),
                        ((q - 1) * (1 - b) * (a - b * q) / (a * b), I),
                    ),
                ),
            ),
        ),
        equality_check(
            "raw-relation-ZX",
            "q ZX - XZ = (q-1) (-b X + q Z)",
            context,
            operator_mismatch_witness(
                q_commutator(q, Z, X),
                linear_combination(q, (((q - 1) * -b, X), ((q - 1) * q, Z))),
            ),
        ),
    ]
    return checks


def verify_affine_relations(rep: AlgebraRep) -> list[Check]:
    """Check the normalized relations of (X', Y', Z').

      q X'Y' - Y'X' = I,
      q Y'Z' - Z'Y' = alpha1 X' + alpha2 I,
      q Z'X' - X'Z' = I,
    and restate them as the cyclic presentation with structure constants
    (beta1, beta2) = (0, 1) and (delta1, delta2) = (0, 1) alongside
    (alpha1, alpha2).
    """
    Xp, Yp, Zp, context = rep.Xp, rep.Yp, rep.Zp, rep.context
    q = rep.params.q
    a1, a2 = rep.alpha1, rep.alpha2
    I = QDiffOperator.identity(q)

    witness_xy = operator_mismatch_witness(q_commutator(q, Xp, Yp), I)
    witness_yz = operator_mismatch_witness(
        q_commutator(q, Yp, Zp), linear_combination(q, ((a1, Xp), (a2, I)))
    )
    witness_zx = operator_mismatch_witness(q_commutator(q, Zp, Xp), I)
    checks = [
        equality_check(
            "affine-relation-XY", "q X'Y' - Y'X' = I", context, witness_xy
        ),
        equality_check(
            "affine-relation-YZ",
            "q Y'Z' - Z'Y' = alpha1 X' + alpha2 I",
            context,
            witness_yz,
        ),
        equality_check(
            "affine-relation-ZX", "q Z'X' - X'Z' = I", context, witness_zx
        ),
        equality_check(
            "askey-wilson-cyclic-presentation",
            "q X'Y' - Y'X' = beta1 Z' + beta2 I; "
            "q Y'Z' - Z'Y' = alpha1 X' + alpha2 I; "
            "q Z'X' - X'Z' = delta1 Y' + delta2 I",
            context
            | {
                "beta1": "0",
                "beta2": "1",
                "alpha1": format_rational(a1),
                "alpha2": format_rational(a2),
                "delta1": "0",
                "delta2": "1",
            },
            witness_xy or witness_yz or witness_zx,
        ),
    ]
    return checks


def casimir_element(
    q: Fraction, generators: tuple[QDiffOperator, ...], alpha1: Fraction, alpha2: Fraction
) -> QDiffOperator:
    """The cubic Casimir of the normalized generators (X', Y', Z').

    Q = (q^-2 - 1) X'Y'Z' + (alpha1/q) X'^2
        + (1/q)(1/q + 1)(alpha2 X' + (1/q) Y' + Z').
    """
    Xp, Yp, Zp = generators
    tail = (1 / q) * (1 / q + 1)
    return linear_combination(
        q,
        (
            (q**-2 - 1, Xp @ Yp @ Zp),
            (alpha1 / q, Xp @ Xp),
            (tail * alpha2, Xp),
            (tail / q, Yp),
            (tail, Zp),
        ),
    )


def casimir_centrality(rep: AlgebraRep) -> list[Check]:
    """Check that the Casimir commutes with each normalized generator."""
    element = rep.casimir
    checks = []
    for name, generator in zip(("X'", "Y'", "Z'"), (rep.Xp, rep.Yp, rep.Zp)):
        checks.append(
            equality_check(
                f"casimir-central-{name.rstrip(chr(39))}",
                f"Q {name} - {name} Q = 0",
                rep.context,
                operator_mismatch_witness(
                    element @ generator, generator @ element
                ),
            )
        )
    return checks


class AlgebraConstants(NamedTuple):
    """Structure constants of the pencil subalgebra at a given mu."""

    mu: Fraction
    alpha1: Fraction
    alpha2: Fraction
    gamma1: Fraction
    gamma2: Fraction
    gamma3: Fraction
    gamma4: QDiffOperator
    degenerate: bool


def qhahn_embedding(
    rep: AlgebraRep, mu: Scalar
) -> tuple[AlgebraConstants, list[Check]]:
    """Check the q-Hahn type relations of the pencil L = X' + mu Y'.

    With M defined through the first relation,
      q L Z' - Z' L = M + gamma1 I,             gamma1 = mu alpha2 + 1,
      q Z' M - M Z' = gamma2 I,                 gamma2 = mu alpha1,
      q M L - L M  = gamma3 Z' + gamma4,        gamma3 = mu (q+1)^2 (q-1) / q,
    where gamma4 = -mu q^2 (q-1) Q + mu^2 alpha1 I is central (Q is the
    Casimir). The first relation compares q L Z' - Z' L with the closed form
    M = q X'Z' - Z'X' + mu alpha1 X' - I, so it FAILs with the affine YZ
    relation. mu = 0 collapses the pencil to X' and is flagged degenerate.
    """
    mu = Fraction(mu)
    q = rep.params.q
    Xp, Yp, Zp = rep.Xp, rep.Yp, rep.Zp
    a1, a2 = rep.alpha1, rep.alpha2
    I = QDiffOperator.identity(q)

    L = linear_combination(q, ((1, Xp), (mu, Yp)))
    gamma1 = mu * a2 + 1
    lz = q_commutator(q, L, Zp)
    M = linear_combination(q, ((1, lz), (-gamma1, I)))
    gamma2 = mu * a1
    gamma3 = mu * (q + 1) ** 2 * (q - 1) / q
    gamma4 = linear_combination(q, ((-mu * q**2 * (q - 1), rep.casimir), (mu**2 * a1, I)))

    context = rep.context | {"mu": format_rational(mu)}
    if mu == 0:
        context["degenerate"] = "true"
    checks = [
        equality_check(
            "qhahn-LZ",
            "q L Z' - Z' L = M + (mu alpha2 + 1) I",
            context,
            operator_mismatch_witness(
                lz,
                linear_combination(
                    q, ((1, q_commutator(q, Xp, Zp)), (mu * a1, Xp), (-1, I), (gamma1, I))
                ),
            ),
        ),
        equality_check(
            "qhahn-ZM",
            "q Z' M - M Z' = mu alpha1 I",
            context,
            operator_mismatch_witness(
                q_commutator(q, Zp, M), linear_combination(q, ((gamma2, I),))
            ),
        ),
        equality_check(
            "qhahn-ML",
            "q M L - L M = mu ((q+1)^2 (q-1)/q) Z' - mu q^2 (q-1) Q + mu^2 alpha1 I",
            context,
            operator_mismatch_witness(
                q_commutator(q, M, L), linear_combination(q, ((gamma3, Zp), (1, gamma4)))
            ),
        ),
    ]
    constants = AlgebraConstants(
        mu=mu,
        alpha1=a1,
        alpha2=a2,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        gamma4=gamma4,
        degenerate=(mu == 0),
    )
    return constants, checks
