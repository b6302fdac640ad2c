"""The Fraction routes of P_n and R_n, kept as the reference of the
differential tests.

P_n is built two ways. ``pastro_poly`` steps the descending coefficient
recurrence in reduced Fractions and hands the coefficients to the
``LaurentPoly`` constructor. ``pastro_poly_series`` sums the terminating
basic hypergeometric series 2phi1(q^-n, b; (b/a) q^(1-n); q, x) with
``phi21_terminating`` and scales it by ``pastro_monic_prefactor``. R_n
multiplies four ``q_pochhammer`` products into a prefactor and expands
its series with ``phi21_terminating``. The recurrence P_n and R_n raise the
same ``ResonantParameterError`` texts, in the same order, as the package's
builders; the series P_n checks (b;q)_n first, so its texts can differ.

The degree-by-degree closed forms of the coefficient ratio C_k / C_0, of
the coupled-recurrence coefficients alpha_n and beta_n, of the norm
constant h_n, of the eigenvalue lambda_n, of the three-term recurrence
coefficients mu1_n and mu2_n and of the raise factor q^-n (1 - b q^n) are
kept here too: the package reads them off one scalar table per parameter
point, ``baxter_coefficients`` (and ``GridRep.h``), and the tests compare
that table, and the coefficients of P_n, against these formulas.
"""

from __future__ import annotations

from fractions import Fraction

from pastroq.pastro import _check_degree
from pastroq.qcore import (
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    format_rational,
    q_pochhammer,
    x,
)


def pastro_coefficients(n: int, params: QParams) -> list[Fraction]:
    """Coefficients [C_0, ..., C_n] of the monic P_n, by descending recurrence.

    Seeded with C_n = 1 and stepped down through
      (1 - q^(k-n)) (1 - b q^k) C_k = (1 - (b/a) q^(k+1-n)) (1 - q^(k+1)) C_(k+1).
    """
    q, a, b = params.q, params.a, params.b
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(n - 1, -1, -1):
        shift_factor = 1 - (b / a) * q ** (k + 1 - n)
        if shift_factor == 0:
            raise ResonantParameterError(
                f"factor (1 - (b/a)*q^{k + 1 - n}) vanishes: "
                f"monic family of degree {n} degenerates"
            )
        b_factor = 1 - b * q**k
        if b_factor == 0:
            raise ResonantParameterError(f"factor (1 - b*q^{k}) vanishes")
        coeffs[k] = (
            coeffs[k + 1]
            * shift_factor
            * (1 - q ** (k + 1))
            / ((1 - q ** (k - n)) * b_factor)
        )
    return coeffs


def pastro_poly(n: int, params: QParams) -> LaurentPoly:
    """The monic P_n from the Fraction recurrence."""
    return LaurentPoly(enumerate(pastro_coefficients(n, params)))


def pastro_monic_prefactor(n: int, params: QParams) -> Fraction:
    """The constant C_0 = ((b/a)q^(1-n);q)_n (q;q)_n / ((q^-n;q)_n (b;q)_n)."""
    _check_degree(n)
    q, a, b = params.q, params.a, params.b
    denominator = q_pochhammer(q**-n, q, n) * q_pochhammer(b, q, n)
    if denominator == 0:
        raise ResonantParameterError(
            f"(b;q)_{n} vanishes (b = {format_rational(b)}, q = {format_rational(q)})"
        )
    return q_pochhammer((b / a) * q ** (1 - n), q, n) * q_pochhammer(q, q, n) / denominator


def pastro_poly_series(n: int, params: QParams) -> LaurentPoly:
    """P_n built from the terminating series (independent of the recurrence).

    P_n = C_0 * 2phi1(q^-n, b; (b/a) q^(1-n); q, x). Used as a cross-check
    against the recurrence route.
    """
    q, a, b = params.q, params.a, params.b
    prefactor = pastro_monic_prefactor(n, params)
    return prefactor * phi21_terminating(n, b, (b / a) * q ** (1 - n), q, x())


def phi21_terminating(
    n: int,
    upper2: Scalar,
    lower: Scalar,
    q: Scalar,
    arg: LaurentPoly | Scalar,
) -> LaurentPoly:
    """Terminating series 2phi1(q^-n, upper2; lower; q, arg) of a Laurent argument.

    Evaluates sum_{k=0}^{n} [(q^-n;q)_k (upper2;q)_k / ((lower;q)_k (q;q)_k)]
    * arg^k exactly. The term ratio is accumulated incrementally so that a
    vanishing denominator factor is detected at the exact k where it occurs.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"series order must be a nonnegative integer, got {n!r}")
    upper2 = Fraction(upper2)
    lower = Fraction(lower)
    q = Fraction(q)
    if not isinstance(arg, LaurentPoly):
        arg = LaurentPoly.constant(arg)

    total = LaurentPoly.one()
    coefficient = Fraction(1)
    arg_power = LaurentPoly.one()
    for k in range(n):
        lower_factor = 1 - lower * q**k
        if lower_factor == 0:
            raise ResonantParameterError(
                f"series denominator factor (1 - lower*q^{k}) vanishes "
                f"(lower = {format_rational(lower)}, q = {format_rational(q)})"
            )
        base_factor = 1 - q ** (k + 1)
        if base_factor == 0:
            raise ResonantParameterError(
                f"series denominator factor (1 - q^{k + 1}) vanishes "
                f"(q = {format_rational(q)} is a root of unity)"
            )
        coefficient *= (1 - q ** (k - n)) * (1 - upper2 * q**k)
        coefficient /= lower_factor * base_factor
        arg_power = arg_power * arg
        total = total + coefficient * arg_power
    return total


def biorthogonal_partner(n: int, params: QParams) -> LaurentPoly:
    """R_n = [(q^-n;q)_n (b/q;q)_n / (((b/a)q^-n;q)_n (q;q)_n)]
    * 2phi1(q^-n, (a/b)q; q^(2-n)/b; q, q^2/(a x)), in Fractions."""
    q, a, b = params.q, params.a, params.b
    denominator = q_pochhammer((b / a) * q**-n, q, n) * q_pochhammer(q, q, n)
    if denominator == 0:
        raise ResonantParameterError(
            f"((b/a)*q^{-n};q)_{n} vanishes: partner of degree {n} degenerates"
        )
    prefactor = q_pochhammer(q**-n, q, n) * q_pochhammer(b / q, q, n) / denominator
    series = phi21_terminating(
        n,
        (a / b) * q,
        q ** (2 - n) / b,
        q,
        LaurentPoly.monomial(q**2 / a, -1),
    )
    return prefactor * series


def pastro_coefficient_ratio(n: int, k: int, params: QParams) -> Fraction:
    """Closed-form ratio C_k / C_0 = (q^-n;q)_k (b;q)_k / (((b/a)q^(1-n);q)_k (q;q)_k)."""
    if not 0 <= k <= n:
        raise ValueError(f"coefficient index must lie in [0, {n}], got {k}")
    q, a, b = params.q, params.a, params.b
    denominator = q_pochhammer((b / a) * q ** (1 - n), q, k) * q_pochhammer(q, q, k)
    if denominator == 0:
        raise ResonantParameterError(
            f"((b/a)*q^{1 - n};q)_{k} vanishes: monic family of degree {n} degenerates"
        )
    return q_pochhammer(q**-n, q, k) * q_pochhammer(b, q, k) / denominator


def alpha_coefficient(n: int, params: QParams) -> Fraction:
    """Coupled-recurrence coefficient alpha_n = -((b/a)q)^(n+1) (a/b;q)_(n+1) / (b;q)_(n+1)."""
    q, a, b = params.q, params.a, params.b
    denominator = q_pochhammer(b, q, n + 1)
    if denominator == 0:
        raise ResonantParameterError(f"(b;q)_{n + 1} vanishes")
    return -(((b / a) * q) ** (n + 1)) * q_pochhammer(a / b, q, n + 1) / denominator


def beta_coefficient(n: int, params: QParams) -> Fraction:
    """Coupled-recurrence coefficient beta_n = -(a/b)^(n+1) (b/q;q)_(n+1) / ((a/b)q;q)_(n+1)."""
    q, a, b = params.q, params.a, params.b
    denominator = q_pochhammer((a / b) * q, q, n + 1)
    if denominator == 0:
        raise ResonantParameterError(f"((a/b)*q;q)_{n + 1} vanishes")
    return -((a / b) ** (n + 1)) * q_pochhammer(b / q, q, n + 1) / denominator


def norm_constant(n: int, params: QParams) -> Fraction:
    """Biorthogonality constant h_n = (a;q)_n (q;q)_n / (((a/b)q;q)_n (b;q)_n)."""
    q, a, b = params.q, params.a, params.b
    denominator = q_pochhammer((a / b) * q, q, n) * q_pochhammer(b, q, n)
    if denominator == 0:
        raise ResonantParameterError(f"((a/b)*q;q)_{n} * (b;q)_{n} vanishes")
    return q_pochhammer(a, q, n) * q_pochhammer(q, q, n) / denominator


def eigenvalue(n: int, params: QParams) -> Fraction:
    """The generalized eigenvalue lambda_n = -q^n / b."""
    return -params.q**n / params.b


def mu1_coefficient(n: int, params: QParams) -> Fraction:
    """Recurrence coefficient mu1_n = -q (b - a q^n) / (a (1 - b q^n))."""
    q, a, b = params.q, params.a, params.b
    return -q * (b - a * q**n) / (a * (1 - b * q**n))


def mu2_coefficient(n: int, params: QParams) -> Fraction:
    """Recurrence coefficient mu2_n; exactly 0 at n = 0 (the 1 - q^n factor).

    For n >= 1, mu2_n = -b q (1 - q^n)(1 - a q^(n-1)) / (a (1 - b q^n)(1 - b q^(n-1))).
    """
    if n == 0:
        return Fraction(0)
    q, a, b = params.q, params.a, params.b
    return (
        -b
        * q
        * (1 - q**n)
        * (1 - a * q ** (n - 1))
        / (a * (1 - b * q**n) * (1 - b * q ** (n - 1)))
    )


def raise_factor(n: int, params: QParams) -> Fraction:
    """The factor q^-n (1 - b q^n) of the X and Z actions and of the contiguity relations."""
    q, b = params.q, params.b
    return q**-n * (1 - b * q**n)


def first_closed_form_error(n_max: int, params: QParams) -> str | None:
    """The first error of the degree-by-degree closed forms: alpha, beta, then h."""
    try:
        for closed_form in (alpha_coefficient, beta_coefficient, norm_constant):
            for n in range(n_max + 1):
                closed_form(n, params)
    except ResonantParameterError as exc:
        return str(exc)
    return None
