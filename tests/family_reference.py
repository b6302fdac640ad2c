"""The reference routes of P_n and R_n, kept for the differential tests.

The package steps each family from degree to degree by the q-Pascal rule.
Three routes here build each member on its own, from scratch.

The closed products on ints. ``pastro_poly_closed`` and
``biorthogonal_partner_closed`` write each coefficient as a homogeneous
Gaussian binomial, made by one exact int division per index, times
prefix and suffix products of int units, over one common denominator,
with one content gcd (``_binomial_poly``). They raise the package's
``ResonantParameterError`` texts, in the order in which the closed form of
each degree checks its factors.

The Fraction routes. ``pastro_poly`` steps the descending coefficient
recurrence in reduced Fractions and hands the coefficients to the
``LaurentPoly`` constructor. ``pastro_poly_series`` sums the terminating
basic hypergeometric series 2phi1(q^-n, b; (b/a) q^(1-n); q, x) with
``phi21_terminating`` and scales it by ``pastro_monic_prefactor``. R_n
multiplies four ``q_pochhammer`` products into a prefactor and expands
its series with ``phi21_terminating``. The recurrence P_n and R_n raise the
same ``ResonantParameterError`` texts, in the same order, as the closed
products; the series P_n checks (b;q)_n first, so its texts can differ.

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
from itertools import accumulate
from math import gcd
from operator import mul

from pastroq.pastro import _check_degree
from pastroq.qcore import (
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    _make,
    _powers,
    format_rational,
    q_pochhammer,
    x,
)


def _binomial_poly(
    low: int, p_pow: list[int], r_pow: list[int], heads: list[int], tails: list[int], one: int
) -> LaurentPoly:
    """sum_i (c_i / c_one) x^(low + i), i = 0..n, from nonzero int heads and tails:

      c_i = G_i * heads[0] ... heads[i-1] * tails[i] ... tails[n-1].

    G_i = r^(i(n-i)) [n, i]_q is the Gaussian binomial of q = p/r made
    homogeneous (``p_pow`` and ``r_pow`` hold p^0..p^n and r^0..r^n). From
    G_n = 1, G_(i-1) = G_i (r^i - p^i) / (r^(n-i+1) - p^(n-i+1)) is one exact
    int division, and G_(n-i) = G_i gives the other half. The one content
    gcd left divides out only what the units share.
    """
    n = len(heads)
    gauss = [1] * (n + 1)
    for i in range(n, (n + 1) // 2, -1):
        j = n - i + 1
        gauss[i - 1] = gauss[j] = gauss[i] * (r_pow[i] - p_pow[i]) // (r_pow[j] - p_pow[j])
    suffix = list(accumulate(reversed(tails), mul, initial=1))[::-1]
    prefix = accumulate(heads, mul, initial=1)
    nums = [g * head * tail for g, head, tail in zip(gauss, prefix, suffix)]
    if nums[one] < 0:
        nums = [-c for c in nums]
    return _make(low, nums, nums[one], nums[one])


def pastro_poly_closed(n: int, params: QParams) -> LaurentPoly:
    """The monic P_n as a closed product on ints.

    The recurrence (1 - q^(k-n)) (1 - b q^k) C_k
    = (1 - (b/a) q^(k+1-n)) (1 - q^(k+1)) C_(k+1), C_n = 1, multiplies out to
      C_k = (-1)^(n-k) q^((n-k)(n-k+1)/2) [n, k]_q
            * prod_{j=k}^{n-1} (1 - (b/a) q^(j+1-n)) / (1 - b q^j).
    With q = p/r, b = b_num/b_den and b/a = s_num/s_den, that is
      C_k = (-p b_den / (s_den r))^(n-k) G_k prod_{j=k}^{n-1} U_j / V_j
    over the int units U_j = s_den p^(n-1-j) - s_num r^(n-1-j) and
    V_j = b_den r^j - b_num p^j (G_k as in :func:`_binomial_poly`). For
    k = n-1 down to 0, the shift factor U_k and then the b factor V_k are
    checked, and reported exactly when they vanish.
    """
    _check_degree(n)
    p, r = params.q.as_integer_ratio()
    b_num, b_den = params.b.as_integer_ratio()
    s_num, s_den = (params.b / params.a).as_integer_ratio()
    p_pow, r_pow = _powers(p, n), _powers(r, n)
    common = gcd(p * b_den, s_den * r)
    monomial, scale = -p * b_den // common, s_den * r // common
    heads, tails = [0] * n, [0] * n
    for m, k in enumerate(range(n - 1, -1, -1)):
        tails[k] = monomial * (s_den * p_pow[m] - s_num * r_pow[m])
        if not tails[k]:
            raise ResonantParameterError(
                f"factor (1 - (b/a)*q^{k + 1 - n}) vanishes: "
                f"monic family of degree {n} degenerates"
            )
        heads[k] = scale * (b_den * r_pow[k] - b_num * p_pow[k])
        if not heads[k]:
            raise ResonantParameterError(f"factor (1 - b*q^{k}) vanishes")
    return _binomial_poly(0, p_pow, r_pow, heads, tails, n)


def biorthogonal_partner_closed(n: int, params: QParams) -> LaurentPoly:
    """The partner R_n as a closed product on ints, supported on [-n, 0].

    The coefficient of x^-k is
      (a/b)^(n-k) [n, k]_q ((a/b)q;q)_k (b/q;q)_(n-k) / ((a/b)q;q)_n
      = (t_num r / c_den)^(n-k) G_k prod_{j<n-k} W_j / prod_{k<i<=n} A_i,
    with q = p/r, a/b = t_num/t_den, b/q = c_num/c_den, the int units
    A_i = t_den r^i - t_num p^i and W_j = c_den r^j - c_num p^j, and G_k as
    in :func:`_binomial_poly`. The factors of ((b/a)q^-n;q)_n, each zero
    exactly when a unit A_i is, are checked first; then the series factors
    (1 - lower*q^k), k = 0..n-1, lower = q^(2-n)/b, each zero with W_(n-1-k).
    """
    _check_degree(n)
    q = params.q
    p, r = q.as_integer_ratio()
    t_num, t_den = (params.a / params.b).as_integer_ratio()
    c_num, c_den = (params.b / q).as_integer_ratio()
    p_pow, r_pow = _powers(p, n), _powers(r, n)
    common = gcd(t_num * r, c_den)
    monomial, scale = t_num * r // common, c_den // common
    tails = [scale * (t_den * r_pow[i] - t_num * p_pow[i]) for i in range(n, 0, -1)]
    if not all(tails):
        raise ResonantParameterError(
            f"((b/a)*q^{-n};q)_{n} vanishes: partner of degree {n} degenerates"
        )
    heads = [0] * n
    for j in range(n - 1, -1, -1):
        heads[j] = monomial * (c_den * r_pow[j] - c_num * p_pow[j])
        if not heads[j]:
            raise ResonantParameterError(
                f"series denominator factor (1 - lower*q^{n - 1 - j}) vanishes "
                f"(lower = {format_rational(q ** (2 - n) / params.b)}, q = {format_rational(q)})"
            )
    return _binomial_poly(-n, p_pow, r_pow, heads, tails, 0)


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
