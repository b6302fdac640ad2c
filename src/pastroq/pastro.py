"""The Pastro polynomial family, its partners, and its recurrence data.

Everything in this module is a function of the parameter triple
(q, a, b). The polynomials P_n are monic of degree n and are built from an
exact two-term coefficient recurrence; their biorthogonal partners R_n are
Laurent polynomials supported on exponents [-n, 0], built from the term
ratios of a terminating series. Both are built on integers, in one
ratio-product pass per polynomial. The Baxter-style coupled recurrence
reconstructs both families from scratch and is used as an independent
derivation route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .qcore import (
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    _one_minus,
    _ratio_poly,
    format_rational,
    phi21_terminating,
    q_pochhammer,
    x,
)
from .report import Check, equality_check, poly_mismatch_witness

__all__ = [
    "pastro_poly",
    "pastro_poly_series",
    "pastro_monic_prefactor",
    "BaxterData",
    "baxter_coefficients",
    "baxter_step",
    "baxter_system",
    "verify_baxter_consistency",
    "biorthogonal_partner",
    "grid_weights",
]


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")


def _pair(value: Fraction) -> tuple[int, int]:
    return value.numerator, value.denominator


def pastro_poly(n: int, params: QParams) -> LaurentPoly:
    """The monic polynomial P_n(x; a, b) of degree n, by descending recurrence.

    Seeded with C_n = 1 and stepped down through
      (1 - q^(k-n)) (1 - b q^k) C_k = (1 - (b/a) q^(k+1-n)) (1 - q^(k+1)) C_(k+1),
    with every factor an int pair, so the coefficients are built on
    integers in one ratio-product pass. The factor 1 - q^(k-n) never
    vanishes (q is not a root of unity); the other factors are checked and
    reported exactly when they vanish.
    """
    _check_degree(n)
    q, b_over_a, b = _pair(params.q), _pair(params.b / params.a), _pair(params.b)
    ratios = []
    for k in range(n - 1, -1, -1):
        shift_num, shift_den = _one_minus(b_over_a, q, k + 1 - n)
        if shift_num == 0:
            raise ResonantParameterError(
                f"factor (1 - (b/a)*q^{k + 1 - n}) vanishes: "
                f"monic family of degree {n} degenerates"
            )
        b_num, b_den = _one_minus(b, q, k)
        if b_num == 0:
            raise ResonantParameterError(f"factor (1 - b*q^{k}) vanishes")
        up_num, up_den = _one_minus((1, 1), q, k + 1)
        down_num, down_den = _one_minus((1, 1), q, k - n)
        ratios.append(
            (shift_num * up_num * down_den * b_den, shift_den * up_den * down_num * b_num)
        )
    return _ratio_poly(n, (1, 1), ratios)


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


@dataclass
class BaxterData:
    """The per-degree scalars of one parameter point, n = 0..n_max.

    The coupled-recurrence coefficients alpha_n, beta_n and the norms h_n;
    the eigenvalue lambda_n = -q^n/b; the three-term recurrence
    coefficients mu1_n, mu2_n; and the degree-raising factor
    q^-n (1 - b q^n) of X and Z. Each column is read off its own closed
    form, never off another column, so the checks that compare columns
    compare independent routes. :func:`baxter_system` adds the iterated
    families.
    """

    alpha: list[Fraction]
    beta: list[Fraction]
    h: list[Fraction]
    lam: list[Fraction]
    mu1: list[Fraction]
    mu2: list[Fraction]
    raise_factor: list[Fraction]
    p_polys: list[LaurentPoly] = field(default_factory=list)
    q_polys: list[LaurentPoly] = field(default_factory=list)


def _pochhammer_prefixes(z: Fraction, q: Fraction, n: int) -> list[Fraction]:
    """[(z;q)_0, (z;q)_1, ..., (z;q)_n] as running products."""
    prefixes = [Fraction(1)]
    power = z
    for _ in range(n):
        prefixes.append(prefixes[-1] * (1 - power))
        power *= q
    return prefixes


def _divisor(value: Fraction, message: str) -> Fraction:
    if value == 0:
        raise ResonantParameterError(message)
    return value


def _norm_constants(
    n_max: int,
    params: QParams,
    abq_poch: list[Fraction] | None = None,
    b_poch: list[Fraction] | None = None,
) -> list[Fraction]:
    """h_n = (a;q)_n (q;q)_n / (((a/b)q;q)_n (b;q)_n) for n <= n_max.

    Read off running q-Pochhammer products; raises at the first n whose
    denominator vanishes. A caller that already holds the prefixes of
    ((a/b)q;q) and (b;q), up to n_max or further, passes them in.
    """
    q, a, b = params.q, params.a, params.b
    a_poch = _pochhammer_prefixes(a, q, n_max)
    q_poch = _pochhammer_prefixes(q, q, n_max)
    if abq_poch is None:
        abq_poch = _pochhammer_prefixes((a / b) * q, q, n_max)
    if b_poch is None:
        b_poch = _pochhammer_prefixes(b, q, n_max)
    return [
        a_poch[n]
        * q_poch[n]
        / _divisor(abq_poch[n] * b_poch[n], f"((a/b)*q;q)_{n} * (b;q)_{n} vanishes")
        for n in range(n_max + 1)
    ]


def baxter_coefficients(n_max: int, params: QParams) -> BaxterData:
    """The scalar table of ``params`` for n <= n_max.

      alpha_n = -((b/a)q)^(n+1) (a/b;q)_(n+1) / (b;q)_(n+1),
      beta_n  = -(a/b)^(n+1) (b/q;q)_(n+1) / ((a/b)q;q)_(n+1),
      lambda_n = -q^n / b,
      mu1_n = -q (b - a q^n) / (a (1 - b q^n)),
      mu2_n = -b q (1 - q^n)(1 - a q^(n-1)) / (a (1 - b q^n)(1 - b q^(n-1))),
    with mu2_0 = 0 (the 1 - q^n factor), the raise factor q^-n (1 - b q^n),
    and h_n as in :func:`_norm_constants`. alpha, beta and h are read off
    running q-Pochhammer products, built once and shared by the three
    columns, so the table costs O(n_max) products rather than O(n_max) per
    degree. The lists are filled alpha first, then
    beta, then h, so a resonant triple raises the first vanishing
    denominator in that order. The columns after h divide only by b, a and
    factors 1 - b q^n of (b;q)_(n_max+1), which alpha has already divided
    by, so they raise nothing.
    """
    _check_degree(n_max)
    q, a, b = params.q, params.a, params.b
    count = n_max + 1
    b_poch = _pochhammer_prefixes(b, q, count)
    ab_poch = _pochhammer_prefixes(a / b, q, count)
    abq_poch = _pochhammer_prefixes((a / b) * q, q, count)
    alpha = [
        -(((b / a) * q) ** (n + 1))
        * ab_poch[n + 1]
        / _divisor(b_poch[n + 1], f"(b;q)_{n + 1} vanishes")
        for n in range(count)
    ]
    b_over_q_poch = _pochhammer_prefixes(b / q, q, count)
    beta = [
        -((a / b) ** (n + 1))
        * b_over_q_poch[n + 1]
        / _divisor(abq_poch[n + 1], f"((a/b)*q;q)_{n + 1} vanishes")
        for n in range(count)
    ]
    h = _norm_constants(n_max, params, abq_poch, b_poch)
    powers = [q**n for n in range(count)]
    b_factors = [1 - b * power for power in powers]
    mu2 = [Fraction(0)] + [
        -b * q * (1 - powers[n]) * (1 - a * powers[n - 1])
        / (a * b_factors[n] * b_factors[n - 1])
        for n in range(1, count)
    ]
    return BaxterData(
        alpha=alpha,
        beta=beta,
        h=h,
        lam=[-power / b for power in powers],
        mu1=[-q * (b - a * power) / (a * factor) for power, factor in zip(powers, b_factors)],
        mu2=mu2,
        raise_factor=[factor / power for power, factor in zip(powers, b_factors)],
    )


def baxter_step(
    n: int, p_poly: LaurentPoly, q_poly: LaurentPoly, alpha_n: Fraction, beta_n: Fraction
) -> tuple[LaurentPoly, LaurentPoly]:
    """One step (P_n, Q_n) -> (P_(n+1), Q_(n+1)) of the coupled recurrences."""
    reversed_q = q_poly.invert_variable() * x(n)
    reversed_p = p_poly.invert_variable() * x(n)
    return x() * p_poly - alpha_n * reversed_q, x() * q_poly - beta_n * reversed_p


def baxter_system(n_max: int, params: QParams) -> BaxterData:
    """Build both families from the coupled two-term recurrences.

    Starting from P_0 = Q_0 = 1, iterates
      P_(n+1)(x) = x P_n(x) - alpha_n x^n Q_n(1/x),
      Q_(n+1)(x) = x Q_n(x) - beta_n x^n P_n(1/x),
    with the closed-form alpha_n, beta_n. This route never references the
    eigenvalue-problem construction, so agreement of its P_n with
    :func:`pastro_poly` (and of its Q_n(1/x) with the closed-form partner)
    is a genuine cross-method consistency statement.
    """
    data = baxter_coefficients(n_max, params)
    p_polys = [LaurentPoly.one()]
    q_polys = [LaurentPoly.one()]
    for n in range(n_max):
        p_next, q_next = baxter_step(n, p_polys[n], q_polys[n], data.alpha[n], data.beta[n])
        p_polys.append(p_next)
        q_polys.append(q_next)
    data.p_polys = p_polys
    data.q_polys = q_polys
    return data


def biorthogonal_partner(n: int, params: QParams) -> LaurentPoly:
    """The partner R_n, a Laurent polynomial supported on exponents [-n, 0].

    R_n = [(q^-n;q)_n (b/q;q)_n / (((b/a)q^-n;q)_n (q;q)_n)]
          * 2phi1(q^-n, (a/b)q; q^(2-n)/b; q, q^2/(a x)).

    The prefactor is a product of n factor pairs and the series is built
    from its term ratios times q^2/a, all on integers. The factors of
    ((b/a)q^-n;q)_n are checked first, then the series factor
    (1 - lower*q^k) at each k, lower = q^(2-n)/b.
    """
    _check_degree(n)
    q, a, b = params.q, params.a, params.b
    q_pair, one, b_over_a, b_over_q = _pair(q), (1, 1), _pair(b / a), _pair(b / q)
    shifted = [_one_minus(b_over_a, q_pair, j - n) for j in range(n)]
    if any(num == 0 for num, _ in shifted):
        raise ResonantParameterError(
            f"((b/a)*q^{-n};q)_{n} vanishes: partner of degree {n} degenerates"
        )
    prefactor_num = prefactor_den = 1
    for j, (shifted_num, shifted_den) in enumerate(shifted):
        down_num, down_den = _one_minus(one, q_pair, j - n)
        b_num, b_den = _one_minus(b_over_q, q_pair, j)
        up_num, up_den = _one_minus(one, q_pair, j + 1)
        prefactor_num *= down_num * b_num * shifted_den * up_den
        prefactor_den *= down_den * b_den * shifted_num * up_num

    inverse_b, a_over_b = (b.denominator, b.numerator), _pair(a / b)
    arg_num, arg_den = q.numerator**2 * a.denominator, q.denominator**2 * a.numerator
    ratios = []
    for k in range(n):
        lower_num, lower_den = _one_minus(inverse_b, q_pair, k + 2 - n)
        if lower_num == 0:
            raise ResonantParameterError(
                f"series denominator factor (1 - lower*q^{k}) vanishes "
                f"(lower = {format_rational(q ** (2 - n) / b)}, q = {format_rational(q)})"
            )
        down_num, down_den = _one_minus(one, q_pair, k - n)
        upper_num, upper_den = _one_minus(a_over_b, q_pair, k + 1)
        up_num, up_den = _one_minus(one, q_pair, k + 1)
        ratios.append(
            (
                down_num * upper_num * lower_den * up_den * arg_num,
                down_den * upper_den * lower_num * up_num * arg_den,
            )
        )
    return _ratio_poly(0, (prefactor_num, prefactor_den), ratios)


def grid_weights(N: int, b: Scalar, q: Scalar) -> list[Fraction]:
    """The weights of the grid x_s = q^(s+1), s = 0..N-1, as a list:

      w_s = [(q^(1-N);q)_s / (q;q)_s] (b q^(N-1))^s / (b;q)_(N-1).

    The weights are built by exact ratio iteration; their sum is checked to
    be exactly 1 and every weight is checked nonzero, since a vanishing
    weight would degenerate the bilinear form.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"grid size must be a positive integer, got {N!r}")
    q, b = Fraction(q), Fraction(b)
    if q in (0, 1, -1):
        raise ResonantParameterError(
            f"q must lie outside {{0, 1, -1}}, got {format_rational(q)}"
        )
    if b == 0:
        raise ResonantParameterError("b must be nonzero")
    normalizer = q_pochhammer(b, q, N - 1)
    if normalizer == 0:
        raise ResonantParameterError(f"(b;q)_{N - 1} vanishes")

    weights = [Fraction(1) / normalizer]
    for s in range(N - 1):
        ratio = (1 - q ** (1 - N + s)) / (1 - q ** (s + 1)) * b * q ** (N - 1)
        weights.append(weights[-1] * ratio)
    for s, weight in enumerate(weights):
        if weight == 0:
            raise ResonantParameterError(f"weight w_{s} vanishes")
    total = sum(weights, Fraction(0))
    if total != 1:
        raise ArithmeticError(
            f"weight normalization failed: sum = {format_rational(total)}"
        )
    return weights


def verify_baxter_consistency(
    n_max: int, params: QParams, data: BaxterData, records: Iterable
) -> list[Check]:
    """Cross-check the coupled-recurrence route against every closed form.

    Covers: the alpha/beta recurrences against the three-term recurrence
    coefficients, the product formula for h_n, agreement of the iterated
    P_n with the eigenvalue-route P_n, agreement of Q_n(1/x) with the
    closed-form partner R_n, and both coupled recurrences restated with the
    eigenvalue-route polynomials substituted in.

    ``data`` is the scalar table of ``params`` for n <= n_max.
    ``records`` yields one record per degree n = 0..n_max, in order, with
    the eigenvalue-route P_n and P_(n+1) (``p``, ``p_next``) and the
    coupled pair P~_n, Q_n (``p_coupled``, ``q_coupled``), as
    :func:`pastroq.qdiff.degree_records` builds them. Every record is
    consumed; the four polynomial checks are evaluated as the records
    stream past, and each keeps the witness of the first n that fails.
    """
    _check_degree(n_max)
    context = params.describe() | {"n_max": str(n_max)}

    alpha_witness = None
    for n in range(1, n_max + 1):
        expected = -data.alpha[n - 1] * data.mu1[n]
        if data.alpha[n] != expected:
            alpha_witness = (
                f"n={n}: alpha_n {format_rational(data.alpha[n])}, "
                f"-alpha_(n-1)*mu1_n {format_rational(expected)}"
            )
            break

    beta_witness = None
    for n in range(n_max):
        alpha_next = data.alpha[n + 1]
        if alpha_next == 0:
            beta_witness = f"n={n}: alpha_(n+1) = 0, ratio undefined"
            break
        expected = (data.mu2[n + 1] - data.mu1[n + 1]) / alpha_next
        if data.beta[n] != expected:
            beta_witness = (
                f"n={n}: beta_n {format_rational(data.beta[n])}, "
                f"(mu2_(n+1) - mu1_(n+1))/alpha_(n+1) {format_rational(expected)}"
            )
            break

    norm_witness = None
    product = Fraction(1)
    for n in range(n_max + 1):
        if data.h[n] != product:
            norm_witness = (
                f"n={n}: h_n {format_rational(data.h[n])}, "
                f"prod {format_rational(product)}"
            )
            break
        product *= 1 - data.alpha[n] * data.beta[n]

    pastro_witness = partner_witness = p_witness = q_witness = None
    previous = None  # (P_(n-1), Q_(n-1)), for the Q recurrence at n - 1
    for record in records:
        n = record.n
        reversed_q = record.q_coupled.invert_variable()
        if pastro_witness is None:
            mismatch = poly_mismatch_witness(record.p_coupled, record.p)
            if mismatch:
                pastro_witness = f"n={n}: {mismatch}"
        if partner_witness is None:
            mismatch = poly_mismatch_witness(reversed_q, biorthogonal_partner(n, params))
            if mismatch:
                partner_witness = f"n={n}: {mismatch}"
        if p_witness is None and n < n_max:
            residual = record.p_next - x() * record.p + data.alpha[n] * (reversed_q * x(n))
            if residual:
                p_witness = f"n={n}: residual {residual}"
        if q_witness is None and previous is not None:
            p_prev, q_prev = previous
            residual = (
                record.q_coupled
                - x() * q_prev
                + data.beta[n - 1] * (p_prev.invert_variable() * x(n - 1))
            )
            if residual:
                q_witness = f"n={n - 1}: residual {residual}"
        previous = record.p, record.q_coupled

    return [
        equality_check(
            "baxter-alpha-recurrence", "alpha_n = -alpha_(n-1) mu1_n", context, alpha_witness
        ),
        equality_check(
            "baxter-beta-recurrence",
            "beta_n = (mu2_(n+1) - mu1_(n+1)) / alpha_(n+1)",
            context,
            beta_witness,
        ),
        equality_check(
            "baxter-norm-product", "h_n = prod_(k<n) (1 - alpha_k beta_k)", context, norm_witness
        ),
        equality_check(
            "baxter-pastro-match",
            "P_n from the coupled recurrences = P_n from the eigenvalue route",
            context,
            pastro_witness,
        ),
        equality_check("baxter-partner-match", "Q_n(1/x) = R_n(x)", context, partner_witness),
        equality_check(
            "baxter-recurrence-P",
            "P_(n+1) = x P_n - alpha_n x^n Q_n(1/x)",
            context,
            p_witness,
        ),
        equality_check(
            "baxter-recurrence-Q",
            "Q_(n+1) = x Q_n - beta_n x^n P_n(1/x)",
            context,
            q_witness,
        ),
    ]
