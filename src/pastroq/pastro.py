"""The Pastro polynomial family, its partners, and its recurrence data.

Everything in this module is a function of the parameter triple
(q, a, b). The polynomials P_n are monic of degree n, the solutions of an
exact two-term coefficient recurrence; their biorthogonal partners R_n are
Laurent polynomials supported on exponents [-n, 0], a terminating series
times a prefactor. Both are built on integers from closed products: each
coefficient is a Gaussian binomial [n, k]_q, made by exact int division,
times factors 1 - c q^m written as int units over monomials of q = p/r.
The per-degree scalar table of a point and the grid weights read the unit
table of :mod:`pastroq.qcore`, as int products, one Fraction per entry. The
Baxter-style coupled recurrence, stepped by one generator, reconstructs
both families from scratch as an independent route. The terminating series
forms of P_n and R_n are not built here: the test suite keeps them, in
Fractions, as the reference routes of its differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from operator import mul
from typing import Iterable, Iterator

from .qcore import (
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    _make,
    _point_units,
    _powers,
    _Units,
    format_rational,
)
from .report import Check, equality_check, first_mismatch, poly_mismatch_witness

__all__ = [
    "pastro_poly",
    "BaxterData",
    "baxter_coefficients",
    "baxter_system",
    "verify_baxter_consistency",
    "biorthogonal_partner",
    "grid_weights",
]


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")


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


def pastro_poly(n: int, params: QParams) -> LaurentPoly:
    """The monic polynomial P_n(x; a, b) of degree n, as a closed product.

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


@dataclass
class BaxterData:
    """The per-degree scalars of one parameter point, n = 0..n_max.

    The coupled-recurrence coefficients alpha_n, beta_n and the norms h_n;
    the eigenvalue lambda_n = -q^n/b; the three-term recurrence
    coefficients mu1_n, mu2_n; and the degree-raising factor
    q^-n (1 - b q^n) of X and Z. Each column is read off its own closed
    form, written on the int units of :func:`_point_units`, never off
    another column, so the checks that compare columns compare independent
    routes. :func:`_coupled_pairs` steps the coupled families from it.
    """

    alpha: list[Fraction]
    beta: list[Fraction]
    h: list[Fraction]
    lam: list[Fraction]
    mu1: list[Fraction]
    mu2: list[Fraction]
    raise_factor: list[Fraction]


def _prefix_ratios(
    sign: int, scale_num: int, scale_den: int, nums: list[int], dens: list[int], vanishing: str
) -> list[Fraction]:
    """sign (scale_num/scale_den)^m prod_(j<m) nums[j] / prod_(j<m) dens[j], m = 1..len(nums).

    The prefix products run on ints, and each entry is one Fraction (one
    gcd). Raises ``vanishing.format(m)`` at the first m whose denominator
    vanishes.
    """
    common = gcd(scale_num, scale_den)
    scale_num, scale_den = scale_num // common, scale_den // common
    num = den = 1
    ratios = []
    for m, (unit_num, unit_den) in enumerate(zip(nums, dens), 1):
        if not unit_den:
            raise ResonantParameterError(vanishing.format(m))
        num *= scale_num * unit_num
        den *= scale_den * unit_den
        ratios.append(Fraction(sign * num, den))
    return ratios


def _norm_constants(n_max: int, params: QParams, units: _Units | None = None) -> list[Fraction]:
    """h_n = (a;q)_n (q;q)_n / (((a/b)q;q)_n (b;q)_n) for n <= n_max.

    On the units of :func:`_point_units` (a/b = t_num/t_den), that is
      h_n = (t_den b_den / a_den)^n prod_(j<n) a[j] one[j+1] / (ab[j+1] b[j]);
    raises at the first n whose denominator vanishes. A caller that already
    holds the units of ``params``, up to n_max or further, passes them in.
    """
    if units is None:
        units = _point_units(params, n_max)
    a_den, b_den = params.a.denominator, params.b.denominator
    t_den = (params.a / params.b).denominator
    return [Fraction(1)] + _prefix_ratios(
        1,
        t_den * b_den,
        a_den,
        [units.a[j] * units.one[j + 1] for j in range(n_max)],
        [units.ab[j + 1] * units.b[j] for j in range(n_max)],
        "((a/b)*q;q)_{0} * (b;q)_{0} vanishes",
    )


def baxter_coefficients(n_max: int, params: QParams, h: list | None = None) -> BaxterData:
    """The scalar table of ``params`` for n <= n_max.

      alpha_n = -((b/a)q)^(n+1) (a/b;q)_(n+1) / (b;q)_(n+1),
      beta_n  = -(a/b)^(n+1) (b/q;q)_(n+1) / ((a/b)q;q)_(n+1),
      lambda_n = -q^n / b,
      mu1_n = -q (b - a q^n) / (a (1 - b q^n)),
      mu2_n = -b q (1 - q^n)(1 - a q^(n-1)) / (a (1 - b q^n)(1 - b q^(n-1))),
    with mu2_0 = 0 (the 1 - q^n factor), the raise factor q^-n (1 - b q^n),
    and h_n as in :func:`_norm_constants`. Every factor 1 - z q^j is an int
    unit of :func:`_point_units`, built once off one power table of p and r
    (q = p/r), so with a/b = t_num/t_den and b/q = c_num/c_den
      alpha_n = -(p b_den / (t_num r))^(n+1) prod_(j<=n) ab[j] / b[j],
      beta_n  = -(t_num r / c_den)^(n+1) prod_(j<=n) bq[j] / ab[j+1]
    are int prefix products, and every entry is one Fraction. The lists are
    filled alpha first, then beta, then h, so a resonant triple raises the
    first vanishing denominator in that order. The columns after h divide
    only by b, a and units b[n], n <= n_max, which alpha has already
    divided by, so they raise nothing. A caller that holds h_0..h_n_max
    passes ``h``.
    """
    _check_degree(n_max)
    count = n_max + 1
    units = _point_units(params, count)
    p, r = params.q.as_integer_ratio()
    a_num, a_den = params.a.as_integer_ratio()
    b_num, b_den = params.b.as_integer_ratio()
    t_num = (params.a / params.b).numerator
    c_den = (params.b / params.q).denominator
    alpha = _prefix_ratios(
        -1, p * b_den, t_num * r, units.ab[:count], units.b[:count], "(b;q)_{0} vanishes"
    )
    beta = _prefix_ratios(
        -1, t_num * r, c_den, units.bq[:count], units.ab[1:], "((a/b)*q;q)_{0} vanishes"
    )
    h = _norm_constants(n_max, params, units) if h is None else h[:count]
    p_pow, r_pow, b_units = units.p_pow, units.r_pow, units.b
    mu2 = [Fraction(0)] + [
        Fraction(
            -b_num * b_den * p * units.one[n] * units.a[n - 1],
            a_num * r * b_units[n] * b_units[n - 1],
        )
        for n in range(1, count)
    ]
    return BaxterData(
        alpha=alpha,
        beta=beta,
        h=h,
        lam=[Fraction(-b_den * p_pow[n], b_num * r_pow[n]) for n in range(count)],
        mu1=[
            Fraction(
                -p * (b_num * a_den * r_pow[n] - a_num * b_den * p_pow[n]),
                a_num * r * b_units[n],
            )
            for n in range(count)
        ],
        mu2=mu2,
        raise_factor=[Fraction(b_units[n], b_den * p_pow[n]) for n in range(count)],
    )


def _coupled_pairs(data: BaxterData) -> Iterator[tuple[LaurentPoly, LaurentPoly]]:
    """(P~_n, Q_n) for n = 0..n_max, from P~_0 = Q_0 = 1 and the coupled recurrences

      P~_(n+1)(x) = x P~_n(x) - alpha_n x^n Q_n(1/x),
      Q_(n+1)(x) = x Q_n(x) - beta_n x^n P~_n(1/x),
    with the alpha_n, beta_n of ``data``. A pair is stepped only when it is
    asked for, so draining the generator takes exactly n_max steps.
    """
    p_poly = q_poly = LaurentPoly.one()
    yield p_poly, q_poly
    for n in range(len(data.alpha) - 1):
        p_poly, q_poly = (
            p_poly.times_x(1) - q_poly.invert_variable().times_x(n) * data.alpha[n],
            q_poly.times_x(1) - p_poly.invert_variable().times_x(n) * data.beta[n],
        )
        yield p_poly, q_poly


def baxter_system(data: BaxterData) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
    """The pairs of :func:`_coupled_pairs` as lists ``(p_polys, q_polys)``.

    ``data`` is the scalar table of a parameter point for n <= n_max. This
    route never references the eigenvalue problem, so agreement of its P~_n
    with :func:`pastro_poly` (and of its Q_n(1/x) with the closed-form
    partner) is a genuine cross-method consistency statement.
    """
    p_polys, q_polys = zip(*_coupled_pairs(data))
    return list(p_polys), list(q_polys)


def biorthogonal_partner(n: int, params: QParams) -> LaurentPoly:
    """The partner R_n, a Laurent polynomial supported on exponents [-n, 0].

    R_n = [(q^-n;q)_n (b/q;q)_n / (((b/a)q^-n;q)_n (q;q)_n)]
          * 2phi1(q^-n, (a/b)q; q^(2-n)/b; q, q^2/(a x)).

    The prefactor's (b/q;q)_n cancels the series' lower factors, and
    ((b/a)q^-n;q)_n is a monomial times ((a/b)q;q)_n; every monomial then
    cancels but one, and the coefficient of x^-k is
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


def grid_weights(N: int, b: Scalar, q: Scalar) -> list[Fraction]:
    """The weights of the grid x_s = q^(s+1), s = 0..N-1, as a list:

      w_s = [(q^(1-N);q)_s / (q;q)_s] (b q^(N-1))^s / (b;q)_(N-1).

    On the units of :func:`pastroq.qcore._point_units` at a = q^(1-N)
    (q = p/r), w_0 = prod_(j<N-1) b_den r^j / b[j] and
      w_s / w_0 = (r b_num p^(N-1) / (a_den b_den r^(N-1)))^s prod_(j<s) a[j] / one[j+1]
    are int products, one Fraction per weight. Every weight is checked
    nonzero, since a vanishing weight would degenerate the bilinear form;
    their sum is left to the report's ``weights-normalized`` check.
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
    params = QParams(q, q ** (1 - N), b)
    units = _point_units(params, N - 1)
    normalizer = prod(units.b[: N - 1])
    if not normalizer:
        raise ResonantParameterError(f"(b;q)_{N - 1} vanishes")
    b_num, b_den = b.as_integer_ratio()
    first = Fraction(b_den ** (N - 1) * prod(units.r_pow[: N - 1]), normalizer)
    ratios = _prefix_ratios(
        1,
        q.denominator * b_num * units.p_pow[N - 1],
        params.a.denominator * b_den * units.r_pow[N - 1],
        units.a[: N - 1],
        units.one[1:],
        "(q;q)_{0} vanishes",
    )
    weights = [first] + [first * ratio for ratio in ratios]
    for s, weight in enumerate(weights):
        if weight == 0:
            raise ResonantParameterError(f"weight w_{s} vanishes")
    return weights


def verify_baxter_consistency(
    n_max: int,
    params: QParams,
    data: BaxterData,
    records: Iterable,
    context: dict[str, str] | None = None,
) -> list[Check]:
    """Cross-check the coupled-recurrence route against every closed form.

    Covers: the alpha/beta recurrences against the three-term recurrence
    coefficients, the product formula for h_n, agreement of the iterated
    P_n with the eigenvalue-route P_n, agreement of Q_n(1/x) with the
    closed-form partner R_n, and both coupled recurrences restated with the
    eigenvalue-route polynomials substituted in.

    ``data`` is the scalar table of ``params`` for n <= n_max.
    ``records`` yields one record per degree n = 0..n_max, in order, with
    the eigenvalue-route P_(n-1), P_n and P_(n+1) (``p_prev``, ``p``,
    ``p_next``), as :func:`pastroq.qdiff.degree_records` builds them; one
    pair P~_n, Q_n of :func:`_coupled_pairs` is stepped beside each, and
    only Q_(n-1) outlives its degree. The four polynomial checks are
    evaluated as the records stream past, and each keeps the witness of
    the first n that fails.
    The three scalar checks read ``data`` and word their first differing
    degree through :func:`pastroq.report.first_mismatch`. The beta ratio is
    undefined from the first alpha_(n+1) = 0 on, so its scan stops there,
    and that degree is the witness when no earlier one differs. The seven
    checks share one context: ``params.describe()``, n_max and the keys of
    ``context``.
    """
    _check_degree(n_max)
    context = params.describe() | {"n_max": str(n_max)} | (context or {})

    alpha, beta, mu1, mu2 = data.alpha, data.beta, data.mu1, data.mu2
    alpha_witness = first_mismatch(
        "n={}: alpha_n {}, -alpha_(n-1)*mu1_n {}",
        ((n, alpha[n], -alpha[n - 1] * mu1[n]) for n in range(1, n_max + 1)),
    )

    first_zero = next((n for n in range(n_max) if alpha[n + 1] == 0), n_max)
    beta_witness = first_mismatch(
        "n={}: beta_n {}, (mu2_(n+1) - mu1_(n+1))/alpha_(n+1) {}",
        ((n, beta[n], (mu2[n + 1] - mu1[n + 1]) / alpha[n + 1]) for n in range(first_zero)),
    )
    if beta_witness is None and first_zero < n_max:
        beta_witness = f"n={first_zero}: alpha_(n+1) = 0, ratio undefined"

    products = accumulate((1 - a * b for a, b in zip(alpha, beta)), mul, initial=Fraction(1))
    norm_witness = first_mismatch("n={}: h_n {}, prod {}", zip(range(n_max + 1), data.h, products))

    pastro_witness = partner_witness = p_witness = q_witness = None
    coupled = _coupled_pairs(data)
    q_prev = None  # Q_(n-1), for the Q recurrence at n - 1
    for record in records:
        n = record.n
        p_coupled, q_coupled = next(coupled)
        reversed_q = q_coupled.invert_variable()
        if pastro_witness is None:
            mismatch = poly_mismatch_witness(p_coupled, record.p)
            if mismatch:
                pastro_witness = f"n={n}: {mismatch}"
        if partner_witness is None:
            mismatch = poly_mismatch_witness(reversed_q, biorthogonal_partner(n, params))
            if mismatch:
                partner_witness = f"n={n}: {mismatch}"
        if p_witness is None and n < n_max:
            residual = record.p_next - record.p.times_x(1) + reversed_q.times_x(n) * data.alpha[n]
            if residual:
                p_witness = f"n={n}: residual {residual}"
        if q_witness is None and q_prev is not None:
            residual = (
                q_coupled
                - q_prev.times_x(1)
                + record.p_prev.invert_variable().times_x(n - 1) * data.beta[n - 1]
            )
            if residual:
                q_witness = f"n={n - 1}: residual {residual}"
        q_prev = q_coupled
        del record  # not held while the next record is built

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
