"""The Pastro polynomial family, its partners, and its recurrence data.

Everything in this module is a function of the parameter triple
(q, a, b). The polynomials P_n are monic of degree n, the solutions of an
exact two-term coefficient recurrence; their biorthogonal partners R_n are
Laurent polynomials supported on exponents [-n, 0], a terminating series
times a prefactor. In both, each coefficient is a Gaussian binomial
[n, k]_q times factors 1 - c q^m, written as int units over monomials of
q = p/r, and each family is stepped on integers from degree to degree by
the q-Pascal rule of its Gaussian binomials: one int kernel,
:func:`_pascal_step`, builds member n+1 from member n. The per-degree
scalar table of a point and the grid weights read the unit table of
:mod:`pastroq.qcore`, as int products, one Fraction per entry. The
Baxter-style coupled recurrence, stepped by one generator, reconstructs
both families from scratch as an independent route. The terminating series
forms of P_n and R_n are not built here: the test suite keeps them, in
Fractions, as the reference routes of its differential tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count
from math import gcd, prod
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple

from .qcore import (
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    _exact,
    _make,
    _point_units,
    _powers,
    _Units,
    format_rational,
)
from .report import Check, equality_check, first_mismatch, poly_mismatch_witness

__all__ = [
    "pastro_poly",
    "pastro_family",
    "partner_family",
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


def _pascal_step(
    nums: list[int], heads: list[int], tails: list[int], p_pow: list[int], r_pow: list[int]
) -> list[int]:
    """The numerators of member n+1 of a family from those of member n.

    With the Gaussian binomial made homogeneous, G_i = r^(i(n-i)) [n, i]_q
    for q = p/r, the q-Pascal rule [n+1, i]_q = [n, i-1]_q + q^i [n, i]_q
    (Gasper and Rahman, *Basic Hypergeometric Series*, ch. 1) reads
    G'_i = r^(n+1-i) G_(i-1) + p^i G_i. A member whose coefficients are
    c_i = G_i h_0 ... h_(i-1) t_0 ... t_(n-1-i), over the int units
    ``heads`` h_k and ``tails`` t_m, therefore steps as
      N'_i = r^(n+1-i) h_(i-1) N_(i-1) + p^i t_(n-i) N_i, N_(-1) = N_(n+1) = 0.
    The step is linear, so ``nums`` may be member n's numerators times any
    constant. The unit lists and the powers p^i, r^i reach at least index n.
    """
    n = len(nums) - 1
    out = [p_i * tail * num for p_i, tail, num in zip(p_pow, tails[n::-1], nums)]
    out.append(0)
    lifted = [r_j * head * num for r_j, head, num in zip(r_pow[n::-1], heads, nums)]
    out[1:] = map(add, out[1:], lifted)
    return out


def _member(nums: list[int], monic: bool) -> LaurentPoly:
    """Member n of a family, in normal form, from its numerators: P_n
    (``monic``) normalized at x^n, or R_n, supported on [-n, 0], at x^-n."""
    n = len(nums) - 1
    low, one = (0, n) if monic else (-n, 0)
    if nums[one] < 0:
        nums = [-c for c in nums]
    return _make(low, nums, nums[one], nums[one])


#: A family's unit coefficients at a point: (h_r, h_p, t_r, t_p, shift),
#: for heads h_k = h_r r^k - h_p p^k and tails
#: t_m = t_r r^(m+shift) - t_p p^(m+shift), q = p/r.
_Coefficients = tuple[int, int, int, int, int]


def _coefficients(params: QParams, monic: bool) -> _Coefficients:
    """The unit coefficients of P_n (``monic``) or of R_n at ``params``."""
    return _pastro_coefficients(params) if monic else _partner_coefficients(params)


def _units(
    params: QParams,
    monic: bool,
    coefficients: _Coefficients,
    p_pow: list[int],
    r_pow: list[int],
    n: int,
) -> tuple[list[int], list[int]]:
    """The heads and tails h_k, t_m, k, m < n, that member n is built from
    (the powers reach index n), or the ResonantParameterError of the first
    that vanishes, in the order in which member n's closed form checks them."""
    h_r, h_p, t_r, t_p, shift = coefficients
    heads = [h_r * r_k - h_p * p_k for p_k, r_k in zip(p_pow[:n], r_pow)]
    tails = [t_r * r_m - t_p * p_m for p_m, r_m in zip(p_pow[shift : n + shift], r_pow[shift:])]
    if not (all(heads) and all(tails)):
        (_pastro_vanishing if monic else _partner_vanishing)(params, n, heads, tails)
    return heads, tails


def _pastro_coefficients(params: QParams) -> _Coefficients:
    """The unit coefficients of P_n at ``params``.

    With q = p/r, b = b_num/b_den and b/a = s_num/s_den, the descending
    recurrence (1 - q^(k-n)) (1 - b q^k) C_k
    = (1 - (b/a) q^(k+1-n)) (1 - q^(k+1)) C_(k+1), C_n = 1, multiplies out to
      C_k = (-1)^(n-k) q^((n-k)(n-k+1)/2) [n, k]_q
            * prod_{j=k}^{n-1} (1 - (b/a) q^(j+1-n)) / (1 - b q^j)
          = (-p b_den / (s_den r))^(n-k) G_k prod_{j=k}^{n-1} U_(n-1-j) / V_j,
    over V_k = b_den r^k - b_num p^k and U_m = s_den p^m - s_num r^m. Over
    the common denominator prod_k V_k, the numerator of C_k is
    G_k h_0 ... h_(k-1) t_0 ... t_(n-1-k), with heads h_k = scale V_k and
    tails t_m = monomial U_m, monomial/scale = -p b_den / (s_den r)
    reduced.
    """
    p, r = params.q.as_integer_ratio()
    b_num, b_den = params.b.as_integer_ratio()
    s_num, s_den = (params.b / params.a).as_integer_ratio()
    common = gcd(p * b_den, s_den * r)
    monomial, scale = -p * b_den // common, s_den * r // common
    return scale * b_den, scale * b_num, -monomial * s_num, -monomial * s_den, 0


def _pastro_vanishing(params: QParams, n: int, heads: list[int], tails: list[int]) -> None:
    """For k = n-1 down to 0, P_n's closed form checks the shift factor
    t_(n-1-k) and then the b factor h_k."""
    for m, k in enumerate(range(n - 1, -1, -1)):
        if not tails[m]:
            raise ResonantParameterError(
                f"factor (1 - (b/a)*q^{-m}) vanishes: monic family of degree {n} degenerates"
            )
        if not heads[k]:
            raise ResonantParameterError(f"factor (1 - b*q^{k}) vanishes")


def _partner_coefficients(params: QParams) -> _Coefficients:
    """The unit coefficients of R_n at ``params``.

    R_n = [(q^-n;q)_n (b/q;q)_n / (((b/a)q^-n;q)_n (q;q)_n)]
          * 2phi1(q^-n, (a/b)q; q^(2-n)/b; q, q^2/(a x)).
    The prefactor's (b/q;q)_n cancels the series' lower factors, and
    ((b/a)q^-n;q)_n is a monomial times ((a/b)q;q)_n; every monomial then
    cancels but one, and the coefficient of x^-k is
      (a/b)^(n-k) [n, k]_q ((a/b)q;q)_k (b/q;q)_(n-k) / ((a/b)q;q)_n
      = (t_num r / c_den)^(n-k) G_k prod_{j<n-k} W_j / prod_{k<i<=n} A_i,
    with q = p/r, a/b = t_num/t_den, b/q = c_num/c_den and the int units
    A_i = t_den r^i - t_num p^i and W_j = c_den r^j - c_num p^j. Over the
    common denominator prod_i A_i, the numerator of the coefficient of
    x^(i-n) is G_i h_0 ... h_(i-1) t_0 ... t_(n-1-i), with heads
    h_j = monomial W_j and tails t_m = scale A_(m+1),
    monomial/scale = t_num r / c_den reduced.
    """
    p, r = params.q.as_integer_ratio()
    t_num, t_den = (params.a / params.b).as_integer_ratio()
    c_num, c_den = (params.b / params.q).as_integer_ratio()
    common = gcd(t_num * r, c_den)
    monomial, scale = t_num * r // common, c_den // common
    return monomial * c_den, monomial * c_num, scale * t_den, scale * t_num, 1


def _partner_vanishing(params: QParams, n: int, heads: list[int], tails: list[int]) -> None:
    """R_n's closed form checks the factors of ((b/a)q^-n;q)_n, each zero
    exactly when a unit A_i is, first; then the series factors
    (1 - lower*q^k), k = 0..n-1, lower = q^(2-n)/b, each zero with
    W_(n-1-k)."""
    if not all(tails):
        raise ResonantParameterError(
            f"((b/a)*q^{-n};q)_{n} vanishes: partner of degree {n} degenerates"
        )
    q = params.q
    j = next(j for j in range(n - 1, -1, -1) if not heads[j])
    raise ResonantParameterError(
        f"series denominator factor (1 - lower*q^{n - 1 - j}) vanishes "
        f"(lower = {format_rational(q ** (2 - n) / params.b)}, q = {format_rational(q)})"
    )


def _member_n(n: int, params: QParams, monic: bool, previous: LaurentPoly | None) -> LaurentPoly:
    """Member n of the family P (``monic``) or R: one :func:`_pascal_step`
    from ``previous``, member n-1's normal form, and one content gcd; or,
    without it, n steps from 1 with no gcd between them.

    The units and powers of degree n are built here, so a family that
    steps through this holds only its last member. Every unit of degree n
    is read in its closed form's order before any step, so member n
    raises the error of its own closed form either way (after member n-1,
    the first vanishing unit is one of its two new ones).
    """
    _check_degree(n)
    if previous is not None and (n == 0 or len(previous._nums) != n):
        raise ValueError(f"previous must be the member of degree {n - 1}")
    p, r = params.q.as_integer_ratio()
    p_pow, r_pow = _powers(p, n), _powers(r, n)
    heads, tails = _units(params, monic, _coefficients(params, monic), p_pow, r_pow, n)
    if previous is not None:
        return _member(_pascal_step(previous._nums, heads, tails, p_pow, r_pow), monic)
    nums = [1]
    for _ in range(n):
        nums = _pascal_step(nums, heads, tails, p_pow, r_pow)
    return _member(nums, monic)


def pastro_poly(n: int, params: QParams, *, previous: LaurentPoly | None = None) -> LaurentPoly:
    """The monic polynomial P_n(x; a, b) of degree n (see
    :func:`_pastro_coefficients`), stepped from ``previous`` = P_(n-1)
    at the same ``params`` when given."""
    return _member_n(n, params, True, previous)


def biorthogonal_partner(
    n: int, params: QParams, *, previous: LaurentPoly | None = None
) -> LaurentPoly:
    """The partner R_n, a Laurent polynomial supported on exponents [-n, 0]
    (see :func:`_partner_coefficients`), stepped from ``previous`` =
    R_(n-1) at the same ``params`` when given."""
    return _member_n(n, params, False, previous)


def pastro_family(params: QParams) -> Iterator[LaurentPoly]:
    """The monic polynomials P_0, P_1, P_2, ... of ``params``, each one
    :func:`pastro_poly` step from the one before."""
    member = pastro_poly(0, params)
    yield member
    for n in count(1):
        member = pastro_poly(n, params, previous=member)
        yield member


def partner_family(params: QParams) -> Iterator[LaurentPoly]:
    """The partners R_0, R_1, R_2, ... of ``params``, each one
    :func:`biorthogonal_partner` step from the one before."""
    member = biorthogonal_partner(0, params)
    yield member
    for n in count(1):
        member = biorthogonal_partner(n, params, previous=member)
        yield member


class BaxterData(NamedTuple):
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
    route never references the eigenvalue problem or the q-Pascal step, so
    agreement of its P~_n with :func:`pastro_family` (and of its Q_n(1/x)
    with :func:`partner_family`) is a genuine cross-method consistency
    statement.
    """
    p_polys, q_polys = zip(*_coupled_pairs(data))
    return list(p_polys), list(q_polys)


def grid_weights(N: int, b: Scalar, q: Scalar) -> list[Fraction]:
    """The weights of the grid x_s = q^(s+1), s = 0..N-1, as a list:

      w_s = [(q^(1-N);q)_s / (q;q)_s] (b q^(N-1))^s / (b;q)_(N-1).

    On the units of :func:`pastroq.qcore._point_units` at a = q^(1-N)
    (q = p/r), w_0 = prod_(j<N-1) b_den r^j / b[j] and
      w_s / w_0 = (r b_num p^(N-1) / (a_den b_den r^(N-1)))^s prod_(j<s) a[j] / one[j+1]
    are int products, one Fraction per weight. None vanishes once the
    normalizer does not: b, p and r are nonzero, and a[j] (j <= N-2) and
    one[j+1] are the units of q^(j+1-N) and q^(j+1), while a rational q
    outside {0, 1, -1} has q^m = 1 only at m = 0. Their sum is left to the
    report's ``weights-normalized`` check.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"grid size must be a positive integer, got {N!r}")
    q, b = _exact(q), _exact(b)
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
    return [first] + [first * ratio for ratio in ratios]


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
    stepped partner R_n, and both coupled recurrences restated with the
    eigenvalue-route polynomials substituted in.

    ``data`` is the scalar table of ``params`` for n <= n_max.
    ``records`` yields one record per degree n = 0..n_max, in order, with
    the eigenvalue-route P_(n-1), P_n and P_(n+1) (``p_prev``, ``p``,
    ``p_next``), as :func:`pastroq.qdiff.degree_records` builds them; one
    pair P~_n, Q_n of :func:`_coupled_pairs` and one partner R_n of
    :func:`partner_family` are stepped beside each, after it, and only
    Q_(n-1) and the family's R_(n-1) outlive their degree. The partner
    family stops at the first mismatch. The four polynomial checks are
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
    del products  # its last product is not held through the degree loop

    pastro_witness = partner_witness = p_witness = q_witness = None
    coupled = _coupled_pairs(data)
    partners = partner_family(params)
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
            mismatch = poly_mismatch_witness(reversed_q, next(partners))
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
        # not held while the next record is built and checked
        del record, p_coupled, reversed_q

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
