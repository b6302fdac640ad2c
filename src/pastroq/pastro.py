"""The Pastro polynomial family, its partners, and its recurrence data.

Everything in this module is a function of the parameter triple
(q, a, b). The polynomials P_n are monic of degree n, the solutions of an
exact two-term coefficient recurrence; their biorthogonal partners R_n are
Laurent polynomials supported on exponents [-n, 0], a terminating series
times a prefactor. In both, each coefficient is a Gaussian binomial
[n, k]_q times factors 1 - c q^m, and each family is stepped on integers
from degree to degree by the q-Pascal rule of its Gaussian binomials: one
int kernel, :func:`_pascal_step`, builds member n+1 from member n. Its
heads and tails are the int unit lists of :mod:`pastroq.qcore` (q = p/r)
times the two reduced terms of the ratio of alpha_n (for P_n) or beta_n
(for R_n). The per-degree scalars of a point come from one generator of
rows, stepped from degree to degree on the same units; the grid weights
and norms are running products of them too. The Baxter-style coupled
recurrence, stepped by one generator, reconstructs both families from
scratch as an independent route. The terminating series forms of P_n
and R_n are not built here: the test suite keeps them, in Fractions, as
the reference routes of its differential tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice, pairwise
from math import gcd, prod
from typing import Iterable, Iterator, NamedTuple

from .qcore import (
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    _exact,
    _make,
    _powers,
    _unit_list,
    _unit_rows,
    format_rational,
)
from .report import Check, equality_check, first_mismatch, poly_mismatch_witness

__all__ = [
    "pastro_poly",
    "pastro_family",
    "partner_family",
    "ScalarRow",
    "scalar_rows",
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
    constant. The unit lists and the powers p^i, r^i reach at least index n,
    and p^0 = r^0 = 1. Each N'_i is built in one pass, so the step holds
    one list of member n+1's size.
    """
    n = len(nums) - 1
    out = [tails[n] * nums[0]]
    out += [
        p_i * tail * num + r_j * head * below
        for p_i, tail, num, r_j, head, below in zip(
            p_pow[1:], tails[n - 1 :: -1], nums[1:], r_pow[n::-1], heads, nums
        )
    ]
    out.append(heads[n] * nums[n])
    return out


def _member(nums: list[int], monic: bool) -> LaurentPoly:
    """Member n of a family, in normal form, from its numerators: P_n
    (``monic``) normalized at x^n, or R_n, supported on [-n, 0], at x^-n.

    The content gcd is bounded by gcd(nums[0], nums[-1]): the content
    divides it, and it divides the denominator nums[one], one end. Both ends
    are products of the same few units as the rest, so the bound is small
    at once, and the running gcd stays small over the middle terms, whose
    gcd with their neighbours alone is thousands of bits long.
    """
    n = len(nums) - 1
    low, one = (0, n) if monic else (-n, 0)
    if nums[one] < 0:
        nums = [-c for c in nums]
    return _make(low, nums, nums[one], gcd(nums[0], nums[-1]))


def _units(
    params: QParams, monic: bool, n: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The heads h_k and tails t_m, k, m < n, that member n of P (``monic``)
    or R is built from, and the powers p^j, r^j, j < n, with q = p/r: the
    last four arguments of the :func:`_pascal_step` to member n. Raises the
    ResonantParameterError of the first unit that vanishes, in the order in
    which member n's closed form checks them.

    Heads and tails are each a :func:`pastroq.qcore._unit_list`, the units
    of 1 - z q^j, times one reduced scale; in the units b[j], ab[j], bq[j]
    of :func:`pastroq.qcore._unit_rows`, with b = b_num/b_den,
    a/b = t_num/t_den and b/q = c_num/c_den, 1 - z q^j = z[j] / (z_den r^j).

    P_n: the descending recurrence (1 - q^(k-n)) (1 - b q^k) C_k
    = (1 - (b/a) q^(k+1-n)) (1 - q^(k+1)) C_(k+1), C_n = 1, multiplies out to
      C_k = (-1)^(n-k) q^((n-k)(n-k+1)/2) [n, k]_q
            * prod_{j=k}^{n-1} (1 - (b/a) q^(j+1-n)) / (1 - b q^j)
          = (p b_den / (t_num r))^(n-k) G_k prod_{m<n-k} ab[m] / prod_{j=k}^{n-1} b[j],
    as 1 - (b/a) q^-m = -ab[m] / (t_num p^m). Over the common denominator
    prod_k b[k], the numerator of C_k is G_k h_0 ... h_(k-1) t_0 ... t_(n-1-k),
    with heads h_k = d b[k] and tails t_m = c ab[m], c/d = p b_den / (t_num r)
    reduced, d > 0: the ratio of alpha_n in :func:`scalar_rows`.

    R_n = [(q^-n;q)_n (b/q;q)_n / (((b/a)q^-n;q)_n (q;q)_n)]
          * 2phi1(q^-n, (a/b)q; q^(2-n)/b; q, q^2/(a x)).
    The prefactor's (b/q;q)_n cancels the series' lower factors, and
    ((b/a)q^-n;q)_n is a monomial times ((a/b)q;q)_n; every monomial then
    cancels but one, and the coefficient of x^-k is
      (a/b)^(n-k) [n, k]_q ((a/b)q;q)_k (b/q;q)_(n-k) / ((a/b)q;q)_n
      = (t_num r / c_den)^(n-k) G_k prod_{j<n-k} bq[j] / prod_{k<i<=n} ab[i].
    Over the common denominator prod_i ab[i], the numerator of the
    coefficient of x^(i-n) is G_i h_0 ... h_(i-1) t_0 ... t_(n-1-i), with
    heads h_j = c' bq[j] and tails t_m = d' ab[m+1], c'/d' = t_num r / c_den
    reduced: the ratio of beta_n. Since
    ab[m+1] = (t_den r) r^m - (t_num p) p^m, the tails read the same powers.
    """
    p, r = params.q.as_integer_ratio()
    t_num, t_den = (params.a / params.b).as_integer_ratio()
    p_pow, r_pow = (_powers(p, n - 1), _powers(r, n - 1)) if n else ([], [])
    if monic:
        b_num, b_den = params.b.as_integer_ratio()
        common = gcd(p * b_den, t_num * r) * (1 if t_num > 0 else -1)
        c, d = p * b_den // common, t_num * r // common
        heads = _unit_list(d * b_num, d * b_den, p_pow, r_pow)
        tails = _unit_list(c * t_num, c * t_den, p_pow, r_pow)
    else:
        c_num, c_den = (params.b / params.q).as_integer_ratio()
        common = gcd(t_num * r, c_den)
        c, d = t_num * r // common, c_den // common
        heads = _unit_list(c * c_num, c * c_den, p_pow, r_pow)
        tails = _unit_list(d * t_num * p, d * t_den * r, p_pow, r_pow)
    if not (all(heads) and all(tails)):
        (_pastro_vanishing if monic else _partner_vanishing)(params, n, heads, tails)
    return heads, tails, p_pow, r_pow


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
    without it, n steps from 1 with no gcd between them. That single-degree
    build is the library's one-degree entry point: it is 1.5-3x faster than
    stepping the family to degree n, which takes a content gcd per member.

    The units and powers of degree n are built here, so a family that
    steps through this holds only its last member. Every unit of degree n
    is read in its closed form's order before any step, so member n
    raises the error of its own closed form either way (after member n-1,
    the first vanishing unit is one of its two new ones).
    """
    _check_degree(n)
    if previous is not None and (n == 0 or len(previous._nums) != n):
        raise ValueError(f"previous must be the member of degree {n - 1}")
    units = _units(params, monic, n)
    if previous is not None:
        return _member(_pascal_step(previous._nums, *units), monic)
    nums = [1]
    for _ in range(n):
        nums = _pascal_step(nums, *units)
    return _member(nums, monic)


def pastro_poly(n: int, params: QParams, *, previous: LaurentPoly | None = None) -> LaurentPoly:
    """The monic polynomial P_n(x; a, b) of degree n (see :func:`_units`),
    stepped from ``previous`` = P_(n-1) at the same ``params`` when given.
    Without it, this is the library's one-degree entry point; a run over
    every degree steps :func:`pastro_family` instead."""
    return _member_n(n, params, True, previous)


def biorthogonal_partner(
    n: int, params: QParams, *, previous: LaurentPoly | None = None
) -> LaurentPoly:
    """The partner R_n, a Laurent polynomial supported on exponents [-n, 0]
    (see :func:`_units`), stepped from ``previous`` = R_(n-1) at the same
    ``params`` when given."""
    return _member_n(n, params, False, previous)


def _family(build, params: QParams) -> Iterator[LaurentPoly]:
    """The members 0, 1, 2, ... of ``build``'s family at ``params``, each
    one ``build`` step from the one before."""
    member = build(0, params)
    yield member
    for n in count(1):
        member = build(n, params, previous=member)
        yield member


def pastro_family(params: QParams) -> Iterator[LaurentPoly]:
    """The monic polynomials P_0, P_1, P_2, ... of ``params``, each one
    :func:`pastro_poly` step from the one before."""
    return _family(pastro_poly, params)


def partner_family(params: QParams) -> Iterator[LaurentPoly]:
    """The partners R_0, R_1, R_2, ... of ``params``, each one
    :func:`biorthogonal_partner` step from the one before."""
    return _family(biorthogonal_partner, params)


class ScalarRow(NamedTuple):
    """The per-degree scalars of one parameter point at one degree n.

    The coupled-recurrence coefficients alpha_n, beta_n and the norm h_n;
    the eigenvalue lambda_n = -q^n/b; the three-term recurrence
    coefficients mu1_n, mu2_n; the degree-raising factor q^-n (1 - b q^n)
    of X and Z; the coefficient q (1 - (b/a) q^-n) of P_n in X P_n
    (``x_action``) and b q (1 - q^-n)(1 - a q^(n-1)) / (a (1 - b q^(n-1)))
    of P_(n-1) in Z P_n (``z_action``); and the factor -(1/b)(1 - b q^n) of
    Y in the contiguity relation (``y_raise``). :func:`scalar_rows` yields
    one row per degree, and each entry is read off its own closed form,
    written on the int units of :func:`pastroq.qcore._unit_rows`, never off
    another entry, so the checks that compare entries compare independent
    routes.
    """

    alpha: Fraction
    beta: Fraction
    h: Fraction
    lam: Fraction
    mu1: Fraction
    mu2: Fraction
    raise_factor: Fraction
    x_action: Fraction
    z_action: Fraction
    y_raise: Fraction


def _norm_constants(n_max: int, params: QParams) -> list[Fraction]:
    """h_n = (a;q)_n (q;q)_n / (((a/b)q;q)_n (b;q)_n) for n <= n_max, as a list.

    On the units of :func:`pastroq.qcore._unit_rows` (a/b = t_num/t_den),
    each h_n is h_(n-1) times one ratio of units,
      h_n = h_(n-1) t_den b_den a[n-1] one[n] / (a_den ab[n] b[n-1]),
    as :func:`scalar_rows` steps it; raises at the first n whose
    denominator vanishes, before its step.
    """
    scale_num = (params.a / params.b).denominator * params.b.denominator
    a_den = params.a.denominator
    h = [Fraction(1)]
    for n, (now, after) in zip(range(1, n_max + 1), pairwise(_unit_rows(params))):
        if not (after.ab and now.b):
            raise ResonantParameterError(f"((a/b)*q;q)_{n} * (b;q)_{n} vanishes")
        h.append(h[-1] * Fraction(scale_num * now.a * after.one, a_den * after.ab * now.b))
    return h


def scalar_rows(n_max: int, params: QParams) -> Iterator[ScalarRow]:
    """The :class:`ScalarRow` of ``params`` at n = 0..n_max, one at a time.

      alpha_n = -((b/a)q)^(n+1) (a/b;q)_(n+1) / (b;q)_(n+1),
      beta_n  = -(a/b)^(n+1) (b/q;q)_(n+1) / ((a/b)q;q)_(n+1),
      lambda_n = -q^n / b,
      mu1_n = -q (b - a q^n) / (a (1 - b q^n)),
      mu2_n = -b q (1 - q^n)(1 - a q^(n-1)) / (a (1 - b q^n)(1 - b q^(n-1))),
    with mu2_0 = 0 (the 1 - q^n factor), the raise factor q^-n (1 - b q^n),
    the three action factors of :class:`ScalarRow` (z_action_0 = 0, by its
    1 - q^-n factor) and the norm h_n = (a;q)_n (q;q)_n / (((a/b)q;q)_n (b;q)_n),
    which :func:`_norm_constants` steps alike for the grid. Every factor
    1 - z q^j is an int unit z[j] / (z_den r^j) of
    :func:`pastroq.qcore._unit_rows` (q = p/r), so with a/b = t_num/t_den
    and b/q = c_num/c_den
      alpha_n = -(p b_den / (t_num r))^(n+1) prod_(j<=n) ab[j] / b[j],
      beta_n  = -(t_num r / c_den)^(n+1) prod_(j<=n) bq[j] / ab[j+1],
      h_n     = h_(n-1) t_den b_den a[n-1] one[n] / (a_den ab[n] b[n-1]),
    are prefix products, each the entry of degree n - 1 times one ratio of
    units, and the other entries are one int ratio each:
      x_action_n = -p ab[n] / (t_num r p^n),
      z_action_n = -b_num p one[n] a[n-1] / (a_num r p^n b[n-1]),
      y_raise_n  = -b[n] / (b_num r^n).
    The rows are stepped off one stream of unit rows, from running powers
    and these running products, so the generator holds the unit rows of at
    most three consecutive degrees and no list of any length.

    A resonant triple raises here, at the call, before any row: the units
    are scanned first, without being kept, and the first vanishing
    denominator of alpha_0..alpha_n_max is named, then that of the betas.
    h_n divides by units of alpha_(n-1) and beta_(n-1), and the other
    entries only by t_num, a, b, p^n, r^n and b[n], b[n-1], so nothing else
    can vanish.
    """
    _check_degree(n_max)
    beta_vanishing = None
    for j, units in zip(range(n_max + 2), _unit_rows(params)):
        if j <= n_max and not units.b:
            raise ResonantParameterError(f"(b;q)_{j + 1} vanishes")
        if j and not units.ab and beta_vanishing is None:
            beta_vanishing = f"((a/b)*q;q)_{j} vanishes"
    if beta_vanishing:
        raise ResonantParameterError(beta_vanishing)
    return _scalar_rows(n_max, params)


def _scalar_rows(n_max: int, params: QParams) -> Iterator[ScalarRow]:
    """The rows of :func:`scalar_rows`, after its scan."""
    p, r = params.q.as_integer_ratio()
    a_num, a_den = params.a.as_integer_ratio()
    b_num, b_den = params.b.as_integer_ratio()
    t_num, t_den = (params.a / params.b).as_integer_ratio()
    c_den = (params.b / params.q).denominator
    alpha = beta = Fraction(-1)
    h = Fraction(1)
    before = None  # the units of degree n - 1
    for n, (now, after) in zip(range(n_max + 1), pairwise(_unit_rows(params))):
        alpha *= Fraction(p * b_den * now.ab, t_num * r * now.b)
        beta *= Fraction(t_num * r * now.bq, c_den * after.ab)
        p_n, r_n, b_n = now.p_pow, now.r_pow, now.b
        if n:
            h *= Fraction(t_den * b_den * before.a * now.one, a_den * now.ab * before.b)
            # the int factors that mu2_n and z_action_n share
            lower_num = -b_num * p * now.one * before.a
            lower_den = a_num * r * before.b
            mu2 = Fraction(b_den * lower_num, lower_den * b_n)
            z_action = Fraction(lower_num, lower_den * p_n)
        else:
            mu2 = z_action = Fraction(0)
        yield ScalarRow(
            alpha=alpha,
            beta=beta,
            h=h,
            lam=Fraction(-b_den * p_n, b_num * r_n),
            mu1=Fraction(-p * (b_num * a_den * r_n - a_num * b_den * p_n), a_num * r * b_n),
            mu2=mu2,
            raise_factor=Fraction(b_n, b_den * p_n),
            x_action=Fraction(-p * now.ab, t_num * r * p_n),
            z_action=z_action,
            y_raise=Fraction(-b_n, b_num * r_n),
        )
        before = now


def _coupled_pairs(rows: Iterable[ScalarRow]) -> Iterator[tuple[LaurentPoly, LaurentPoly]]:
    """(P~_n, Q_n) for n = 0, 1, ..., from P~_0 = Q_0 = 1 and the coupled recurrences

      P~_(n+1)(x) = x P~_n(x) - alpha_n x^n Q_n(1/x),
      Q_(n+1)(x) = x Q_n(x) - beta_n x^n P~_n(1/x),
    with the alpha_n, beta_n of the n-th row of ``rows``. A pair is stepped
    only when it is asked for, and each step reads one row, so the pairs of
    n <= n_max read the rows of n < n_max.
    """
    p_poly = q_poly = LaurentPoly.one()
    yield p_poly, q_poly
    n = 0
    for row in rows:
        p_poly, q_poly = (
            p_poly.times_x(1) - q_poly.invert_variable().times_x(n) * row.alpha,
            q_poly.times_x(1) - p_poly.invert_variable().times_x(n) * row.beta,
        )
        del row  # not held while the pair is in use
        n += 1
        yield p_poly, q_poly


def baxter_system(rows: Iterable[ScalarRow]) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
    """The pairs of :func:`_coupled_pairs` as lists ``(p_polys, q_polys)``.

    ``rows`` are the :class:`ScalarRow` of a parameter point for
    n = 0..n_max, as :func:`scalar_rows` yields them, and the lists run over
    n <= n_max; the row of n_max is not read. This route never references
    the eigenvalue problem or the q-Pascal step, so agreement of its P~_n
    with :func:`pastro_family` (and of its Q_n(1/x) with
    :func:`partner_family`) is a genuine cross-method consistency statement.

    No report builds these lists: :func:`verify_baxter_consistency` and
    :func:`pastroq.biorth.make_grid_rep` step the pairs one at a time
    instead, each dropped after its degree, so that a run never holds
    every P~_n and Q_n at once. The lists are the form the tests' reference
    routes read.
    """
    p_polys, q_polys = zip(*_coupled_pairs(row for row, _ in pairwise(rows)))
    return list(p_polys), list(q_polys)


def grid_weights(N: int, b: Scalar, q: Scalar) -> list[Fraction]:
    """The weights of the grid x_s = q^(s+1), s = 0..N-1, as a list:

      w_s = [(q^(1-N);q)_s / (q;q)_s] (b q^(N-1))^s / (b;q)_(N-1).

    On the units of :func:`pastroq.qcore._unit_rows` at a = q^(1-N)
    (q = p/r), w_0 = prod_(j<N-1) b_den r^j / b[j] is one int ratio, and
    each w_s is w_(s-1) times one ratio of units,
      w_s = w_(s-1) r b_num p^(N-1) a[s-1] / (a_den b_den r^(N-1) one[s]).
    None vanishes once the normalizer does not: b, p and r are nonzero, and
    a[j] (j <= N-2) and one[j+1] are the units of q^(j+1-N) and q^(j+1),
    while a rational q outside {0, 1, -1} has q^m = 1 only at m = 0. Their
    sum is left to the report's ``weights-normalized`` check.
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
    units = list(islice(_unit_rows(params), N))  # j = 0..N-1
    normalizer = prod(row.b for row in units[:-1])
    if not normalizer:
        raise ResonantParameterError(f"(b;q)_{N - 1} vanishes")
    b_num, b_den = b.as_integer_ratio()
    scale_num = q.denominator * b_num * units[-1].p_pow
    scale_den = params.a.denominator * b_den * units[-1].r_pow
    weights = [Fraction(b_den ** (N - 1) * prod(row.r_pow for row in units[:-1]), normalizer)]
    for now, after in pairwise(units):
        weights.append(weights[-1] * Fraction(scale_num * now.a, scale_den * after.one))
    return weights


def verify_baxter_consistency(
    n_max: int,
    params: QParams,
    records: Iterable,
    context: dict[str, str] | None = None,
) -> list[Check]:
    """Cross-check the coupled-recurrence route against every closed form.

    Covers: the alpha/beta recurrences against the three-term recurrence
    coefficients, the product formula for h_n, agreement of the iterated
    P_n with the eigenvalue-route P_n, agreement of Q_n(1/x) with the
    stepped partner R_n, and both coupled recurrences restated with the
    eigenvalue-route polynomials substituted in.

    ``records`` yields one record per degree n = 0..n_max, in order, with
    the :class:`ScalarRow` of degree n (``row``) and the eigenvalue-route
    P_(n-1), P_n and P_(n+1) (``p_prev``, ``p``, ``p_next``), as
    :func:`pastroq.qdiff.degree_records` builds them. One pair P~_n, Q_n of
    :func:`_coupled_pairs` and one partner R_n of :func:`partner_family` are
    stepped beside each record, after it; only the row of degree n - 1,
    Q_(n-1), whether P~_(n-1) = P_(n-1), the family's R_(n-1) and the
    running norm product outlive their degree. The partner family stops at
    the first mismatch. All seven checks are evaluated as the records
    stream past, and each keeps the witness of the first n that fails. The
    three scalar checks word it through
    :func:`pastroq.report.first_mismatch`. The beta check at n reads the
    row of n + 1, so it is evaluated one record late; the beta ratio is
    undefined from the first alpha_(n+1) = 0 on, so its scan stops there,
    and that degree is the witness when no earlier one differs. The seven
    checks share one context: ``params.describe()``, n_max and the keys of
    ``context``.

    Each pair P~_n, Q_n is the coupled step of the pair before, fed the
    row of the record before, so the restated recurrences at n - 1 read
      residual_P = (P_n - P~_n) - x (P_(n-1) - P~_(n-1)),
      residual_Q = beta_(n-1) x^(n-1) (P_(n-1) - P~_(n-1))(1/x).
    Both are decided at the record of n, one record late, off the
    comparison P~_n = P_n that ``baxter-pastro-match`` makes anyway: the P
    residual is 0 where P~_(n-1) = P_(n-1) and P~_n = P_n, the Q residual
    where P~_(n-1) = P_(n-1). Only where a route disagrees is a residual
    computed in full, from P_n, P_(n-1), Q_(n-1) and the row of n - 1, so
    its witness is the restated recurrence's own.
    """
    _check_degree(n_max)
    context = params.describe() | {"n_max": str(n_max)} | (context or {})

    alpha_witness = beta_witness = norm_witness = None
    pastro_witness = partner_witness = p_witness = q_witness = None
    product = Fraction(1)  # prod_(k<n) (1 - alpha_k beta_k)
    before = None  # the row of degree n - 1
    # The coupled step to degree n reads alpha_(n-1) and beta_(n-1): each
    # time it asks for a row, it gets the row of the record before.
    coupled = _coupled_pairs(iter(lambda: before, None))
    partners = partner_family(params)
    q_prev = None  # Q_(n-1), for both recurrences at n - 1
    agreed = False  # P~_(n-1) == P_(n-1)
    for record in records:
        n, row = record.n, record.row
        if before is not None:
            if alpha_witness is None:
                alpha_witness = first_mismatch(
                    "n={}: alpha_n {}, -alpha_(n-1)*mu1_n {}",
                    [(n, row.alpha, -before.alpha * row.mu1)],
                )
            if beta_witness is None:
                if row.alpha:
                    beta_witness = first_mismatch(
                        "n={}: beta_n {}, (mu2_(n+1) - mu1_(n+1))/alpha_(n+1) {}",
                        [(n - 1, before.beta, (row.mu2 - row.mu1) / row.alpha)],
                    )
                else:
                    beta_witness = f"n={n - 1}: alpha_(n+1) = 0, ratio undefined"
        if norm_witness is None:
            norm_witness = first_mismatch("n={}: h_n {}, prod {}", [(n, row.h, product)])
            if n < n_max:
                product *= 1 - row.alpha * row.beta
        p_coupled, q_coupled = next(coupled)
        agrees = p_coupled == record.p
        if pastro_witness is None and not agrees:
            pastro_witness = f"n={n}: {poly_mismatch_witness(p_coupled, record.p)}"
        if partner_witness is None:
            mismatch = poly_mismatch_witness(q_coupled.invert_variable(), next(partners))
            if mismatch:
                partner_witness = f"n={n}: {mismatch}"
        # the residuals of degree n - 1, off the two comparisons (see above)
        if p_witness is None and q_prev is not None and not (agreed and agrees):
            residual = (
                record.p
                - record.p_prev.times_x(1)
                + q_prev.invert_variable().times_x(n - 1) * before.alpha
            )
            if residual:
                p_witness = f"n={n - 1}: residual {residual}"
        if q_witness is None and q_prev is not None and not agreed:
            residual = (
                q_coupled
                - q_prev.times_x(1)
                + record.p_prev.invert_variable().times_x(n - 1) * before.beta
            )
            if residual:
                q_witness = f"n={n - 1}: residual {residual}"
        q_prev, before, agreed = q_coupled, row, agrees
        # not held while the next record is built and checked
        del record, p_coupled

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
