"""The polynomial family, partners, recurrence data, weights."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from family_reference import (
    alpha_coefficient,
    beta_coefficient,
    eigenvalue,
    first_closed_form_error,
    mu1_coefficient,
    mu2_coefficient,
    norm_constant,
    pastro_coefficient_ratio,
    pastro_monic_prefactor,
    pastro_poly_series,
    raise_factor,
    x_action,
    y_raise,
    z_action,
)
from pastroq import biorth, cli, pastro, qdiff
from pastroq.pastro import (
    _norm_constants,
    baxter_system,
    biorthogonal_partner,
    grid_weights,
    pastro_poly,
    scalar_rows,
    verify_baxter_consistency,
)
from pastroq.qcore import LaurentPoly, QParams, ResonantParameterError, _make, _unit_rows, x
from pastroq.qdiff import degree_records
from pastroq.report import poly_mismatch_witness

REFERENCE = QParams(Fraction(1, 2), Fraction(3), Fraction(1, 5))
SECOND = QParams(Fraction(-4, 5), Fraction(6), Fraction(-2))
TRUNCATED = QParams(Fraction(1, 2), Fraction(2), Fraction(1, 5))  # a = q^-1, N = 2


def test_degree_zero_is_one():
    assert pastro_poly(0, REFERENCE) == 1


def test_degree_one_frozen_value():
    assert pastro_poly(1, REFERENCE) == LaurentPoly({1: 1, 0: Fraction(-7, 12)})


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_family_is_monic_polynomial(params):
    for n in range(11):
        p = pastro_poly(n, params)
        assert p.valuation >= 0
        assert p.degree == n
        assert p.leading_coefficient == 1


def test_coefficients_match_closed_form_ratio():
    for params in (REFERENCE, SECOND):
        for n in range(9):
            poly = pastro_poly(n, params)
            lead = pastro_monic_prefactor(n, params)
            assert poly.coefficient(0) == lead
            for k in range(n + 1):
                assert poly.coefficient(k) == pastro_coefficient_ratio(n, k, params) * lead


def test_recurrence_route_matches_series_route():
    for params in (REFERENCE, SECOND):
        for n in range(9):
            assert pastro_poly(n, params) == pastro_poly_series(n, params)


def test_resonant_family_raises():
    # b/a = q makes the degree-2 shift factor vanish
    params = QParams(Fraction(1, 2), Fraction(2, 5), Fraction(1, 5))
    with pytest.raises(ResonantParameterError):
        pastro_poly(2, params)


def test_eigenvalues():
    assert [row.lam for row in scalar_rows(2, REFERENCE)] == [-5, Fraction(-5, 2), Fraction(-5, 4)]


def test_mu_frozen_values():
    rows = list(scalar_rows(1, REFERENCE))
    assert [row.mu1 for row in rows] == [Fraction(7, 12), Fraction(13, 54)]
    assert [row.mu2 for row in rows] == [0, Fraction(5, 108)]


def test_baxter_coefficient_frozen_values():
    rows = list(scalar_rows(1, REFERENCE))
    assert rows[0].alpha == Fraction(7, 12)
    assert rows[0].beta == Fraction(18, 13)
    assert rows[0].h == 1
    assert rows[1].h == Fraction(5, 26)
    assert list(scalar_rows(1, TRUNCATED))[1].h == Fraction(5, 32)


@pytest.mark.parametrize("params", [REFERENCE, SECOND, TRUNCATED])
def test_baxter_coefficients_match_closed_forms(params):
    rows = list(scalar_rows(12, params))
    assert [row.alpha for row in rows] == [alpha_coefficient(n, params) for n in range(13)]
    assert [row.beta for row in rows] == [beta_coefficient(n, params) for n in range(13)]
    assert [row.h for row in rows] == [norm_constant(n, params) for n in range(13)]
    assert [row.lam for row in rows] == [eigenvalue(n, params) for n in range(13)]
    assert [row.mu1 for row in rows] == [mu1_coefficient(n, params) for n in range(13)]
    assert [row.mu2 for row in rows] == [mu2_coefficient(n, params) for n in range(13)]
    assert [row.raise_factor for row in rows] == [raise_factor(n, params) for n in range(13)]
    assert [row.x_action for row in rows] == [x_action(n, params) for n in range(13)]
    assert [row.z_action for row in rows] == [z_action(n, params) for n in range(13)]
    assert [row.y_raise for row in rows] == [y_raise(n, params) for n in range(13)]


def test_scalar_rows_step_off_one_unit_stream(monkeypatch):
    # one stream of unit rows for the scan, and one for the rows
    unit_rows, started = pastro._unit_rows, []

    def counted(params):
        started.append(params)
        return unit_rows(params)

    monkeypatch.setattr(pastro, "_unit_rows", counted)
    for params in (REFERENCE, SECOND, TRUNCATED):
        started.clear()
        assert len(list(scalar_rows(6, params))) == 7
        assert started == [params, params]


@pytest.mark.parametrize(
    "params",
    [
        QParams(Fraction(1, 2), Fraction(3), Fraction(2)),  # b q = 1
        QParams(Fraction(1, 2), Fraction(3), Fraction(8)),  # b q^3 = 1
        QParams(Fraction(1, 2), Fraction(2, 5), Fraction(1, 5)),  # (a/b) q = 1
        QParams(Fraction(-3), Fraction(1, 27), Fraction(1, 3)),  # (a/b) q^2 = 1
        QParams(Fraction(2), Fraction(1, 2), Fraction(1, 2)),  # a = b and b q = 1
        QParams(Fraction(1, 2), Fraction(1, 40), Fraction(1, 5)),  # admissible
    ],
)
def test_baxter_coefficients_raise_the_first_closed_form_error(params):
    expected = first_closed_form_error(6, params)
    if expected is None:
        assert [row.alpha for row in scalar_rows(6, params)] == [
            alpha_coefficient(n, params) for n in range(7)
        ]
        return
    with pytest.raises(ResonantParameterError) as error:
        scalar_rows(6, params)
    assert str(error.value) == expected


def test_norm_constant_product_form():
    rows = list(scalar_rows(8, REFERENCE))
    product = Fraction(1)
    for n in range(9):
        assert rows[n].h == product
        product *= 1 - rows[n].alpha * rows[n].beta


def test_norm_vanishes_at_truncation():
    # a = q^(1-N) forces h_N = 0
    for N in range(1, 7):
        params = QParams(Fraction(1, 2), Fraction(1, 2) ** (1 - N), Fraction(1, 5))
        h = [row.h for row in scalar_rows(N, params)]
        assert h[N] == 0
        assert all(h[n] != 0 for n in range(N))


def _outcome(build):
    try:
        return build()
    except ResonantParameterError as exc:
        return str(exc)


def test_norm_prefixes_match_the_closed_form_on_grid_inputs():
    # h_0..h_N at a = q^(1-N), as make_grid_rep reads them: equal lists, or
    # the same first error text at the resonant inputs
    units = [Fraction(1, 2), 2, Fraction(1, 3), 3, Fraction(2, 3), Fraction(3, 2)]
    units += [Fraction(1, 4), 4]
    bs = [Fraction(1, k) for k in range(1, 6)] + [Fraction(k) for k in range(2, 6)]
    resonant = 0
    for q in units + [-u for u in units]:
        for b in bs + [-b for b in bs]:
            for N in range(1, 6):
                params = QParams(q, Fraction(q) ** (1 - N), b)
                route = _outcome(lambda: _norm_constants(N, params))
                reference = _outcome(lambda: [norm_constant(n, params) for n in range(N + 1)])
                assert route == reference, (q, b, N)
                resonant += isinstance(route, str)
    assert resonant > 0


def test_baxter_system_first_steps():
    rows = list(scalar_rows(2, REFERENCE))
    p_polys, q_polys = baxter_system(rows)
    assert len(p_polys) == len(q_polys) == 3
    assert p_polys[0] == 1
    assert q_polys[0] == 1
    assert p_polys[1] == x() - rows[0].alpha
    assert q_polys[1] == x() - rows[0].beta
    # mixed-route restatement of the P recurrence at n = 1
    p1, p2 = pastro_poly(1, REFERENCE), pastro_poly(2, REFERENCE)
    assert x() * p1 - p2 == rows[1].alpha * (q_polys[1].invert_variable() * x(1))


def baxter_checks(n_max: int, params: QParams):
    """verify_baxter_consistency over the records of n <= n_max."""
    return verify_baxter_consistency(
        n_max, params, degree_records(params, n_max, scalar_rows(n_max, params))
    )


def test_baxter_consistency_suite_passes():
    for params in (REFERENCE, SECOND):
        for check in baxter_checks(8, params):
            assert check.status == "PASS", (check.name, check.witness)


def list_loop_witnesses(n_max, params, p_coupled, q_coupled):
    """Witnesses of the four polynomial checks by the whole-family loops."""
    rows = list(scalar_rows(n_max, params))
    eigen = [pastro_poly(n, params) for n in range(n_max + 1)]

    def first(found):
        return next((witness for witness in found if witness), None)

    pastro_match = first(
        f"n={n}: {m}" if (m := poly_mismatch_witness(p_coupled[n], eigen[n])) else None
        for n in range(n_max + 1)
    )
    partner_match = first(
        f"n={n}: {m}"
        if (m := poly_mismatch_witness(q_coupled[n].invert_variable(), biorthogonal_partner(n, params)))
        else None
        for n in range(n_max + 1)
    )
    recurrence_p = first(
        f"n={n}: residual {r}"
        if (r := eigen[n + 1] - x() * eigen[n] + rows[n].alpha * (q_coupled[n].invert_variable() * x(n)))
        else None
        for n in range(n_max)
    )
    recurrence_q = first(
        f"n={n}: residual {r}"
        if (r := q_coupled[n + 1] - x() * q_coupled[n] + rows[n].beta * (eigen[n].invert_variable() * x(n)))
        else None
        for n in range(n_max)
    )
    return [pastro_match, partner_match, recurrence_p, recurrence_q]


@pytest.mark.parametrize("bad_degrees", [(2, 3), (0,), (5,), (1, 4)])
def test_streamed_baxter_witnesses_match_list_loops(bad_degrees, monkeypatch):
    # corrupt P~_n and Q_n at the given degrees; each streamed check must
    # report the witness of its first failing n, as the whole-family loops do
    n_max = 5
    p_coupled, q_coupled = baxter_system(scalar_rows(n_max, SECOND))
    for n in bad_degrees:
        p_coupled[n] = p_coupled[n] + x(n + 1)
        q_coupled[n] = q_coupled[n] - Fraction(1, 3)
    monkeypatch.setattr(pastro, "_coupled_pairs", lambda data: zip(p_coupled, q_coupled))

    checks = baxter_checks(n_max, SECOND)
    assert [check.status for check in checks[:3]] == ["PASS"] * 3
    expected = list_loop_witnesses(n_max, SECOND, p_coupled, q_coupled)
    assert [check.witness for check in checks[3:]] == expected
    assert all(witness is not None for witness in expected[:2])


def test_baxter_checks_stream_the_pairs_of_baxter_system(monkeypatch):
    n_max = 6
    expected = list(zip(*baxter_system(scalar_rows(n_max, SECOND))))
    streamed = []
    coupled_pairs = pastro._coupled_pairs

    def recorded(data):
        for pair in coupled_pairs(data):
            streamed.append(pair)
            yield pair

    monkeypatch.setattr(pastro, "_coupled_pairs", recorded)
    assert all(check.status == "PASS" for check in baxter_checks(n_max, SECOND))
    assert streamed == expected


@pytest.mark.parametrize("n_max", [0, 1, 7])
def test_baxter_system_steps_n_max_times(n_max, monkeypatch):
    # each step reverses P~_n and Q_n once; a pair past n_max is never built
    rows = list(scalar_rows(n_max, SECOND))
    calls = 0
    invert_variable = LaurentPoly.invert_variable

    def counted(self):
        nonlocal calls
        calls += 1
        return invert_variable(self)

    monkeypatch.setattr(LaurentPoly, "invert_variable", counted)
    p_polys, q_polys = baxter_system(rows)
    assert len(p_polys) == len(q_polys) == n_max + 1
    assert calls == 2 * n_max


def test_partner_degree_zero_and_support():
    assert biorthogonal_partner(0, REFERENCE) == 1
    for n in range(9):
        partner = biorthogonal_partner(n, REFERENCE)
        assert partner.valuation == -n
        assert partner.degree == 0
        assert partner.coefficient(-n) == 1  # monic through x -> 1/x


def test_partner_frozen_value():
    assert biorthogonal_partner(1, REFERENCE) == LaurentPoly(
        {-1: 1, 0: Fraction(-18, 13)}
    )
    assert biorthogonal_partner(1, TRUNCATED) == LaurentPoly(
        {-1: 1, 0: Fraction(-3, 2)}
    )


def test_partner_equals_reversed_baxter_polynomial():
    _, q_polys = baxter_system(scalar_rows(8, SECOND))
    for n in range(9):
        assert q_polys[n].invert_variable() == biorthogonal_partner(n, SECOND)


def test_alpha_beta_resonance():
    with pytest.raises(ResonantParameterError, match=r"^\(b;q\)_2 vanishes$"):
        scalar_rows(1, QParams(Fraction(1, 2), Fraction(3), Fraction(2)))
    with pytest.raises(ResonantParameterError, match=r"^\(\(a/b\)\*q;q\)_1 vanishes$"):
        scalar_rows(0, QParams(Fraction(1, 2), Fraction(2, 5), Fraction(1, 5)))


def test_grid_weights_trivial_grid():
    assert grid_weights(1, Fraction(1, 5), Fraction(1, 2)) == [1]


def test_grid_weights_frozen_values():
    assert grid_weights(2, Fraction(1, 5), Fraction(1, 2)) == [Fraction(5, 4), Fraction(-1, 4)]
    assert grid_weights(3, Fraction(1, 5), Fraction(1, 2)) == [
        Fraction(25, 18),
        Fraction(-5, 12),
        Fraction(1, 36),
    ]


@pytest.mark.parametrize("b", [Fraction(1, 5), Fraction(3), Fraction(-2, 7)])
@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_grid_weights_sum_to_one(N, b):
    weights = grid_weights(N, b, Fraction(1, 2))
    assert sum(weights) == 1
    assert 0 not in weights


def test_grid_weights_flip_invariance():
    # b -> q^(2-N)/b with s -> N-1-s leaves the weights unchanged
    q = Fraction(1, 2)
    for N in (2, 3, 5):
        for b in (Fraction(1, 5), Fraction(-3, 4)):
            w = grid_weights(N, b, q)
            flipped = grid_weights(N, q ** (2 - N) / b, q)
            assert w == flipped[::-1]


def test_grid_weights_errors():
    with pytest.raises(ResonantParameterError):
        grid_weights(3, Fraction(1), Fraction(1, 2))  # (b;q)_2 = 0
    with pytest.raises(ResonantParameterError):
        grid_weights(2, Fraction(1, 5), Fraction(1))
    with pytest.raises(ValueError):
        grid_weights(0, Fraction(1, 5), Fraction(1, 2))


def test_truncation_polynomial_splits_over_grid():
    q = Fraction(1, 2)
    for N in range(1, 7):
        params = QParams(q, q ** (1 - N), Fraction(1, 5))
        expected = LaurentPoly.one()
        for s in range(N):
            expected = expected * LaurentPoly({1: 1, 0: -(q ** (s + 1))})
        assert pastro_poly(N, params) == expected


def test_degree_records_carry_the_family():
    family = [record.p for record in degree_records(REFERENCE, 6, scalar_rows(6, REFERENCE))]
    assert len(family) == 7
    assert family[3] == pastro_poly(3, REFERENCE)
    with pytest.raises(ResonantParameterError):
        # b q^2 = 1: the scalar rows the records carry are refused
        resonant = QParams(Fraction(1, 2), Fraction(3), Fraction(4))
        list(degree_records(resonant, 6, scalar_rows(6, resonant)))


@pytest.mark.parametrize("build", [pastro_poly, biorthogonal_partner])
def test_a_step_reads_only_the_member_before(build):
    p1, p2 = build(1, REFERENCE), build(2, REFERENCE)
    assert build(2, REFERENCE, previous=p1) == p2
    assert build(3, REFERENCE, previous=p2) == build(3, REFERENCE)
    for n, previous in ((3, p1), (1, p2), (0, p1)):
        with pytest.raises(ValueError, match=f"degree {n - 1}"):
            build(n, REFERENCE, previous=previous)


@given(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.integers(0, 9),
)
@example(Fraction(-4, 5), Fraction(6), Fraction(-2), 7)  # q < 0, a/b < 0
@example(Fraction(-7, 5), Fraction(5, 3), Fraction(-2, 9), 9)
@example(Fraction(1, 2), Fraction(2, 5), Fraction(1, 5), 3)  # b/a = q: P_3 resonant
@settings(max_examples=200, deadline=None, derandomize=True)
def test_family_units_are_point_units_times_the_alpha_and_beta_ratios(q, a, b, n):
    assume(q not in (0, 1, -1) and a and b)
    params = QParams(q, a, b)
    units = list(islice(_unit_rows(params), n + 1))  # j = 0..n
    p, r = q.as_integer_ratio()
    t_num = (a / b).numerator
    alpha = Fraction(p * b.denominator, t_num * r)  # c/d
    beta = Fraction(t_num * r, (b / q).denominator)  # c'/d'
    families = {
        True: (
            [alpha.denominator * row.b for row in units[:n]],
            [alpha.numerator * row.ab for row in units[:n]],
        ),
        False: (
            [beta.numerator * row.bq for row in units[:n]],
            [beta.denominator * row.ab for row in units[1:]],
        ),
    }
    powers = [row.p_pow for row in units[:n]], [row.r_pow for row in units[:n]]
    for monic, (heads, tails) in families.items():
        if all(heads) and all(tails):
            expected = (heads, tails, *powers)
            assert pastro._units(params, monic, n) == expected
        else:
            with pytest.raises(ResonantParameterError):
                pastro._units(params, monic, n)


@given(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.integers(1, 12),
)
@example(Fraction(997, 991), Fraction(13, 7), Fraction(-5, 11), 60)
@example(Fraction(-4, 5), Fraction(6), Fraction(-2), 7)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_stepped_member_bounded_by_its_ends_is_in_normal_form(q, a, b, n):
    # The content gcd of a step starts from gcd(first, last numerator); the
    # normal form is the one whose gcd starts from the denominator.
    assume(q not in (0, 1, -1) and a and b)
    params = QParams(q, a, b)
    for monic, build in ((True, pastro_poly), (False, biorthogonal_partner)):
        try:
            previous = build(n - 1, params)
            units = pastro._units(params, monic, n)
        except ResonantParameterError:
            continue
        nums = pastro._pascal_step(previous._nums, *units)
        low, one = (0, n) if monic else (-n, 0)
        if nums[one] < 0:
            nums = [-c for c in nums]
        # LaurentPoly equality compares the parts, so a content left in fails
        assert pastro._member(nums, monic) == _make(low, nums, nums[one], nums[one])


def _steps(*ranges):
    """The degrees of the members built, one step each, from these ranges."""
    return sorted(degree for members in ranges for degree in members)


#: A run, and the degree of every member its families step to: each
#: family steps once per degree past 0.
_FAMILY_RUNS = {
    # P_1..P_7 at b, P_1..P_6 at bq, R_1..R_6
    "verify": (
        lambda: cli.verify_suite(REFERENCE, 6),
        _steps(range(1, 8), range(1, 7), range(1, 7)),
    ),
    # the grid's P_1..P_5 and R_1..R_4; the flipped and reflected P_1..P_4
    "biorth": (
        lambda: cli.run(cli.RunConfig("biorth", N=5))[0].checks,
        _steps(range(1, 6), range(1, 5), range(1, 5), range(1, 5)),
    ),
    # P_1..P_6 and R_1..R_6
    "table": (
        lambda: cli.run(cli.RunConfig("table", n_max=6))[0].checks,
        _steps(range(1, 7), range(1, 7)),
    ),
}


@pytest.mark.parametrize("command", sorted(_FAMILY_RUNS))
def test_runs_step_each_family_once_per_degree(command, monkeypatch):
    run, expected = _FAMILY_RUNS[command]
    degrees = []
    step = pastro._pascal_step

    def counted(nums, *args):
        degrees.append(len(nums))  # the degree of the member it builds
        return step(nums, *args)

    def refused(*args, **kwargs):
        raise AssertionError("a single-degree builder ran")

    def stepped_only(build):
        def wrapper(n, params, *, previous=None):
            if n and previous is None:
                raise AssertionError(f"member {n} was built alone, not stepped")
            return build(n, params, previous=previous)

        return wrapper

    monkeypatch.setattr(pastro, "_pascal_step", counted)
    # The families step through pastro's own bindings; no other module
    # builds a member.
    for name in ("pastro_poly", "biorthogonal_partner"):
        monkeypatch.setattr(pastro, name, stepped_only(vars(pastro)[name]))
        for module in (qdiff, biorth, cli):
            if name in vars(module):
                monkeypatch.setattr(module, name, refused)
    checks = run()
    assert all(check.status == "PASS" for check in checks)
    assert sorted(degrees) == expected
