"""Operator calculus and the verification of the operator identities."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operator_reference
from family_reference import eigenvalue
from pastroq import cli, qcore, qdiff
from pastroq.pastro import baxter_coefficients, pastro_poly
from pastroq.qcore import LaurentPoly, ParameterError, QParams, ResonantParameterError, x
from pastroq.qdiff import (
    DegreeRecord,
    QDiffOperator,
    degree_records,
    linear_combination,
    make_operators,
    operator_mismatch_witness,
    q_commutator,
    verify_contiguity,
    verify_gevp,
    verify_qdiff_equation,
    verify_recurrence,
)
from pastroq.report import poly_mismatch_witness

REFERENCE = QParams(Fraction(1, 2), Fraction(3), Fraction(1, 5))
SECOND = QParams(Fraction(-4, 5), Fraction(6), Fraction(-2))
Q = Fraction(1, 2)


def records(params: QParams, n_max: int):
    return list(degree_records(params, n_max, baxter_coefficients(n_max, params)))


def test_shift_operator_dilates():
    T = QDiffOperator(Q, {1: LaurentPoly.one()})
    p = LaurentPoly({2: 1, 0: 3})
    assert T.apply(p) == LaurentPoly({2: Fraction(1, 4), 0: 3})
    T_inv = QDiffOperator(Q, {-1: LaurentPoly.one()})
    assert T_inv.apply(x()) == 2 * x()


def test_shift_operators_compose_to_identity():
    T_plus = QDiffOperator(Q, {1: LaurentPoly.one()})
    T_minus = QDiffOperator(Q, {-1: LaurentPoly.one()})
    assert T_plus @ T_minus == QDiffOperator.identity(Q)
    assert T_minus @ T_plus == QDiffOperator.identity(Q)


def test_composition_twist():
    # moving T^+ past multiplication by x picks up one factor of q
    T_plus = QDiffOperator(Q, {1: LaurentPoly.one()})
    mul_x = QDiffOperator(Q, {0: x()})
    assert mul_x @ T_plus == QDiffOperator(Q, {1: x()})
    assert T_plus @ mul_x == QDiffOperator(Q, {1: Q * x()})


def test_composition_is_associative():
    X, Y, Z = make_operators(REFERENCE)
    assert (X @ Y) @ Z == X @ (Y @ Z)


def test_composition_matches_sequential_application():
    rng = random.Random(5)
    for _ in range(25):
        w1 = _random_operator(rng)
        w2 = _random_operator(rng)
        f = _random_poly(rng)
        assert (w1 @ w2).apply(f) == w1.apply(w2.apply(f))


def _random_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly(
        {
            e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for e in rng.sample(range(-4, 5), k=3)
        }
    )


def _random_operator(rng: random.Random) -> QDiffOperator:
    return QDiffOperator(
        Q, {k: _random_poly(rng) for k in rng.sample(range(-2, 3), k=2)}
    )


#: Both signs of q, with |p| < r and |p| > r.
COMPOSE_QS = [Fraction(1, 2), Fraction(-4, 5), Fraction(7, 3), Fraction(-3, 2)]

_coefficients = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    max_size=4,
).map(LaurentPoly)
_operator_terms = st.dictionaries(st.integers(min_value=-3, max_value=3), _coefficients, max_size=4)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(COMPOSE_QS), _operator_terms, _operator_terms)
def test_composition_matches_the_reference_route(q, left, right):
    A, B = QDiffOperator(q, left), QDiffOperator(q, right)
    assert A @ B == operator_reference.compose(A, B)


@pytest.mark.parametrize("q", COMPOSE_QS)
def test_composition_fixed_cases(q):
    X, _, _ = make_operators(QParams(q, 3, Fraction(1, 5)))
    zero, identity = QDiffOperator(q), QDiffOperator.identity(q)
    assert zero @ X == X @ zero == zero
    assert (zero @ X).shifts == ()
    assert identity @ X == X @ identity == X
    assert identity @ identity == identity
    # (T + I)(T^-1 - I) = T^-1 - T: the shift-0 terms cancel and are dropped
    T_plus = QDiffOperator(q, {1: 1})
    T_minus = QDiffOperator(q, {-1: 1})
    left = linear_combination(q, ((1, T_plus), (1, identity)))
    right = linear_combination(q, ((1, T_minus), (-1, identity)))
    product = left @ right
    assert product == linear_combination(q, ((1, T_minus), (-1, T_plus)))
    assert product.shifts == (-1, 1)
    assert product == operator_reference.compose(left, right)


def _count_substrate_calls(monkeypatch) -> dict[str, int]:
    """Count, from here on, the LaurentPoly products, sums and dilations,
    the normal-form builds of qcore and the calls of its three integer
    kernels (``sum``, ``product`` and ``dilation``)."""
    calls = {"mul": 0, "add": 0, "dilate": 0, "make": 0, "sum": 0, "product": 0, "dilation": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name, owner, attributes in (
        ("mul", LaurentPoly, ("__mul__", "__rmul__")),
        ("add", LaurentPoly, ("__add__", "__radd__")),
        ("dilate", LaurentPoly, ("dilate",)),
        ("make", qcore, ("_make",)),
        ("sum", qcore, ("_sum",)),
        ("product", qcore, ("_product",)),
        ("dilation", qcore, ("_dilation",)),
    ):
        for attribute in attributes:
            monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
    return calls


def test_composition_normalizes_once_per_output_shift(monkeypatch):
    X, Y, _ = make_operators(REFERENCE)
    calls = _count_substrate_calls(monkeypatch)
    product = X @ Y
    output_shifts = {j + k for j in X.shifts for k in Y.shifts}
    assert product.shifts == (-1, 0, 1)
    assert calls["mul"] == calls["dilate"] == 0
    assert 0 < calls["make"] <= len(output_shifts)


def test_q_commutator_normalizes_once_per_output_shift(monkeypatch):
    X, Y, _ = make_operators(REFERENCE)
    calls = _count_substrate_calls(monkeypatch)
    commutator = q_commutator(REFERENCE.q, X, Y)
    output_shifts = {j + k for j in X.shifts for k in Y.shifts}
    assert commutator.shifts == (-1, 0, 1)
    assert calls["mul"] == calls["add"] == calls["dilate"] == 0
    assert 0 < calls["make"] <= len(output_shifts)


def test_polynomial_and_operator_arithmetic_share_one_kernel_each(monkeypatch):
    X, Y, _ = make_operators(REFERENCE)
    f, g = pastro_poly(3, REFERENCE), pastro_poly(2, REFERENCE)
    shifted = QDiffOperator(REFERENCE.q, {1: x(), 0: f})
    assert set(X.shifts) & set(Y.shifts)
    calls = _count_substrate_calls(monkeypatch)

    def kernel_calls(operation):
        before = dict(calls)
        operation()
        return {name: calls[name] - before[name] for name in ("sum", "product", "dilation")}

    assert kernel_calls(lambda: f * g) == {"sum": 0, "product": 1, "dilation": 0}
    assert kernel_calls(lambda: f.dilate(REFERENCE.q)) == {"sum": 0, "product": 0, "dilation": 1}
    assert kernel_calls(lambda: f + g) == {"sum": 1, "product": 0, "dilation": 0}
    composed = kernel_calls(lambda: shifted @ Y)
    assert composed["product"] == 2 * len(Y.shifts)
    assert composed["dilation"] == len(Y.shifts)
    assert kernel_calls(lambda: X @ Y)["product"] == len(X.shifts) * len(Y.shifts)
    assert kernel_calls(lambda: linear_combination(REFERENCE.q, ((1, X), (2, Y))))["sum"] > 0


#: Weights with 0, +-1 and large denominators among them.
_weights = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(-1)]),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**15),
    st.integers(min_value=-(10**20), max_value=10**20),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(COMPOSE_QS), st.lists(st.tuples(_weights, _operator_terms), max_size=4))
def test_linear_combination_matches_the_reference_route(q, parts):
    parts = [(weight, QDiffOperator(q, terms)) for weight, terms in parts]
    assert linear_combination(q, parts) == operator_reference.linear_combination(q, parts)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(COMPOSE_QS), _weights, _operator_terms, _operator_terms)
def test_q_commutator_matches_the_reference_route(q, c, left, right):
    A, B = QDiffOperator(q, left), QDiffOperator(q, right)
    assert q_commutator(c, A, B) == operator_reference.q_commutator(c, A, B)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.sampled_from(COMPOSE_QS),
    _weights,
    _operator_terms,
    _operator_terms,
    _coefficients,
    _coefficients,
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_arithmetic_leaves_its_operands_unchanged(q, weight, left, right, f, g, factor):
    # The kernels share operand lists uncopied (a weight of 1 passes a
    # coefficient's numerators as they are), so none may change one in place.
    A, B = QDiffOperator(q, left), QDiffOperator(q, right)
    operands = [f, g, *A._terms.values(), *B._terms.values()]
    before = [list(operand._nums) for operand in operands]
    A @ B
    B @ A
    linear_combination(q, ((1, A), (1, B), (1, A)))
    linear_combination(q, ((weight, A), (1, B), (weight, B)))
    q_commutator(weight, A, B)
    f + g
    f * g
    f * factor
    f.dilate(factor)
    assert [operand._nums for operand in operands] == before


@pytest.mark.parametrize("q", COMPOSE_QS)
def test_linear_fixed_cases(q):
    X, Y, _ = make_operators(QParams(q, 3, Fraction(1, 5)))
    zero = QDiffOperator(q)
    # A - A cancels every shift
    assert linear_combination(q, ((1, X), (-1, X))).shifts == ()
    assert linear_combination(q, ((1, X), (-1, X))) == zero
    # a weight of 0 contributes nothing: the mu = 0 pencil X' + 0 Y' is X'
    assert linear_combination(q, ((1, X), (0, Y))) == X
    assert linear_combination(q, ((0, X), (Fraction(0), Y))).shifts == ()
    assert linear_combination(q, ()) == zero
    assert linear_combination(q, ((0, X),)) == zero
    # q_commutator(1, A, A) = AA - AA is the zero operator
    assert q_commutator(1, X, X).shifts == ()
    assert q_commutator(q, X, Y) == linear_combination(q, ((q, X @ Y), (-1, Y @ X)))
    assert q_commutator(q, X, Y) == operator_reference.q_commutator(q, X, Y)
    # a combination of scaled operators is the one combination of the weights
    scaled_x = linear_combination(q, ((Fraction(2, 7), X),))
    scaled_y = linear_combination(q, ((-1, Y),))
    assert linear_combination(q, ((1, scaled_x), (1, scaled_y))) == linear_combination(
        q, ((Fraction(2, 7), X), (-1, Y))
    )


def test_linear_operations_refuse_a_foreign_q():
    A, B = QDiffOperator.identity(Fraction(1, 2)), QDiffOperator.identity(Fraction(1, 3))
    for build in (
        lambda: linear_combination(Fraction(1, 2), ((1, A), (1, B))),
        lambda: linear_combination(Fraction(1, 3), ((1, A),)),
        lambda: q_commutator(2, A, B),
        lambda: linear_combination(Fraction(1, 2), ((1, A), (-1, B))),
        lambda: linear_combination(Fraction(1, 3), ((1, B), (1, A))),
    ):
        with pytest.raises(ValueError, match="ambient q mismatch: 1/2 vs 1/3|1/3 vs 1/2"):
            build()


def test_operator_refuses_q_zero():
    # T^k dilates by q^k: at q = 0 no operator is built to fail later
    with pytest.raises(ParameterError, match="q must be nonzero"):
        QDiffOperator(0, {-1: 1, 0: x()})
    with pytest.raises(ParameterError, match="q must be nonzero"):
        QDiffOperator.identity(Fraction(0))
    with pytest.raises(ParameterError, match="q must be nonzero"):
        linear_combination(0, ())


def test_distinct_normal_forms_act_differently():
    # two operators with different normal forms differ on some x^k, |k| <= 6
    rng = random.Random(11)
    for _ in range(25):
        w = _random_operator(rng)
        bump = QDiffOperator(Q, {rng.randint(-2, 2): _random_poly(rng)})
        perturbed = linear_combination(Q, ((1, w), (1, bump)))
        if w == perturbed:
            continue
        assert any(
            w.apply(x(k)) != perturbed.apply(x(k)) for k in range(-6, 7)
        )


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        QDiffOperator.identity(Fraction(1, 2)) @ QDiffOperator.identity(Fraction(1, 3))


def test_normal_form_drops_zero_coefficients():
    w = QDiffOperator(Q, {1: x() - x(), 0: LaurentPoly.one()})
    assert w.shifts == (0,)
    assert w == QDiffOperator.identity(Q)


def test_operator_scalar_arithmetic():
    X, _, _ = make_operators(REFERENCE)
    assert linear_combination(Q, ((0, X),)) == QDiffOperator(Q)
    doubled = linear_combination(Q, ((2, X),))
    assert linear_combination(Q, ((1, doubled), (-1, X))) == X
    negated = linear_combination(Q, ((-1, X),))
    assert linear_combination(Q, ((-1, negated),)) == X


def test_triple_on_constants():
    X, Y, Z = make_operators(REFERENCE)
    one = LaurentPoly.one()
    b, a, q = REFERENCE.b, REFERENCE.a, REFERENCE.q
    assert X.apply(one) == (1 - b) * x()
    assert Y.apply(one) == (1 - 1 / b) * x()
    assert Z.apply(one) == LaurentPoly.constant(1 - b)


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
@pytest.mark.parametrize("n", range(-3, 7))
def test_monomial_actions(params, n):
    X, Y, Z = make_operators(params)
    q, a, b = params.q, params.a, params.b
    monomial = x(n)
    assert X.apply(monomial) == LaurentPoly(
        {n + 1: q**-n - b, n: q * (1 - q**-n)}
    )
    assert Y.apply(monomial) == LaurentPoly(
        {n + 1: q**n - 1 / b, n: (q / a) * (1 - q**n)}
    )
    assert Z.apply(monomial) == LaurentPoly(
        {n: q**-n - b, n - 1: q * (1 - q**-n)}
    )


def test_z_is_x_divided_by_the_variable():
    for params in (REFERENCE, SECOND):
        X, _, Z = make_operators(params)
        assert QDiffOperator(params.q, {0: x(-1)}) @ X == Z


def test_x_y_raise_degree_z_preserves():
    X, Y, Z = make_operators(REFERENCE)
    for n in range(7):
        p = pastro_poly(n, REFERENCE)
        assert X.apply(p).degree == n + 1
        assert Y.apply(p).degree == n + 1
        assert Z.apply(p).degree == n


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_gevp_passes(params):
    for record in records(params, 10):
        check = verify_gevp(record)
        assert check.status == "PASS", check.witness


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_qdiff_equation_passes(params):
    for record in records(params, 10):
        check = verify_qdiff_equation(record)
        assert check.status == "PASS", check.witness


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_recurrence_suite_passes(params):
    for record in records(params, 10):
        for check in verify_recurrence(record):
            assert check.status == "PASS", (check.name, check.witness)


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_contiguity_suite_passes(params):
    for record in records(params, 8):
        for check in verify_contiguity(record):
            assert check.status == "PASS", (check.name, check.witness)


def test_contiguity_z_follows_from_x():
    # dividing the X relation by x must reproduce the Z relation exactly
    q, b = REFERENCE.q, REFERENCE.b
    for n in range(7):
        shifted = pastro_poly(n, REFERENCE._replace(b=b * q))
        x_rhs = q**-n * (1 - b * q**n) * x() * shifted
        z_rhs = q**-n * (1 - b * q**n) * shifted
        assert x_rhs * x(-1) == z_rhs


def test_verify_surfaces_resonance_from_construction():
    params = QParams(Fraction(1, 2), Fraction(2, 5), Fraction(1, 5))  # b/a = q
    with pytest.raises(ResonantParameterError):
        verify_gevp(records(params, 2)[2])


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_degree_records_match_direct_constructions(params):
    X, Y, Z = make_operators(params)
    shifted = params._replace(b=params.b * params.q)
    built = records(params, 6)
    table = baxter_coefficients(6, params)
    assert [record.n for record in built] == list(range(7))
    for n, record in enumerate(built):
        assert record.params == params
        assert record.table == table
        p = pastro_poly(n, params)
        assert record.p_prev == (pastro_poly(n - 1, params) if n else LaurentPoly.zero())
        assert record.p == p
        assert record.p_next == pastro_poly(n + 1, params)
        assert record.p_qx == p.dilate(params.q)
        assert record.p_x_over_q == p.dilate(1 / params.q)
        assert record.p_shifted == pastro_poly(n, shifted)
        assert record.x_image == X.apply(p)
        assert record.y_image == Y.apply(p)
        assert record.z_image == Z.apply(p)


def test_corrupted_record_fails_with_witness():
    record = records(REFERENCE, 3)[3]
    corrupted = record._replace(x_image=record.x_image + x(2))
    assert verify_gevp(corrupted).status == "FAIL"
    assert verify_gevp(corrupted).witness == poly_mismatch_witness(
        record.y_image, eigenvalue(3, REFERENCE) * corrupted.x_image
    )
    statuses = {check.name: check.status for check in verify_contiguity(corrupted)}
    assert statuses == {"contiguity-X": "FAIL", "contiguity-Y": "PASS", "contiguity-Z": "PASS"}


def _failed_names(record) -> set[str]:
    """Names of the per-degree checks that FAIL on ``record``."""
    checks = [verify_gevp(record), verify_qdiff_equation(record)]
    checks += verify_recurrence(record) + verify_contiguity(record)
    return {check.name for check in checks if check.status == "FAIL"}


#: For each record field below, the exact per-degree checks that read it.
FIELD_READERS = {
    "x_image": {"gevp", "contiguity-X", "recurrence-X-action", "recurrence-X-from-Z"},
    "y_image": {"gevp", "contiguity-Y"},
    "z_image": {"contiguity-Z", "recurrence-X-from-Z", "recurrence-Z-action"},
    "p_qx": {"q-difference-equation"},
    "p_x_over_q": {"q-difference-equation"},
}


@pytest.mark.parametrize("field", sorted(FIELD_READERS))
def test_corrupted_field_fails_exactly_its_readers(field):
    record = records(REFERENCE, 3)[3]
    assert _failed_names(record) == set()
    corrupted = record._replace(**{field: getattr(record, field) + x(2)})
    assert _failed_names(corrupted) == FIELD_READERS[field]


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_each_degree_dilates_p_n_twice(params, monkeypatch):
    calls = 0
    dilate = LaurentPoly.dilate

    def counted(self, factor):
        nonlocal calls
        calls += 1
        return dilate(self, factor)

    monkeypatch.setattr(LaurentPoly, "dilate", counted)
    n_max = 5
    records(params, n_max)
    assert calls == 2 * (n_max + 1)
    calls = 0
    cli.verify_suite(params, n_max)
    assert calls == 2 * (n_max + 1)


def test_verify_suite_holds_one_record_at_a_time(monkeypatch):
    # counted at each yield, after the new record is built: the one before
    # must be gone, from the per-degree checks and the Baxter checks alike
    def live_records():
        return sum(isinstance(obj, DegreeRecord) for obj in gc.get_objects())

    before = live_records()
    live = []
    build = cli.degree_records

    def counted(*args):
        for record in build(*args):
            live.append(live_records() - before)
            yield record

    monkeypatch.setattr(cli, "degree_records", counted)
    cli.verify_suite(REFERENCE, 6)
    assert live == [1] * 7


def test_witness_pinpoints_first_mismatch():
    witness = poly_mismatch_witness(
        LaurentPoly({2: 1, 0: 1}), LaurentPoly({2: 1, 0: 2})
    )
    assert witness is not None and "exponent 0" in witness
    op_witness = operator_mismatch_witness(
        QDiffOperator(Q, {1: x()}), QDiffOperator(Q, {1: 2 * x()})
    )
    assert op_witness is not None and "shift 1" in op_witness
    assert operator_mismatch_witness(
        QDiffOperator(Q, {1: x()}), QDiffOperator(Q, {1: x()})
    ) is None


def test_equal_operators_take_no_polynomial_witness(monkeypatch):
    calls = []

    def counted(lhs, rhs):
        calls.append((lhs, rhs))
        return poly_mismatch_witness(lhs, rhs)

    monkeypatch.setattr(qdiff, "poly_mismatch_witness", counted)
    X, Y, _ = make_operators(REFERENCE)
    assert operator_mismatch_witness(X @ Y, X @ Y) is None
    assert calls == []
    assert operator_mismatch_witness(X, Y) == "shift -1, " + poly_mismatch_witness(
        X.coefficient(-1), Y.coefficient(-1)
    )


#: For each column of the scalar table, the checks that read it at degree
#: N_BAD: (name, n) for a per-degree check, (name, first witness degree)
#: for a Baxter check, which scans the degrees and names the first failing
#: one. The beta recurrence reads mu1_(n+1), mu2_(n+1) and alpha_(n+1), so
#: it fails one degree lower. alpha_n and beta_n first enter h_(n+1) and
#: the coupled step to degree n+1. The coupled families then carry a
#: corrupted entry on (alpha_n: P~_(n+1), then Q_(n+2); beta_n: Q_(n+1),
#: then P~_(n+2)), so the coupled matches and the restated recurrences fail
#: at the first degree whose comparison takes it in on one side only.
N_BAD = 3
COLUMN_READERS = {
    "alpha": {
        ("baxter-alpha-recurrence", N_BAD),
        ("baxter-beta-recurrence", N_BAD - 1),
        ("baxter-norm-product", N_BAD + 1),
        ("baxter-pastro-match", N_BAD + 1),
        ("baxter-partner-match", N_BAD + 2),
        ("baxter-recurrence-P", N_BAD),
        ("baxter-recurrence-Q", N_BAD + 1),
    },
    "beta": {
        ("baxter-beta-recurrence", N_BAD),
        ("baxter-norm-product", N_BAD + 1),
        ("baxter-pastro-match", N_BAD + 2),
        ("baxter-partner-match", N_BAD + 1),
        ("baxter-recurrence-P", N_BAD + 1),
    },
    "h": {("baxter-norm-product", N_BAD)},
    "lam": {("gevp", N_BAD), ("q-difference-equation", N_BAD)},
    "mu1": {
        ("recurrence-three-term", N_BAD),
        ("baxter-alpha-recurrence", N_BAD),
        ("baxter-beta-recurrence", N_BAD - 1),
    },
    "mu2": {("recurrence-three-term", N_BAD), ("baxter-beta-recurrence", N_BAD - 1)},
    "raise_factor": {
        ("contiguity-X", N_BAD),
        ("contiguity-Z", N_BAD),
        ("recurrence-X-action", N_BAD),
        ("recurrence-Z-action", N_BAD),
    },
}


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
@pytest.mark.parametrize("column", sorted(COLUMN_READERS))
def test_corrupted_table_column_fails_its_readers(column, params, monkeypatch):
    def corrupted_table(n_max, params):
        table = baxter_coefficients(n_max, params)
        values = list(getattr(table, column))
        values[N_BAD] += 1
        return table._replace(**{column: values})

    monkeypatch.setattr(cli, "baxter_coefficients", corrupted_table)
    failed = set()
    for check in cli.verify_suite(params, 5):
        if check.status == "PASS":
            continue
        assert check.status == "FAIL", (check.name, check.witness)
        if "n" in check.params:
            assert check.witness.startswith("exponent "), (check.name, check.witness)
            failed.add((check.name, int(check.params["n"])))
        else:
            degree, _ = check.witness.split(":", 1)
            failed.add((check.name, int(degree.removeprefix("n="))))
    assert failed == COLUMN_READERS[column]
