"""Grid representation, adjoints, the tau flip, and biorthogonality."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family_reference import norm_constant
import grid_reference
from grid_reference import (
    fraction_band,
    grid_samples,
    listed_grid_rep,
    matrix_mismatch_witness,
    reference_adjoint_gevp,
    reference_biorthogonality,
    scalar_product,
)
from pastroq import biorth, pastro
from pastroq.biorth import (
    Band,
    GridVector,
    _adjoint_pairs,
    band_mismatch_witness,
    grid_vector,
    make_grid_rep,
    mat_vec,
    proportionality_witness,
    restrict,
    shift_minus_matrix,
    shift_plus_matrix,
    tau_conjugate,
    tau_parameter,
    verify_adjoint_gevp,
    verify_adjoint_structure,
    verify_biorthogonality,
    weight_adjoint,
    weight_steps,
)
from pastroq.pastro import (
    baxter_system,
    biorthogonal_partner,
    pastro_family,
    pastro_poly,
    scalar_rows,
)
from pastroq.qcore import (
    LaurentPoly,
    ParameterError,
    QParams,
    ResonantParameterError,
    x,
)
from pastroq.qdiff import QDiffOperator, linear_combination, make_operators

Q = Fraction(1, 2)
B = Fraction(1, 5)


def dense(band: Band) -> list[list[Fraction]]:
    """The N x N matrix a band stands for."""
    N = len(band.main)
    matrix = [[Fraction(0)] * N for _ in range(N)]
    for s in range(N):
        matrix[s][s] = band.main[s]
        if s >= 1:
            matrix[s][s - 1] = band.lower[s - 1]
        if s + 1 < N:
            matrix[s][s + 1] = band.upper[s]
    return matrix


def dense_mat_vec(matrix, vector):
    """Row-by-row matrix-vector product: the reference for the banded mat_vec."""
    return [
        sum((entry * value for entry, value in zip(row, vector)), Fraction(0))
        for row in matrix
    ]


def random_band(rng: random.Random, N: int) -> Band:
    def entry() -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    return Band(
        [entry() for _ in range(N - 1)],
        [entry() for _ in range(N)],
        [entry() for _ in range(N - 1)],
    )


def test_single_point_grid():
    rep = make_grid_rep(1, B, Q)
    assert rep.grid == [Q]
    assert rep.w == [1]
    assert dense(rep.matrices["X"]) == [[Q * (1 - B)]]
    assert rep.matrices["X*"] == rep.matrices["X"]
    assert dense(rep.matrices["Y"]) == [[Q - Q / B]]
    assert rep.matrices["Y*"] == rep.matrices["Y"]


def test_two_point_frozen_gram():
    gram, checks = verify_biorthogonality(make_grid_rep(2, B, Q))
    assert gram == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(5, 32)],
    ]
    for check in checks:
        assert check.status == "PASS", (check.name, check.witness)


def test_two_point_weight_origin_by_hand():
    # w_s = h_1 / (P_2'(x_s) R_1(x_s)) with h_1 = 5/32,
    # P_2 = (x - 1/2)(x - 1/4), R_1 = 1/x - 3/2
    rep = make_grid_rep(2, B, Q)
    params = rep.params
    assert params.a == 2
    h1 = norm_constant(1, params)
    assert h1 == Fraction(5, 32)
    derivative_values = [Fraction(1, 4), Fraction(-1, 4)]
    partner_values = [Fraction(1, 2), Fraction(5, 2)]
    expected = [h1 / (d * r) for d, r in zip(derivative_values, partner_values)]
    assert rep.grid == [Fraction(1, 2), Fraction(1, 4)]
    assert rep.w == expected == [Fraction(5, 4), Fraction(-1, 4)]


def test_weight_adjoint_against_random_vectors():
    rng = random.Random(3)
    rep = make_grid_rep(5, B, Q)
    w = rep.w
    for name in ("X", "Y"):
        matrix, adjoint = rep.matrices[name], rep.matrices[f"{name}*"]
        for _ in range(10):
            f = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
            g = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
            assert scalar_product(w, mat_vec(matrix, f), g) == scalar_product(
                w, f, mat_vec(adjoint, g)
            )
            assert scalar_product(w, dense_mat_vec(dense(matrix), f), g) == scalar_product(
                w, f, dense_mat_vec(dense(adjoint), g)
            )


@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_band_operations_match_dense_reference(N):
    rng = random.Random(N)
    w = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(N)]
    for _ in range(5):
        band = random_band(rng, N)
        vector = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(N)]
        assert mat_vec(band, vector) == dense_mat_vec(dense(band), vector)
        matrix = dense(band)
        adjoint = [[w[s] * matrix[s][t] / w[t] for s in range(N)] for t in range(N)]
        assert dense(weight_adjoint(band, weight_steps(w))) == adjoint
        other = random_band(rng, N)
        assert band_mismatch_witness(band, other) == matrix_mismatch_witness(
            dense(band), dense(other)
        )
        assert band_mismatch_witness(band, band) is None


def _dense_pairing_witness(matrix, adjoint, w):
    """The pairing check on dense matrices over every pair of basis vectors."""
    N = len(w)
    for i in range(N):
        basis_i = [Fraction(int(t == i)) for t in range(N)]
        left_image = dense_mat_vec(matrix, basis_i)
        for j in range(N):
            basis_j = [Fraction(int(t == j)) for t in range(N)]
            left = scalar_product(w, left_image, basis_j)
            right = scalar_product(w, basis_i, dense_mat_vec(adjoint, basis_j))
            if left != right:
                return f"basis pair ({i},{j}): <W e_{i}, e_{j}> = {left}, <e_{i}, W* e_{j}> = {right}"
    return None


@pytest.mark.parametrize("name", ["X", "Y"])
def test_pairing_witness_matches_dense_basis_pairs(name):
    N = 4
    for diagonal in ("lower", "main", "upper"):
        for index in range(N - 1):
            rep = make_grid_rep(N, B, Q)
            adjoint = rep.matrices[f"{name}*"]
            entries = list(getattr(adjoint, diagonal))
            entries[index] += 1
            rep.matrices[f"{name}*"] = adjoint._replace(**{diagonal: entries})
            checks = {check.name: check for check in verify_adjoint_structure(rep)}
            check = checks[f"adjoint-pairing-{name}"]
            expected = _dense_pairing_witness(
                dense(rep.matrices[name]), dense(rep.matrices[f"{name}*"]), rep.w
            )
            assert expected is not None
            assert (check.status, check.witness) == ("FAIL", expected)


def test_adjoint_is_involutive():
    rep = make_grid_rep(4, B, Q)
    w = rep.w
    for name in ("X", "Y"):
        assert weight_adjoint(rep.matrices[f"{name}*"], weight_steps(w)) == rep.matrices[name]


def test_tau_parameter_is_involutive():
    for N in (1, 2, 5):
        assert tau_parameter(tau_parameter(B, Q, N), Q, N) == B


def test_tau_conjugate_reverses_indices():
    # entry (s, t) = 3s + t, so every stored entry is distinct
    band = Band(
        [Fraction(3 * s + (s - 1)) for s in range(1, 3)],
        [Fraction(3 * s + s) for s in range(3)],
        [Fraction(3 * s + (s + 1)) for s in range(2)],
    )
    matrix, flipped = dense(band), dense(tau_conjugate(band))
    for s in range(3):
        for t in range(3):
            assert flipped[s][t] == matrix[2 - s][2 - t]
    assert tau_conjugate(tau_conjugate(band)) == band


def test_tau_naturality():
    # tau(W f) = tau(W) tau(f) for b-dependent grid functions, W = X and Y
    N = 4
    flipped = QParams(Q, Q ** (1 - N), tau_parameter(B, Q, N))
    poly = pastro_poly(2, flipped)
    samples = [poly.eval_at(Q ** (s + 1)) for s in range(N)]
    for operator in make_operators(flipped)[:2]:
        band = restrict(operator, N)
        lhs = mat_vec(band, samples)[::-1]
        rhs = mat_vec(tau_conjugate(band), samples[::-1])
        assert lhs == rhs


@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_grid_build_and_adjoint_checks_make_three_operator_triples(q, b, monkeypatch):
    # one make_operators call at b for the rep, at tau(b) for the tau flips
    # and at tau(tau(b)) for tau-involution
    calls = []

    def counted(params):
        calls.append(params.b)
        return make_operators(params)

    monkeypatch.setattr(biorth, "make_operators", counted)
    verify_adjoint_structure(make_grid_rep(5, b, q))
    assert calls == [b, tau_parameter(b, q, 5), b]


@pytest.mark.parametrize("b", [B, Fraction(-3, 4), Fraction(7, 3)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_adjoint_structure_suite_passes(N, b):
    for check in verify_adjoint_structure(make_grid_rep(N, b, Q)):
        assert check.status == "PASS", (check.name, check.witness)


@pytest.mark.parametrize("b", [B, Fraction(-3, 4)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_adjoint_gevp_suite_passes(N, b):
    rep = make_grid_rep(N, b, Q)
    for n, pair in zip(range(N), _adjoint_pairs(rep)):
        for check in verify_adjoint_gevp(n, rep, pair):
            assert check.status == "PASS", (check.name, check.witness)


@pytest.mark.parametrize("b", [B, Fraction(-3, 4), Fraction(7, 3)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_biorthogonality_suite_passes(N, b):
    gram, checks = verify_biorthogonality(make_grid_rep(N, b, Q))
    for check in checks:
        assert check.status == "PASS", (check.name, check.witness)
    params = QParams(Q, Q ** (1 - N), b)
    for n in range(N):
        for m in range(N):
            expected = norm_constant(n, params) if n == m else 0
            assert gram[n][m] == expected


def test_corrupted_lam_fails_only_the_adjoint_gevp_at_that_degree():
    rep = make_grid_rep(5, B, Q)
    lam = list(rep.lam)
    lam[2] += 1
    corrupted = rep._replace(lam=lam)
    for n, pair in zip(range(5), _adjoint_pairs(corrupted)):
        for check in verify_adjoint_gevp(n, corrupted, pair):
            if (check.name, n) == ("adjoint-gevp", 2):
                assert check.status == "FAIL"
                assert check.witness.startswith("index ")
            else:
                assert check.status == "PASS", (check.name, n, check.witness)


def test_adjoint_gevp_rejects_out_of_range_degree():
    rep = make_grid_rep(3, B, Q)
    with pytest.raises(ValueError):
        verify_adjoint_gevp(3, rep, next(islice(_adjoint_pairs(rep), 3, None)))


def test_proportionality_witness():
    u = grid_vector([Fraction(1), Fraction(2), Fraction(-3)])
    assert proportionality_witness(u, GridVector([-2, -4, 6], 1)) is None
    assert proportionality_witness(u, GridVector([-2, -4, 6], 7)) is None
    witness = proportionality_witness(u, GridVector([1, 2, 3], 2))
    assert witness == "cross product at (0,2): u_0 v_2 = 3/2, u_2 v_0 = -3/2"
    with pytest.raises(ResonantParameterError):
        proportionality_witness(u, GridVector([0] * 3, 1))
    with pytest.raises(ResonantParameterError):
        proportionality_witness(GridVector([0] * 3, 5), u)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def vector_pairs(draw):
    """(u, v) of equal length; v is often a multiple of u, sometimes perturbed."""
    size = draw(st.integers(1, 7))
    u = draw(st.lists(st.sampled_from([Fraction(0)]) | small_rationals, min_size=size, max_size=size))
    if draw(st.booleans()):
        scale = draw(small_rationals)
        v = [scale * value for value in u]
        if draw(st.booleans()):
            v[draw(st.integers(0, size - 1))] += draw(small_rationals)
    else:
        v = draw(st.lists(small_rationals, min_size=size, max_size=size))
    return u, v


def _scaled(vector: GridVector, k: int) -> GridVector:
    """The same values over a denominator k times larger: not reduced."""
    return GridVector([k * num for num in vector.nums], k * vector.den)


@given(vector_pairs(), st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=300, derandomize=True)
def test_proportionality_witness_matches_pairwise_scan(pair, k, m):
    u, v = pair
    int_u, int_v = grid_vector(u), grid_vector(v)
    inputs = [(int_u, int_v), (_scaled(int_u, k), _scaled(int_v, m)), (int_u, _scaled(int_v, m))]
    try:
        expected = grid_reference.proportionality_witness(u, v)
    except ResonantParameterError as error:
        for vectors in inputs:
            with pytest.raises(ResonantParameterError) as raised:
                proportionality_witness(*vectors)
            assert str(raised.value) == str(error)
        return
    for vectors in inputs:
        assert proportionality_witness(*vectors) == expected


def test_grid_vector_round_trip():
    values = [Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5)]
    vector = grid_vector(values)
    assert vector == GridVector([3, -4, 0, 30], 6)
    assert vector.values() == values


def test_int_bands_stand_for_the_adjoint_bands():
    rep = make_grid_rep(6, Fraction(-3, 4), Q)
    for name in ("X*", "Y*"):
        band, den = rep.int_bands[name]
        assert den > 0 and all(type(entry) is int for diagonal in band for entry in diagonal)
        assert fraction_band(band, den) == rep.matrices[name]


#: The rationals admissible_draws picks from: p/r with |p| <= 6, 1 <= r <= 6.
draw_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@given(draw_rationals.filter(lambda v: v not in (0, 1, -1)), draw_rationals, st.integers(1, 6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_int_grid_route_matches_the_fraction_route(q, b, N):
    try:
        rep = make_grid_rep(N, b, q)
    except ParameterError:
        return
    for n in range(N):
        assert rep.poly_values[n] == grid_vector(grid_samples(pastro_poly(n, rep.params), rep.grid))
        assert rep.partner_values[n] == grid_vector(
            grid_samples(biorthogonal_partner(n, rep.params), rep.grid)
        )
    gram, checks = verify_biorthogonality(rep)
    expected_gram, expected_checks = reference_biorthogonality(rep)
    assert gram == expected_gram
    assert all(type(entry) is Fraction for row in gram for entry in row)
    assert checks == expected_checks
    # Once the grid build succeeds, no adjoint pair can raise: the flipped
    # and reflected P_0..P_(N-1) raise only where a unit 1 - b q^k,
    # 1 - q^(1-N+k)/b, 1 - q^(2-N+k)/b or 1 - b q^(k-1), 0 <= k <= N - 2,
    # vanishes, and the build's P_0..P_N or R_0..R_(N-1) raises at each.
    for n, pair in zip(range(N), _adjoint_pairs(rep)):
        assert verify_adjoint_gevp(n, rep, pair) == reference_adjoint_gevp(n, rep)


def _grid_suite(rep, gevp, biorthogonality):
    """Every grid check of a rep, the adjoint eigenvalue checks by ``gevp``,
    which is given the pairs of one ``_adjoint_pairs``, as a run steps them."""
    checks = verify_adjoint_structure(rep)
    for n, pair in zip(range(rep.N), _adjoint_pairs(rep)):
        checks += gevp(n, rep, pair)
    return checks + biorthogonality(rep)[1]


def _reference_gevp(n, rep, pair):
    """``reference_adjoint_gevp``, which builds its own P_n: ``pair`` is not read."""
    return reference_adjoint_gevp(n, rep)


def _failures(checks):
    return [(c.name, c.params.get("n"), c.witness) for c in checks if c.status != "PASS"]


def _bumped(vector: GridVector, index: int) -> GridVector:
    nums = list(vector.nums)
    nums[index] += 1
    return vector._replace(nums=nums)


def _corrupt(rep, field: str):
    """A 5-point rep with one entry of one field moved."""
    if field == "partner R_2":
        rep.partner_values[2] = _bumped(rep.partner_values[2], 1)
    elif field == "partner R_(N-1)":
        rep.partner_values[4] = _bumped(rep.partner_values[4], 3)
    elif field == "partner R_(N-1) zero":
        # the zero-product witness of weight-origin
        nums = list(rep.partner_values[4].nums)
        nums[2] = 0
        rep.partner_values[4] = rep.partner_values[4]._replace(nums=nums)
    elif field == "weight w_1":
        rep = rep._replace(w=rep.w[:1] + [rep.w[1] + Fraction(1, 3)] + rep.w[2:])
    elif field == "norm h_(N-1)":
        rep = rep._replace(h=rep.h[:4] + [rep.h[4] * 2] + rep.h[5:])
    elif field == "norm h_N + 1":
        rep = rep._replace(h=rep.h[:5] + [rep.h[5] + 1])
    elif field == "norm h_2 = 0":
        rep = rep._replace(h=rep.h[:2] + [Fraction(0)] + rep.h[3:])
    elif field == "top P_N":
        rep = rep._replace(p_top=rep.p_top + LaurentPoly({2: Fraction(1, 3)}))
    elif field == "top P_N + x^(N+1)":
        rep = rep._replace(p_top=rep.p_top + LaurentPoly({6: 1}))
    elif field == "lambda_3":
        rep = rep._replace(lam=rep.lam[:3] + [rep.lam[3] + Fraction(1, 7)] + rep.lam[4:])
    else:
        band, den = rep.int_bands["X*"]
        diagonal = field.split()[-1]
        entries = list(getattr(band, diagonal))
        entries[0] -= 5
        rep.int_bands["X*"] = (band._replace(**{diagonal: entries}), den)
    return rep


#: Corruptions whose FAILed check names are pinned exactly, with one
#: witness among them.
EXACT_FAILURES = {
    "weight w_1": (
        {
            "adjoint-shift-plus",
            "adjoint-shift-minus",
            "adjoint-pairing-X",
            "adjoint-pairing-Y",
            "adjoint-involution-X",
            "adjoint-involution-Y",
            "gram-diagonal",
            "weights-normalized",
            "weight-origin",
        },
        "sum = 4/3",
    ),
    "norm h_N + 1": ({"norm-truncation"}, "h_N = 1"),
    "norm h_2 = 0": ({"gram-diagonal", "norm-nonzero"}, "h_2 = 0"),
    "top P_N + x^(N+1)": (
        {"truncation-polynomial", "truncation-simple-roots", "weight-origin"},
        "index 6: lhs 1, rhs 0",
    ),
}


@pytest.mark.parametrize(
    "field",
    [
        "partner R_2",
        "partner R_(N-1)",
        "partner R_(N-1) zero",
        "weight w_1",
        "norm h_(N-1)",
        "norm h_N + 1",
        "norm h_2 = 0",
        "top P_N",
        "top P_N + x^(N+1)",
        "lambda_3",
        "int X* main",
        "int X* upper",
    ],
)
@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_corrupted_rep_fails_as_the_fraction_route(field, q, b):
    rep = _corrupt(make_grid_rep(5, b, q), field)
    checks = _grid_suite(rep, verify_adjoint_gevp, verify_biorthogonality)
    expected = _grid_suite(rep, _reference_gevp, reference_biorthogonality)
    failures = _failures(checks)
    assert failures
    assert checks == expected
    if field in EXACT_FAILURES:
        names, witness = EXACT_FAILURES[field]
        assert {name for name, _, _ in failures} == names
        assert witness in {text for _, _, text in failures}


def _plus_third(index: int):
    """make_operators with I/3 added to X (index 0) or to Y (index 1)."""

    def corrupted(params):
        triple = list(make_operators(params))
        identity = QDiffOperator.identity(params.q)
        triple[index] = linear_combination(
            params.q, ((1, triple[index]), (Fraction(1, 3), identity))
        )
        return tuple(triple)

    return corrupted


def _off_the_rep_tau(b):
    """tau_parameter, exact at b and off by one at every other parameter."""

    def corrupted(b_value, q, N):
        flipped = tau_parameter(b_value, q, N)
        return flipped if Fraction(b_value) == b else flipped + 1

    return corrupted


def _bumped_main(band: Band) -> Band:
    """The band with entry (0,0) moved by one."""
    return band._replace(main=[band.main[0] + 1, *band.main[1:]])


def _bumped_rep_main(name: str):
    """A corruption moving entry (0,0) of the rep's band ``name``."""

    def corrupted(rep):
        rep.matrices[name] = _bumped_main(rep.matrices[name])
        return rep

    return corrupted


def _bumped_shift(build):
    """A shift-matrix builder whose entry (0,0) is moved by one."""
    return lambda N: _bumped_main(build(N))


#: The move of Q_3 by which a coupled fault makes Q_3(1/x) differ from R_3.
_Q3_MOVE = LaurentPoly({-1: Fraction(1, 7)})


def _moved_q3(rows):
    """baxter_system with Q_3 moved by x^-1/7, so Q_3(1/x) is not R_3."""
    p_polys, q_polys = baxter_system(rows)
    q_polys[3] += _Q3_MOVE
    return p_polys, q_polys


def _moved_q3_pairs(rows):
    """_coupled_pairs with Q_3 moved by x^-1/7; every later pair is stepped
    from the true Q_3, as in :func:`_moved_q3`."""
    for n, (p_poly, q_poly) in enumerate(pastro._coupled_pairs(rows)):
        yield p_poly, q_poly + _Q3_MOVE if n == 3 else q_poly


#: A fault in the operator triple, the shift matrices or the tau flip,
#: applied before (a monkeypatched ``biorth`` attribute, built for the rep's
#: b) or after (``None``: a corruption of the built rep) the rep is built,
#: and the exact set of grid checks it FAILs.
OPERATOR_FAULTS = {
    "X + I/3": (
        "make_operators",
        lambda b: _plus_third(0),
        {
            "adjoint-X-closed-form",
            "adjoint-X-tau",
            "adjoint-gevp",
            "adjoint-partner-baxter",
            "adjoint-partner-closed-form",
            "adjoint-partner-parameter-flip",
        },
    ),
    "Y + I/3": (
        "make_operators",
        lambda b: _plus_third(1),
        {"adjoint-Y-closed-form", "adjoint-Y-tau", "adjoint-gevp"},
    ),
    "tau off the rep's b": (
        "tau_parameter",
        _off_the_rep_tau,
        {"tau-involution-X", "tau-involution-Y"},
    ),
    "rep X main[0] + 1": (
        None,
        _bumped_rep_main("X"),
        {"adjoint-pairing-X", "adjoint-involution-X", "tau-involution-X"},
    ),
    "rep Y main[0] + 1": (
        None,
        _bumped_rep_main("Y"),
        {"adjoint-pairing-Y", "adjoint-involution-Y", "tau-involution-Y"},
    ),
    "T^+ main[0] + 1": (
        "shift_plus_matrix",
        lambda b: _bumped_shift(shift_plus_matrix),
        {"adjoint-shift-plus"},
    ),
    "T^- main[0] + 1": (
        "shift_minus_matrix",
        lambda b: _bumped_shift(shift_minus_matrix),
        {"adjoint-shift-minus"},
    ),
    "coupled Q_3 + x^-1/7": (
        "_coupled_pairs",
        lambda b: _moved_q3_pairs,
        {"adjoint-partner-baxter"},
    ),
}

#: The witnesses pinned among an operator fault's failures.
OPERATOR_WITNESSES = {
    "T^+ main[0] + 1": "entry (0,0): lhs 1, rhs 0",
    "T^- main[0] + 1": "entry (0,0): lhs 1, rhs 0",
}


@pytest.mark.parametrize("fault", list(OPERATOR_FAULTS))
@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_operator_fault_fails_exactly_its_grid_checks(fault, q, b, monkeypatch):
    attribute, corruption, names = OPERATOR_FAULTS[fault]
    if attribute is None:
        rep = corruption(make_grid_rep(5, b, q))
    else:
        monkeypatch.setattr(biorth, attribute, corruption(b))
        rep = make_grid_rep(5, b, q)
    failures = _failures(_grid_suite(rep, verify_adjoint_gevp, verify_biorthogonality))
    assert {name for name, _, _ in failures} == names
    assert all(witness for _, _, witness in failures)
    if fault in OPERATOR_WITNESSES:
        assert OPERATOR_WITNESSES[fault] in {witness for _, _, witness in failures}


@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_moved_coupled_partner_fails_as_the_fraction_route(q, b, monkeypatch):
    # The build samples Q_3(1/x) itself, and reuses R_n's samples elsewhere.
    monkeypatch.setattr(biorth, "_coupled_pairs", _moved_q3_pairs)
    monkeypatch.setattr(grid_reference, "baxter_system", _moved_q3)
    rep = make_grid_rep(5, b, q)
    assert rep.baxter_values[3] != rep.partner_values[3]
    assert all(rep.baxter_values[n] is rep.partner_values[n] for n in (0, 1, 2, 4))
    checks = _grid_suite(rep, verify_adjoint_gevp, verify_biorthogonality)
    assert checks == _grid_suite(rep, _reference_gevp, reference_biorthogonality)
    assert [(name, n) for name, n, _ in _failures(checks)] == [("adjoint-partner-baxter", "3")]


@pytest.mark.parametrize("N, q, b", [(5, Q, B), (5, Fraction(-4, 5), Fraction(-2)), (1, Q, B)])
def test_grid_build_steps_the_coupled_pairs_as_the_listed_route(N, q, b, monkeypatch):
    # The build steps each pair beside its row; no list of P~_n or Q_n is made.
    expected = listed_grid_rep(N, b, q)

    def unexpected(rows):
        raise AssertionError("the coupled pairs were listed")

    monkeypatch.setattr(pastro, "baxter_system", unexpected)
    monkeypatch.setattr(biorth, "baxter_system", unexpected, raising=False)
    assert make_grid_rep(N, b, q) == expected


def test_every_grid_check_fails_under_a_pinned_corruption():
    rep = make_grid_rep(5, B, Q)
    names = {check.name for check in _grid_suite(rep, verify_adjoint_gevp, verify_biorthogonality)}
    pinned = set()
    for failed, _ in EXACT_FAILURES.values():
        pinned |= failed
    for _, _, failed in OPERATOR_FAULTS.values():
        pinned |= failed
    assert pinned == names


nonzero_rationals = draw_rationals.filter(bool)


@given(
    nonzero_rationals.filter(lambda v: v not in (1, -1)),
    nonzero_rationals,
    st.integers(1, 7),
    st.integers(-2, 2),
    st.lists(draw_rationals, max_size=5),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_restrict_matches_apply_on_grid_samples(q, b, N, low, coefficients):
    # On the grid, the restricted band maps the samples of f to those of
    # the operator applied to f: the dropped corner coefficients vanish.
    params = QParams(q, q ** (1 - N), b)
    X, Y, _ = make_operators(params)
    x_star = QDiffOperator(q, {1: (x() - q**N) * b, 0: q - x() * b})
    y_star = QDiffOperator(q, {-1: (x() - q) / b, 0: q**N - x() / b})
    f = LaurentPoly({low + k: c for k, c in enumerate(coefficients)})
    grid = range(1, N + 1)
    samples = f.sample_at_powers(q, grid).values()
    for operator in (X, Y, x_star, y_star):
        image = operator.apply(f).sample_at_powers(q, grid).values()
        assert mat_vec(restrict(operator, N), samples) == image


def test_restrict_refuses_a_shift_off_the_band():
    with pytest.raises(ValueError):
        restrict(QDiffOperator(Q, {2: 1}), 3)


@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_corrupted_p_star_fails_as_the_fraction_route(q, b, monkeypatch):
    # P_2 at the flipped b plus prod_(t != 1) (x - y_t) over the flip points
    # y_t = q^(N-t): only entry 1 of P*_2 changes.
    N, degree, index = 5, 2, 1
    flipped = QParams(q, q ** (1 - N), tau_parameter(b, q, N))
    bump = LaurentPoly.one()
    for t in range(N):
        if t != index:
            bump = bump * LaurentPoly({1: 1, 0: -(q ** (N - t))})

    def corrupted_pastro_poly(n, params):
        poly = pastro_poly(n, params)
        return poly + bump if (n, params) == (degree, flipped) else poly

    def corrupted_family(params):
        for n, poly in enumerate(pastro_family(params)):
            yield poly + bump if (n, params) == (degree, flipped) else poly

    rep = make_grid_rep(N, b, q)
    monkeypatch.setattr(biorth, "pastro_family", corrupted_family)
    monkeypatch.setattr(grid_reference, "pastro_poly", corrupted_pastro_poly)
    checks = _grid_suite(rep, verify_adjoint_gevp, verify_biorthogonality)
    expected = _grid_suite(rep, _reference_gevp, reference_biorthogonality)
    assert {(name, n) for name, n, _ in _failures(checks)} >= {("adjoint-gevp", "2")}
    assert checks == expected


@pytest.mark.parametrize("field", ["partner", "X* band"])
def test_zero_vector_raises_as_the_fraction_route(field):
    rep = make_grid_rep(4, B, Q)
    if field == "partner":
        rep.partner_values[1] = GridVector([0] * 4, 1)
    else:
        band, den = rep.int_bands["X*"]
        rep.int_bands["X*"] = (Band(*([0] * len(diagonal) for diagonal in band)), den)
    with pytest.raises(ResonantParameterError) as expected:
        reference_adjoint_gevp(1, rep)
    with pytest.raises(ResonantParameterError) as raised:
        verify_adjoint_gevp(1, rep, next(islice(_adjoint_pairs(rep), 1, None)))
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == "zero grid vector encountered (degenerate parameters)"


def test_grid_build_computes_the_norm_constants_once(monkeypatch):
    calls = []
    norm_constants = pastro._norm_constants

    def counted(n_max, *args):
        calls.append(n_max)
        return norm_constants(n_max, *args)

    monkeypatch.setattr(pastro, "_norm_constants", counted)
    monkeypatch.setattr(biorth, "_norm_constants", counted)
    N = 6
    rep = make_grid_rep(N, B, Q)
    assert calls == [N]
    assert rep.h == [norm_constant(n, rep.params) for n in range(N + 1)]
    monkeypatch.undo()
    _, q_polys = baxter_system(scalar_rows(N - 1, rep.params))
    assert rep.baxter_values == [
        poly.invert_variable().sample_at_powers(Q, range(1, N + 1)) for poly in q_polys
    ]


def test_biorth_samples_p_top_and_its_derivative_once_per_point(monkeypatch):
    calls = []
    sample_at_powers = LaurentPoly.sample_at_powers

    def counted(self, q, exponents):
        calls.append((self, list(exponents)))
        return sample_at_powers(self, q, exponents)

    def unexpected(*args):
        raise AssertionError("a grid point evaluated on its own")

    N = 5
    rep = make_grid_rep(N, B, Q)
    monkeypatch.setattr(LaurentPoly, "eval_at", unexpected)
    for n, pair in zip(range(N), _adjoint_pairs(rep)):
        verify_adjoint_gevp(n, rep, pair)
    monkeypatch.setattr(LaurentPoly, "sample_at_powers", counted)
    verify_biorthogonality(rep)
    grid_exponents = list(range(1, N + 1))
    assert calls == [(rep.p_top, grid_exponents), (rep.p_top.derivative(), grid_exponents)]


#: sample_at_powers calls of a whole N = 5 run (the build, the adjoint
#: structure, the eigenvalue problem at every degree and biorthogonality)
#: when the eigenvalue problem sampled each Q_n(1/x) on its own, although
#: it is the polynomial R_n that the build samples.
SAMPLES_WITH_Q_SAMPLED_APART = 43


@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_a_grid_run_samples_each_partner_once(q, b, monkeypatch):
    calls = []
    sample_at_powers = LaurentPoly.sample_at_powers

    def counted(self, q, exponents):
        calls.append(self)
        return sample_at_powers(self, q, exponents)

    monkeypatch.setattr(LaurentPoly, "sample_at_powers", counted)
    N = 5
    rep = make_grid_rep(N, b, q)
    _grid_suite(rep, verify_adjoint_gevp, verify_biorthogonality)
    assert len(calls) == SAMPLES_WITH_Q_SAMPLED_APART - N
    assert all(baxter is partner for baxter, partner in zip(rep.baxter_values, rep.partner_values))


def _laurent_polys(value):
    """Every LaurentPoly reachable from ``value`` through lists, tuples and dicts."""
    if isinstance(value, LaurentPoly):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _laurent_polys(item)


@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_a_grid_rep_keeps_no_polynomial_but_p_top(q, b):
    rep = make_grid_rep(5, b, q)
    polys = list(_laurent_polys(rep))
    assert len(polys) == 1 and polys[0] is rep.p_top


@pytest.mark.parametrize("q, b", [(Q, B), (Fraction(-4, 5), Fraction(-2))])
def test_passing_gevp_words_no_witness(q, b, monkeypatch):
    # The verdicts are taken on ints; the Fraction witness routes run only
    # for a failing check.
    def unexpected(*args):
        raise AssertionError("witness built for a passing check")

    rep = make_grid_rep(6, b, q)
    monkeypatch.setattr(biorth, "vector_mismatch_witness", unexpected)
    monkeypatch.setattr(biorth, "format_rational", unexpected)
    for n, pair in zip(range(6), _adjoint_pairs(rep)):
        assert all(check.status == "PASS" for check in verify_adjoint_gevp(n, rep, pair))
