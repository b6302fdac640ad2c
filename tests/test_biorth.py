"""Grid representation, adjoints, the tau flip, and biorthogonality."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family_reference import norm_constant
from pastroq.biorth import (
    Band,
    band_mismatch_witness,
    grid_samples,
    make_grid_rep,
    mat_vec,
    proportionality_witness,
    restricted_x_matrix,
    restricted_y_matrix,
    scalar_product,
    tau_conjugate,
    tau_parameter,
    tau_transform,
    verify_adjoint_gevp,
    verify_adjoint_structure,
    verify_biorthogonality,
    weight_adjoint,
)
from pastroq.pastro import pastro_poly
from pastroq.qcore import QParams, ResonantParameterError, format_rational
from pastroq.report import matrix_mismatch_witness

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
        assert dense(weight_adjoint(band, w)) == adjoint
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
        assert weight_adjoint(rep.matrices[f"{name}*"], w) == rep.matrices[name]


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
    # tau(W f) = tau(W) tau(f) for b-dependent grid functions
    N = 4
    a = Q ** (1 - N)
    b_flip = tau_parameter(B, Q, N)

    def samples(b_val: Fraction) -> list[Fraction]:
        poly = pastro_poly(2, QParams(Q, a, b_val))
        return [poly.eval_at(Q ** (s + 1)) for s in range(N)]

    for build in (restricted_x_matrix, restricted_y_matrix):
        image_flipped = mat_vec(build(N, b_flip, Q), samples(b_flip))
        lhs = image_flipped[::-1]
        rhs = mat_vec(tau_transform(build, N, B, Q), samples(b_flip)[::-1])
        assert lhs == rhs


@pytest.mark.parametrize("b", [B, Fraction(-3, 4), Fraction(7, 3)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_adjoint_structure_suite_passes(N, b):
    for check in verify_adjoint_structure(make_grid_rep(N, b, Q)):
        assert check.status == "PASS", (check.name, check.witness)


@pytest.mark.parametrize("b", [B, Fraction(-3, 4)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_adjoint_gevp_suite_passes(N, b):
    rep = make_grid_rep(N, b, Q)
    for n in range(N):
        for check in verify_adjoint_gevp(n, rep):
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
    corrupted = dataclasses.replace(rep, lam=lam)
    for n in range(5):
        for check in verify_adjoint_gevp(n, corrupted):
            if (check.name, n) == ("adjoint-gevp", 2):
                assert check.status == "FAIL"
                assert check.witness.startswith("index ")
            else:
                assert check.status == "PASS", (check.name, n, check.witness)


def test_adjoint_gevp_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        verify_adjoint_gevp(3, make_grid_rep(3, B, Q))


def test_proportionality_witness():
    u = [Fraction(1), Fraction(2), Fraction(-3)]
    assert proportionality_witness(u, [Fraction(-2), Fraction(-4), Fraction(6)]) is None
    witness = proportionality_witness(u, [Fraction(1), Fraction(2), Fraction(3)])
    assert witness is not None and "cross product" in witness
    with pytest.raises(ResonantParameterError):
        proportionality_witness(u, [Fraction(0)] * 3)
    with pytest.raises(ResonantParameterError):
        proportionality_witness([Fraction(0)] * 3, u)


def pairwise_proportionality_witness(u, v):
    """The all-pairs cross-product scan, kept as the reference."""
    if all(value == 0 for value in u) or all(value == 0 for value in v):
        raise ResonantParameterError("zero grid vector encountered (degenerate parameters)")
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return (
                    f"cross product at ({i},{j}): u_{i} v_{j} = "
                    f"{format_rational(u[i] * v[j])}, u_{j} v_{i} = "
                    f"{format_rational(u[j] * v[i])}"
                )
    return None


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


@given(vector_pairs())
@settings(max_examples=300, derandomize=True)
def test_proportionality_witness_matches_pairwise_scan(pair):
    u, v = pair
    try:
        expected = pairwise_proportionality_witness(u, v)
    except ResonantParameterError:
        with pytest.raises(ResonantParameterError):
            proportionality_witness(u, v)
        return
    assert proportionality_witness(u, v) == expected


def test_grid_samples():
    rep = make_grid_rep(3, B, Q)
    poly = pastro_poly(1, rep.params)
    values = grid_samples(poly, rep.grid)
    assert values == [poly.eval_at(point) for point in rep.grid]
