"""The witness wording of every failed comparison.

``report.first_mismatch`` words the first differing pair of every scan in
the package. The loops it replaced are kept here, as they were written,
and each rewritten witness is compared with its loop on drawn inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import matrix_mismatch_witness
from pastroq import cli
from pastroq.biorth import (
    Band,
    GridVector,
    band_entries,
    band_mismatch_witness,
    make_grid_rep,
    proportionality_witness,
    verify_adjoint_structure,
)
from pastroq.pastro import scalar_rows, verify_baxter_consistency
from pastroq.qcore import QParams, format_rational
from pastroq.qdiff import degree_records
from pastroq.report import first_mismatch, vector_mismatch_witness

REFERENCE = QParams(Fraction(1, 2), Fraction(3), Fraction(1, 5))
SECOND = QParams(Fraction(-4, 5), Fraction(6), Fraction(-2))

_settings = settings(max_examples=150, derandomize=True, deadline=None)


def _old_vector_witness(lhs, rhs):
    for s, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            return (
                f"index {s}: lhs {format_rational(left)}, "
                f"rhs {format_rational(right)}"
            )
    return None


def _old_matrix_witness(lhs, rhs):
    for s, (row_l, row_r) in enumerate(zip(lhs, rhs)):
        for t, (left, right) in enumerate(zip(row_l, row_r)):
            if left != right:
                return (
                    f"entry ({s},{t}): lhs {format_rational(left)}, "
                    f"rhs {format_rational(right)}"
                )
    return None


def _old_band_witness(lhs, rhs):
    for (s, t, left), (_, _, right) in zip(band_entries(lhs), band_entries(rhs)):
        if left != right:
            return (
                f"entry ({s},{t}): lhs {format_rational(left)}, "
                f"rhs {format_rational(right)}"
            )
    return None


def _old_pairing_witness(matrix, adjoint, w):
    transpose = Band(matrix.upper, matrix.main, matrix.lower)
    for (i, j, entry), (_, _, adjoint_entry) in zip(
        band_entries(transpose), band_entries(adjoint)
    ):
        left, right = w[j] * entry, w[i] * adjoint_entry
        if left != right:
            return (
                f"basis pair ({i},{j}): <W e_{i}, e_{j}> = "
                f"{format_rational(left)}, <e_{i}, W* e_{j}> = "
                f"{format_rational(right)}"
            )
    return None


def _old_cross_product_witness(u, v):
    """The pair scan of ``proportionality_witness``, without its O(N) pass."""
    a, c = u.nums, v.nums
    den = u.den * v.den
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            left, right = a[i] * c[j], a[j] * c[i]
            if left != right:
                return (
                    f"cross product at ({i},{j}): u_{i} v_{j} = "
                    f"{format_rational(Fraction(left, den))}, u_{j} v_{i} = "
                    f"{format_rational(Fraction(right, den))}"
                )
    return None


def _old_baxter_witnesses(n_max, rows):
    """The alpha, beta and norm-product witnesses of ``verify_baxter_consistency``."""
    alpha_witness = None
    for n in range(1, n_max + 1):
        expected = -rows[n - 1].alpha * rows[n].mu1
        if rows[n].alpha != expected:
            alpha_witness = (
                f"n={n}: alpha_n {format_rational(rows[n].alpha)}, "
                f"-alpha_(n-1)*mu1_n {format_rational(expected)}"
            )
            break

    beta_witness = None
    for n in range(n_max):
        alpha_next = rows[n + 1].alpha
        if alpha_next == 0:
            beta_witness = f"n={n}: alpha_(n+1) = 0, ratio undefined"
            break
        expected = (rows[n + 1].mu2 - rows[n + 1].mu1) / alpha_next
        if rows[n].beta != expected:
            beta_witness = (
                f"n={n}: beta_n {format_rational(rows[n].beta)}, "
                f"(mu2_(n+1) - mu1_(n+1))/alpha_(n+1) {format_rational(expected)}"
            )
            break

    norm_witness = None
    product = Fraction(1)
    for n in range(n_max + 1):
        if rows[n].h != product:
            norm_witness = (
                f"n={n}: h_n {format_rational(rows[n].h)}, "
                f"prod {format_rational(product)}"
            )
            break
        product *= 1 - rows[n].alpha * rows[n].beta
    return [alpha_witness, beta_witness, norm_witness]


_values = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)])


@st.composite
def _near(draw, values):
    """``values`` with up to two entries moved, often none."""
    moved = list(values)
    for _ in range(draw(st.integers(0, 2)) if moved else 0):
        index = draw(st.integers(0, len(moved) - 1))
        moved[index] += draw(st.sampled_from([1, Fraction(-1, 2), Fraction(3, 4)]))
    return moved


@st.composite
def _vector_pairs(draw):
    lhs = draw(st.lists(_values, max_size=6))
    return lhs, draw(_near(lhs))


@st.composite
def _matrix_pairs(draw):
    width = draw(st.integers(0, 4))
    lhs = draw(st.lists(st.lists(_values, min_size=width, max_size=width), max_size=5))
    return lhs, [draw(_near(row)) for row in lhs]


@st.composite
def _grid_vector_pairs(draw):
    """Int vectors, the second often a multiple of the first, sometimes moved."""
    nums = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    scale = draw(st.integers(-2, 2))
    other = [scale * num + draw(st.sampled_from([0, 0, 0, 1, -2])) for num in nums]
    return GridVector(nums, draw(st.integers(1, 6))), GridVector(other, draw(st.integers(1, 6)))


@st.composite
def _band_pairs(draw):
    N = draw(st.integers(1, 6))
    sizes = (N - 1, N, N - 1)
    band = Band(*(draw(st.lists(_values, min_size=size, max_size=size)) for size in sizes))
    return band, Band(*(draw(_near(diagonal)) for diagonal in band))


@given(_vector_pairs())
@_settings
def test_vector_witness_matches_old_loop(pair):
    assert vector_mismatch_witness(*pair) == _old_vector_witness(*pair)


@given(_matrix_pairs())
@_settings
def test_matrix_witness_matches_old_loop(pair):
    assert matrix_mismatch_witness(*pair) == _old_matrix_witness(*pair)


@given(_band_pairs())
@_settings
def test_band_witness_matches_old_loop(pair):
    assert band_mismatch_witness(*pair) == _old_band_witness(*pair)


@given(st.sampled_from(["X", "Y"]), _band_pairs())
@_settings
def test_pairing_witness_matches_old_loop(name, pair):
    N = len(pair[0].main)
    rep = make_grid_rep(N, REFERENCE.b, REFERENCE.q)
    # the drawn difference, moved onto the adjoint band
    adjoint = rep.matrices[f"{name}*"]
    moved = [
        [entry + new - old for entry, new, old in zip(*diagonals)]
        for diagonals in zip(adjoint, pair[1], pair[0])
    ]
    rep.matrices[f"{name}*"] = Band(*moved)
    (check,) = [c for c in verify_adjoint_structure(rep) if c.name == f"adjoint-pairing-{name}"]
    assert check.witness == _old_pairing_witness(rep.matrices[name], Band(*moved), rep.w)


@given(_grid_vector_pairs())
@_settings
def test_cross_product_witness_matches_old_loop(pair):
    u, v = pair
    if not any(u.nums) or not any(v.nums):
        return  # zero vectors raise; test_biorth covers that
    assert proportionality_witness(u, v) == _old_cross_product_witness(u, v)


@given(
    st.sampled_from([REFERENCE, SECOND]),
    st.sampled_from(["alpha", "beta", "h", "mu1", "mu2"]),
    st.integers(0, 5),
    st.sampled_from([1, Fraction(-1, 3), "zero"]),
)
@_settings
def test_baxter_scalar_witnesses_match_old_loops(params, column, index, change):
    rows = list(scalar_rows(5, params))
    value = getattr(rows[index], column)
    rows[index] = rows[index]._replace(**{column: 0 if change == "zero" else value + change})
    records = degree_records(params, 5, iter(rows))
    checks = verify_baxter_consistency(5, params, records)
    assert [check.witness for check in checks[:3]] == _old_baxter_witnesses(5, rows)


def test_first_mismatch_words_the_first_differing_row():
    rows = [(0, 1, 1), (1, Fraction(1, 2), Fraction(-1, 2)), (2, 3, 4)]
    assert first_mismatch("index {}: lhs {}, rhs {}", rows) == "index 1: lhs 1/2, rhs -1/2"
    assert first_mismatch("{0}{0}: {1} {2}", [("x", 1, 1)]) is None
    assert first_mismatch("({0},{1}) {2} {3} {1}", [(4, 5, Fraction(6), 7)]) == "(4,5) 6 7 5"
    assert first_mismatch("{} {}", []) is None


@pytest.mark.parametrize("params", [REFERENCE, SECOND])
def test_zero_alpha_leaves_the_beta_ratio_undefined(params, monkeypatch):
    def zero_alpha(n_max, params):
        for n, row in enumerate(scalar_rows(n_max, params)):
            yield row._replace(alpha=Fraction(0)) if n == 3 else row

    monkeypatch.setattr(cli, "scalar_rows", zero_alpha)
    checks = {check.name: check for check in cli.verify_suite(params, 5)}
    beta = checks["baxter-beta-recurrence"]
    assert (beta.status, beta.witness) == ("FAIL", "n=2: alpha_(n+1) = 0, ratio undefined")
