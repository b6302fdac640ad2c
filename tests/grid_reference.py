"""The Fraction routes that ``pastroq.biorth`` used for the grid checks
before it ran them on int grid vectors, kept as the reference of the
differential tests.

Every sum here runs on reduced Fractions: a grid sample is one
``eval_at`` per point (:func:`grid_samples`), a Gram entry is a
:func:`scalar_product`, the adjoint eigenvalue problem applies the
Fraction form of the int X* and Y* bands to P*_n, and the partner checks
scan every pair of entries (:func:`proportionality_witness`). The two
references read the same ``GridRep`` fields as the package's checks (the
int vectors through ``GridVector.values()``), so a corrupted field
reaches both routes the same way; the one exception is the coupled route,
whose Q_n the reference builds itself from ``baxter_system`` and evaluates
point by point. Only these references compare dense matrices, so
:func:`matrix_mismatch_witness` lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from pastroq.biorth import Band, GridRep, mat_vec, tau_parameter
from pastroq.pastro import baxter_system, pastro_poly, scalar_rows
from pastroq.qcore import LaurentPoly, QParams, ResonantParameterError, format_rational
from pastroq.report import (
    Check,
    equality_check,
    first_mismatch,
    vector_mismatch_witness,
)


def matrix_mismatch_witness(lhs: list[list[Fraction]], rhs: list[list[Fraction]]) -> str | None:
    """First entry where two matrices differ, or None."""
    entries = (
        (s, t, left, right)
        for s, (row_l, row_r) in enumerate(zip(lhs, rhs))
        for t, left, right in zip(count(), row_l, row_r)
    )
    return first_mismatch("entry ({},{}): lhs {}, rhs {}", entries)


def grid_samples(poly: LaurentPoly, grid: list[Fraction]) -> list[Fraction]:
    """A Laurent polynomial evaluated at every grid point."""
    return [poly.eval_at(point) for point in grid]


def proportionality_witness(u: list[Fraction], v: list[Fraction]) -> str | None:
    """The first pair (i, j), i < j, with u_i v_j != u_j v_i, worded, or None.

    The all-pairs cross-product scan. Zero vectors raise, as in the package.
    """
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


def scalar_product(
    weights: list[Fraction], f: list[Fraction], g: list[Fraction]
) -> Fraction:
    """The bilinear form <f, g> = sum_s w_s f_s g_s (no conjugation)."""
    return sum((w * fs * gs for w, fs, gs in zip(weights, f, g)), Fraction(0))


def fraction_band(band: Band, den: int) -> Band:
    """The Fraction band an int band over ``den`` stands for."""
    return Band(*([Fraction(entry, den) for entry in diagonal] for diagonal in band))


def reference_adjoint_gevp(n: int, rep: GridRep) -> list[Check]:
    """``verify_adjoint_gevp`` on Fraction vectors."""
    N = rep.N
    b, q = rep.params.b, rep.params.q
    context = rep.context | {"n": str(n)}
    flip_points = [q ** (N - s) for s in range(N)]
    x_star, y_star = (fraction_band(*rep.int_bands[name]) for name in ("X*", "Y*"))

    flipped = QParams(q, rep.params.a, tau_parameter(b, q, N))
    p_star = grid_samples(pastro_poly(n, flipped), flip_points)
    lam = rep.lam[n]
    image = mat_vec(x_star, p_star)
    checks = [
        equality_check(
            "adjoint-gevp",
            "Y* P*_n = lambda_n X* P*_n with P*_n(s) = P_n(q^(N-s); a, q^(1-N)/b)",
            context,
            vector_mismatch_witness(mat_vec(y_star, p_star), [lam * value for value in image]),
        ),
        equality_check(
            "adjoint-partner-closed-form",
            "X* P*_n prop R_n(x_s)",
            context,
            proportionality_witness(image, rep.partner_values[n].values()),
        ),
    ]
    reflected = QParams(q, rep.params.a, q ** (2 - N) / b)
    flip_samples = grid_samples(pastro_poly(n, reflected), flip_points)
    checks.append(
        equality_check(
            "adjoint-partner-parameter-flip",
            "X* P*_n prop P_n(q^(N-s); q^(1-N), q^(2-N)/b)",
            context,
            proportionality_witness(image, flip_samples),
        )
    )
    _, q_polys = baxter_system(scalar_rows(N - 1, rep.params))
    baxter_samples = grid_samples(q_polys[n].invert_variable(), rep.grid)
    checks.append(
        equality_check(
            "adjoint-partner-baxter",
            "X* P*_n prop Q_n(1/x_s)",
            context,
            proportionality_witness(image, baxter_samples),
        )
    )
    return checks


def reference_biorthogonality(rep: GridRep) -> tuple[list[list[Fraction]], list[Check]]:
    """``verify_biorthogonality`` on Fraction vectors.

    Each Gram entry G[n][m] = sum_s w_s P_n(x_s) R_m(x_s) is one
    :func:`scalar_product`.
    """
    N, w, grid, h, context = rep.N, rep.w, rep.grid, rep.h, rep.context
    partners = [vector.values() for vector in rep.partner_values]
    gram = [[scalar_product(w, f.values(), g) for g in partners] for f in rep.poly_values]
    expected = [[h[n] if n == m else Fraction(0) for m in range(N)] for n in range(N)]
    checks = [
        equality_check(
            "gram-diagonal",
            "sum_s w_s P_n(x_s) R_m(x_s) = h_n delta_nm",
            context,
            matrix_mismatch_witness(gram, expected),
        ),
        equality_check(
            "norm-nonzero",
            "h_n != 0 for n < N",
            context,
            next((f"h_{n} = 0" for n in range(N) if h[n] == 0), None),
        ),
    ]
    total = sum(w, Fraction(0))
    checks.append(
        equality_check(
            "weights-normalized",
            "sum_s w_s = 1",
            context,
            None if total == 1 else f"sum = {format_rational(total)}",
        )
    )
    checks.append(
        equality_check(
            "norm-truncation",
            "h_N = 0 at a = q^(1-N)",
            context,
            None if h[N] == 0 else f"h_N = {format_rational(h[N])}",
        )
    )
    p_top = rep.p_top
    target = LaurentPoly.one()
    for point in grid:
        target = target * LaurentPoly({1: 1, 0: -point})
    checks.append(
        equality_check(
            "truncation-polynomial",
            "P_N = prod_s (x - q^(s+1))",
            context,
            first_mismatch(
                "index {}: lhs {}, rhs {}",
                (
                    (k, p_top.coefficient(k), target.coefficient(k))
                    for k in range(min(0, p_top.valuation or 0), max(N, p_top.degree or 0) + 1)
                ),
            ),
        )
    )
    derivative = p_top.derivative()
    witness = None
    for s, point in enumerate(grid):
        if p_top.eval_at(point) != 0:
            witness = f"P_N(x_{s}) = {format_rational(p_top.eval_at(point))}"
            break
        if derivative.eval_at(point) == 0:
            witness = f"P'_N(x_{s}) = 0 (multiple root)"
            break
    checks.append(
        equality_check(
            "truncation-simple-roots",
            "P_N(x_s) = 0 and P'_N(x_s) != 0 for every grid point",
            context,
            witness,
        )
    )
    partner = rep.partner_values[N - 1].values()
    witness = None
    for s, point in enumerate(grid):
        denominator = derivative.eval_at(point) * partner[s]
        if denominator == 0:
            witness = f"s={s}: P'_N(x_s) R_(N-1)(x_s) = 0"
            break
        if w[s] != h[N - 1] / denominator:
            witness = (
                f"s={s}: w_s = {format_rational(w[s])}, "
                f"h_(N-1)/(P'_N(x_s) R_(N-1)(x_s)) = "
                f"{format_rational(h[N - 1] / denominator)}"
            )
            break
    checks.append(
        equality_check(
            "weight-origin",
            "w_s = h_(N-1) / (P'_N(x_s) R_(N-1)(x_s))",
            context,
            witness,
        )
    )
    return gram, checks
