"""Finite grid representation, adjoints, and discrete biorthogonality.

At the truncation a = q^(1-N) the family P_0..P_(N-1) lives on the
geometric grid x_s = q^(s+1), s = 0..N-1, with rational weights w_s that
sum to 1. Operators restrict to N x N matrices acting on grid value
vectors (boundary terms vanish automatically because the edge coefficients
are zero), adjoints are taken with respect to the bilinear form
<f, g> = sum_s w_s f_s g_s, and the index/parameter flip tau relates the
adjoints back to the original operators. Everything is an exact rational
matrix identity.

Every grid operator here (T^+, T^-, X, Y, their adjoints and tau flips)
is bidiagonal, so each is stored as a :class:`Band` of three diagonals
rather than as a dense N x N matrix.

The sums the checks run over whole grid vectors (the Gram matrix, the
adjoint eigenvalue problem and the proportionality tests) run on a
:class:`GridVector`, the ``LaurentPoly`` layout applied to vectors: int
numerators over one positive denominator. A Gram entry is then one int
dot product, and a ``Fraction`` is built only for what a report prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterator, NamedTuple

from .qcore import LaurentPoly, QParams, ResonantParameterError, Scalar, format_rational
from .pastro import (
    _norm_constants,
    baxter_coefficients,
    baxter_system,
    biorthogonal_partner,
    grid_weights,
    pastro_poly,
)
from .report import (
    Check,
    equality_check,
    matrix_mismatch_witness,
    vector_mismatch_witness,
)

__all__ = [
    "Matrix",
    "Band",
    "band_entries",
    "band_mismatch_witness",
    "mat_vec",
    "diag_times",
    "weight_adjoint",
    "tau_parameter",
    "tau_conjugate",
    "tau_transform",
    "shift_plus_matrix",
    "shift_minus_matrix",
    "restricted_x_matrix",
    "restricted_y_matrix",
    "GridVector",
    "grid_vector",
    "GridRep",
    "make_grid_rep",
    "grid_samples",
    "proportionality_witness",
    "verify_adjoint_structure",
    "verify_adjoint_gevp",
    "verify_biorthogonality",
]

Matrix = list[list[Fraction]]


class Band(NamedTuple):
    """An N x N tridiagonal matrix stored as its three diagonals.

    ``lower[s - 1]`` is entry (s, s-1), ``main[s]`` is entry (s, s) and
    ``upper[s]`` is entry (s, s+1); every other entry is zero. A diagonal
    that is zero is stored as zeros, so two bands are equal exactly when
    the matrices are.
    """

    lower: list[Fraction]
    main: list[Fraction]
    upper: list[Fraction]


class GridVector(NamedTuple):
    """A grid vector held as int numerators over one positive denominator.

    Entry s is ``nums[s] / den``. The numerators and the denominator need
    not be coprime: two vectors are proportional, or a dot product vanishes,
    whatever common factor they carry.
    """

    nums: list[int]
    den: int

    def values(self) -> list[Fraction]:
        """The entries as reduced Fractions."""
        den = self.den
        return [Fraction(num, den) for num in self.nums]


def grid_vector(values: list[Fraction]) -> GridVector:
    """The entries of a Fraction vector over the lcm of their denominators."""
    den = lcm(*(value.denominator for value in values))
    return GridVector([value.numerator * (den // value.denominator) for value in values], den)


def _int_band(band: Band) -> tuple[Band, int]:
    """A band as int entries over the lcm of its denominators."""
    den = lcm(*(entry.denominator for diagonal in band for entry in diagonal))
    scaled = (
        [entry.numerator * (den // entry.denominator) for entry in diagonal] for diagonal in band
    )
    return Band(*scaled), den


MatrixBuilder = Callable[[int, Fraction, Fraction], Band]


def _zeros(length: int) -> list[Fraction]:
    return [Fraction(0)] * length


def band_entries(band: Band) -> Iterator[tuple[int, int, Fraction]]:
    """Every stored entry (s, t, value) of a band, in row-major order."""
    lower, main, upper = band
    for s, value in enumerate(main):
        if s >= 1:
            yield s, s - 1, lower[s - 1]
        yield s, s, value
        if s < len(upper):
            yield s, s + 1, upper[s]


def band_mismatch_witness(lhs: Band, rhs: Band) -> str | None:
    """First entry, in row-major order, where two bands differ, or None."""
    for (s, t, left), (_, _, right) in zip(band_entries(lhs), band_entries(rhs)):
        if left != right:
            return (
                f"entry ({s},{t}): lhs {format_rational(left)}, "
                f"rhs {format_rational(right)}"
            )
    return None


def mat_vec(band: Band, vector: list[Fraction]) -> list[Fraction]:
    """The image W v of a grid vector under a band W (of ints or of Fractions)."""
    lower, main, upper = band
    image = [entry * value for entry, value in zip(main, vector)]
    for s, entry in enumerate(lower, 1):
        image[s] += entry * vector[s - 1]
    for s, entry in enumerate(upper):
        image[s] += entry * vector[s + 1]
    return image


def diag_times(diagonal: list[Fraction], band: Band) -> Band:
    """diag(d) W: row s of W scaled by d_s."""
    lower, main, upper = band
    return Band(
        [d * entry for d, entry in zip(diagonal[1:], lower)],
        [d * entry for d, entry in zip(diagonal, main)],
        [d * entry for d, entry in zip(diagonal, upper)],
    )


def weight_adjoint(band: Band, weights: list[Fraction]) -> Band:
    """The adjoint with respect to the weighted form: W*[t][s] = (w_s/w_t) W[s][t]."""
    lower, main, upper = band
    w = weights
    return Band(
        [w[t - 1] * entry / w[t] for t, entry in enumerate(upper, 1)],
        list(main),
        [w[t + 1] * entry / w[t] for t, entry in enumerate(lower)],
    )


def tau_parameter(b: Scalar, q: Scalar, N: int) -> Fraction:
    """The parameter flip b -> q^(1-N)/b (an exact involution)."""
    b, q = Fraction(b), Fraction(q)
    return q ** (1 - N) / b


def tau_conjugate(band: Band) -> Band:
    """Reverse both indices: entry (s, t) -> (N-1-s, N-1-t), swapping T^+ and T^-."""
    lower, main, upper = band
    return Band(upper[::-1], main[::-1], lower[::-1])


def tau_transform(build: MatrixBuilder, N: int, b: Scalar, q: Scalar) -> Band:
    """The flip tau applied to a b-dependent matrix family.

    Rebuilds the matrix at the flipped parameter q^(1-N)/b and reverses
    both grid indices. Applying it twice returns the original matrix.
    """
    b, q = Fraction(b), Fraction(q)
    return tau_conjugate(build(N, tau_parameter(b, q, N), q))


def shift_plus_matrix(N: int) -> Band:
    """T^+ on grid values: (T^+ f)_s = f_(s+1), with f_N = 0."""
    return Band(_zeros(N - 1), _zeros(N), [Fraction(1)] * (N - 1))


def shift_minus_matrix(N: int) -> Band:
    """T^- on grid values: (T^- f)_s = f_(s-1), with f_(-1) = 0."""
    return Band([Fraction(1)] * (N - 1), _zeros(N), _zeros(N - 1))


def restricted_x_matrix(N: int, b: Scalar, q: Scalar) -> Band:
    """X on the grid: q(q^s - 1) T^- + q(1 - b q^s) I.

    The s = 0 subdiagonal coefficient q(q^0 - 1) vanishes, so the lower
    boundary condition is automatic.
    """
    b, q = Fraction(b), Fraction(q)
    return Band(
        [q * (q**s - 1) for s in range(1, N)],
        [q * (1 - b * q**s) for s in range(N)],
        _zeros(N - 1),
    )


def restricted_y_matrix(N: int, b: Scalar, q: Scalar) -> Band:
    """Y on the grid: (q^(s+1) - q^N) T^+ + (q^N - q^(s+1)/b) I.

    The s = N-1 superdiagonal coefficient q^N - q^N vanishes, so the upper
    boundary condition is automatic.
    """
    b, q = Fraction(b), Fraction(q)
    return Band(
        _zeros(N - 1),
        [q**N - q ** (s + 1) / b for s in range(N)],
        [q ** (s + 1) - q**N for s in range(N - 1)],
    )


def _adjoint_x_closed_form(N: int, b: Fraction, q: Fraction) -> Band:
    """X* = b (q^(s+1) - q^N) T^+ + q (1 - b q^s) I."""
    return Band(
        _zeros(N - 1),
        [q * (1 - b * q**s) for s in range(N)],
        [b * (q ** (s + 1) - q**N) for s in range(N - 1)],
    )


def _adjoint_y_closed_form(N: int, b: Fraction, q: Fraction) -> Band:
    """Y* = (q/b)(q^s - 1) T^- + (q^N - q^(s+1)/b) I."""
    return Band(
        [(q / b) * (q**s - 1) for s in range(1, N)],
        [q**N - q ** (s + 1) / b for s in range(N)],
        _zeros(N - 1),
    )


@dataclass
class GridRep:
    """Everything the grid checks read, built once per (N, b, q).

    ``params`` is (q, q^(1-N), b); ``context`` the report parameters N, b
    and q that every grid check carries; ``grid`` holds the points
    x_s = q^(s+1) and ``w`` their weights; ``matrices`` the bands X, Y, X*,
    Y*, and ``int_bands`` X* and Y* again as (int band, denominator) pairs;
    ``poly_values`` and ``partner_values`` the grid samples of P_0..P_(N-1)
    and R_0..R_(N-1), each a :class:`GridVector`; ``p_top`` the truncation
    polynomial P_N; ``h`` the norm constants h_0..h_N; and ``q_polys`` and
    ``lam`` the coupled-recurrence partners Q_0..Q_(N-1) of
    :func:`baxter_system` and the eigenvalues lambda_0..lambda_(N-1) of
    the scalar table. Only what a check reads is kept: the families P_n and
    R_n are dropped once sampled, and so are the coupled P~_n and the rest
    of the table, which bounds peak memory.
    """

    N: int
    params: QParams
    context: dict[str, str]
    grid: list[Fraction]
    w: list[Fraction]
    matrices: dict[str, Band]
    int_bands: dict[str, tuple[Band, int]]
    poly_values: list[GridVector]
    partner_values: list[GridVector]
    p_top: LaurentPoly
    h: list[Fraction]
    q_polys: list[LaurentPoly]
    lam: list[Fraction]


def make_grid_rep(N: int, b: Scalar, q: Scalar) -> GridRep:
    """Build the truncated representation at a = q^(1-N).

    Raises ResonantParameterError at the first vanishing factor in this
    build order: weights, P_0..P_(N-1), R_0..R_(N-1), h_0..h_N, P_N. The
    scalar table (which reuses h_0..h_(N-1)) and the coupled recurrences
    come last, and cannot fail once h_N exists, since their denominators
    are factors of h_N's. The CLI prints that error's message, so the order
    is part of the report.
    """
    w = grid_weights(N, b, q)
    q, b = Fraction(q), Fraction(b)
    params = QParams(q, q ** (1 - N), b)
    X = restricted_x_matrix(N, b, q)
    Y = restricted_y_matrix(N, b, q)
    grid = [q ** (s + 1) for s in range(N)]
    exponents = range(1, N + 1)
    poly_values = [
        GridVector(*pastro_poly(n, params).sample_at_powers(q, exponents)) for n in range(N)
    ]
    partner_values = [
        GridVector(*biorthogonal_partner(m, params).sample_at_powers(q, exponents))
        for m in range(N)
    ]
    h = _norm_constants(N, params)
    p_top = pastro_poly(N, params)
    table = baxter_coefficients(N - 1, params, h)
    _, q_polys = baxter_system(table)
    matrices = {"X": X, "Y": Y, "X*": weight_adjoint(X, w), "Y*": weight_adjoint(Y, w)}
    return GridRep(
        N=N,
        params=params,
        context={"N": str(N), "b": format_rational(b), "q": format_rational(q)},
        grid=grid,
        w=w,
        matrices=matrices,
        int_bands={name: _int_band(matrices[name]) for name in ("X*", "Y*")},
        poly_values=poly_values,
        partner_values=partner_values,
        p_top=p_top,
        h=h,
        q_polys=q_polys,
        lam=table.lam,
    )


def grid_samples(poly: LaurentPoly, grid: list[Fraction]) -> list[Fraction]:
    """Evaluate a Laurent polynomial at every grid point."""
    return [poly.eval_at(point) for point in grid]


def _proportional(u: list, v: list) -> bool:
    """Whether v is a multiple of u, on ints or on Fractions alike.

    Zero vectors are degenerate rather than proportional and raise, since
    every comparison downstream expects genuine eigenvectors. With u_k the
    first nonzero entry, u_j v_k = u_k v_j for every j makes v a multiple
    of u. Scaling u or v by a nonzero constant changes no verdict.
    """
    if not any(u) or not any(v):
        raise ResonantParameterError("zero grid vector encountered (degenerate parameters)")
    k = next(i for i, value in enumerate(u) if value)
    return all(u_j * v[k] == u[k] * v_j for u_j, v_j in zip(u, v))


def proportionality_witness(u: list[Fraction], v: list[Fraction]) -> str | None:
    """Witness that u and v are NOT proportional by a nonzero scalar.

    Uses the cross-product criterion u_i v_j = u_j v_i for all pairs, which
    needs no division. The O(N) pass of :func:`_proportional` decides the
    proportional case; the pair scan runs only to find the witness, the
    first failing (i, j) in row-major order.
    """
    if _proportional(u, v):
        return None
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return (
                    f"cross product at ({i},{j}): u_{i} v_{j} = "
                    f"{format_rational(u[i] * v[j])}, u_{j} v_{i} = "
                    f"{format_rational(u[j] * v[i])}"
                )
    return None


def _vector_witness(u: GridVector, v: GridVector) -> str | None:
    """:func:`proportionality_witness` of two int vectors.

    The verdict is taken on the numerators; the Fractions are built only
    to word a witness, so its text is the Fraction route's.
    """
    if _proportional(u.nums, v.nums):
        return None
    return proportionality_witness(u.values(), v.values())


def verify_adjoint_structure(rep: GridRep) -> list[Check]:
    """Check every structural adjoint identity of the grid representation.

    Covers the closed forms of (T^+)*, (T^-)*, X*, Y*, the defining pairing
    property <W f, g> = <f, W* g> on all basis pairs, involutivity of the
    adjoint, the tau-flip expressions X* = -b q^s tau(X) and
    Y* = -(1/b) q^(s+1-N) tau(Y), and tau o tau = id.
    """
    N, w, context = rep.N, rep.w, rep.context
    b, q = rep.params.b, rep.params.q
    checks: list[Check] = []

    closed_plus = Band(
        [q * (1 - q**s) / (b * (q**N - q**s)) for s in range(1, N)],
        _zeros(N),
        _zeros(N - 1),
    )
    checks.append(
        equality_check(
            "adjoint-shift-plus",
            "(T^+)* = [q (1 - q^s) / (b (q^N - q^s))] T^-",
            context,
            band_mismatch_witness(weight_adjoint(shift_plus_matrix(N), w), closed_plus),
        )
    )

    closed_minus = Band(
        _zeros(N - 1),
        _zeros(N),
        [b * (q**N - q ** (s + 1)) / (q * (1 - q ** (s + 1))) for s in range(N - 1)],
    )
    checks.append(
        equality_check(
            "adjoint-shift-minus",
            "(T^-)* = [b (q^N - q^(s+1)) / (q (1 - q^(s+1)))] T^+",
            context,
            band_mismatch_witness(weight_adjoint(shift_minus_matrix(N), w), closed_minus),
        )
    )

    checks.append(
        equality_check(
            "adjoint-X-closed-form",
            "X* = b (q^(s+1) - q^N) T^+ + q (1 - b q^s) I",
            context,
            band_mismatch_witness(rep.matrices["X*"], _adjoint_x_closed_form(N, b, q)),
        )
    )
    checks.append(
        equality_check(
            "adjoint-Y-closed-form",
            "Y* = (q/b)(q^s - 1) T^- + (q^N - q^(s+1)/b) I",
            context,
            band_mismatch_witness(rep.matrices["Y*"], _adjoint_y_closed_form(N, b, q)),
        )
    )

    for name in ("X", "Y"):
        matrix, adjoint = rep.matrices[name], rep.matrices[f"{name}*"]
        # <W e_i, e_j> = w_j W[j][i] and <e_i, W* e_j> = w_i W*[i][j]. Both
        # vanish off the band, so the pairs scanned in row-major order are
        # the band entries (i, j) of W^T and of W*.
        transpose = Band(matrix.upper, matrix.main, matrix.lower)
        witness = None
        for (i, j, entry), (_, _, adjoint_entry) in zip(
            band_entries(transpose), band_entries(adjoint)
        ):
            left, right = w[j] * entry, w[i] * adjoint_entry
            if left != right:
                witness = (
                    f"basis pair ({i},{j}): <W e_{i}, e_{j}> = "
                    f"{format_rational(left)}, <e_{i}, W* e_{j}> = "
                    f"{format_rational(right)}"
                )
                break
        checks.append(
            equality_check(
                f"adjoint-pairing-{name}",
                f"<{name} f, g> = <f, {name}* g> for all basis pairs",
                context,
                witness,
            )
        )
        checks.append(
            equality_check(
                f"adjoint-involution-{name}",
                f"({name}*)* = {name}",
                context,
                band_mismatch_witness(weight_adjoint(adjoint, w), matrix),
            )
        )

    tau_x = tau_transform(restricted_x_matrix, N, b, q)
    checks.append(
        equality_check(
            "adjoint-X-tau",
            "X* = diag(-b q^s) tau(X)",
            context,
            band_mismatch_witness(
                rep.matrices["X*"], diag_times([-b * q**s for s in range(N)], tau_x)
            ),
        )
    )
    tau_y = tau_transform(restricted_y_matrix, N, b, q)
    checks.append(
        equality_check(
            "adjoint-Y-tau",
            "Y* = diag(-(1/b) q^(s+1-N)) tau(Y)",
            context,
            band_mismatch_witness(
                rep.matrices["Y*"],
                diag_times([-(1 / b) * q ** (s + 1 - N) for s in range(N)], tau_y),
            ),
        )
    )

    for name, build in (("X", restricted_x_matrix), ("Y", restricted_y_matrix)):
        # rebuilt at tau(tau(b)), not one band reversed twice: not a tautology
        double_flip = tau_conjugate(tau_transform(build, N, tau_parameter(b, q, N), q))
        checks.append(
            equality_check(
                f"tau-involution-{name}",
                f"tau(tau({name})) = {name}",
                context,
                band_mismatch_witness(double_flip, build(N, b, q)),
            )
        )
    return checks


def verify_adjoint_gevp(n: int, rep: GridRep) -> list[Check]:
    """Check the adjoint eigenvalue problem and the partner cross-derivations.

    The flipped eigenvector P*_n has grid values P_n(q^(N-s); a, q^(1-N)/b).
    Checks, with lambda_n = -q^n/b taken at the original b:
      Y* P*_n = lambda_n X* P*_n,
      X* P*_n  prop  R_n(x_s)                      (closed-form partner),
      X* P*_n  prop  P_n(q^(N-s); q^(1-N), q^(2-N)/b)  (parameter flip),
      X* P*_n  prop  Q_n(1/x_s)                    (coupled-recurrence route),
    where 'prop' means proportional by a single nonzero scalar. Every
    vector is a :class:`GridVector` and both bands are ``rep.int_bands``,
    so the eigenvalue equation is compared on ints with lambda_n's
    numerator and denominator cross-multiplied.
    """
    N = rep.N
    b, q = rep.params.b, rep.params.q
    if not 0 <= n < N:
        raise ValueError(f"degree must lie in [0, {N - 1}], got {n}")
    context = rep.context | {"n": str(n)}
    flip_exponents = range(N, 0, -1)  # the points q^(N-s), s = 0..N-1

    flipped = QParams(q, rep.params.a, tau_parameter(b, q, N))
    p_star = GridVector(*pastro_poly(n, flipped).sample_at_powers(q, flip_exponents))

    lam = rep.lam[n]
    (x_band, x_den), (y_band, y_den) = rep.int_bands["X*"], rep.int_bands["Y*"]
    image = GridVector(mat_vec(x_band, p_star.nums), x_den * p_star.den)
    y_image = GridVector(mat_vec(y_band, p_star.nums), y_den * p_star.den)
    # Y* P* / (y_den p_den) = (lam_num / lam_den) X* P* / (x_den p_den)
    left, right = x_den * lam.denominator, y_den * lam.numerator
    if all(y * left == x * right for x, y in zip(image.nums, y_image.nums)):
        witness = None
    else:
        witness = vector_mismatch_witness(
            y_image.values(), [lam * value for value in image.values()]
        )
    checks = [
        equality_check(
            "adjoint-gevp",
            "Y* P*_n = lambda_n X* P*_n with P*_n(s) = P_n(q^(N-s); a, q^(1-N)/b)",
            context,
            witness,
        )
    ]

    checks.append(
        equality_check(
            "adjoint-partner-closed-form",
            "X* P*_n prop R_n(x_s)",
            context,
            _vector_witness(image, rep.partner_values[n]),
        )
    )

    reflected = QParams(q, rep.params.a, q ** (2 - N) / b)
    flip_samples = GridVector(*pastro_poly(n, reflected).sample_at_powers(q, flip_exponents))
    checks.append(
        equality_check(
            "adjoint-partner-parameter-flip",
            "X* P*_n prop P_n(q^(N-s); q^(1-N), q^(2-N)/b)",
            context,
            _vector_witness(image, flip_samples),
        )
    )

    baxter = rep.q_polys[n].invert_variable()
    baxter_samples = GridVector(*baxter.sample_at_powers(q, range(1, N + 1)))
    checks.append(
        equality_check(
            "adjoint-partner-baxter",
            "X* P*_n prop Q_n(1/x_s)",
            context,
            _vector_witness(image, baxter_samples),
        )
    )
    return checks


def verify_biorthogonality(rep: GridRep) -> tuple[Matrix, list[Check]]:
    """Check discrete biorthogonality on the grid and its degeneration at N.

    Builds the Gram matrix G[n][m] = sum_s w_s P_n(x_s) R_m(x_s) for
    n, m < N and checks: G = diag(h_n) with every h_n nonzero, the weights
    sum to 1, h_N = 0, P_N = prod_s (x - q^(s+1)) with simple roots (formal
    derivative nonzero at every grid point), and the weight-origin formula
    w_s = h_(N-1) / (P'_N(x_s) R_(N-1)(x_s)).

    Each Gram entry is one int dot product of w P_n (built one row at a
    time) with R_m, over the product of the three denominators.
    """
    N, w, grid, h, context = rep.N, rep.w, rep.grid, rep.h, rep.context

    int_w = grid_vector(w)
    gram = []
    for poly in rep.poly_values:
        weighted, den = list(map(mul, int_w.nums, poly.nums)), int_w.den * poly.den
        gram.append(
            [
                Fraction(sum(map(mul, weighted, partner.nums)), den * partner.den)
                for partner in rep.partner_values
            ]
        )
    expected = [
        [h[n] if n == m else Fraction(0) for m in range(N)] for n in range(N)
    ]
    checks = [
        equality_check(
            "gram-diagonal",
            "sum_s w_s P_n(x_s) R_m(x_s) = h_n delta_nm",
            context,
            matrix_mismatch_witness(gram, expected),
        )
    ]

    witness = None
    for n in range(N):
        if h[n] == 0:
            witness = f"h_{n} = 0"
            break
    checks.append(
        equality_check("norm-nonzero", "h_n != 0 for n < N", context, witness)
    )

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
            vector_mismatch_witness(
                [p_top.coefficient(k) for k in range(N + 1)],
                [target.coefficient(k) for k in range(N + 1)],
            ),
        )
    )

    slopes = grid_samples(p_top.derivative(), grid)
    witness = None
    for s, (value, slope) in enumerate(zip(grid_samples(p_top, grid), slopes)):
        if value != 0:
            witness = f"P_N(x_{s}) = {format_rational(value)}"
            break
        if slope == 0:
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

    witness = None
    for s, (slope, partner) in enumerate(zip(slopes, rep.partner_values[N - 1].values())):
        denominator = slope * partner
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
