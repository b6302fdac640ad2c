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
rather than as a dense N x N matrix. X, Y and the closed forms of X*, Y*
are q-difference operators restricted by :func:`restrict`. X and Y come
from one :func:`pastroq.qdiff.make_operators` call per parameter: b for the
rep, tau(b) for the tau flips and tau(tau(b)) for tau-involution, which is
compared with the rep's bands.

Grid values come from ``LaurentPoly.sample_at_powers`` as a
:class:`GridVector`: int numerators over one positive denominator. Every
check over whole grid vectors (the Gram matrix, the adjoint eigenvalue
problem, the proportionality tests and the roots of P_N) decides on the
numerators. A Gram entry is one int dot product, and a ``Fraction`` is
built only for what a report prints.

Every failing check here is worded by :func:`pastroq.report.first_mismatch`,
at the first differing band entry, basis pair, Gram entry or cross product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from operator import mul
from typing import Iterator, NamedTuple

from .qcore import (
    GridVector,
    LaurentPoly,
    QParams,
    ResonantParameterError,
    Scalar,
    _exact,
    format_rational,
    x,
)
from .pastro import (
    _coupled_pairs,
    _norm_constants,
    grid_weights,
    partner_family,
    pastro_family,
    scalar_rows,
)
from .qdiff import QDiffOperator, make_operators
from .report import Check, equality_check, first_mismatch, vector_mismatch_witness

__all__ = [
    "Matrix",
    "Band",
    "band_entries",
    "band_mismatch_witness",
    "mat_vec",
    "diag_times",
    "weight_steps",
    "weight_adjoint",
    "tau_parameter",
    "tau_conjugate",
    "shift_plus_matrix",
    "shift_minus_matrix",
    "restrict",
    "GridVector",
    "grid_vector",
    "GridRep",
    "make_grid_rep",
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
    if lhs == rhs:
        return None
    entries = zip(band_entries(lhs), band_entries(rhs))
    return first_mismatch(
        "entry ({},{}): lhs {}, rhs {}",
        ((s, t, left, right) for (s, t, left), (_, _, right) in entries),
    )


def mat_vec(band: Band, vector: list[int]) -> list[int]:
    """The image W v of a grid vector's int numerators under an int band W."""
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


def weight_steps(weights: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """The step ratios (w_(t-1)/w_t for t >= 1, w_(t+1)/w_t for t < N-1).

    Each is one division, taken once per weight list; the ratio down is
    the reciprocal of the ratio up.
    """
    up = [after / before for before, after in zip(weights, weights[1:])]
    return [1 / ratio for ratio in up], up


def weight_adjoint(band: Band, steps: tuple[list[Fraction], list[Fraction]]) -> Band:
    """The adjoint with respect to the weighted form: W*[t][s] = (w_s/w_t) W[s][t].

    ``steps`` is :func:`weight_steps` of the weights, so each entry off the
    main diagonal is one product with a step ratio.
    """
    lower, main, upper = band
    down, up = steps
    return Band(list(map(mul, down, upper)), list(main), list(map(mul, up, lower)))


def tau_parameter(b: Scalar, q: Scalar, N: int) -> Fraction:
    """The parameter flip b -> q^(1-N)/b (an exact involution)."""
    b, q = _exact(b), _exact(q)
    return q ** (1 - N) / b


def tau_conjugate(band: Band) -> Band:
    """Reverse both indices: entry (s, t) -> (N-1-s, N-1-t), swapping T^+ and T^-."""
    lower, main, upper = band
    return Band(upper[::-1], main[::-1], lower[::-1])


def shift_plus_matrix(N: int) -> Band:
    """T^+ on grid values: (T^+ f)_s = f_(s+1), with f_N = 0."""
    return Band(_zeros(N - 1), _zeros(N), [Fraction(1)] * (N - 1))


def shift_minus_matrix(N: int) -> Band:
    """T^- on grid values: (T^- f)_s = f_(s-1), with f_(-1) = 0."""
    return Band([Fraction(1)] * (N - 1), _zeros(N), _zeros(N - 1))


def restrict(operator: QDiffOperator, N: int) -> Band:
    """c_(-1) T^- + c_0 I + c_1 T^+ on grid values: c_k(x_s) at entry (s, s+k).

    (T^k f)(x_s) = f(x_(s+k)) with x_s = q^(s+1). c_(-1)(x_0) and
    c_1(x_(N-1)) fall off the grid and are not sampled; they vanish for every
    operator restricted here, so the boundary conditions are automatic. A
    shift the operator lacks gives a zero diagonal.
    """
    if not set(operator.shifts) <= {-1, 0, 1}:
        raise ValueError(f"shifts {operator.shifts} do not fit a band")
    rows = range(1, N + 1)  # x_s = q^(s+1)

    def diagonal(shift: int, exponents: range) -> list[Fraction]:
        if shift not in operator.shifts:
            return _zeros(len(exponents))
        return operator.coefficient(shift).sample_at_powers(operator.q, exponents).values()

    return Band(diagonal(-1, rows[1:]), diagonal(0, rows), diagonal(1, rows[:-1]))


def _restricted_pair(params: QParams, N: int) -> tuple[Band, Band]:
    """X and Y of one :func:`make_operators` call, restricted to the grid."""
    X, Y, _ = make_operators(params)
    return restrict(X, N), restrict(Y, N)


class GridRep(NamedTuple):
    """Everything the grid checks read, built once per (N, b, q).

    ``params`` is (q, q^(1-N), b); ``context`` the report parameters N, b
    and q that every grid check carries; ``grid`` holds the points
    x_s = q^(s+1) and ``w`` their weights; ``matrices`` the bands X, Y, X*,
    Y*, and ``int_bands`` X* and Y* again as (int band, denominator) pairs;
    ``poly_values``, ``partner_values`` and ``baxter_values`` the grid
    samples of P_0..P_(N-1), R_0..R_(N-1) and Q_0(1/x)..Q_(N-1)(1/x), each
    a :class:`GridVector`, with Q_n the coupled-recurrence partners that
    :func:`pastroq.pastro.baxter_system` lists; ``p_top`` the truncation
    polynomial P_N; ``h`` the norm constants h_0..h_N; and ``lam`` the
    eigenvalues lambda_0..lambda_(N-1) of the scalar rows. Only what a
    check reads is kept: the families P_n, R_n and Q_n are dropped once
    sampled, and so are the coupled P~_n and the rest of the rows, which
    bounds peak memory. ``poly_values`` is read by the Gram matrix alone,
    so a run that takes the Gram matrix first may hand the other checks
    ``rep._replace(poly_values=None)``.
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
    baxter_values: list[GridVector]
    p_top: LaurentPoly
    h: list[Fraction]
    lam: list[Fraction]


def make_grid_rep(N: int, b: Scalar, q: Scalar) -> GridRep:
    """Build the truncated representation at a = q^(1-N).

    Raises ResonantParameterError at the first vanishing factor in this
    build order: weights, P_0..P_(N-1), R_0..R_(N-1), h_0..h_N, P_N. One
    :func:`pastroq.pastro.pastro_family` steps P_0..P_N, paused while the
    partners and h are built, and one partner family steps R_0..R_(N-1). The
    scalar rows of n < N, which give lambda_n and the coupled recurrences,
    come last, and cannot fail once h_N exists, since their denominators
    are factors of h_N's. The CLI prints that error's message, so the order
    is part of the report.

    The coupled pairs (P~_n, Q_n) are stepped one at a time beside the
    rows, and each Q_n(1/x) is compared with R_n; where they are equal (as
    they are at every admissible point) R_n's samples are reused as its
    own. Only the last pair is held, and each R_n leaves its list once
    compared, so the build holds no list of P~_n or Q_n, and of R_0..R_(N-1)
    only those still to be compared.
    """
    w = grid_weights(N, b, q)
    q, b = Fraction(q), Fraction(b)
    params = QParams(q, q ** (1 - N), b)
    X, Y = _restricted_pair(params, N)
    grid = [q ** (s + 1) for s in range(N)]
    exponents = range(1, N + 1)
    family = pastro_family(params)
    poly_values = [next(family).sample_at_powers(q, exponents) for _ in range(N)]
    partners = list(islice(partner_family(params), N))
    partner_values = [partner.sample_at_powers(q, exponents) for partner in partners]
    h = _norm_constants(N, params)
    p_top = next(family)
    lam, baxter_values = [], []
    before = None  # the row of degree n - 1, which the coupled step to degree n reads
    coupled = _coupled_pairs(iter(lambda: before, None))
    for n, row in enumerate(scalar_rows(N - 1, params)):
        reversed_q = next(coupled)[1].invert_variable()  # P~_n is not kept
        partner, partners[n] = partners[n], None  # R_n is released after its degree
        baxter_values.append(
            partner_values[n]
            if reversed_q == partner
            else reversed_q.sample_at_powers(q, exponents)
        )
        lam.append(row.lam)
        before = row
    steps = weight_steps(w)
    matrices = {"X": X, "Y": Y, "X*": weight_adjoint(X, steps), "Y*": weight_adjoint(Y, steps)}
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
        baxter_values=baxter_values,
        p_top=p_top,
        h=h,
        lam=lam,
    )


def proportionality_witness(u: GridVector, v: GridVector) -> str | None:
    """Witness that u and v are NOT proportional by a nonzero scalar.

    Uses the cross-product criterion u_i v_j = u_j v_i for all pairs, which
    needs no division, on the int numerators: scaling a vector changes no
    verdict. With u_k the first nonzero entry, u_j v_k = u_k v_j for every
    j decides the proportional case in one O(N) pass; the pair scan runs
    only to find the witness, the first failing (i, j) in row-major order,
    worded with the Fraction values. Zero vectors are degenerate rather
    than proportional and raise, since every comparison downstream expects
    genuine eigenvectors.
    """
    a, c = u.nums, v.nums
    if not any(a) or not any(c):
        raise ResonantParameterError("zero grid vector encountered (degenerate parameters)")
    k = next(i for i, value in enumerate(a) if value)
    if all(a_j * c[k] == a[k] * c_j for a_j, c_j in zip(a, c)):
        return None
    den = u.den * v.den
    return first_mismatch(
        "cross product at ({0},{1}): u_{0} v_{1} = {2}, u_{1} v_{0} = {3}",
        (
            (i, j, Fraction(a[i] * c[j], den), Fraction(a[j] * c[i], den))
            for i, j in combinations(range(len(a)), 2)
        ),
    )


def verify_adjoint_structure(rep: GridRep) -> list[Check]:
    """Check every structural adjoint identity of the grid representation.

    Covers the closed forms of (T^+)*, (T^-)*, X*, Y*, the defining pairing
    property <W f, g> = <f, W* g> on all basis pairs, involutivity of the
    adjoint, the tau-flip expressions X* = -b q^s tau(X) and
    Y* = -(1/b) q^(s+1-N) tau(Y), and tau o tau = id.

    The step ratios of ``rep.w`` are taken once per call, and every closed
    form reads q^s from one table, [1] followed by the grid points.
    """
    N, w, context = rep.N, rep.w, rep.context
    b, q = rep.params.b, rep.params.q
    steps = weight_steps(w)
    powers = [Fraction(1), *rep.grid]  # q^0..q^N
    q_top = powers[N]
    checks: list[Check] = []

    closed_plus = Band(
        [q * (1 - powers[s]) / (b * (q_top - powers[s])) for s in range(1, N)],
        _zeros(N),
        _zeros(N - 1),
    )
    checks.append(
        equality_check(
            "adjoint-shift-plus",
            "(T^+)* = [q (1 - q^s) / (b (q^N - q^s))] T^-",
            context,
            band_mismatch_witness(weight_adjoint(shift_plus_matrix(N), steps), closed_plus),
        )
    )

    closed_minus = Band(
        _zeros(N - 1),
        _zeros(N),
        [b * (q_top - powers[s]) / (q * (1 - powers[s])) for s in range(1, N)],
    )
    checks.append(
        equality_check(
            "adjoint-shift-minus",
            "(T^-)* = [b (q^N - q^(s+1)) / (q (1 - q^(s+1)))] T^+",
            context,
            band_mismatch_witness(weight_adjoint(shift_minus_matrix(N), steps), closed_minus),
        )
    )

    checks.append(
        equality_check(
            "adjoint-X-closed-form",
            "X* = b (q^(s+1) - q^N) T^+ + q (1 - b q^s) I",
            context,
            band_mismatch_witness(
                rep.matrices["X*"],
                restrict(QDiffOperator(q, {1: (x() - q_top) * b, 0: q - x() * b}), N),
            ),
        )
    )
    checks.append(
        equality_check(
            "adjoint-Y-closed-form",
            "Y* = (q/b)(q^s - 1) T^- + (q^N - q^(s+1)/b) I",
            context,
            band_mismatch_witness(
                rep.matrices["Y*"],
                restrict(QDiffOperator(q, {-1: (x() - q) / b, 0: q_top - x() / b}), N),
            ),
        )
    )

    for name in ("X", "Y"):
        matrix, adjoint = rep.matrices[name], rep.matrices[f"{name}*"]
        # <W e_i, e_j> = w_j W[j][i] and <e_i, W* e_j> = w_i W*[i][j]. Both
        # vanish off the band, so the pairs scanned in row-major order are
        # the band entries (i, j) of W^T and of W*. Every pair agrees exactly
        # when W* is the weighted adjoint of W, which the step ratios decide
        # without a product of weights; the scan only words the witness.
        witness = None
        if weight_adjoint(matrix, steps) != adjoint:
            transpose = Band(matrix.upper, matrix.main, matrix.lower)
            entries = zip(band_entries(transpose), band_entries(adjoint))
            witness = first_mismatch(
                "basis pair ({0},{1}): <W e_{0}, e_{1}> = {2}, <e_{0}, W* e_{1}> = {3}",
                ((i, j, w[j] * left, w[i] * right) for (i, j, left), (_, _, right) in entries),
            )
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
                band_mismatch_witness(weight_adjoint(adjoint, steps), matrix),
            )
        )

    flipped = tau_parameter(b, q, N)
    tau_x, tau_y = map(tau_conjugate, _restricted_pair(rep.params._replace(b=flipped), N))
    checks.append(
        equality_check(
            "adjoint-X-tau",
            "X* = diag(-b q^s) tau(X)",
            context,
            band_mismatch_witness(
                rep.matrices["X*"], diag_times([-b * power for power in powers[:N]], tau_x)
            ),
        )
    )
    y_scale = -b * q_top  # -(1/b) q^(s+1-N) = q^(s+1) / (-b q^N)
    checks.append(
        equality_check(
            "adjoint-Y-tau",
            "Y* = diag(-(1/b) q^(s+1-N)) tau(Y)",
            context,
            band_mismatch_witness(
                rep.matrices["Y*"],
                diag_times([power / y_scale for power in powers[1:]], tau_y),
            ),
        )
    )

    # rebuilt at tau(tau(b)) rather than taken from the rep: not a tautology
    double_flip = _restricted_pair(rep.params._replace(b=tau_parameter(flipped, q, N)), N)
    for name, band in zip("XY", double_flip):
        checks.append(
            equality_check(
                f"tau-involution-{name}",
                f"tau(tau({name})) = {name}",
                context,
                band_mismatch_witness(band, rep.matrices[name]),
            )
        )
    return checks


def _adjoint_pairs(rep: GridRep) -> Iterator[tuple[LaurentPoly, LaurentPoly]]:
    """The pairs (P_n at the flip q^(1-N)/b, P_n at the reflection
    q^(2-N)/b), a = q^(1-N), n = 0, 1, ..., that :func:`verify_adjoint_gevp`
    reads, each family stepped by :func:`pastroq.pastro.pastro_family`; at
    each degree the flipped member is built first."""
    q, a, b, N = rep.params.q, rep.params.a, rep.params.b, rep.N
    flipped = QParams(q, a, tau_parameter(b, q, N))
    reflected = QParams(q, a, q ** (2 - N) / b)
    return zip(pastro_family(flipped), pastro_family(reflected))


def verify_adjoint_gevp(
    n: int, rep: GridRep, pair: tuple[LaurentPoly, LaurentPoly]
) -> list[Check]:
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
    numerator and denominator cross-multiplied. ``pair`` is degree n of
    :func:`_adjoint_pairs`, so a caller that runs every degree steps both
    families once.
    """
    N = rep.N
    q = rep.params.q
    if not 0 <= n < N:
        raise ValueError(f"degree must lie in [0, {N - 1}], got {n}")
    context = rep.context | {"n": str(n)}
    flip_exponents = range(N, 0, -1)  # the points q^(N-s), s = 0..N-1

    flipped_poly, reflected_poly = pair
    p_star = flipped_poly.sample_at_powers(q, flip_exponents)

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
            proportionality_witness(image, rep.partner_values[n]),
        )
    )

    flip_samples = reflected_poly.sample_at_powers(q, flip_exponents)
    checks.append(
        equality_check(
            "adjoint-partner-parameter-flip",
            "X* P*_n prop P_n(q^(N-s); q^(1-N), q^(2-N)/b)",
            context,
            proportionality_witness(image, flip_samples),
        )
    )

    checks.append(
        equality_check(
            "adjoint-partner-baxter",
            "X* P*_n prop Q_n(1/x_s)",
            context,
            proportionality_witness(image, rep.baxter_values[n]),
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
    time) with R_m, over the product of the three denominators. Every
    entry whose dot product vanishes, all N(N-1) off the diagonal at an
    admissible point, is the one ``Fraction(0)`` of the call.
    """
    N, w, grid, h, context = rep.N, rep.w, rep.grid, rep.h, rep.context

    int_w = grid_vector(w)
    zero = Fraction(0)
    gram = []
    for poly in rep.poly_values:
        weighted, den = list(map(mul, int_w.nums, poly.nums)), int_w.den * poly.den
        row = []
        for partner in rep.partner_values:
            dot = sum(map(mul, weighted, partner.nums))
            row.append(Fraction(dot, den * partner.den) if dot else zero)
        gram.append(row)
    entries = (
        (n, m, g, h[n] if n == m else 0) for n, row in enumerate(gram) for m, g in enumerate(row)
    )
    checks = [
        equality_check(
            "gram-diagonal",
            "sum_s w_s P_n(x_s) R_m(x_s) = h_n delta_nm",
            context,
            first_mismatch("entry ({},{}): lhs {}, rhs {}", entries),
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
    support = sorted(set(p_top.support).union(range(N + 1)))
    checks.append(
        equality_check(
            "truncation-polynomial",
            "P_N = prod_s (x - q^(s+1))",
            context,
            first_mismatch(
                "index {}: lhs {}, rhs {}",
                ((k, p_top.coefficient(k), target.coefficient(k)) for k in support),
            ),
        )
    )

    exponents = range(1, N + 1)
    values = p_top.sample_at_powers(rep.params.q, exponents)
    slopes = p_top.derivative().sample_at_powers(rep.params.q, exponents)
    witness = None
    for s, (value, slope) in enumerate(zip(values.nums, slopes.nums)):
        if value:
            witness = f"P_N(x_{s}) = {format_rational(Fraction(value, values.den))}"
            break
        if not slope:
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

    # w_s P'_N(x_s) R_(N-1)(x_s) = h_(N-1), cross-multiplied over the three
    # vector denominators and h_(N-1)'s.
    partner, norm = rep.partner_values[N - 1], h[N - 1]
    target = norm.numerator * int_w.den * slopes.den * partner.den
    witness = None
    for s, (weight, slope, value) in enumerate(zip(int_w.nums, slopes.nums, partner.nums)):
        product = slope * value
        if not product:
            witness = f"s={s}: P'_N(x_s) R_(N-1)(x_s) = 0"
            break
        if weight * product * norm.denominator != target:
            denominator = Fraction(product, slopes.den * partner.den)
            witness = (
                f"s={s}: w_s = {format_rational(w[s])}, "
                f"h_(N-1)/(P'_N(x_s) R_(N-1)(x_s)) = "
                f"{format_rational(norm / denominator)}"
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
