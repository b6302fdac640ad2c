"""End-to-end acceptance: every advertised guarantee, at exact equality.

Each criterion prints one "[criterion N] PASS|FAIL - description" line
before asserting, so a run with -s gives a compact scoreboard. Everything
here is rational arithmetic; there is no tolerance anywhere.
"""

import random
import subprocess
import sys
from fractions import Fraction

from family_reference import norm_constant
from grid_reference import grid_samples, proportionality_witness
from pastroq.algebra import (
    casimir_centrality,
    make_algebra_rep,
    qhahn_embedding,
    verify_affine_relations,
    verify_raw_relations,
)
from pastroq.biorth import (
    _adjoint_pairs,
    make_grid_rep,
    mat_vec,
    tau_parameter,
    verify_adjoint_gevp,
    verify_adjoint_structure,
    verify_biorthogonality,
)
from pastroq.cli import admissible_draws
from pastroq.pastro import (
    baxter_system,
    biorthogonal_partner,
    grid_weights,
    pastro_poly,
    scalar_rows,
)
from pastroq.qcore import ParameterError, QParams
from pastroq.qdiff import (
    QDiffOperator,
    degree_records,
    linear_combination,
    verify_contiguity,
    verify_gevp,
    verify_qdiff_equation,
    verify_recurrence,
)

REFERENCE = QParams(Fraction(1, 2), 3, Fraction(1, 5))
GRID_Q = Fraction(1, 2)


def record(number: int, description: str, ok: bool) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} - {description}")
    return ok


def all_pass(checks) -> bool:
    return all(check.status == "PASS" for check in checks)


def family_records(params: QParams, n_max: int):
    return degree_records(params, n_max, scalar_rows(n_max, params))


def test_criterion_1_gevp():
    points = admissible_draws(seed=11, count=10, n_max=12)
    ok = len(points) == 10
    for params in points:
        for degree in family_records(params, 12):
            ok = ok and verify_gevp(degree).status == "PASS"
    assert record(
        1,
        "Y P_n = -(q^n/b) X P_n exactly for n <= 12 at 10 seeded triples",
        ok,
    )


def test_criterion_2_bispectrality():
    points = admissible_draws(seed=11, count=10, n_max=12)
    ok = len(points) == 10
    for params in points:
        for degree in family_records(params, 12):
            ok = ok and verify_qdiff_equation(degree).status == "PASS"
            ok = ok and all_pass(verify_recurrence(degree))
    assert record(
        2,
        "q-difference equation, three-term recurrence and x (Z P_n) = X P_n "
        "for n <= 12 at the same triples",
        ok,
    )


def test_criterion_3_contiguity():
    points = admissible_draws(seed=11, count=10, n_max=12)
    ok = len(points) == 10
    for params in points:
        for degree in family_records(params, 10):
            ok = ok and all_pass(verify_contiguity(degree))
    assert record(
        3,
        "parameter-shift relations for X, Y and Z for n <= 10 at the same triples",
        ok,
    )


def test_criterion_4_biorthogonality():
    rng = random.Random(23)
    ok = True
    for N in range(1, 9):
        accepted = 0
        attempts = 0
        while accepted < 5 and attempts < 500:
            attempts += 1
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            try:
                gram, checks = verify_biorthogonality(make_grid_rep(N, b, GRID_Q))
            except ParameterError:
                continue
            accepted += 1
            ok = ok and all_pass(checks)
            params = QParams(GRID_Q, GRID_Q ** (1 - N), b)
            ok = ok and sum(grid_weights(N, b, GRID_Q)) == 1
            for n in range(N):
                for m in range(N):
                    expected = norm_constant(n, params) if n == m else Fraction(0)
                    ok = ok and gram[n][m] == expected
            truncation = pastro_poly(N, params)
            slope = truncation.derivative()
            for point in (GRID_Q ** (s + 1) for s in range(N)):
                ok = ok and truncation.eval_at(point) == 0
                ok = ok and slope.eval_at(point) != 0
        ok = ok and accepted == 5
    assert record(
        4,
        "Gram = diag(h_n), unit weight sum, and simple truncation roots "
        "for N <= 8 at 5 seeded b values each",
        ok,
    )


def test_criterion_5_cross_method_partner():
    points = [REFERENCE] + admissible_draws(seed=17, count=3, n_max=10)
    ok = len(points) == 4
    for params in points:
        _, q_polys = baxter_system(scalar_rows(10, params))
        for n in range(11):
            ok = ok and q_polys[n].invert_variable() == biorthogonal_partner(
                n, params
            )

    rng = random.Random(29)
    for N in range(1, 9):
        accepted = 0
        attempts = 0
        while accepted < 2 and attempts < 500:
            attempts += 1
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            try:
                rep = make_grid_rep(N, b, GRID_Q)
                flipped = QParams(
                    GRID_Q, rep.params.a, tau_parameter(b, GRID_Q, N)
                )
                draw_ok = True
                for n in range(N):
                    p_star = [
                        pastro_poly(n, flipped).eval_at(GRID_Q ** (N - s))
                        for s in range(N)
                    ]
                    image = mat_vec(rep.matrices["X*"], p_star)
                    partner = grid_samples(
                        biorthogonal_partner(n, rep.params), rep.grid
                    )
                    draw_ok = draw_ok and proportionality_witness(image, partner) is None
            except ParameterError:
                continue
            accepted += 1
            ok = ok and draw_ok
        ok = ok and accepted == 2
    assert record(
        5,
        "coupled-recurrence Q_n(1/x) equals the closed-form partner for n <= 10, "
        "and X* P*_n is proportional to R_n on the grid for n < N <= 8",
        ok,
    )


def test_criterion_6_adjoint_suite():
    ok = True
    for N in range(1, 9):
        for b in (Fraction(1, 5), Fraction(-3, 4)):
            rep = make_grid_rep(N, b, GRID_Q)
            ok = ok and all_pass(verify_adjoint_structure(rep))
            for n, pair in zip(range(N), _adjoint_pairs(rep)):
                ok = ok and all_pass(verify_adjoint_gevp(n, rep, pair))
    assert record(
        6,
        "shift adjoints, closed-form X*/Y*, parameter-flip conjugations, "
        "flip involution and the adjoint eigenvalue problem for N <= 8",
        ok,
    )


def test_criterion_7_algebra():
    points = admissible_draws(seed=41, count=10, n_max=0)
    ok = len(points) == 10
    for params in points:
        rep = make_algebra_rep(params)
        ok = ok and all_pass(verify_raw_relations(rep))
        ok = ok and all_pass(verify_affine_relations(rep))
        ok = ok and all_pass(casimir_centrality(rep))
        for mu in (Fraction(0), Fraction(2, 3), Fraction(-3, 2)):
            _, checks = qhahn_embedding(rep, mu)
            ok = ok and all_pass(checks)

    rep = make_algebra_rep(REFERENCE)
    corrupted = QDiffOperator(
        rep.X.q, {shift: -coeff if shift == -1 else coeff for shift, coeff in rep.X.items()}
    )
    mutated = verify_raw_relations(rep._replace(X=corrupted))
    ok = ok and any(check.status == "FAIL" for check in mutated)
    perturbed_casimir = linear_combination(rep.X.q, ((1, rep.casimir), (1, rep.Xp)))
    perturbed = casimir_centrality(rep._replace(casimir=perturbed_casimir))
    ok = ok and any(check.status == "FAIL" for check in perturbed)
    assert record(
        7,
        "raw/normalized relations, Casimir centrality and the pencil subalgebra "
        "at 10 seeded points x 3 mu values; corrupted inputs FAIL",
        ok,
    )


def test_criterion_8_determinism():
    invocations = [
        ["verify", "--nmax", "4", "--format", "json"],
        ["verify", "--nmax", "4"],
        ["table", "--nmax", "5", "--format", "json"],
        ["biorth", "--N", "4", "--format", "json"],
        ["algebra", "--format", "json"],
        ["sweep", "--seed", "9", "--draws", "3", "--nmax", "3", "--format", "json"],
    ]
    ok = True
    for argv in invocations:
        command = [sys.executable, "-m", "pastroq"] + argv
        first = subprocess.run(command, capture_output=True, text=True, timeout=120)
        second = subprocess.run(command, capture_output=True, text=True, timeout=120)
        ok = ok and first.returncode == second.returncode == 0
        ok = ok and bool(first.stdout) and first.stdout == second.stdout
    assert record(8, "identical CLI invocations produce byte-identical reports", ok)
