"""The golden report corpus: each case's argv and exit code.

Each case has a text and a JSON report in tests/golden/, named by its
stem. Both ``test_golden.py`` and ``replay_golden.py`` read this table.
"""

#: (file stem, argv, exit code). The two biorth N=3 inputs are resonant and
#: exit 2 with the first ParameterError the grid build raises. The five
#: cases after them are the test_criterion_8_determinism invocations; the
#: last verify input is resonant and exits 2 with the admissibility ERROR.
#: ``table --nmax 12`` is the one case that prints whole polynomials (str,
#: items and report.to_json), so it guards term order, signs and ``1*x`` elision.
#: The four after it cover the runner's ERROR paths: a table admissibility
#: ERROR, a QParams ERROR in algebra and in verify, and the degenerate
#: algebra pencil at mu = 0, which still exits 0. The two verify cases at
#: nmax 64 reach P_65, whose coefficients are far larger than nmax 24's.
#: The algebra case after them is away from the default (q, a, b), with
#: q < 0. The last two are biorth past N = 16, where the lcm of the grid
#: denominators grows with N: N = 24 at the default point and N = 32 at q < 0.
#: The sweep after them is the small-polynomial path at many rational points,
#: where most products have small denominators that share primes. The last
#: table is at q < 0, where P_n and R_n are built from powers of a negative
#: numerator of q, so it guards their signs.
CASES = [
    ("biorth_N8", ["biorth", "--N", "8"], 0),
    ("biorth_q-4_5_b-2_N16", ["biorth", "--q=-4/5", "--b=-2", "--N", "16"], 0),
    ("biorth_q6_b-1_3_N16", ["biorth", "--q=6", "--b=-1/3", "--N", "16"], 0),
    ("biorth_q-3_b-3_N3", ["biorth", "--q=-3", "--b=-3", "--N", "3"], 2),
    ("biorth_q-3_b-1_3_N3", ["biorth", "--q=-3", "--b=-1/3", "--N", "3"], 2),
    ("verify_nmax4", ["verify", "--nmax", "4"], 0),
    ("table_nmax5", ["table", "--nmax", "5"], 0),
    ("biorth_N4", ["biorth", "--N", "4"], 0),
    ("algebra", ["algebra"], 0),
    ("sweep_seed9_draws3_nmax3", ["sweep", "--seed", "9", "--draws", "3", "--nmax", "3"], 0),
    ("verify_q1_2_a-2_3_b-1_2_nmax24", ["verify", "--q=1/2", "--a=-2/3", "--b=-1/2", "--nmax", "24"], 0),
    ("verify_q1_2_b2_nmax3", ["verify", "--q=1/2", "--b=2", "--nmax", "3"], 2),
    ("table_nmax12", ["table", "--nmax", "12"], 0),
    ("table_q1_2_b2_nmax3", ["table", "--q=1/2", "--b=2", "--nmax", "3"], 2),
    ("algebra_q1", ["algebra", "--q=1"], 2),
    ("verify_a0_nmax2", ["verify", "--a", "0", "--nmax", "2"], 2),
    ("algebra_mu0", ["algebra", "--mu", "0"], 0),
    ("verify_nmax64", ["verify", "--nmax", "64"], 0),
    ("verify_q-1_2_a-3_b2_5_nmax64", ["verify", "--q=-1/2", "--a=-3", "--b=2/5", "--nmax", "64"], 0),
    ("algebra_q-4_5_a6_b-2_mu-3_2", ["algebra", "--q=-4/5", "--a=6", "--b=-2", "--mu=-3/2"], 0),
    ("biorth_N24", ["biorth", "--N", "24"], 0),
    ("biorth_q-4_5_b-2_N32", ["biorth", "--q=-4/5", "--b=-2", "--N", "32"], 0),
    ("sweep_seed12345_draws4_nmax12", ["sweep", "--seed", "12345", "--draws", "4", "--nmax", "12"], 0),
    ("table_q-7_5_a5_3_b2_9_nmax12", ["table", "--q=-7/5", "--a=5/3", "--b=2/9", "--nmax", "12"], 0),
    # Points where a factor vanishes that no check at this size divides by,
    # so they are admitted and exit 0 (see
    # test_points_with_unused_vanishing_factors_are_admitted).
    ("verify_q1_2_a3_b16_nmax3", ["verify", "--q=1/2", "--a=3", "--b=16", "--nmax", "3"], 0),
    ("verify_q1_2_b1_2_nmax0", ["verify", "--q=1/2", "--b=1/2", "--nmax", "0"], 0),
    ("table_q1_2_a3_b6_nmax1", ["table", "--q=1/2", "--a=3", "--b=6", "--nmax", "1"], 0),
    # P_1's factor 1 - (b/a)q^0 at b = a = q^(1-N), which the grid weights do
    # not divide by: the monic family's ResonantParameterError text.
    ("biorth_q1_2_b4_N3", ["biorth", "--q=1/2", "--b=4", "--N", "3"], 2),
    # The smallest grid, and at b = 1 the norm stage's error text: h_1
    # divides by 1 - b, which the weights of N = 1 do not.
    ("biorth_N1", ["biorth", "--N", "1"], 0),
    ("biorth_N1_b1", ["biorth", "--N", "1", "--b", "1"], 2),
]
