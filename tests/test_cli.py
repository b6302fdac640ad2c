"""CLI behavior: schemas, exit codes, determinism, error paths."""

import argparse
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from itertools import islice
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pastroq
from pastroq import algebra
from pastroq.biorth import (
    _adjoint_pairs,
    make_grid_rep,
    verify_adjoint_gevp,
    verify_adjoint_structure,
)
from pastroq.cli import (
    RunConfig,
    _admissibility_issues,
    admissible_draws,
    build_parser,
    emit,
    main,
    run,
    verify_suite,
)
from pastroq.pastro import biorthogonal_partner, pastro_poly, scalar_rows
from pastroq.qcore import LaurentPoly, ParameterError, QParams, format_rational, parse_rational
from pastroq.report import Check, Report
from test_qcore import _maybe_resonant_params

PASTROQ = [sys.executable, "-m", "pastroq"]

#: The flags each subcommand takes besides ``--format``: one per RunConfig
#: field it reads.
COMMAND_FLAGS = {
    "table": ["--q", "--a", "--b", "--nmax"],
    "verify": ["--q", "--a", "--b", "--nmax"],
    "biorth": ["--q", "--b", "--N"],
    "algebra": ["--q", "--a", "--b", "--mu"],
    "sweep": ["--nmax", "--draws", "--seed"],
}


def invoke(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        PASTROQ + list(argv), capture_output=True, text=True, timeout=120
    )


def test_table_json_schema():
    report, extra, lines = run(RunConfig("table", n_max=2))
    assert report.exit_code == 0
    payload = json.loads(emit(report, extra, lines, "json"))
    assert payload["checks"] == []
    assert payload["params"] == {"q": "1/2", "a": "3", "b": "1/5", "n_max": "2"}
    assert payload["pastro"][0] == {"degree": 0, "coefficients": {"0": "1"}}
    assert payload["pastro"][1] == {
        "degree": 1,
        "coefficients": {"0": "-7/12", "1": "1"},
    }
    assert payload["partners"][1]["coefficients"] == {"-1": "1", "0": "-18/13"}
    assert payload["alpha"][0] == "7/12"
    assert payload["beta"][0] == "18/13"
    assert payload["h"][0] == "1"
    assert payload["h"][1] == "5/26"


def test_table_text_lists_polynomials():
    report, extra, lines = run(RunConfig("table", n_max=1))
    text = emit(report, extra, lines, "text")
    assert "P_0 = 1" in text
    assert "P_1 = " in text
    assert "R_1 = " in text
    assert "alpha_0 = 7/12" in text


def test_table_prints_coefficients_past_the_digit_limit(capsys):
    # At q = 997/991 the alpha, beta and h of degree 39 have numerators of
    # more than 4300 digits, Python's default limit for str(int).
    argv = ["table", "--q=997/991", "--a=3", "--b=1/5", "--nmax", "39"]
    params = QParams(Fraction(997, 991), Fraction(3), Fraction(1, 5))
    rows = list(scalar_rows(39, params))
    out = {}
    for fmt in ("text", "json"):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--format", fmt])
        assert exit_info.value.code == 0
        out[fmt] = capsys.readouterr().out
    assert len(format_rational(rows[39].h)) > 4300
    last = out["text"].splitlines()[-2].split()
    assert last[0::3] == ["alpha_39", "beta_39", "h_39"]
    assert [parse_rational(v) for v in last[2::3]] == [rows[39].alpha, rows[39].beta, rows[39].h]
    payload = json.loads(out["json"])
    for name in ("alpha", "beta", "h"):
        assert [parse_rational(v) for v in payload[name]] == [getattr(row, name) for row in rows]
    for key, build in (("pastro", pastro_poly), ("partners", biorthogonal_partner)):
        for n, poly in enumerate(payload[key]):
            coefficients = {int(e): parse_rational(c) for e, c in poly["coefficients"].items()}
            assert coefficients == dict(build(n, params).items())


def test_table_formats_only_in_the_requested_format(monkeypatch):
    # a text run never gives a value its JSON form; a JSON run never words a polynomial
    calls = Counter()
    for owner, name in ((pastroq.report, "to_json"), (LaurentPoly, "__str__")):

        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    for fmt, used, unused in (("text", "__str__", "to_json"), ("json", "to_json", "__str__")):
        calls.clear()
        report, extra, lines = run(RunConfig("table", n_max=3, fmt=fmt))
        emit(report, extra, lines, fmt)
        assert calls[used] > 0 and calls[unused] == 0, (fmt, calls)


def test_verify_default_point_all_pass():
    report, _, _ = run(RunConfig("verify", n_max=4))
    assert report.exit_code == 0
    assert report.counts()["PASS"] == len(report.checks) > 0


def test_biorth_single_point_gram():
    report, extra, lines = run(RunConfig("biorth", N=1))
    assert report.exit_code == 0
    extra = json.loads(emit(report, extra, lines, "json"))
    assert extra["gram"] == [["1"]]
    assert extra["weights"] == ["1"]


def test_biorth_frozen_two_point_gram():
    report, extra, lines = run(RunConfig("biorth", N=2))
    assert report.exit_code == 0
    extra = json.loads(emit(report, extra, lines, "json"))
    assert extra["gram"] == [["1", "0"], ["0", "5/32"]]
    assert extra["grid"] == ["1/2", "1/4"]
    assert extra["weights"] == ["5/4", "-1/4"]


def test_algebra_constants_surface():
    report, extra, lines = run(RunConfig("algebra", mu=Fraction(0)))
    assert report.exit_code == 0
    extra = json.loads(emit(report, extra, lines, "json"))
    assert extra["alpha1"] == "1/60"
    assert extra["alpha2"] == "-11/45"
    assert extra["gamma1"] == "1"
    assert extra["degenerate_pencil"] is True
    assert extra["presentation"] == {
        "beta1": "0",
        "beta2": "1",
        "delta1": "0",
        "delta2": "1",
    }


def test_algebra_run_builds_each_object_once(monkeypatch):
    calls = Counter()
    for name in ("make_operators", "casimir_element"):

        def counted(*args, _name=name, _original=getattr(algebra, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(algebra, name, counted)
    report, _, _ = run(RunConfig("algebra"))
    assert report.exit_code == 0
    assert calls == {"make_operators": 1, "casimir_element": 1}


def test_verify_suite_holds_one_context_per_degree():
    checks = verify_suite(QParams(Fraction(1, 2), 3, Fraction(1, 5)), 40)
    assert len(checks) == 376
    # one context per degree record (41) and one for the Baxter checks
    assert len({id(check.params) for check in checks}) == 42


def test_sweep_degree_checks_share_one_context_with_the_draw():
    report, _, _ = run(RunConfig("sweep", seed=9, draws=3, n_max=3))
    contexts = {}
    for check in report.checks:
        if check.status != "SKIP":
            key = (check.params["draw"], check.params.get("n", "baxter"))
            contexts.setdefault(key, []).append(check.params)
    assert len(contexts) == 3 * (4 + 1)
    for (draw, n), shared in contexts.items():
        assert len(shared) == (9 if n != "baxter" else 7)
        assert all(params is shared[0] for params in shared), (draw, n)
        assert shared[0]["draw"] == draw


def test_grid_checks_share_the_rep_context():
    rep = make_grid_rep(4, Fraction(1, 5), Fraction(1, 2))
    assert rep.context == {"N": "4", "b": "1/5", "q": "1/2"}
    assert all(check.params is rep.context for check in verify_adjoint_structure(rep))
    pair = next(islice(_adjoint_pairs(rep), 2, None))
    for check in verify_adjoint_gevp(2, rep, pair):
        assert check.params == rep.context | {"n": "2"}


def test_every_exported_name_resolves():
    modules = [pastroq] + [
        importlib.import_module(f"pastroq.{info.name}")
        for info in pkgutil.iter_modules(pastroq.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) >= 8
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_verify_rejects_unit_q():
    report, _, _ = run(RunConfig("verify", q=Fraction(1)))
    assert report.exit_code == 2
    assert report.checks[0].status == "ERROR"


def test_verify_flags_resonant_b():
    # b = q^-2 makes (1 - b q^2) vanish inside the covered range
    report, _, _ = run(RunConfig("verify", b=Fraction(4), n_max=4))
    assert report.exit_code == 2
    assert "b" in (report.checks[0].witness or "")


def test_sweep_is_seeded_and_skips_bad_draws():
    report, extra, _ = run(RunConfig("sweep", seed=3, draws=2, n_max=2))
    assert extra == {"draws_requested": 2, "draws_run": 2}
    statuses = {check.status for check in report.checks}
    assert statuses <= {"PASS", "SKIP"}
    assert report.exit_code == 0
    labels = {
        check.params["draw"] for check in report.checks if check.status == "PASS"
    }
    assert len(labels) == 2


def test_sweep_shortfall_is_an_error(capsys):
    # the attempt cap (1000) admits only 592 of the 900 requested draws
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--draws", "900", "--nmax", "0"])
    assert exit_info.value.code == 2
    last, summary = capsys.readouterr().out.splitlines()[-2:]
    assert last.startswith("ERROR sweep-draws [draws=900 n_max=0 seed=1]")
    assert "592 of 900 draws admissible within 1000 attempts" in last
    assert "1 ERROR" in summary


@pytest.mark.parametrize(
    "argv, flag, minimum",
    [
        (["biorth", "--N", "0"], "--N", 1),
        (["verify", "--nmax", "-1"], "--nmax", 0),
        (["table", "--nmax", "-2"], "--nmax", 0),
        (["sweep", "--draws", "-1"], "--draws", 1),
    ],
)
def test_out_of_range_sizes_are_usage_errors(argv, flag, minimum, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least {minimum}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "config, field, message",
    [
        (RunConfig("biorth", N=0), "N", "N must be at least 1, got 0"),
        (RunConfig("verify", n_max=-1), "n_max", "n_max must be at least 0, got -1"),
        (RunConfig("table", n_max=-2), "n_max", "n_max must be at least 0, got -2"),
        (RunConfig("sweep", draws=-1), "draws", "draws must be at least 1, got -1"),
        # both sizes out of range: sweep bounds n_max first
        (RunConfig("sweep", n_max=-1, draws=0), "n_max", "n_max must be at least 0, got -1"),
    ],
)
def test_out_of_range_sizes_are_errors_in_process(config, field, message):
    report, extra, lines = run(config)
    assert report.exit_code == 2
    (check,) = report.checks
    assert check.status == "ERROR"
    assert check.params == {field: str(getattr(config, field))}
    assert check.witness == message
    assert (extra, lines) == ({}, [])


@pytest.mark.parametrize("command, flags", COMMAND_FLAGS.items())
def test_each_command_takes_only_the_flags_it_reads(command, flags):
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = [string for action in commands.choices[command]._actions for string in action.option_strings]
    assert sorted(options) == sorted(flags + ["--format", "-h", "--help"])


@pytest.mark.parametrize("command, flags", COMMAND_FLAGS.items())
def test_parser_defaults_are_the_run_config_defaults(command, flags):
    options = vars(build_parser().parse_args([command]))
    del options["command"], options["error"]
    assert len(options) == len(flags) + 1  # the command's fields and fmt
    assert options == {field: RunConfig._field_defaults[field] for field in options}


#: Prints the modules that importing pastroq.cli and building its parser add
#: to sys.modules; the interpreter's own start-up modules are left out.
_ADDED_BY_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import pastroq.cli
pastroq.cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_json():
    src = str(Path(pastroq.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-I", "-c", _ADDED_BY_IMPORT, src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    added = set(result.stdout.split())
    assert "pastroq.cli" in added
    assert added & {"dataclasses", "json"} == set()


@pytest.mark.parametrize("argv", [["biorth", "--a", "2"], ["verify", "--N", "3"]])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
    assert "Traceback" not in captured.err
    # the command's own usage line, which names the flags it does read
    (usage,) = [line for line in captured.err.splitlines() if line.startswith("usage:")]
    assert usage.startswith(f"usage: pastroq {argv[0]} [-h]")
    usage_text = captured.err.split(f"pastroq {argv[0]}: error:")[0]
    for flag in COMMAND_FLAGS[argv[0]]:
        assert f"[{flag} " in usage_text


def test_parameter_error_after_checks_keeps_them(monkeypatch):
    # No small input makes the grid build pass and a later degree raise, so
    # make the adjoint GEVP at n = 1 raise after the n = 0 checks went in.
    from pastroq import cli

    real = cli.verify_adjoint_gevp

    def raising(n, rep, pair):
        if n == 1:
            raise ParameterError("injected at n = 1")
        return real(n, rep, pair)

    monkeypatch.setattr(cli, "verify_adjoint_gevp", raising)
    report, extra, lines = run(RunConfig("biorth", N=3))
    assert report.exit_code == 2
    assert (extra, lines) == ({}, [])
    *kept, last = report.checks
    assert kept and all(check.status == "PASS" for check in kept)
    # the grid-structure checks (no degree) and the n = 0 adjoint checks
    assert {check.params.get("n") for check in kept} == {None, "0"}
    assert (last.name, last.status, last.witness) == ("parameters", "ERROR", "injected at n = 1")
    assert last.params == {"q": "1/2", "b": "1/5", "N": "3"}


def test_size_error_wins_over_parameter_error():
    report, extra, lines = run(RunConfig("biorth", N=0, q=Fraction(1)))
    assert report.exit_code == 2
    (check,) = report.checks
    assert (check.name, check.params, check.witness) == (
        "parameters",
        {"N": "0"},
        "N must be at least 1, got 0",
    )
    assert (extra, lines) == ({}, [])


def _mostly(good, bad):
    """``good`` on five branches of six and ``bad`` on one, so most argvs parse."""
    return st.integers(0, 5).flatmap(lambda k: bad if k == 0 else good)


_rationals = st.one_of(
    st.builds(lambda p, r: f"{p}/{r}", st.integers(-4, 4), st.integers(1, 4)),
    st.integers(-3, 3).map(str),
    # large heights, whose units share few factors
    st.sampled_from(["997/991", "-9973/9967", "991/997", "-997/991", "9967/9973"]),
)
_rational_literals = _mostly(
    _rationals, st.sampled_from(["1.5", "1e3", "nan", "x", "", "1/0", "1/-2", "--3", "2/3/4"])
)
#: Size flags stay at or below 4 (so every run is quick) but go below their
#: minimums, and sometimes are not integers at all.
_size_literals = _mostly(st.integers(-2, 4).map(str), st.sampled_from(["1.5", "x", "", "2/3"]))
#: The literals the fuzzer gives each flag, refused ones among them.
_literals = dict.fromkeys(["--q", "--a", "--b", "--mu"], _rational_literals) | {
    "--nmax": _size_literals,
    "--N": _size_literals,
    "--draws": _size_literals,
    "--seed": _mostly(st.integers(-9, 9).map(str), st.just("seven")),
}
#: Literals each flag accepts. A negative one is accepted only joined to its
#: flag, as ``_argvs`` writes them.
_accepted_literals = dict.fromkeys(["--q", "--a", "--b", "--mu"], _rationals) | {
    "--nmax": st.integers(0, 4).map(str),
    "--N": st.integers(1, 4).map(str),
    "--draws": st.integers(1, 4).map(str),
    "--seed": st.integers(-9, 9).map(str),
}


@st.composite
def _argvs(draw):
    """``(argv, foreign)``: a command with up to two of its own flags.

    The flags are distinct, and drawn from the command's own, so that most
    argvs reach ``run`` (as many as when every command took every flag).
    One argv in six also carries ``foreign``, a flag its command does not
    read (otherwise None). Its own flags then take accepted literals, joined
    to the flag, so that the foreign flag is the one usage error.
    """
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    own = COMMAND_FLAGS[command]
    foreign = draw(_mostly(st.none(), st.sampled_from([flag for flag in _literals if flag not in own])))
    literals = _accepted_literals if foreign else _literals
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(own), max_size=2, unique=True)):
        value = draw(literals[flag])
        argv += [f"{flag}={value}"] if foreign or draw(st.booleans()) else [flag, value]
    if foreign:
        value = draw(_literals[foreign])
        extra = [f"{foreign}={value}"] if draw(st.booleans()) else [foreign, value]
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = extra
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))], foreign


@given(_argvs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_argv_fuzz_exits_0_or_2_without_traceback(case):
    argv, foreign = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code in (0, 2), (argv, out.getvalue()[-500:])
    assert "Traceback" not in err.getvalue()
    if foreign:
        assert exit_info.value.code == 2
        assert out.getvalue() == ""
        assert "unrecognized arguments" in err.getvalue()
    if not out.getvalue():
        # argparse refused the argv: a usage error naming the problem
        assert exit_info.value.code == 2
        assert "error:" in err.getvalue()
    elif argv[-1] == "json":
        assert isinstance(json.loads(out.getvalue())["checks"], list)
    else:
        assert out.getvalue().splitlines()[-1].startswith("checks: ")


#: The rationals admissible_draws picks from: p/r with |p| <= 6, 1 <= r <= 6.
draw_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@given(draw_rationals, draw_rationals, draw_rationals, st.integers(0, 4))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_verify_suite_passes_at_admissible_points(q, a, b, n_max):
    try:
        params = QParams(q, a, b)
    except ParameterError:
        assume(False)
    assume(not _admissibility_issues(params, n_max))
    checks = verify_suite(params, n_max)
    assert len(checks) == 9 * (n_max + 1) + 7
    failing = [(check.name, check.params, check.witness) for check in checks if check.status != "PASS"]
    assert failing == []


@given(_maybe_resonant_params(), st.integers(min_value=0, max_value=6))
@settings(max_examples=200, deadline=None, derandomize=True)
@example(QParams(Fraction(1, 2), 3, 16), 3)  # b q^4 = 1, first needed at n_max = 4
@example(QParams(Fraction(1, 2), 3, 16), 4)
@example(QParams(Fraction(1, 2), 3, Fraction(1, 2)), 0)  # b q^-1 = 1, needed from n_max = 1
@example(QParams(Fraction(1, 2), 3, Fraction(1, 2)), 1)
@example(QParams(Fraction(1, 2), 3, 6), 0)  # (b/a) q = 1, needed from n_max = 1
@example(QParams(Fraction(1, 2), 3, 6), 1)
def test_admissibility_refuses_exactly_where_verify_suite_raises(params, n_max):
    issues = _admissibility_issues(params, n_max)
    try:
        verify_suite(params, n_max)
    except ParameterError:
        assert issues
    else:
        assert not issues


@given(_maybe_resonant_params(), st.integers(min_value=0, max_value=6))
@settings(max_examples=200, deadline=None, derandomize=True)
@example(QParams(Fraction(1, 2), 3, 6), 1)  # (b/a) q = 1: a factor of the b -> bq shift only
@example(QParams(Fraction(1, 2), 3, 6), 2)
@example(QParams(Fraction(1, 2), 3, 3), 0)  # (b/a) q^0 = 1, a factor of P_n from n = 1 on
@example(QParams(Fraction(1, 2), 3, 3), 1)
@example(QParams(Fraction(1, 2), 3, Fraction(1, 2)), 1)  # b q^-1 = 1, a factor of R_1
def test_table_refuses_exactly_where_its_builds_raise(params, n_max):
    report, extra, _ = run(RunConfig("table", params.q, params.a, params.b, n_max=n_max))
    try:
        for n in range(n_max + 1):
            pastro_poly(n, params)
            biorthogonal_partner(n, params)
        list(scalar_rows(n_max, params))
    except ParameterError:
        assert [check.name for check in report.checks] == ["parameters"]
        assert report.exit_code == 2
    else:
        assert report.checks == [] and len(extra["pastro"]) == n_max + 1


@pytest.mark.parametrize(
    "argv, summary",
    [
        # b q^4 = 1 is a factor no check divides by at n_max = 3
        (["verify", "--q=1/2", "--a=3", "--b=16", "--nmax", "3"], "checks: 43 (43 PASS)"),
        # b q^-1 = 1 is divided by from degree 1 on
        (["verify", "--q=1/2", "--b=1/2", "--nmax", "0"], "checks: 16 (16 PASS)"),
        # (b/a) q = 1 is a factor of the b -> bq shift, which table never builds
        (["table", "--q=1/2", "--a=3", "--b=6", "--nmax", "1"], "checks: 0"),
    ],
)
def test_points_with_unused_vanishing_factors_are_admitted(argv, summary, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.splitlines()[-1] == summary


@given(draw_rationals, draw_rationals, st.integers(1, 4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_biorth_never_raises(q, b, N):
    report, _, _ = run(RunConfig("biorth", q=q, b=b, N=N))
    assert report.exit_code in (0, 2)
    if report.exit_code == 2:
        assert [check.name for check in report.checks if check.status == "ERROR"] == ["parameters"]


def test_sweep_runs_the_admissible_draws():
    report, extra, _ = run(RunConfig("sweep", seed=3, draws=4, n_max=2))
    ran = {}
    for check in report.checks:
        if check.status != "SKIP":
            ran.setdefault(check.params["draw"], check.params)
    expected = admissible_draws(seed=3, count=4, n_max=2)
    assert [(c["q"], c["a"], c["b"]) for c in ran.values()] == [
        tuple(format_rational(v) for v in (p.q, p.a, p.b)) for p in expected
    ]
    skipped = [check.params["draw"] for check in report.checks if check.status == "SKIP"]
    labels = sorted(skipped + list(ran), key=lambda label: int(label.split("-")[1]))
    assert labels == [f"draw-{i}" for i in range(1, len(labels) + 1)]
    assert extra == {"draws_requested": 4, "draws_run": 4}


def test_admissible_draws_give_up_after_the_attempt_cap():
    with pytest.raises(RuntimeError):
        admissible_draws(seed=1, count=1001, n_max=0)
    assert admissible_draws(seed=1, count=0, n_max=0) == []


def test_admissible_draws_deterministic():
    first = admissible_draws(seed=7, count=4, n_max=3)
    second = admissible_draws(seed=7, count=4, n_max=3)
    assert first == second
    assert len(first) == 4
    assert len(set(first)) == 4


def test_unknown_command_raises():
    with pytest.raises(ValueError):
        run(RunConfig("frobnicate"))


def test_empty_report_rendering():
    assert Report([]).render_json() == '{"checks":[]}'
    assert Report([]).render_text() == "checks: 0"


def test_report_exit_codes():
    failing = Report([Check(name="x", identity="y", status="FAIL", witness="w")])
    assert failing.exit_code == 1
    erroring = Report(
        [
            Check(name="x", identity="y", status="FAIL", witness="w"),
            Check(name="z", identity="y", status="ERROR", witness="w"),
        ]
    )
    assert erroring.exit_code == 2
    skipped = Report([Check(name="x", identity="y", status="SKIP", witness="w")])
    assert skipped.exit_code == 0


def test_subprocess_verify_passes():
    result = invoke("verify", "--nmax", "3")
    assert result.returncode == 0
    assert "FAIL" not in result.stdout
    summary = result.stdout.rstrip().splitlines()[-1]
    assert summary.startswith("checks: ") and summary.endswith("PASS)")


def test_subprocess_exit_code_on_bad_parameters():
    result = invoke("verify", "--q", "1")
    assert result.returncode == 2
    assert "ERROR" in result.stdout


def test_subprocess_rejects_float_literals():
    result = invoke("verify", "--b", "0.5")
    assert result.returncode == 2
    assert "rational" in result.stderr


def test_subprocess_rejects_missing_command():
    result = invoke()
    assert result.returncode == 2


@pytest.mark.parametrize("stderr", [subprocess.PIPE, subprocess.STDOUT], ids=["own-stderr", "2>&1"])
def test_a_closed_pipe_exits_3_without_traceback(stderr):
    # the reader closes after its first read, while print is still writing;
    # with 2>&1 the message cannot be written either, and the code stays 3
    process = subprocess.Popen(PASTROQ + ["table", "--nmax", "60"], stdout=subprocess.PIPE, stderr=stderr, text=True)
    process.stdout.read(100)
    process.stdout.close()
    _, err = process.communicate(timeout=120)
    assert process.returncode == 3
    if stderr == subprocess.PIPE:
        assert "Traceback" not in err
        assert err.startswith("pastroq: cannot write the report: [Errno 32]")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_full_device_exits_3_without_traceback():
    # a report this small fails only at the flush after print
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            PASTROQ + ["verify", "--nmax", "2"], stdout=full, stderr=subprocess.PIPE, text=True, timeout=120
        )
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("pastroq: cannot write the report: [Errno 28]")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--nmax", "3", "--format", "json"],
        ["verify", "--nmax", "3", "--format", "text"],
        ["table", "--nmax", "4", "--format", "json"],
        ["biorth", "--N", "3", "--format", "json"],
        ["algebra", "--format", "json"],
        ["sweep", "--seed", "5", "--draws", "2", "--nmax", "2", "--format", "json"],
    ],
)
def test_subprocess_output_is_byte_identical(argv):
    first = invoke(*argv)
    second = invoke(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout


def test_json_output_is_parseable_and_sorted():
    result = invoke("verify", "--nmax", "2", "--format", "json")
    payload = json.loads(result.stdout)
    names = [check["name"] for check in payload["checks"]]
    assert "gevp" in names
    keys = list(payload)
    assert keys == sorted(keys)
