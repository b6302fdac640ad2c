"""Command line interface: tables, verification suites, and sweeps.

All inputs are rational literals (``p`` or ``p/r``); floats are rejected at
the parser. Output is deterministic: same configuration, byte-identical
bytes, in both text and JSON formats. Exit code 0 means every check
passed, 1 means at least one identity FAILed, 2 means a parameter or
usage ERROR, 3 means the report could not be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .algebra import (
    casimir_centrality,
    make_algebra_rep,
    qhahn_embedding,
    verify_affine_relations,
    verify_raw_relations,
)
from .biorth import (
    _adjoint_pairs,
    make_grid_rep,
    verify_adjoint_gevp,
    verify_adjoint_structure,
    verify_biorthogonality,
)
from .pastro import (
    partner_family,
    pastro_family,
    scalar_rows,
    verify_baxter_consistency,
)
from .qcore import ParameterError, QParams, format_rational, parse_rational
from .qdiff import (
    degree_records,
    verify_contiguity,
    verify_gevp,
    verify_qdiff_equation,
    verify_recurrence,
)
from .report import Check, ERROR, Report, SKIP

__all__ = ["RunConfig", "run", "emit", "main", "admissible_draws", "verify_suite"]


class RunConfig(NamedTuple):
    """One invocation: the subcommand plus every field some command reads.

    A command reads only the fields of its ``_COMMANDS`` entry, its only
    flags beside ``--format``; the other fields keep these defaults.
    """

    command: str
    q: Fraction = Fraction(1, 2)
    a: Fraction = Fraction(3)
    b: Fraction = Fraction(1, 5)
    mu: Fraction = Fraction(2, 3)
    n_max: int = 8
    N: int = 4
    fmt: str = "text"
    seed: int = 1
    draws: int = 5


#: The smallest accepted value of each size field. ``run`` returns an ERROR
#: check for a smaller value; the parser rejects it before that, naming the
#: flag.
_MINIMUM_SIZE = {"n_max": 0, "N": 1, "draws": 1}


def _admissibility_issues(params: QParams, n_max: int) -> list[str]:
    """The factors verify_suite divides by up to n_max that vanish, b -> bq shift included."""
    issues = params.vanishing_factors(n_max)
    if n_max:
        shifted = params._replace(b=params.b * params.q)
        issues += [f"(at shifted b -> bq) {text}" for text in shifted.vanishing_factors(n_max - 1)]
    return issues


def _table_issues(params: QParams, n_max: int) -> list[str]:
    """The vanishing factors that table's builds (P_n, R_n for n <= n_max, the scalar rows) divide by.

    They are those of :func:`_admissibility_issues`, worded alike, but two:
    1 - (b/a)*q^0 at n_max = 0 (P_n divides by it from n = 1 on) and the
    shifted one, 1 - (b/a)*q. Each other shifted factor is an unshifted one.
    """
    unused = f"{'(at shifted b -> bq) ' if n_max else ''}(1 - (b/a)*q^0) vanishes"
    return [issue for issue in _admissibility_issues(params, n_max) if issue != unused]


def _admissible(config: RunConfig, issues_of=_admissibility_issues) -> QParams:
    """The triple of ``config``, or a ParameterError naming every factor ``issues_of`` finds."""
    params = QParams(config.q, config.a, config.b)
    issues = issues_of(params, config.n_max)
    if issues:
        raise ParameterError("; ".join(issues))
    return params


def verify_suite(
    params: QParams, n_max: int, context: dict[str, str] | None = None
) -> list[Check]:
    """Every polynomial/operator identity at one parameter triple, n <= n_max.

    One pass over n = 0..n_max: each degree's record, with the scalar row
    of that degree, is built once, read by the per-degree groups, then
    streamed into the Baxter checks, which step the coupled pair beside
    it; no reference to it outlives that degree, and no row outlives the
    next one. A resonant triple raises the error of
    :func:`pastroq.pastro.scalar_rows` before any record is built.
    The groups are reported in the order gevp, q-difference, recurrence,
    contiguity, baxter. The keys of ``context`` join the one params dict of
    each record and the one of the Baxter checks.
    """
    rows = scalar_rows(n_max, params)
    gevp: list[Check] = []
    qdiff_equation: list[Check] = []
    recurrence: list[Check] = []
    contiguity: list[Check] = []

    def checked(record):
        gevp.append(verify_gevp(record))
        qdiff_equation.append(verify_qdiff_equation(record))
        recurrence.extend(verify_recurrence(record))
        contiguity.extend(verify_contiguity(record))
        return record

    records = degree_records(params, n_max, rows, context)
    baxter = verify_baxter_consistency(n_max, params, map(checked, records), context)
    return gevp + qdiff_equation + recurrence + contiguity + baxter


def _error_check(context: dict[str, str], message: str) -> Check:
    return Check("parameters", "admissible parameter configuration", context, ERROR, message)


def _table(config: RunConfig, report: Report, context: dict[str, str]) -> dict:
    params = _admissible(config, _table_issues)
    count = config.n_max + 1
    extra = {
        "params": context,
        "pastro": list(islice(pastro_family(params), count)),
        "partners": list(islice(partner_family(params), count)),
    }
    rows = list(scalar_rows(config.n_max, params))
    return extra | {name: [getattr(row, name) for row in rows] for name in ("alpha", "beta", "h")}


def _table_text(extra: dict) -> list[str]:
    lines = [f"P_{n} = {poly}" for n, poly in enumerate(extra["pastro"])]
    lines += [f"R_{n} = {partner}" for n, partner in enumerate(extra["partners"])]
    scalars = zip(*(map(format_rational, extra[name]) for name in ("alpha", "beta", "h")))
    return lines + [f"alpha_{n} = {a}   beta_{n} = {b}   h_{n} = {h}" for n, (a, b, h) in enumerate(scalars)]


def _verify(config: RunConfig, report: Report, context: dict[str, str]) -> dict:
    report.extend(verify_suite(_admissible(config), config.n_max))
    return {}


def _biorth(config: RunConfig, report: Report, context: dict[str, str]) -> dict:
    rep = make_grid_rep(config.N, config.b, config.q)
    report.extend(verify_adjoint_structure(rep))
    for n, pair in zip(range(config.N), _adjoint_pairs(rep)):
        report.extend(verify_adjoint_gevp(n, rep, pair))
    del pair  # not held while biorthogonality is checked
    gram, biorth_checks = verify_biorthogonality(rep)
    report.extend(biorth_checks)
    return {"params": context, "grid": rep.grid, "weights": rep.w, "h": rep.h[: config.N], "gram": gram}


def _biorth_text(extra: dict) -> list[str]:
    def row(values):
        return "  ".join(map(format_rational, values))

    lines = [f"{name + ':':<9}{row(extra[name])}" for name in ("grid", "weights", "h")]
    return lines + ["gram:"] + [f"  {row(values)}" for values in extra["gram"]]


_ALGEBRA_SCALARS = ("alpha1", "alpha2", "gamma1", "gamma2", "gamma3")


def _algebra(config: RunConfig, report: Report, context: dict[str, str]) -> dict:
    rep = make_algebra_rep(QParams(config.q, config.a, config.b))
    report.extend(verify_raw_relations(rep))
    report.extend(verify_affine_relations(rep))
    report.extend(casimir_centrality(rep))
    constants, pencil_checks = qhahn_embedding(rep, config.mu)
    report.extend(pencil_checks)
    return {name: getattr(constants, name) for name in _ALGEBRA_SCALARS} | {
        "params": context,
        "gamma4": constants.gamma4,
        "degenerate_pencil": constants.degenerate,
        "presentation": {"beta1": "0", "beta2": "1", "delta1": "0", "delta2": "1"},
    }


def _algebra_text(extra: dict) -> list[str]:
    lines = [f"{name} = {format_rational(extra[name])}" for name in _ALGEBRA_SCALARS]
    pencil = "yes" if extra["degenerate_pencil"] else "no"
    return lines + [f"gamma4 = {extra['gamma4']}", f"degenerate pencil: {pencil}"]


#: Draws a seeded sweep or ``admissible_draws`` makes before giving up.
_MAX_ATTEMPTS = 1000


def _draws(
    seed: int, n_max: int
) -> Iterator[tuple[int, tuple[Fraction, Fraction, Fraction], QParams | None, str | None]]:
    """Seeded draws ``(attempt, (q, a, b), params, problem)`` for attempt = 1.._MAX_ATTEMPTS.

    ``problem`` is None for an admissible draw; otherwise it is the
    ``ParameterError`` text (``params`` is then None) or the vanishing
    factors for degrees up to ``n_max``.
    """
    import random

    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    for attempt in range(1, _MAX_ATTEMPTS + 1):
        triple = rational(), rational(), rational()
        try:
            params = QParams(*triple)
        except ParameterError as exc:
            yield attempt, triple, None, str(exc)
            continue
        yield attempt, triple, params, "; ".join(_admissibility_issues(params, n_max)) or None


def admissible_draws(seed: int, count: int, n_max: int) -> list[QParams]:
    """Deterministic admissible parameter triples (inadmissible draws skipped)."""
    admissible = (params for _, _, params, problem in _draws(seed, n_max) if problem is None)
    out = list(islice(admissible, max(count, 0)))
    if len(out) < count:
        raise RuntimeError("could not draw enough admissible parameter triples")
    return out


def _sweep(config: RunConfig, report: Report, context: dict[str, str]) -> tuple[dict, list[str]]:
    accepted = attempts = 0
    for attempts, (q, a, b), params, problem in _draws(config.seed, config.n_max):
        label = f"draw-{attempts}"
        if problem is not None:
            drawn = {"draw": label, "q": format_rational(q), "a": format_rational(a), "b": format_rational(b)}
            report.checks.append(Check("sweep-draw", "admissible parameter draw", drawn, SKIP, problem))
            continue
        accepted += 1
        report.extend(verify_suite(params, config.n_max, {"draw": label}))
        if accepted == config.draws:
            break
    if accepted < config.draws:
        witness = f"{accepted} of {config.draws} draws admissible within {attempts} attempts"
        identity = "admissible draws run = draws requested"
        report.checks.append(Check("sweep-draws", identity, context, ERROR, witness))
    return {"draws_requested": config.draws, "draws_run": accepted}


class _Command(NamedTuple):
    """One subcommand of the command table.

    ``fields`` are the config fields it reads: its flags, in this order,
    and its ERROR context. ``run`` bounds the size fields among them
    (those in ``_MINIMUM_SIZE``) in the same order. ``body`` appends checks
    to the report and returns the extras as exact values, which
    ``Report.render_json`` encodes; ``text``, if any, words them as the
    lines that lead a text report.
    """

    help: str
    fields: tuple[str, ...]
    body: Callable[[RunConfig, Report, dict[str, str]], dict]
    text: Callable[[dict], list[str]] | None = None


_COMMANDS = {
    "table": _Command("emit P_n, R_n and the recurrence data", ("q", "a", "b", "n_max"), _table, _table_text),
    "verify": _Command("run every polynomial/operator identity check", ("q", "a", "b", "n_max"), _verify),
    "biorth": _Command("run the grid, adjoint and biorthogonality checks", ("q", "b", "N"), _biorth, _biorth_text),
    "algebra": _Command("run the algebra relation checks", ("q", "a", "b", "mu"), _algebra, _algebra_text),
    "sweep": _Command("run the verify suite at seeded random points", ("n_max", "draws", "seed"), _sweep),
}


def run(config: RunConfig) -> tuple[Report, dict, list[str]]:
    """Execute one configuration; returns (report, extras, text lines).

    The extras are exact values; the text lines are built only when
    ``config.fmt`` is "text", so no run formats both ways. A size field
    below its minimum gives one ERROR check naming it. A ParameterError
    from the body keeps the checks already appended and adds one
    ``parameters`` ERROR with the command's context; extras and lines are
    then empty.
    """
    try:
        command = _COMMANDS[config.command]
    except KeyError:
        raise ValueError(f"unknown command {config.command!r}") from None
    for name in command.fields:
        value, minimum = getattr(config, name), _MINIMUM_SIZE.get(name)
        if minimum is not None and value < minimum:
            message = f"{name} must be at least {minimum}, got {value}"
            return Report([_error_check({name: str(value)}, message)]), {}, []
    context = {name: format_rational(getattr(config, name)) for name in command.fields}
    report = Report()
    try:
        extra = command.body(config, report, context)
    except ParameterError as exc:
        report.checks.append(_error_check(context, str(exc)))
        return report, {}, []
    return report, extra, command.text(extra) if command.text and config.fmt == "text" else []


def emit(report: Report, extra: dict, lines: list[str], fmt: str) -> str:
    """Render a finished run in the requested format (stable byte-for-byte)."""
    if fmt == "json":
        return report.render_json(extra)
    parts = list(lines)
    parts.append(report.render_text())
    return "\n".join(parts)


def _int_at_least(minimum: int):
    """An argparse type: an int literal no smaller than ``minimum``.

    argparse prefixes the error with the flag ("argument --N: ...") and
    exits 2, the usage-error code.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" messages
    return parse


#: The flag of each config field: (flag, argparse type, help).
_FLAGS = {
    "q": ("--q", parse_rational, "deformation parameter (rational literal)"),
    "a": ("--a", parse_rational, "first family parameter (rational literal)"),
    "b": ("--b", parse_rational, "second family parameter (rational literal)"),
    "mu": ("--mu", parse_rational, "pencil parameter (rational literal)"),
    "n_max": ("--nmax", _int_at_least(_MINIMUM_SIZE["n_max"]), "largest degree to cover"),
    "N": ("--N", _int_at_least(_MINIMUM_SIZE["N"]), "grid size for the truncated representation"),
    "seed": ("--seed", int, "seed for the sweep draws"),
    "draws": ("--draws", _int_at_least(_MINIMUM_SIZE["draws"]), "number of admissible sweep points"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, taking the flags of its fields and ``--format``."""
    parser = argparse.ArgumentParser(
        prog="pastroq",
        description="Exact construction and verification of a biorthogonal "
        "polynomial family and its q-difference operator triple.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig._field_defaults
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for field in command.fields:
            flag, kind, text = _FLAGS[field]
            subparser.add_argument(flag, dest=field, type=kind, default=defaults[field], help=text)
        subparser.add_argument("--format", dest="fmt", choices=("text", "json"), default=defaults["fmt"], help="output format")
        subparser.set_defaults(error=subparser.error)
    return parser


def main(argv: list[str] | None = None) -> None:
    options, extras = build_parser().parse_known_args(argv)
    fields = vars(options)
    error = fields.pop("error")  # the subparser's, whose usage line lists the command's flags
    if extras:
        error(f"unrecognized arguments: {' '.join(extras)}")
    config = RunConfig(**fields)
    report, extra, lines = run(config)
    output = emit(report, extra, lines, config.fmt)
    try:
        print(output)
        sys.stdout.flush()
    except OSError as exc:  # BrokenPipeError (EPIPE) among them
        # Python's note on SIGPIPE: point stdout at devnull, so that the
        # interpreter's final flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with suppress(OSError):  # stderr may be the same closed pipe
            print(f"pastroq: cannot write the report: {exc}", file=sys.stderr, flush=True)
        sys.exit(3)
    sys.exit(report.exit_code)

if __name__ == "__main__":
    main()
