"""Check records, reports, and deterministic rendering.

Every verification function in this package returns Check records rather
than booleans, so that failures carry a witness (the first exponent, entry
or shift where two exact values differ) and so the CLI can render a stable
report. One loop, :func:`first_mismatch`, finds and words every failed
comparison. Rendering is deterministic: checks keep their declaration order,
JSON map keys are sorted, and no floats ever appear. JSON is written one
string per check, with each shared identity, name or params object encoded
once, so no document dict of the whole report is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterable, NamedTuple

from .qcore import LaurentPoly, format_rational

__all__ = [
    "PASS",
    "FAIL",
    "ERROR",
    "SKIP",
    "Check",
    "Report",
    "equality_check",
    "first_mismatch",
    "poly_mismatch_witness",
    "vector_mismatch_witness",
    "poly_to_json",
    "matrix_to_json",
    "vector_to_json",
]

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
SKIP = "SKIP"


class Check(NamedTuple):
    """One verified identity: name, the identity itself, parameters, outcome.

    ``identity`` is an ASCII rendering of the mathematical statement being
    checked, so a report line is meaningful on its own. ``witness`` holds
    the first concrete discrepancy when the check does not pass. ``params``
    may be shared by several checks (those of one degree record share its
    context dict; the default is one shared {}), so it is never mutated.
    """

    name: str
    identity: str
    params: dict[str, str] = {}
    status: str = PASS
    witness: str | None = None


class Report:
    """An ordered collection of checks with an aggregate exit code."""

    def __init__(self, checks: list[Check] | None = None) -> None:
        self.checks = [] if checks is None else checks

    def extend(self, checks: list[Check]) -> None:
        self.checks.extend(checks)

    def counts(self) -> dict[str, int]:
        tally = {PASS: 0, FAIL: 0, ERROR: 0, SKIP: 0}
        for check in self.checks:
            tally[check.status] = tally.get(check.status, 0) + 1
        return tally

    @property
    def exit_code(self) -> int:
        """0 if everything passed, 1 on any FAIL, 2 on any ERROR."""
        statuses = {check.status for check in self.checks}
        if ERROR in statuses:
            return 2
        if FAIL in statuses:
            return 1
        return 0

    def render_json(self, extra: dict[str, object] | None = None) -> str:
        """The document ``{"checks": [...]}`` plus the keys of ``extra``.

        The bytes are those of ``json.dumps(document, sort_keys=True,
        separators=(",", ":"))``, but no document is built: each check is
        written as one string with its keys in sorted order, and each
        distinct identity, name, params, status or witness object is encoded
        once, memoised by ``id`` (the checks keep those objects alive for
        the whole render). The other values go through the same encoder.
        ``extra`` holds the top-level keys other than "checks". Only JSON output imports json.
        """
        import json

        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        extra = extra or {}
        memo: dict[int, str] = {}

        def shared(value: object) -> str:
            text = memo.get(id(value))
            if text is None:
                text = memo[id(value)] = encode(value)
            return text

        def pieces():
            for i, key in enumerate(sorted(["checks", *extra])):
                yield f'{"," if i else "{"}{encode(key)}:'
                if key != "checks":
                    yield encode(extra[key])
                    continue
                yield "["
                for j, c in enumerate(self.checks):
                    if j:
                        yield ","
                    yield (
                        f'{{"identity":{shared(c.identity)},"name":{shared(c.name)},'
                        f'"params":{shared(c.params)},"status":{shared(c.status)},'
                        f'"witness":{shared(c.witness)}}}'
                    )
                yield "]"
            yield "}"

        return "".join(pieces())

    def render_text(self) -> str:
        """One line per check and a tally line.

        Each distinct params dict's `` [k=v ...]`` text is built once,
        memoised by ``id`` as in :meth:`render_json`.
        """
        lines = []
        contexts: dict[int, str] = {}
        for check in self.checks:
            context = contexts.get(id(check.params))
            if context is None:
                pairs = " ".join(f"{k}={v}" for k, v in sorted(check.params.items()))
                context = contexts[id(check.params)] = f" [{pairs}]" if pairs else ""
            line = f"{check.status:5s} {check.name}{context}"
            line += f"  ::  {check.identity}"
            if check.witness:
                line += f"  witness: {check.witness}"
            lines.append(line)
        tally = self.counts()
        summary = ", ".join(f"{tally[s]} {s}" for s in (PASS, FAIL, ERROR, SKIP) if tally[s])
        lines.append(f"checks: {len(self.checks)} ({summary})" if self.checks else "checks: 0")
        return "\n".join(lines)


def first_mismatch(template: str, rows: Iterable[tuple]) -> str | None:
    """The first row ``(*where, lhs, rhs)`` with lhs != rhs, or None.

    That row is worded by filling ``template`` with its ``where`` fields,
    then with lhs and rhs through :func:`format_rational`.
    """
    for row in rows:
        if row[-2] != row[-1]:
            *where, lhs, rhs = row
            return template.format(*where, format_rational(lhs), format_rational(rhs))
    return None


def poly_mismatch_witness(lhs: LaurentPoly, rhs: LaurentPoly) -> str | None:
    """First exponent where two Laurent polynomials differ, or None."""
    if lhs == rhs:
        return None
    exponents = sorted(set(lhs.support) | set(rhs.support))
    return first_mismatch(
        "exponent {}: lhs {}, rhs {}",
        ((e, lhs.coefficient(e), rhs.coefficient(e)) for e in exponents),
    )


def vector_mismatch_witness(lhs: list[Fraction], rhs: list[Fraction]) -> str | None:
    """First index where two vectors differ, or None."""
    return first_mismatch("index {}: lhs {}, rhs {}", zip(count(), lhs, rhs))


def equality_check(
    name: str,
    identity: str,
    params: dict[str, str],
    witness: str | None,
) -> Check:
    """Build a PASS check, or a FAIL check carrying the given witness."""
    return Check(name, identity, params, PASS if witness is None else FAIL, witness)


def poly_to_json(poly: LaurentPoly) -> dict[str, object]:
    """Serialize a polynomial as {degree, coefficients: exponent -> 'p/r'}."""
    return {
        "degree": poly.degree,
        "coefficients": {str(e): format_rational(c) for e, c in poly.items()},
    }


def vector_to_json(values: list[Fraction]) -> list[str]:
    return [format_rational(v) for v in values]


def matrix_to_json(matrix: list[list[Fraction]]) -> list[list[str]]:
    return [vector_to_json(row) for row in matrix]
