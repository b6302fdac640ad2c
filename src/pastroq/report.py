"""Check records, reports, and deterministic rendering.

Every verification function in this package returns Check records rather
than booleans, so that failures carry a witness (the first exponent, entry
or shift where two exact values differ) and so the CLI can render a stable
report. One loop, :func:`first_mismatch`, finds and words every failed
comparison. Rendering is deterministic: checks keep their declaration order,
JSON map keys are sorted, and no floats ever appear. A report is rendered
by joining fragments that checks share (a JSON head, params encoding or
tail; a text status or context), each memoised by the ids of the objects it
encodes, with the checks' own strings, so no document dict of the whole
report and no string per check is built: rendering holds about the output
plus a few references per check.
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
    "to_json",
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
        separators=(",", ":"))``, but no document is built and no string is
        made per check: each check is joined from three shared fragments.

        - A head ``{"identity":…,"name":…,"params":``, with the comma before
          it from the second check on, memoised by that comma and the ids
          of the identity and name.
        - The params encoding, memoised by the id of the params dict.
        - A tail ``,"status":…,"witness":…}``, memoised by the ids of the
          status and witness.

        The checks keep those objects alive for the whole render, so an id
        names one object throughout. Rendering thus holds about the output
        plus three references per check. ``extra`` holds the top-level keys
        other than "checks", encoded by the same encoder, which gives each
        exact value its form through :func:`to_json`. Only JSON output
        imports json.
        """
        import json

        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=to_json).encode
        extra = extra or {}
        heads: dict[tuple[str, int, int], str] = {}
        contexts: dict[int, str] = {}
        tails: dict[tuple[int, int], str] = {}
        pieces = []
        for i, key in enumerate(sorted(["checks", *extra])):
            pieces.append(f'{"," if i else "{"}{encode(key)}:')
            if key != "checks":
                pieces.append(encode(extra[key]))
                continue
            pieces.append("[")
            lead = ""
            for c in self.checks:
                ids = (lead, id(c.identity), id(c.name))
                head = heads.get(ids)
                if head is None:
                    head = heads[ids] = (
                        f'{lead}{{"identity":{encode(c.identity)},"name":{encode(c.name)},"params":'
                    )
                context = contexts.get(id(c.params))
                if context is None:
                    context = contexts[id(c.params)] = encode(c.params)
                ids = (id(c.status), id(c.witness))
                tail = tails.get(ids)
                if tail is None:
                    tail = tails[ids] = f',"status":{encode(c.status)},"witness":{encode(c.witness)}}}'
                pieces += head, context, tail
                lead = ","
            pieces.append("]")
        pieces.append("}")
        return "".join(pieces)

    def render_text(self) -> str:
        """One line per check, then a tally line.

        As in :meth:`render_json`, no string is made per check: a line is
        joined from the padded status (with the newline that ends the line
        before it), the check's own name, the `` [k=v ...]`` context
        (memoised by the id of the params dict), the constant ``  ::  `` and
        the check's own identity; a witness adds ``  witness: `` and the
        witness itself. Rendering thus holds about the output plus five
        references per check (seven with a witness). Memoising whole heads
        and tails here would save two references per check, but on a report
        of a dozen checks that share nothing the memo costs more time and
        memory than the strings it saves.
        """
        statuses: dict[str, str] = {}
        contexts: dict[int, str] = {}
        pieces = []
        for c in self.checks:
            status = statuses.get(c.status)
            if status is None:
                status = statuses[c.status] = f"\n{c.status:5s} "
            context = contexts.get(id(c.params))
            if context is None:
                pairs = " ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
                context = contexts[id(c.params)] = f" [{pairs}]" if pairs else ""
            pieces += status, c.name, context, "  ::  ", c.identity
            if c.witness:
                pieces += "  witness: ", c.witness
        if not self.checks:
            return "checks: 0"
        pieces[0] = pieces[0][1:]  # the first line follows no other
        tally = self.counts()
        summary = ", ".join(f"{tally[s]} {s}" for s in (PASS, FAIL, ERROR, SKIP) if tally[s])
        pieces.append(f"\nchecks: {len(self.checks)} ({summary})")
        return "".join(pieces)


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


def to_json(value: object) -> object:
    """The JSON form of an exact value: the encoder's ``default`` in :meth:`Report.render_json`.

    A rational is its ``p/r`` text, a polynomial ``{degree, coefficients:
    exponent -> 'p/r'}`` and a q-difference operator the list of its
    terms, each its coefficient's form plus its ``shift``. Strings, ints,
    bools, lists and dicts are JSON already and never reach it.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, LaurentPoly):
        return {"degree": value.degree, "coefficients": {str(e): format_rational(c) for e, c in value.items()}}
    from .qdiff import QDiffOperator  # qdiff imports this module

    if isinstance(value, QDiffOperator):
        return [{"shift": shift} | to_json(coefficient) for shift, coefficient in value.items()]
    raise TypeError(f"no JSON form for {type(value).__name__}")
