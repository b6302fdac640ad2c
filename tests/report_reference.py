"""The routes that ``Report.render_json`` and ``Report.render_text`` took
before they shared work between checks, kept as the reference renderers of
the rendering tests.

A report became one document dict, ``{"checks": [...]}`` updated with the
extras, with a fresh dict per check, and the whole document went through
one ``json.dumps`` call. As text, every check's params were sorted and
formatted again.
"""

from __future__ import annotations

import json

from pastroq.report import ERROR, FAIL, PASS, SKIP, Check, Report


def check_to_dict(check: Check) -> dict[str, object]:
    return {
        "name": check.name,
        "identity": check.identity,
        "params": dict(check.params),
        "status": check.status,
        "witness": check.witness,
    }


def report_to_dict(report: Report) -> dict[str, object]:
    return {"checks": [check_to_dict(check) for check in report.checks]}


def render_json(report: Report, extra: dict[str, object] | None = None) -> str:
    document = report_to_dict(report)
    if extra:
        document.update(extra)
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def render_text(report: Report) -> str:
    lines = []
    for check in report.checks:
        context = " ".join(f"{k}={v}" for k, v in sorted(check.params.items()))
        line = f"{check.status:5s} {check.name}"
        if context:
            line += f" [{context}]"
        line += f"  ::  {check.identity}"
        if check.witness:
            line += f"  witness: {check.witness}"
        lines.append(line)
    tally = report.counts()
    summary = ", ".join(f"{tally[s]} {s}" for s in (PASS, FAIL, ERROR, SKIP) if tally[s])
    lines.append(f"checks: {len(report.checks)} ({summary})" if report.checks else "checks: 0")
    return "\n".join(lines)
