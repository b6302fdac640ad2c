"""The dict route that ``Report.render_json`` took before it wrote one string
per check, kept as the reference encoder of the rendering tests.

A report became one document dict, ``{"checks": [...]}`` updated with the
extras, with a fresh dict per check, and the whole document went through
one ``json.dumps`` call.
"""

from __future__ import annotations

import json

from pastroq.report import Check, Report


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
