"""Replay the golden corpus without pytest: ``PYTHONPATH=src python tests/replay_golden.py``.

Runs every case of ``golden_cases.CASES`` in process, in text and JSON,
diffs each output and exit code with tests/golden/, and exits 1 on any
difference.
"""

import difflib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from golden_cases import CASES
from pastroq.cli import main

failures = 0
for stem, argv, code in CASES:
    for fmt, suffix in (("text", "txt"), ("json", "json")):
        path = Path(__file__).parent / "golden" / f"{stem}.{suffix}"
        out = io.StringIO()
        with redirect_stdout(out):
            try:
                main(argv + ["--format", fmt])
            except SystemExit as exit_info:
                status = exit_info.code
        expected, got = path.read_text(encoding="utf-8"), out.getvalue()
        if (status, got) != (code, expected):
            failures += 1
            print(f"{path.name}: exit {status}, expected {code}")
            lines = expected.splitlines(), got.splitlines()
            diff = difflib.unified_diff(*lines, str(path), "replay")
            print("\n".join(line.rstrip("\n") for line in diff))
total = 2 * len(CASES)
print(f"{total - failures} of {total} golden reports identical (Python {sys.version.split()[0]})")
sys.exit(1 if failures else 0)
