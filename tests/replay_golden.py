"""Replay the golden corpus through processes: ``PYTHONPATH=src python tests/replay_golden.py [command ...]``.

Runs every case of ``golden_cases.CASES`` as ``<command> <argv> --format
{text,json}``, one process at a time, compares its exit code and stdout
bytes with tests/golden/, and exits 1 on any difference. The command is
``python -m pastroq`` unless one is given: ``replay_golden.py pastroq``
runs the installed console script. ``tests/test_golden.py`` is the
in-process half of the same oracle.
"""

import difflib
import subprocess
import sys
from pathlib import Path

from golden_cases import CASES

command = sys.argv[1:] or [sys.executable, "-m", "pastroq"]
failures = 0
for stem, argv, code in CASES:
    for fmt, suffix in (("text", "txt"), ("json", "json")):
        path = Path(__file__).parent / "golden" / f"{stem}.{suffix}"
        result = subprocess.run(
            [*command, *argv, "--format", fmt],
            capture_output=True, timeout=120,
        )
        expected = path.read_bytes()
        if (result.returncode, result.stdout) != (code, expected):
            failures += 1
            print(f"{path.name}: exit {result.returncode}, expected {code}")
            lines = (out.decode("utf-8", "replace").splitlines() for out in (expected, result.stdout))
            print("\n".join(difflib.unified_diff(*lines, str(path), "replay", lineterm="")))
            if result.returncode != code:
                print(result.stderr.decode("utf-8", "replace"), end="")
total = 2 * len(CASES)
print(f"{total - failures} of {total} golden reports identical (Python {sys.version.split()[0]})")
sys.exit(1 if failures else 0)
