"""Golden reports: whole CLI outputs compared byte for byte with tests/golden/.

The corpus was generated with ``python -m pastroq <argv> --format {text,json}``.
Regenerate it only in a change that alters report bytes on purpose.
This is the in-process half of the oracle; ``replay_golden.py`` runs the
same cases through ``python -m pastroq`` processes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pastroq
from golden_cases import CASES
from pastroq.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("stem, argv, code", CASES)
def test_golden_report(stem, argv, code, fmt, suffix, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--format", fmt])
    assert exit_info.value.code == code
    expected = (GOLDEN / f"{stem}.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_corpus_holds_exactly_the_reports_of_the_cases():
    stems = [stem for stem, _, _ in CASES]
    assert len(set(stems)) == len(stems)
    expected = {f"{stem}.{suffix}" for stem in stems for suffix in ("txt", "json")}
    assert {path.name for path in GOLDEN.iterdir()} == expected


def test_replay_counts_each_report_that_differs(tmp_path):
    # three small cases of the corpus: one intact, one with a corrupted
    # byte in its JSON report, one expecting the wrong exit code; replayed
    # through python -m pastroq, then through a given command: a script that
    # logs its arguments and exits with main() as the console script does
    cases = [
        ("verify_nmax4", ["verify", "--nmax", "4"], 0),
        ("table_nmax5", ["table", "--nmax", "5"], 0),
        ("biorth_N4", ["biorth", "--N", "4"], 2),
    ]
    shutil.copy(Path(__file__).with_name("replay_golden.py"), tmp_path)
    (tmp_path / "golden_cases.py").write_text(f"CASES = {cases!r}\n", encoding="utf-8")
    (tmp_path / "golden").mkdir()
    for stem, _, _ in cases:
        for suffix in ("txt", "json"):
            shutil.copy(GOLDEN / f"{stem}.{suffix}", tmp_path / "golden")
    corrupted = tmp_path / "golden" / "table_nmax5.json"
    data = bytearray(corrupted.read_bytes())
    data[len(data) // 2] ^= 1
    corrupted.write_bytes(bytes(data))
    log, script = tmp_path / "runs.log", tmp_path / "console_script.py"
    script.write_text(
        "import sys\n"
        "from pastroq.cli import main\n"
        f"with open({str(log)!r}, 'a') as log:\n"
        "    print(*sys.argv[1:], file=log)\n"
        "sys.exit(main())\n",
        encoding="utf-8",
    )
    src = str(Path(pastroq.__file__).resolve().parents[1])
    for command in ([], [sys.executable, str(script)]):
        result = subprocess.run(
            [sys.executable, str(tmp_path / "replay_golden.py"), *command],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[-1].startswith("3 of 6 golden reports identical")
        headers = [line for line in lines if ": exit " in line]
        assert headers == [
            "table_nmax5.json: exit 0, expected 0",
            "biorth_N4.txt: exit 0, expected 2",
            "biorth_N4.json: exit 0, expected 2",
        ]
    # the given command ran each report once, and the default never ran it
    runs = [" ".join([*argv, "--format", fmt]) for _, argv, _ in cases for fmt in ("text", "json")]
    assert log.read_text(encoding="utf-8").splitlines() == runs
