"""README's examples run as written.

The Library block is executed as it stands, and the output shown under
``$ pastroq table --nmax 2`` must be what ``main`` prints, byte for byte.
"""

import re
from pathlib import Path

import pytest

from pastroq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced_block_after(marker: str, language: str = "") -> str:
    """The body of the first fenced block with ``language`` after ``marker``."""
    start = README.index(marker)
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match, f"no ```{language} block after {marker!r}"
    return match[1]


def test_library_block_runs():
    exec(compile(_fenced_block_after("## Library", "python"), "README.md", "exec"), {})


def test_table_example_matches_cli_output(capsys):
    command = "$ pastroq table --nmax 2\n"
    block = _fenced_block_after("Example:")
    assert block.startswith(command)
    with pytest.raises(SystemExit) as exited:
        main(["table", "--nmax", "2"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == block[len(command):]
