"""Golden reports: whole CLI outputs compared byte for byte with tests/golden/.

The corpus was generated with ``python -m pastroq <argv> --format {text,json}``.
Regenerate it only in a change that alters report bytes on purpose.
"""

from pathlib import Path

import pytest

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
