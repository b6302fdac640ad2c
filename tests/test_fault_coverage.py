"""Every identity check of the golden corpus FAILs under some pinned fault.

The test modules pin, layer by layer, corruptions together with the exact
checks they FAIL: ``FIELD_READERS`` and ``COLUMN_READERS`` for the
per-degree and Baxter checks, ``ALGEBRA_FAULTS`` for the algebra, and
``EXACT_FAILURES`` and ``OPERATOR_FAULTS`` for the grid. A check that no
fault reaches may hold by construction, so together they must name every
check of the corpus. ``parameters`` and ``sweep-draw`` report on the run
itself, not on an identity, and are left out.
"""

import json
from pathlib import Path

from test_algebra import ALGEBRA_FAULTS
from test_biorth import EXACT_FAILURES, OPERATOR_FAULTS
from test_qdiff import COLUMN_READERS, FIELD_READERS

GOLDEN = Path(__file__).parent / "golden"


def test_every_golden_check_fails_under_a_pinned_fault():
    names = set()
    for path in GOLDEN.glob("*.json"):
        names |= {check["name"] for check in json.loads(path.read_text(encoding="utf-8"))["checks"]}
    names -= {"parameters", "sweep-draw"}
    assert len(names) == 52

    pinned = set().union(*FIELD_READERS.values())
    pinned |= {name for readers in COLUMN_READERS.values() for name, _ in readers}
    pinned |= set().union(*(failed for _, failed in ALGEBRA_FAULTS.values()))
    pinned |= set().union(*(failed for failed, _ in EXACT_FAILURES.values()))
    pinned |= set().union(*(failed for _, _, failed in OPERATOR_FAULTS.values()))
    assert names - pinned == set()
