"""The benchmark's span tracer names only callables the package defines.

``bench/spans.py`` patches functions and methods by name. A name that the
package no longer defines would break the benchmark but no tier-1 test, so
this test loads the tracer from its path and checks every target.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_by_its_owner():
    targets = _load_spans()._layer_targets()
    assert targets
    missing = [
        (layer, getattr(owner, "__name__", owner), name)
        for layer, owner, names in targets
        for name in names
        if name not in vars(owner)
    ]
    assert missing == []
