"""Every function in src/pastroq is reached by a report, or says why not.

A subprocess installs ``sys.setprofile`` before it imports pastroq, so
that code run at import counts too. It replays every case of
``golden_cases.CASES`` in text and JSON, runs README's Library block, and
prints the (file, first line) of every code object that was called. Each
``def`` under src/pastroq must be among them or in ``UNREACHED`` with the
reason it stays; an entry that is reached, or that names no def, is stale.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from test_readme import _fenced_block_after

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pastroq"

#: Defs that no golden report or README example calls, by qualified name.
UNREACHED = {
    "LaurentPoly.eval_at": "bench/spans.py traces it; tests/grid_reference.py calls it",
    "q_pochhammer": "bench/spans.py patches it by name; the tests' reference routes use it",
    "admissible_draws": "bench/run.py draws its inputs with it",
    "baxter_system": "bench/spans.py patches it by name; tests/grid_reference.py builds Q_n "
    "from it",
    "vector_mismatch_witness": "runs only when adjoint-gevp FAILs: "
    "test_corrupted_lam_fails_only_the_adjoint_gevp_at_that_degree",
    "band_entries": "runs only when a band or pairing check FAILs: "
    "test_pairing_witness_matches_dense_basis_pairs",
    "LaurentPoly.valuation": "value-type method the tests read",
    "LaurentPoly.leading_coefficient": "value-type method the tests read",
    "LaurentPoly.__hash__": "value type: tests put polynomials in sets",
    "LaurentPoly.__neg__": "value type: a report subtracts only nonzero polynomials, "
    "which __sub__ does without a negated copy; the tests negate polynomials",
    "LaurentPoly.__repr__": "value type: pytest's failure output reads it",
    "QDiffOperator.__repr__": "value type: pytest's failure output reads it",
}

_REPLAY = """
import contextlib, io, json, sys
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
sys.path[:0] = sys.argv[1:3]
from golden_cases import CASES
from pastroq.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    for _, argv, _ in CASES:
        for fmt in ("text", "json"):
            try:
                main(argv + ["--format", fmt])
            except SystemExit:
                pass
    exec(compile(sys.argv[3], "README.md", "exec"), {})
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every def under src/pastroq.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), "")
    return found


def test_every_def_is_reached_or_has_a_reason():
    library = _fenced_block_after("## Library", "python")
    result = subprocess.run(
        [sys.executable, "-c", _REPLAY, str(ROOT / "src"), str(ROOT / "tests"), library],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    called = {(str(Path(name).resolve()), line) for name, line in json.loads(result.stdout)}
    unreached = {name for key, name in _defs().items() if key not in called}
    assert sorted(unreached - UNREACHED.keys()) == [], "defs no report reaches, with no reason"
    assert sorted(UNREACHED.keys() - unreached) == [], "stale UNREACHED entries"
