"""``Report.render_json`` and ``render_text`` against the reference renderers.

``report_reference.render_json`` builds the whole document as dicts and
encodes it with one ``json.dumps`` call; the package joins each check from
fragments memoised by the ids of the objects they encode. The reference
``render_text`` formats every check's line afresh; the package joins shared
fragments and the check's own strings. The bytes must agree on every
report, whatever its strings, sharing and extras. The golden corpus checks
the same on the commands' own reports.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_reference
from pastroq import cli
from pastroq.report import ERROR, FAIL, PASS, SKIP, Check, Report

#: Characters JSON escapes (quotes, backslashes, control characters) or
#: writes as \u escapes (non-ASCII, astral), mixed with any other.
_awkward = st.sampled_from('"\\/\x00\x07\x1f\x7f\n\t é€ 😀') | st.characters()
_texts = st.text(_awkward, max_size=8)
_params = st.dictionaries(_texts, _texts, max_size=3)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=6,
)
#: Keys that sort before "checks" (alpha, beta, ...) and after it (gram,
#: params, pastro, ...), as the commands' extras do, and arbitrary ones.
_extra_keys = st.sampled_from(
    ["alpha", "beta", "draws_requested", "gram", "h", "params", "pastro", "partners", "weights"]
) | _texts.filter(lambda key: key != "checks")


@st.composite
def reports(draw):
    """A report whose checks draw identities, names, params and witnesses from shared pools.

    A pool entry is one object, so checks that pick the same entry share
    it, and a memoised fragment is reused across many checks; pools may
    also hold distinct objects with equal contents.
    """
    identities = draw(st.lists(_texts, min_size=1, max_size=3))
    names = draw(st.lists(_texts, min_size=1, max_size=3))
    contexts = draw(st.lists(_params, min_size=1, max_size=3))
    contexts += [dict(context) for context in contexts[: draw(st.integers(0, len(contexts)))]]
    witnesses = draw(st.lists(_texts, min_size=1, max_size=3))
    # A slice of a longer string is a new object equal to its entry (CPython
    # shares only the empty and some one-character strings).
    copies = witnesses[: draw(st.integers(0, len(witnesses)))]
    witnesses += [(witness + "?")[:-1] for witness in copies]
    checks = [
        Check(
            name=draw(st.sampled_from(names)),
            identity=draw(st.sampled_from(identities) | _texts),
            params=draw(st.sampled_from(contexts) | _params),
            status=draw(st.sampled_from([PASS, FAIL, ERROR, SKIP])),
            witness=draw(st.none() | st.sampled_from(witnesses) | _texts),
        )
        for _ in range(draw(st.integers(0, 20)))
    ]
    return Report(checks)


@given(reports(), st.none() | st.dictionaries(_extra_keys, _json, max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_render_json_matches_the_reference_encoder(report, extra):
    assert report.render_json(extra) == report_reference.render_json(report, extra)


@given(reports())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_render_text_matches_the_reference_renderer(report):
    assert report.render_text() == report_reference.render_text(report)


def test_render_json_refuses_a_value_without_a_json_form():
    with pytest.raises(TypeError, match="no JSON form for complex"):
        Report().render_json({"x": 1j})


def test_a_check_with_default_fields_renders_as_before():
    report = Report([Check("x", "y = y"), Check("z", "w = w", status=FAIL, witness="at 0")])
    assert report.render_json() == (
        '{"checks":[{"identity":"y = y","name":"x","params":{},"status":"PASS","witness":null},'
        '{"identity":"w = w","name":"z","params":{},"status":"FAIL","witness":"at 0"}]}'
    )
    assert report.render_text() == (
        "PASS  x  ::  y = y\nFAIL  z  ::  w = w  witness: at 0\nchecks: 2 (1 PASS, 1 FAIL)"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_emit_holds_at_most_twice_its_output(fmt):
    """Rendering the golden sweep makes no string per check.

    The golden sweep has 507 checks; a renderer that builds one string per
    check and then joins them holds those strings, the join list and the
    output at once, which passes 2.5 times the output. The first call is
    not traced: it may import json.
    """
    report, extra, lines = cli.run(cli.RunConfig("sweep", seed=12345, draws=4, n_max=12, fmt=fmt))
    cli.emit(report, extra, lines, fmt)
    tracemalloc.start()
    try:
        output = cli.emit(report, extra, lines, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * len(output), peak / len(output)
