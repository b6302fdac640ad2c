"""``Report.render_json`` against the one-document reference encoder.

``report_reference.render_json`` builds the whole document as dicts and
encodes it with one ``json.dumps`` call; the package writes one string per
check and encodes each shared identity, name and params object once. The
bytes must agree on every report, whatever its strings, sharing and extras.
The golden corpus checks the same on the commands' own reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import report_reference
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
    """A report whose checks draw identities, names and params from shared pools.

    A pool entry is one object, so checks that pick the same entry share
    it; pools may also hold distinct objects with equal contents.
    """
    identities = draw(st.lists(_texts, min_size=1, max_size=3))
    names = draw(st.lists(_texts, min_size=1, max_size=3))
    contexts = draw(st.lists(_params, min_size=1, max_size=3))
    contexts += [dict(context) for context in contexts[: draw(st.integers(0, len(contexts)))]]
    checks = [
        Check(
            name=draw(st.sampled_from(names)),
            identity=draw(st.sampled_from(identities) | _texts),
            params=draw(st.sampled_from(contexts) | _params),
            status=draw(st.sampled_from([PASS, FAIL, ERROR, SKIP])),
            witness=draw(st.none() | _texts),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return Report(checks)


@given(reports(), st.none() | st.dictionaries(_extra_keys, _json, max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_render_json_matches_the_reference_encoder(report, extra):
    assert report.render_json(extra) == report_reference.render_json(report, extra)
