"""The indented JSON writer against `json.dumps(..., indent=2)`."""

import json

import pytest
from hypothesis import given, strategies as st

from indegraph.invariants import json_text

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.text()
)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=40,
)


@given(values)
def test_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        'say "hi"',
        "back\\slash and /slash",
        "\x00\x01\t\n\r\x1f\x7f",
        "café   中 \U0001f600",
        "\ud800 lone surrogate",
        -1,
        0,
        2**64,
        -(2**64) - 1,
        10**40,
        True,
        False,
        None,
        [],
        {},
        [[], {}, [[]], {"": {}}],
        {"n": 5, "degrees": [[4, 1], [1, 4]], "verify": {"note": None, "checks": {}}},
        {"é\"\\": ["\n", True, None, -3]},
    ],
)
def test_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        1.0,
        float("inf"),
        [1, 2.5],
        {"girth": float("inf")},
        {1: "int key"},
        {None: "none key"},
        {"nested": {(1, 2): "tuple key"}},
        (1, 2),
        {1, 2},
        b"bytes",
        object(),
    ],
)
def test_rejects_types_outside_the_payloads(value):
    with pytest.raises(TypeError):
        json_text(value)
