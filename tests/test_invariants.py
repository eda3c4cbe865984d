"""`json_text` against `json.dumps(..., indent=2)`, and the star-profile
test."""

import enum
import json

import pytest
from hypothesis import given, strategies as st

from indegraph.invariants import is_star_profile, json_text


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


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


# Lists of lists of plain ints, the shape json_text hands to the C
# encoder as a top-level value of a dict, empty outer and inner lists
# included.
int_tables = st.lists(st.lists(st.integers(min_value=-(2**70), max_value=2**70)))
odd_members = (
    st.booleans()
    | st.sampled_from(list(Level))
    | st.text(max_size=4)
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
)


@given(int_tables)
def test_matches_json_dumps_on_int_tables(table):
    for value in (table, {"pairs": table, "n": 1}, [[table]]):
        assert json_text(value) == json.dumps(value, indent=2)


def _insert(table, member, at, inside):
    """Put `member` into one row of `table`, or between its rows."""
    if inside and table:
        row = table[at % len(table)]
        row.insert(at % (len(row) + 1), member)
    else:
        table.insert(at % (len(table) + 1), member)
    return table


@given(int_tables, odd_members, st.integers(min_value=0), st.booleans())
def test_int_tables_with_one_odd_member_match_json_dumps(table, odd, at, inside):
    value = _insert(table, odd, at, inside)
    for payload in (value, {"pairs": value}):
        assert json_text(payload) == json.dumps(payload, indent=2)


# A finite float in an int table is written as json.dumps writes it (one
# of the odd members above); an infinity or a NaN is refused.
@given(
    int_tables,
    st.sampled_from([float("inf"), -float("inf"), float("nan")]),
    st.integers(min_value=0),
    st.booleans(),
)
def test_int_tables_with_a_float_are_rejected(table, member, at, inside):
    value = _insert(table, member, at, inside)
    for payload in (value, {"pairs": value}):
        with pytest.raises(ValueError):
            json_text(payload)


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
        # int subclasses are written as their int value, as json.dumps has them.
        Level.LOW,
        [1, Level.HIGH, 3],
        # Int tables, with empty inner lists on either side.
        [[1], []],
        [[]],
        [[], [1]],
        [[-1, 10**30]],
    ],
)
def test_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == json.dumps(value, indent=2)


def _outcome(encode, value):
    """The text `encode` writes for `value`, or the type of error it raises."""
    try:
        return encode(value)
    except (TypeError, ValueError) as error:
        return type(error)


def _dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "value",
    [
        float("inf"),
        -float("inf"),
        float("nan"),
        {"girth": float("inf")},
        {"degrees": [[4, 1], [1, 4]], "diameter": float("inf")},
        [[1, 2], [3, float("nan")]],
        {"degrees": [[4, 1], [1, float("inf")]]},
    ],
)
def test_infinities_and_nan_raise_value_error(value):
    with pytest.raises(ValueError):
        json_text(value)


@pytest.mark.parametrize(
    "value",
    [
        1.0,
        [1, 2.5],
        {"degrees": [[4, 1], [1, 0.5]]},
        {"degrees": [[4, 1], (1, 4)]},
        {1: "int key"},
        {None: "none key"},
        {1: [[4, 1]], "n": 2},
        {"nested": {(1, 2): "tuple key"}},
        (1, 2),
        {1, 2},
        b"bytes",
        object(),
    ],
)
def test_other_values_are_written_as_json_dumps_writes_them(value):
    assert _outcome(json_text, value) == _outcome(_dumps, value)


@pytest.mark.parametrize(
    "n, counts, star",
    [
        (2, {1: 2}, True),
        (2, ((1, 2),), True),
        (5, {4: 1, 1: 4}, True),
        (5, ((4, 1), (1, 4)), True),
        (5, ((4, 1),), False),
        (5, {4: 1, 1: 3, 2: 1}, False),
        (6, ((5, 2), (4, 4)), False),
        (6, ((5, 1), (1, 5), (0, 0)), False),
    ],
)
def test_star_profile(n, counts, star):
    assert is_star_profile(n, counts) is star


class LongProfile:
    """A sized sequence of pairs whose members must not be read."""

    def __len__(self):
        return 2210

    def __getitem__(self, index):
        raise AssertionError("a profile longer than the star's was read")

    def __iter__(self):
        raise AssertionError("a profile longer than the star's was read")


def test_star_profile_settles_a_long_profile_by_its_length():
    assert is_star_profile(530755139915304876, LongProfile()) is False
