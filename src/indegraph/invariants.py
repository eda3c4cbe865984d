"""The one record of facts about I_G(Z_n), its tiers, the infinite-length
sentinel, and `json_text`, the `json.dumps(indent=2)` of `info --json`
that hands its degree tables to the C encoder."""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

# Girth of an acyclic graph, diameter of a disconnected one.
INFINITE = math.inf

# Tiers: which layer produced a group of facts.
ORACLE = "ORACLE"
CLOSED_FORM = "CLOSED_FORM"


def is_infinite(value: int | float) -> bool:
    return isinstance(value, float) and math.isinf(value)


def length_str(value: int | float) -> str:
    """Render a girth or diameter value, finite or not."""
    return "INFINITE" if is_infinite(value) else str(value)


def profile_str(degree_counts: tuple[tuple[int, int], ...]) -> str:
    """Render a degree profile as `degree x count` pairs, e.g. `5x2 4x4`."""
    return " ".join(f"{deg}x{cnt}" for deg, cnt in degree_counts)


def is_star_profile(n: int, counts: Mapping[int, int] | Sequence[tuple[int, int]]) -> bool:
    """Whether a degree profile, {degree: count} or its pairs, is the star's on n vertices.

    The star's profile has at most two entries, so a longer one is
    settled by its length before any dict is built.
    """
    star = {1: 2} if n == 2 else {n - 1: 1, 1: n - 1}
    return len(counts) == len(star) and dict(counts) == star


def json_text(payload: object) -> str:
    """`json.dumps(payload, indent=2, allow_nan=False)`, with its int tables from C.

    With `indent` set, CPython leaves its C encoder for a Python
    generator that yields one chunk per token, which for the thousands
    of degree pairs of a smooth n costs several times the rest of
    `info --json`. So each top-level value of a dict payload that is a
    list of non-empty lists of plain ints is handed to `json.dumps` as
    null, and its slot, a newline, two spaces, the key and ": null", is
    then filled by `_int_table_text`. A JSON string never holds a raw
    newline, so that text starts a top-level key and nothing else.
    """
    tables = {}
    if isinstance(payload, dict):
        tables = {
            key: value
            for key, value in payload.items()
            if isinstance(key, str) and isinstance(value, list) and _is_int_table(value)
        }
        payload = {**payload, **dict.fromkeys(tables)}
    text = json.dumps(payload, indent=2, allow_nan=False)
    for key, table in tables.items():
        slot = "\n  " + encode_basestring_ascii(key) + ": "
        text = text.replace(slot + "null", slot + _int_table_text(table, "\n  "), 1)
    return text


def _is_int_table(value: list) -> bool:
    """Whether every member of `value` is a non-empty list of plain ints."""
    return (
        set(map(type, value)) == {list}
        and all(value)
        and set(map(type, chain.from_iterable(value))) == {int}
    )


def _int_table_text(value: list[list[int]], indent: str) -> str:
    """`json.dumps(value, indent=2)` at the level of `indent`, from the C encoder.

    The compact text holds digits, minus signs, brackets and commas only,
    so "],[" separates two rows and every other comma two ints of a row.
    """
    inner = indent + "  "
    cell = inner + "  "
    body = (
        json.dumps(value, separators=(",", ":"))[2:-2]
        .replace("],[", ";")
        .replace(",", "," + cell)
        .replace(";", inner + "]," + inner + "[" + cell)
    )
    return "[" + inner + "[" + cell + body + inner + "]" + indent + "]"


@dataclass(frozen=True)
class InvariantSet:
    """Every fact about one graph I_G(Z_n) that the audit and `info` read.

    Each fact group carries the tier (ORACLE or CLOSED_FORM) that
    produced it: `exact_tier` covers clique_number, clique_vertices and
    chromatic_number, `hamiltonian_tier` covers hamiltonian and
    hamiltonian_cycle, and `tier` covers every other field. A search
    group is None throughout, tier included, when its producer declined
    the search (the oracle beyond its exact-search limits).

    degree_counts holds the degree profile as (degree, multiplicity)
    pairs in descending degree order, so the record stays tiny even when
    n has a billion vertices. order_classes holds (order d, class size
    phi(d)) for each divisor d of n, ascending. vertex_orders and
    vertex_degrees are two columns indexed by vertex, each vertex's
    order and its degree, from the oracle only: the closed forms give
    every vertex of a class the same degree, so their record leaves both
    None and order_classes stands in for them. The witnesses
    clique_vertices and hamiltonian_cycle likewise come from the
    oracle's searches only; the cycle is None when no cycle exists.
    multipartite says whether adjacency is exactly "different order
    class", which the oracle checks from the rows and the closed forms
    take as given.
    """

    n: int
    tier: str
    involutions: int
    neither: int
    edge_count: int
    degree_counts: tuple[tuple[int, int], ...]
    order_classes: tuple[tuple[int, int], ...]
    vertex_orders: tuple[int, ...] | None
    vertex_degrees: tuple[int, ...] | None
    connected: bool
    complete: bool
    star: bool
    girth: int | float
    diameter: int | float
    bipartite: bool
    partite_count: int
    multipartite: bool
    exact_tier: str | None
    clique_number: int | None
    clique_vertices: tuple[int, ...] | None
    chromatic_number: int | None
    hamiltonian_tier: str | None
    hamiltonian: bool | None
    hamiltonian_cycle: tuple[int, ...] | None
