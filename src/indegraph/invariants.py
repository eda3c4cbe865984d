"""The one record of facts about I_G(Z_n), its tiers, and the infinite-length sentinel."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

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


def is_star_profile(n: int, counts: Mapping[int, int]) -> bool:
    """Whether {degree: count} is the degree profile of the star on n vertices."""
    star = {1: 2} if n == 2 else {n - 1: 1, 1: n - 1}
    return dict(counts) == star


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
    phi(d)) for each divisor d of n, ascending. degree_items holds
    (vertex, order, degree, 1) for every vertex, from the oracle only:
    the closed forms give every vertex of a class the same degree, so
    their record leaves it None and order_classes stands in for it. The
    witnesses clique_vertices and hamiltonian_cycle likewise come from
    the oracle's searches only; the cycle is None when no cycle exists.
    multipartite says whether adjacency is exactly "different order
    class", which the oracle checks pair by pair and the closed forms
    take as given.
    """

    n: int
    tier: str
    involutions: int
    neither: int
    edge_count: int
    degree_counts: tuple[tuple[int, int], ...]
    order_classes: tuple[tuple[int, int], ...]
    degree_items: tuple[tuple[int, int, int, int], ...] | None
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

    def degree_sequence(self) -> tuple[int, ...]:
        """Expand the profile into the full descending degree sequence."""
        if self.n > 2_000_000:
            raise ValueError(f"refusing to expand {self.n} degrees")
        out: list[int] = []
        for degree, count in self.degree_counts:
            out.extend([degree] * count)
        return tuple(out)
