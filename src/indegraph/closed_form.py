"""Closed-form invariants of I_G(Z_n) from the order-class sizes.

The graph is complete multipartite with one part of size phi(d) per
divisor d of n, so every invariant reduces to arithmetic over the
(d, phi(d)) table that zn.divisor_phis builds from one factorization
of n, and runs in divisor-enumeration time for any n. The test suite
validates each formula against the brute-force oracle; where the
audited claims are wrong (edge count, clique, chromatic, blanket
Hamiltonicity), the corrected formulas live here.
"""

from __future__ import annotations

from collections import Counter

from indegraph.invariants import CLOSED_FORM, INFINITE, InvariantSet, is_star_profile
from indegraph.zn import (
    check_modulus,
    divisor_count,
    divisor_phis,
    euler_phi,
    is_prime,
)


def degree_counts(n: int) -> tuple[tuple[int, int], ...]:
    """Degree profile as (degree, multiplicity), descending by degree."""
    check_modulus(n)
    return degree_counts_of_parts(n, divisor_phis(n))


def degree_counts_of_parts(
    n: int, parts: list[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """degree_counts(n) from the (d, phi(d)) table of n."""
    counts: Counter[int] = Counter()
    for _, size in parts:
        counts[n - size] += size
    return tuple(sorted(counts.items(), reverse=True))


def edge_count(n: int) -> int:
    """(n**2 - sum of squared class sizes) / 2."""
    check_modulus(n)
    return edge_count_of_parts(n, divisor_phis(n))


def edge_count_of_parts(n: int, parts: list[tuple[int, int]]) -> int:
    """edge_count(n) from the (d, phi(d)) table of n."""
    return (n * n - sum(size * size for _, size in parts)) // 2


def girth(n: int) -> int | float:
    """3 for composite n (three classes give a triangle), else acyclic."""
    check_modulus(n)
    return INFINITE if is_prime(n) else 3


def diameter(n: int) -> int:
    """1 only for the single edge at n = 2, otherwise 2."""
    check_modulus(n)
    return 1 if n == 2 else 2


def is_bipartite(n: int) -> bool:
    check_modulus(n)
    return is_prime(n)


def is_complete(n: int) -> bool:
    check_modulus(n)
    return n == 2


def clique_chromatic_number(n: int) -> int:
    """Both equal the number of order classes, one vertex per class."""
    check_modulus(n)
    return divisor_count(n)


def is_hamiltonian(n: int) -> bool:
    """Complete multipartite criterion: no class may exceed half of n.

    The largest class is the unit class of size phi(n), so the test is
    2 * phi(n) <= n (and at least three vertices).
    """
    check_modulus(n)
    return n >= 3 and 2 * euler_phi(n) <= n


def invariants(n: int) -> InvariantSet:
    """The full record, from one (d, phi(d)) table. No graph is built."""
    check_modulus(n)
    parts = divisor_phis(n)
    counts = degree_counts_of_parts(n, parts)
    involutions = 2 if n % 2 == 0 else 1
    return InvariantSet(
        n=n,
        tier=CLOSED_FORM,
        involutions=involutions,
        neither=0 if n == 2 else n - euler_phi(n) - involutions,
        edge_count=edge_count_of_parts(n, parts),
        degree_counts=counts,
        order_classes=tuple(parts),
        degree_items=None,
        connected=True,
        complete=is_complete(n),
        star=is_star_profile(n, dict(counts)),
        girth=girth(n),
        diameter=diameter(n),
        bipartite=is_bipartite(n),
        partite_count=len(parts),
        multipartite=True,
        exact_tier=CLOSED_FORM,
        clique_number=len(parts),
        clique_vertices=None,
        chromatic_number=len(parts),
        hamiltonian_tier=CLOSED_FORM,
        hamiltonian=is_hamiltonian(n),
        hamiltonian_cycle=None,
    )
