"""Closed-form invariants of I_G(Z_n) from the order-class sizes.

The graph is complete multipartite with one part of size phi(d) per
divisor d of n, so every invariant reduces to arithmetic over the
(d, phi(d)) table that zn.divisor_phis builds from one factorization
of n, and runs in divisor-enumeration time for any n. `invariants`
builds the whole record; the test suite validates each field against
the brute-force oracle. Where the audited claims are wrong (edge count,
clique, chromatic, blanket Hamiltonicity), the corrected formulas live
here.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from indegraph.invariants import CLOSED_FORM, INFINITE, InvariantSet, is_star_profile
from indegraph.zn import check_modulus, divisor_count, divisor_phis, euler_phi, is_prime


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
    prime = is_prime(n)
    # A vertex is adjacent to everything outside its own class, so the s
    # vertices of each class of size s have degree n - s: ascending sizes
    # give the profile in descending degree order.
    sizes = sorted(Counter(map(itemgetter(1), parts)).items(), key=itemgetter(0))
    degree_counts = tuple([(n - size, size * count) for size, count in sizes])
    involutions = 2 if n % 2 == 0 else 1
    units = parts[-1][1]  # the class of order n
    return InvariantSet(
        n=n,
        tier=CLOSED_FORM,
        involutions=involutions,
        neither=0 if n == 2 else n - units - involutions,
        # Every pair of residues except those within one class.
        edge_count=(n * n - sum([size * size * count for size, count in sizes])) // 2,
        degree_counts=degree_counts,
        order_classes=tuple(parts),
        vertex_orders=None,
        vertex_degrees=None,
        connected=True,
        # Only n = 2 has every class of size one.
        complete=n == 2,
        star=is_star_profile(n, degree_counts),
        # A prime n has two classes, {0} and the units, so the graph is
        # a star; a composite n has three, hence a triangle.
        girth=INFINITE if prime else 3,
        # 1 only for the single edge at n = 2. Beyond it the units are
        # pairwise non-adjacent, and non-adjacent vertices share the
        # neighbor 0.
        diameter=1 if n == 2 else 2,
        bipartite=prime,
        partite_count=len(parts),
        multipartite=True,
        exact_tier=CLOSED_FORM,
        # One vertex per class is a clique, and one color per class suffices.
        clique_number=len(parts),
        clique_vertices=None,
        chromatic_number=len(parts),
        hamiltonian_tier=CLOSED_FORM,
        hamiltonian=is_hamiltonian(n),
        hamiltonian_cycle=None,
    )
