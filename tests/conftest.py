"""Naive reference implementations the tests compare against.

Everything down to the closed-form section recomputes from first
principles (definition chasing, exhaustive search) and shares no code
with the package, so agreement is meaningful. The closed-form section
keeps the per-divisor formulas that the (d, phi(d)) table replaced:
they call zn.euler_phi and zn.divisors, which the first-principles
references check. Keep these slow and obvious.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import inf

import pytest

from indegraph import closed_form, zn
from indegraph.invariants import CLOSED_FORM, InvariantSet, is_star_profile


def naive_phi(n: int) -> int:
    count = 0
    for a in range(1, n + 1):
        x, y = a, n
        while y:
            x, y = y, x % y
        count += x == 1
    return count


def naive_factorize(n: int) -> dict[int, int]:
    """Trial division by every integer up to the square root."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def naive_primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    composite = [False] * limit
    primes = []
    for k in range(2, limit):
        if not composite[k]:
            primes.append(k)
            for multiple in range(k * k, limit, k):
                composite[multiple] = True
    return primes


def naive_order(a: int, n: int) -> int:
    k = 1
    while (k * a) % n != 0:
        k += 1
    return k


def naive_adjacent(a: int, b: int, n: int) -> bool:
    return a != b and naive_order(a, n) != naive_order(b, n)


def naive_edges(n: int) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if naive_adjacent(a, b, n)
    ]


def naive_degree(a: int, n: int) -> int:
    return sum(naive_adjacent(a, b, n) for b in range(n))


def _adjacency(n: int) -> list[list[bool]]:
    return [[naive_adjacent(a, b, n) for b in range(n)] for a in range(n)]


def naive_distances(n: int) -> list[list[float]]:
    """All-pairs shortest paths, Floyd-Warshall."""
    adj = _adjacency(n)
    dist = [[0.0 if a == b else (1.0 if adj[a][b] else inf) for b in range(n)] for a in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def naive_diameter(n: int) -> float:
    dist = naive_distances(n)
    return max(dist[a][b] for a in range(n) for b in range(n))


def naive_connected(n: int) -> bool:
    return naive_diameter(n) < inf


def _bfs_distance(adj: list[list[bool]], source: int, target: int) -> float:
    n = len(adj)
    dist = {source: 0}
    queue = [source]
    while queue:
        x = queue.pop(0)
        if x == target:
            return dist[x]
        for w in range(n):
            if adj[x][w] and w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return inf


def _girth_by_edge_deletion(adj: list[list[bool]]) -> float:
    """Shortest cycle through each edge: remove it, measure the detour.

    For an edge (u, v), the shortest cycle using it has length
    1 + dist(u, v) in the graph without that edge.
    """
    n = len(adj)
    best = inf
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u][v]:
                adj[u][v] = adj[v][u] = False
                best = min(best, _bfs_distance(adj, u, v) + 1)
                adj[u][v] = adj[v][u] = True
    return best


def naive_girth(n: int) -> float:
    return _girth_by_edge_deletion(_adjacency(n))


def naive_girth_of_rows(rows: tuple[int, ...]) -> float:
    """Girth of any simple graph given as neighbor bitmasks."""
    n = len(rows)
    return _girth_by_edge_deletion(
        [[bool(rows[a] >> b & 1) for b in range(n)] for a in range(n)]
    )


def naive_bipartite(n: int) -> bool:
    """Try every 2-coloring. Exponential; keep n small."""
    edges = naive_edges(n)
    for bits in range(1 << n):
        if all((bits >> a) & 1 != (bits >> b) & 1 for a, b in edges):
            return True
    return False


def naive_clique_number(n: int) -> int:
    best = 1 if n else 0
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            if all(naive_adjacent(a, b, n) for a, b in itertools.combinations(combo, 2)):
                best = size
                break
        else:
            break
    return best


def naive_chromatic_number(n: int) -> int:
    edges = naive_edges(n)
    if not edges:
        return 1
    for k in range(2, n + 1):
        for coloring in itertools.product(range(k), repeat=n):
            if all(coloring[a] != coloring[b] for a, b in edges):
                return k
    return n


def naive_hamiltonian(n: int) -> bool:
    """Check every vertex permutation starting at 0. Factorial; n <= 9."""
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        cycle = (0, *perm)
        if all(
            naive_adjacent(cycle[i], cycle[(i + 1) % n], n) for i in range(n)
        ):
            return True
    return False


# -- closed forms, one euler_phi(d) per divisor d ----------------------------

# Smooth n with 240, 3,168 and 103,680 divisors: the (d, phi(d)) tables
# the closed forms are built from are largest here.
SMOOTH_MODULI = (720720, 2**10 * 3**5 * 5**3 * 7**2 * 11 * 13, 897612484786617600)


@pytest.fixture
def empty_factorize_cache():
    """Start and end with an empty cache: the references fill it per divisor."""
    zn.factorize.cache_clear()
    yield
    zn.factorize.cache_clear()


def per_divisor_invariants(n: int) -> InvariantSet:
    """closed_form.invariants(n), factoring every divisor of n on its own."""
    divs = zn.divisors(n)
    sizes = [zn.euler_phi(d) for d in divs]
    counts: Counter[int] = Counter()
    for size in sizes:
        counts[n - size] += size
    involutions = 2 if n % 2 == 0 else 1
    return InvariantSet(
        n=n,
        tier=CLOSED_FORM,
        involutions=involutions,
        neither=0 if n == 2 else n - zn.euler_phi(n) - involutions,
        edge_count=(n * n - sum(size * size for size in sizes)) // 2,
        degree_counts=tuple(sorted(counts.items(), reverse=True)),
        order_classes=tuple(zip(divs, sizes)),
        degree_items=None,
        connected=True,
        complete=closed_form.is_complete(n),
        star=is_star_profile(n, counts),
        girth=closed_form.girth(n),
        diameter=closed_form.diameter(n),
        bipartite=closed_form.is_bipartite(n),
        partite_count=len(divs),
        multipartite=True,
        exact_tier=CLOSED_FORM,
        clique_number=len(divs),
        clique_vertices=None,
        chromatic_number=len(divs),
        hamiltonian_tier=CLOSED_FORM,
        hamiltonian=closed_form.is_hamiltonian(n),
        hamiltonian_cycle=None,
    )
