"""Naive reference implementations the tests compare against.

Everything down to the closed-form section shares no code with the
package, so agreement is meaningful. Most of it recomputes from first
principles (definition chasing, exhaustive search); one section keeps
the oracle's full-graph searches that the false-twin quotient replaced,
so the quotient is checked against both. Another keeps the oracle's
per-vertex row build that the divisor walk replaced, fed by orders
n // gcd(a, n) so it stays fast at the build limit. The closed-form section
keeps the per-divisor formulas that the (d, phi(d)) table replaced:
they call zn.euler_phi and zn.divisors, which the first-principles
references check. It also keeps the table's one-sort builder, which
the prime-by-prime sort of zn.divisor_phis must match. Keep these
slow and obvious.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import gcd, inf

import pytest

from indegraph import claims, closed_form, zn
from indegraph.invariants import CLOSED_FORM, InvariantSet, is_star_profile


def naive_phi(n: int) -> int:
    return sum(gcd(a, n) == 1 for a in range(1, n + 1))


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


@functools.cache
def naive_orders(n: int) -> tuple[int, ...]:
    """naive_order of every residue of Z_n, built once per n for the whole test run."""
    return tuple(naive_order(a, n) for a in range(n))


def classify_residue(a: int, n: int) -> str:
    """Case label of the claimed degree formulas, read off the residue.

    Involutions take precedence over units, so at n = 2 the residue 1
    (which is both) lands in the involution case.
    """
    if (2 * a) % n == 0:
        return zn.INVOLUTION
    if gcd(a, n) == 1:
        return zn.UNIT
    return zn.NEITHER


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


def _floyd_warshall(adj: list[list[bool]]) -> list[list[float]]:
    n = len(adj)
    dist = [[0.0 if a == b else (1.0 if adj[a][b] else inf) for b in range(n)] for a in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def naive_distances(n: int) -> list[list[float]]:
    """All-pairs shortest paths, Floyd-Warshall."""
    return _floyd_warshall(_adjacency(n))


def _max_distance(dist: list[list[float]]) -> float:
    return max(d for row in dist for d in row)


def naive_diameter(n: int) -> float:
    return _max_distance(naive_distances(n))


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


# -- any simple graph, given as neighbor bitmasks ----------------------------


def _rows_adjacency(rows: tuple[int, ...]) -> list[list[bool]]:
    n = len(rows)
    return [[bool(rows[a] >> b & 1) for b in range(n)] for a in range(n)]


def naive_girth_of_rows(rows: tuple[int, ...]) -> float:
    return _girth_by_edge_deletion(_rows_adjacency(rows))


def naive_diameter_of_rows(rows: tuple[int, ...]) -> float:
    """Largest Floyd-Warshall distance, inf when some pair is unreachable."""
    return _max_distance(_floyd_warshall(_rows_adjacency(rows)))


def naive_component_count_of_rows(rows: tuple[int, ...]) -> int:
    """Union-find over the edges: one merge per edge joining two components."""
    adj = _rows_adjacency(rows)
    n = len(adj)
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    count = n
    for a in range(n):
        for b in range(a + 1, n):
            if adj[a][b] and root(a) != root(b):
                parent[root(a)] = root(b)
                count -= 1
    return count


def naive_bipartite_of_rows(rows: tuple[int, ...]) -> bool:
    """Two-color by depth-first search; a bipartite graph never clashes.

    Each uncolored vertex starts a component with color 0, and every
    neighbor is forced to the other color. The graph is bipartite
    exactly when no edge joins two vertices of one color.
    """
    adj = _rows_adjacency(rows)
    n = len(adj)
    color = [-1] * n
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            a = stack.pop()
            for b in range(n):
                if adj[a][b] and color[b] < 0:
                    color[b] = 1 - color[a]
                    stack.append(b)
    return all(
        color[a] != color[b] for a in range(n) for b in range(n) if adj[a][b]
    )


def naive_clique_number_of_rows(rows: tuple[int, ...]) -> int:
    """Largest vertex subset whose pairs are all adjacent. Exponential; n <= 12."""
    adj = _rows_adjacency(rows)
    return next(
        size
        for size in range(len(adj), -1, -1)
        for combo in itertools.combinations(range(len(adj)), size)
        if all(adj[a][b] for a, b in itertools.combinations(combo, 2))
    )


def naive_chromatic_number_of_rows(rows: tuple[int, ...]) -> int:
    """Fewest colors k that sequential backtracking can place, trying k = 1, 2, ...

    Vertices are colored 0, 1, ... in order, each with the lowest color
    no earlier neighbor holds, backing up when none is left.
    """
    adj = _rows_adjacency(rows)
    n = len(adj)

    def colorable(k: int) -> bool:
        colors = [0] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[w] != c for w in range(v) if adj[v][w]):
                    colors[v] = c
                    if place(v + 1):
                        return True
            return False

        return place(0)

    return next(k for k in range(n + 1) if colorable(k))


# -- the oracle's full-graph algorithms, before the false-twin quotient -------
#
# The oracle reads connectivity, diameter and bipartiteness off the
# quotient by equal rows. These are the bitset searches it ran on all n
# vertices before; the family-wide tests require equal answers. The
# layer BFS that expands every layer is the reference for the oracle's
# `_bfs`, which stops once every vertex is seen.


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(rows: tuple[int, ...], start: int) -> int:
    visited = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in _iter_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~visited
        visited |= frontier
    return visited


def bfs_expanding_every_layer(rows: tuple[int, ...], source: int) -> list[int]:
    """Layer masks of a BFS that ends only when a layer finds nothing new."""
    seen = frontier = 1 << source
    layers = []
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in _iter_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return layers


def unreduced_component_count(rows: tuple[int, ...]) -> int:
    full = (1 << len(rows)) - 1
    seen = 0
    count = 0
    while seen != full:
        rest = full & ~seen
        seen |= _reach(rows, (rest & -rest).bit_length() - 1)
        count += 1
    return count


def unreduced_diameter(rows: tuple[int, ...]) -> float:
    """A bitset BFS from every vertex, INFINITE at the first stall."""
    full = (1 << len(rows)) - 1
    best = 0
    for s in range(len(rows)):
        visited = frontier = 1 << s
        ecc = 0
        while visited != full:
            nxt = 0
            for v in _iter_bits(frontier):
                nxt |= rows[v]
                if visited | nxt == full:
                    break
            nxt &= ~visited
            if not nxt:
                return inf
            visited |= nxt
            frontier = nxt
            ecc += 1
        best = max(best, ecc)
    return best


def unreduced_bipartite(rows: tuple[int, ...]) -> bool:
    """BFS layer parity over all n vertices, then a clash test per side."""
    full = (1 << len(rows)) - 1
    seen = 0
    sides = [0, 0]
    while seen != full:
        rest = full & ~seen
        frontier = rest & -rest
        parity = 0
        while frontier:
            sides[parity] |= frontier
            seen |= frontier
            nxt = 0
            for v in _iter_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~seen
            parity ^= 1
    return not any(rows[v] & side for side in sides for v in _iter_bits(side))


def unreduced_girth(rows: tuple[int, ...]) -> float:
    """The forest test on all n vertices, then a triangle test.

    A graph with a cycle but no triangle goes to the edge-deletion
    reference; no I_G(Z_n) is one.
    """
    n = len(rows)
    edges = sum(row.bit_count() for row in rows) // 2
    if edges == n - unreduced_component_count(rows):
        return inf
    if any(rows[u] & rows[w] for u in range(n) for w in _iter_bits(rows[u])):
        return 3
    return naive_girth_of_rows(rows)


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


# -- the oracle's rows, before the divisor walk ------------------------------


def per_vertex_rows(n: int) -> tuple[int, ...]:
    """Rows of I_G(Z_n) from one mask per order, built vertex by vertex."""
    orders = [n // gcd(a, n) for a in range(n)]
    masks: dict[int, int] = {}
    for a, d in enumerate(orders):
        masks[d] = masks.get(d, 0) | (1 << a)
    full = (1 << n) - 1
    return tuple(full ^ masks[d] for d in orders)


# -- closed forms, one euler_phi(d) per divisor d ----------------------------

# Smooth n with 240, 3,168 and 103,680 divisors: the (d, phi(d)) tables
# the closed forms are built from are largest here.
SMOOTH_MODULI = (720720, 2**10 * 3**5 * 5**3 * 7**2 * 11 * 13, 897612484786617600)


def one_sort_divisor_phis(n: int) -> list[tuple[int, int]]:
    """The (d, phi(d)) table extended prime by prime, then key-sorted once."""
    table = [(1, 1)]
    for p, e in zn.factorize(n).items():
        extended = list(table)
        pk, phik = p, p - 1
        for _ in range(e):
            extended += [(d * pk, phi * phik) for d, phi in table]
            pk *= p
            phik *= p
        table = extended
    table.sort(key=lambda entry: entry[0])
    return table


def clear_zn_caches():
    """Empty the factorize, euler_phi and degree_claim caches, as a fresh
    process finds them."""
    zn.factorize.cache_clear()
    zn.euler_phi.cache_clear()
    claims.degree_claim.cache_clear()


@pytest.fixture
def empty_zn_caches():
    """Start and end with empty caches: the references fill them per divisor."""
    clear_zn_caches()
    yield
    clear_zn_caches()


def per_divisor_invariants(n: int) -> InvariantSet:
    """closed_form.invariants(n), factoring every divisor of n on its own."""
    divs = zn.divisors(n)
    sizes = [zn.euler_phi(d) for d in divs]
    counts: Counter[int] = Counter()
    for size in sizes:
        counts[n - size] += size
    involutions = 2 if n % 2 == 0 else 1
    # A complete multipartite graph is complete when every part is a
    # single vertex; three parts hold a triangle, and two parts make
    # K_{a,b}, a forest when a part is a single vertex and else of girth 4.
    complete = all(size == 1 for size in sizes)
    if len(sizes) >= 3:
        girth = 3
    else:
        girth = inf if min(sizes) == 1 else 4
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
        complete=complete,
        star=is_star_profile(n, counts),
        girth=girth,
        diameter=1 if complete else 2,
        bipartite=len(sizes) <= 2,
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
