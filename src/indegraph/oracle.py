"""Brute-force oracle for the independent graph of Z_n.

The graph I_G(Z_n) joins two distinct residues exactly when their
additive orders differ. It is materialized here as one neighbor bitmask
per vertex, and every invariant is recomputed from that explicit
structure by a direct algorithm. None of the solvers below lean on the
order-class structure of the graph: they remain valid oracles for the
structural claims they are used to audit, and the pruning rules are
generic necessary conditions, never graph-family shortcuts.

The degrees, connectivity, diameter, bipartiteness, the part count and
the chromatic number are read off the false-twin quotient G/≡, which
keeps one vertex per class of equal rows. Equal rows hold no edge
between their owners, since no row contains its own vertex, so for
every simple graph:

- twins share their degree, so one row per class is counted;
- the components of G are those of G/≡, plus size - 1 more for each
  class whose row is empty;
- G is bipartite exactly when G/≡ is, and chi(G) = chi(G/≡);
- the number of classes is the number of distinct rows;
- a disconnected G has an INFINITE diameter, and otherwise the diameter
  of G is that of G/≡, raised to 2 when some class has two members.

The quotient is built from the rows alone. Here it has one class per
divisor of n: 2 at a prime, 30 at n = 20000.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd, inf
from typing import Iterator

from indegraph.invariants import INFINITE, ORACLE, InvariantSet, is_star_profile
from indegraph.zn import (
    CapacityError,
    OrderDecomposition,
    check_modulus,
    order_decomposition,
    special_sets,
)

DEFAULT_BUILD_LIMIT = 20_000
DEFAULT_EXACT_SEARCH_LIMIT = 64
DEFAULT_HAMILTONIAN_LIMIT = 24


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class IndependentGraph:
    """I_G(Z_n) with one neighbor bitmask per vertex."""

    n: int
    rows: tuple[int, ...]
    orders: tuple[int, ...]

    # -- basic queries ---------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return bool(self.rows[a] >> b & 1)

    def neighbors(self, a: int) -> Iterator[int]:
        self._check_vertex(a)
        return _iter_bits(self.rows[a])

    def degree(self, a: int) -> int:
        self._check_vertex(a)
        return self.rows[a].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return self._quotient[2]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Unordered edges as (a, b) with a < b, lexicographic."""
        for a in range(self.n):
            high = self.rows[a] >> (a + 1)
            for offset in _iter_bits(high):
                yield a, a + 1 + offset

    def _check_vertex(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise ValueError(f"vertex {a} out of range [0, {self.n})")

    # -- false-twin quotient ---------------------------------------------

    @cached_property
    def _quotient(self) -> tuple[IndependentGraph, tuple[int, ...], tuple[int, ...]]:
        """G/≡ (one vertex per class of equal rows), the class sizes, the degrees of G.

        Classes are numbered by their first member, and class i is
        adjacent to class j exactly when the first member of i is
        adjacent to the first member of j. Equal rows hold no edge
        between their owners (a row never contains its own vertex), so
        every class is an independent set, the quotient is an induced
        subgraph of G, and no two of its rows are equal. Twins share
        their degree, so only the first member's row is counted.
        """
        index: dict[int, int] = {}
        firsts: list[int] = []
        sizes: list[int] = []
        classes: list[int] = []
        for v, row in enumerate(self.rows):
            k = index.setdefault(row, len(firsts))
            if k == len(firsts):
                firsts.append(v)
                sizes.append(1)
            else:
                sizes[k] += 1
            classes.append(k)
        bits = [1 << v for v in firsts]
        rows = tuple(
            sum(1 << j for j, bit in enumerate(bits) if self.rows[v] & bit)
            for v in firsts
        )
        class_degrees = [self.rows[v].bit_count() for v in firsts]
        degrees = tuple([class_degrees[k] for k in classes])
        return IndependentGraph(len(rows), rows, ()), tuple(sizes), degrees

    @cached_property
    def _component_count(self) -> int:
        """Components of the quotient, plus one per extra isolated twin."""
        quotient, sizes, _ = self._quotient
        isolated_twins = sum(
            size - 1 for row, size in zip(quotient.rows, sizes) if not row
        )
        return _layers(quotient.rows)[0] + isolated_twins

    # -- connectivity ----------------------------------------------------

    def is_connected(self) -> bool:
        return self._component_count == 1

    # -- distances -------------------------------------------------------

    def diameter(self) -> int | float:
        """Largest shortest-path distance, INFINITE if disconnected.

        Read off the false-twin quotient: a path between classes lifts
        to one between any of their members, and two twins of a
        connected graph with n >= 2 share a neighbor but no edge, so
        they sit at distance 2. The diameter is the quotient's, raised
        to 2 when some class has two or more members.
        """
        if self._component_count != 1:
            return INFINITE
        quotient, sizes, _ = self._quotient
        best = _diameter(quotient.rows)
        return max(best, 2) if max(sizes) > 1 else best

    def girth(self) -> int | float:
        """Length of a shortest cycle, INFINITE when the graph is a forest.

        Three generic steps, each reading only the adjacency rows:

        1. Forest test: the graph is acyclic exactly when it has
           n - (component count) edges. The components are counted on
           the false-twin quotient.
        2. Triangle test: the girth is 3 exactly when some edge (u, w)
           has a common neighbor, i.e. rows[u] & rows[w] != 0. At most
           one row intersection per edge, and it stops at the first hit.
        3. Per-source BFS, run only on triangle-free graphs: every
           non-tree edge (u, w) seen from source s closes a walk of
           length dist[u] + dist[w] + 1 through s, which never undercuts
           the girth and hits it exactly for sources on a shortest
           cycle. A source stops once 2 * dist reaches the best cycle
           so far, and the search stops at the floor of 4. O(n * m) at
           worst for m edges.

        Itai & Rodeh (1978), "Finding a minimum circuit in a graph".
        """
        n, rows = self.n, self.rows
        if self.edge_count() == n - self._component_count:
            return INFINITE
        for u in range(n):
            row = rows[u]
            for w in _iter_bits(row >> (u + 1)):
                if row & rows[u + 1 + w]:
                    return 3
        best: int | float = inf
        for s in range(n):
            dist = [-1] * n
            parent = [-1] * n
            dist[s] = 0
            queue = [s]
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                du = dist[u]
                if 2 * du >= best:
                    break
                for w in _iter_bits(rows[u]):
                    if dist[w] < 0:
                        dist[w] = du + 1
                        parent[w] = u
                        queue.append(w)
                    elif w != parent[u]:
                        candidate = du + dist[w] + 1
                        if candidate < best:
                            best = candidate
            if best == 4:
                break
        return best

    # -- colorability ----------------------------------------------------

    def is_bipartite(self) -> bool:
        """Two-colorable by BFS depth parity, decided on G/≡.

        Twins are never adjacent, so each can take its class's color.
        """
        rows = self._quotient[0].rows
        sides = _layers(rows)[1]
        return not any(rows[v] & side for side in sides for v in _iter_bits(side))

    # -- structure -------------------------------------------------------

    def partite_count(self) -> int:
        """Number of distinct rows, i.e. of false-twin classes.

        Vertices sharing their row share their closed non-neighborhood
        too, and those classes are the parts whenever the graph is
        complete multipartite.
        """
        return self._quotient[0].n


def _layers(rows: tuple[int, ...]) -> tuple[int, list[int]]:
    """BFS from the lowest unseen vertex until every vertex is seen.

    Returns the number of searches, i.e. of components, and the masks of
    the vertices at even and at odd depth.
    """
    full = (1 << len(rows)) - 1
    seen = 0
    count = 0
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
        count += 1
    return count, sides


def _diameter(rows: tuple[int, ...]) -> int | float:
    """Largest shortest-path distance by a bitset BFS per source.

    INFINITE at the first source that cannot reach every vertex.
    """
    full = (1 << len(rows)) - 1
    best = 0
    for s in range(len(rows)):
        visited = 1 << s
        frontier = visited
        ecc = 0
        while visited != full:
            nxt = 0
            for v in _iter_bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~visited
            if not frontier:
                return INFINITE
            visited |= frontier
            ecc += 1
        best = max(best, ecc)
    return best


def build(n: int, limit: int = DEFAULT_BUILD_LIMIT) -> IndependentGraph:
    """Construct I_G(Z_n): edges between residues of different order.

    The non-neighbors of a vertex are exactly the members of its own
    order class (itself included), so each adjacency row is the
    complement of one class mask. Moduli above `limit` are refused: the
    rows take n**2 bits in total.
    """
    check_modulus(n)
    if n > limit:
        raise CapacityError(f"n={n} exceeds the graph build limit {limit}")
    orders = tuple(n // gcd(a, n) for a in range(n))
    class_mask: dict[int, int] = {}
    for a, d in enumerate(orders):
        class_mask[d] = class_mask.get(d, 0) | (1 << a)
    full = (1 << n) - 1
    row_of = {d: full ^ mask for d, mask in class_mask.items()}
    return IndependentGraph(n, tuple(row_of[d] for d in orders), orders)


def verify_complete_multipartite(
    graph: IndependentGraph, decomposition: OrderDecomposition
) -> bool:
    """Check adjacency == "different class" for every vertex pair.

    Row equality against the complement of each class mask covers all
    n*(n-1)/2 pairs at once.
    """
    if decomposition.n != graph.n:
        raise ValueError(
            f"decomposition is for n={decomposition.n}, graph has n={graph.n}"
        )
    full = (1 << graph.n) - 1
    covered = 0
    for members in decomposition.classes.values():
        mask = 0
        for a in members:
            mask |= 1 << a
        covered |= mask
        expected = full ^ mask
        for a in members:
            if graph.rows[a] != expected:
                return False
    if covered != full:
        raise ValueError("decomposition does not cover every vertex")
    return True


# -- exact clique and coloring ------------------------------------------


def max_clique(
    graph: IndependentGraph, limit: int = DEFAULT_EXACT_SEARCH_LIMIT
) -> tuple[int, ...]:
    """One maximum clique, by branch and bound with a coloring bound."""
    if graph.n > limit:
        raise CapacityError(f"n={graph.n} exceeds the exact search limit {limit}")
    rows = graph.rows
    best: list[int] = []
    current: list[int] = []

    def expand(candidates: int) -> None:
        nonlocal best
        # Greedy-color the candidate set; a vertex in color class c can
        # extend the clique by at most c more vertices.
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = candidates
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~rows[v] & ~low
                rest ^= low
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best):
                return
            v = order[i]
            current.append(v)
            sub = candidates & rows[v]
            if sub:
                expand(sub)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            candidates &= ~(1 << v)

    expand((1 << graph.n) - 1)
    return tuple(sorted(best))


def clique_number(
    graph: IndependentGraph, limit: int = DEFAULT_EXACT_SEARCH_LIMIT
) -> int:
    return len(max_clique(graph, limit))


def greedy_coloring(graph: IndependentGraph) -> list[int]:
    """Sequential greedy coloring in vertex order; an upper bound for chi."""
    colors = [-1] * graph.n
    for v in range(graph.n):
        used = 0
        for w in _iter_bits(graph.rows[v]):
            if colors[w] >= 0:
                used |= 1 << colors[w]
        colors[v] = (~used & (used + 1)).bit_length() - 1
    return colors


def _k_coloring(graph: IndependentGraph, k: int) -> list[int] | None:
    """Backtracking k-coloring with saturation-first vertex selection."""
    n, rows = graph.n, graph.rows
    colors = [-1] * n
    neighbor_colors = [0] * n
    degrees = graph.degrees()

    def pick() -> int:
        best_v = -1
        best_key = (-1, -1, 0)
        for v in range(n):
            if colors[v] >= 0:
                continue
            key = (neighbor_colors[v].bit_count(), degrees[v], -v)
            if key > best_key:
                best_key = key
                best_v = v
        return best_v

    def place(done: int, used: int) -> bool:
        if done == n:
            return True
        v = pick()
        # Existing colors plus at most one fresh color: permuting unused
        # colors never helps.
        avail = ~neighbor_colors[v] & ((1 << min(k, used + 1)) - 1)
        for c in _iter_bits(avail):
            colors[v] = c
            touched: list[int] = []
            bit = 1 << c
            for w in _iter_bits(rows[v]):
                if colors[w] < 0 and not neighbor_colors[w] & bit:
                    neighbor_colors[w] |= bit
                    touched.append(w)
            if place(done + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                neighbor_colors[w] ^= bit
        return False

    return colors if place(0, 0) else None


def chromatic_number(
    graph: IndependentGraph,
    limit: int = DEFAULT_EXACT_SEARCH_LIMIT,
    clique_size: int | None = None,
) -> int:
    """Exact chromatic number, searched on the false-twin quotient.

    Twins are never adjacent and can share a color, so chi(G) equals
    chi(G/≡), and a clique holds at most one vertex per class. The
    search starts from the clique lower bound: `clique_size` when the
    caller already knows omega(G), else a clique search on the quotient.
    """
    if graph.n > limit:
        raise CapacityError(f"n={graph.n} exceeds the exact search limit {limit}")
    quotient = graph._quotient[0]
    if clique_size is None:
        clique_size = len(max_clique(quotient, limit=quotient.n))
    upper = max(greedy_coloring(quotient)) + 1
    for k in range(clique_size, upper):
        if _k_coloring(quotient, k) is not None:
            return k
    return upper


# -- hamiltonicity -------------------------------------------------------


def find_hamiltonian_cycle(
    graph: IndependentGraph, limit: int = DEFAULT_HAMILTONIAN_LIMIT
) -> tuple[int, ...] | None:
    """Exhaustive search for a Hamiltonian cycle.

    Returns the cycle canonicalized to start at vertex 0 with the
    smaller of its two cycle neighbors second, or None when no cycle
    exists. Two generic pruning rules keep refutation fast: every
    unvisited vertex needs two usable connections, and any independent
    set found inside the unvisited region can occupy at most every
    other position of the remaining path.
    """
    if graph.n > limit:
        raise CapacityError(
            f"n={graph.n} exceeds the hamiltonian search limit {limit}"
        )
    n, rows = graph.n, graph.rows
    if n == 2:
        return None
    full = (1 << n) - 1
    by_degree = sorted(range(n), key=lambda v: (rows[v].bit_count(), v))
    path = [0]

    def independent_overflow(unvisited: int) -> bool:
        size = unvisited.bit_count()
        bound = (size + 1) // 2
        count = 0
        avail = unvisited
        for v in by_degree:
            if avail >> v & 1:
                count += 1
                if count > bound:
                    return True
                avail &= ~rows[v] & ~(1 << v)
        return False

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(rows[v] & 1)
        unvisited = full & ~visited
        usable = unvisited | (1 << v) | 1
        for w in _iter_bits(unvisited):
            if (rows[w] & usable).bit_count() < 2:
                return False
        if independent_overflow(unvisited):
            return False
        for w in _iter_bits(rows[v] & unvisited):
            path.append(w)
            if extend(w, visited | (1 << w)):
                return True
            path.pop()
        return False

    if not extend(0, 1):
        return None
    if path[1] > path[-1]:
        return (0, *reversed(path[1:]))
    return tuple(path)


# -- aggregate ------------------------------------------------------------


def invariants(
    graph: IndependentGraph,
    exact_limit: int = DEFAULT_EXACT_SEARCH_LIMIT,
    hamiltonian_limit: int = DEFAULT_HAMILTONIAN_LIMIT,
) -> InvariantSet:
    """Every fact the oracle can afford, read off the graph.

    A search beyond its limit (clique and chromatic number, or a
    Hamiltonian cycle) is declined: its fields and its tier are None.
    """
    n = graph.n
    degs = graph.degrees()
    counts = Counter(degs)
    edge_count = graph.edge_count()
    sets = special_sets(n)
    clique_vertices = chromatic = exact_tier = None
    if n <= exact_limit:
        clique_vertices = max_clique(graph, limit=exact_limit)
        chromatic = chromatic_number(
            graph, limit=exact_limit, clique_size=len(clique_vertices)
        )
        exact_tier = ORACLE
    cycle = hamiltonian = hamiltonian_tier = None
    if n <= hamiltonian_limit:
        cycle = find_hamiltonian_cycle(graph, limit=hamiltonian_limit)
        hamiltonian = cycle is not None
        hamiltonian_tier = ORACLE
    return InvariantSet(
        n=n,
        tier=ORACLE,
        involutions=len(sets.involutions),
        neither=len(sets.neither),
        edge_count=edge_count,
        degree_counts=tuple(sorted(counts.items(), reverse=True)),
        order_classes=tuple(sorted(Counter(graph.orders).items())),
        degree_items=tuple((a, graph.orders[a], degs[a], 1) for a in range(n)),
        connected=graph.is_connected(),
        complete=edge_count == n * (n - 1) // 2,
        star=is_star_profile(n, counts),
        girth=graph.girth(),
        diameter=graph.diameter(),
        bipartite=graph.is_bipartite(),
        partite_count=graph.partite_count(),
        multipartite=verify_complete_multipartite(graph, order_decomposition(n)),
        exact_tier=exact_tier,
        clique_number=None if clique_vertices is None else len(clique_vertices),
        clique_vertices=clique_vertices,
        chromatic_number=chromatic,
        hamiltonian_tier=hamiltonian_tier,
        hamiltonian=hamiltonian,
        hamiltonian_cycle=cycle,
    )
