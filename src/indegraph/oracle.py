"""Brute-force oracle for the independent graph of Z_n.

The graph I_G(Z_n) joins two distinct residues exactly when their
additive orders differ. It is held as one neighbor bitmask per vertex,
a ~ b exactly when `rows[a] >> b & 1`, and every invariant is
recomputed from those rows by a direct algorithm. No solver below leans
on the order-class structure of the graph: they remain valid oracles
for the structural claims they audit, and the pruning rules are generic
necessary conditions, never graph-family shortcuts.

The degrees, connectivity, diameter, bipartiteness, the part count, the
girth and the chromatic number are read off the false-twin quotient
G/≡, which keeps one vertex per class of equal rows. Equal rows hold no edge
between their owners, since no row contains its own vertex, so for
every simple graph:

- twins share their degree, so one row per class is counted;
- the components of G are those of G/≡, plus size - 1 more for each
  class whose row is empty;
- G is bipartite exactly when G/≡ is, and chi(G) = chi(G/≡), which a
  greedy clique and greedy color classes of the quotient's rows bound;
- the number of classes is the number of distinct rows;
- a disconnected G has an INFINITE diameter, and otherwise the diameter
  of G is that of G/≡, raised to 2 when some class has two members;
- the girth of G is that of G/≡, lowered to 4 when some class has two
  members and two neighbors.

The quotient is built from the rows alone. Here it has one class per
divisor of n: 2 at a prime, 30 at n = 20000.

`invariants` reads only the graph it is given: the rows, and the orders
`build` computed once per residue. The order classes and the involution
and "neither" counts are counted off the orders; the multipartite check
reads the rows, the orders and the twin classes, and nothing of how
`build` made them. Nothing is asked of the number theory beyond the
modulus check.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from math import isqrt
from operator import getitem, itemgetter, mul

from indegraph.invariants import INFINITE, ORACLE, InvariantSet, is_star_profile
from indegraph.zn import CapacityError, check_modulus

DEFAULT_BUILD_LIMIT = 20_000
DEFAULT_EXACT_SEARCH_LIMIT = 64
DEFAULT_HAMILTONIAN_LIMIT = 24


def _pick(values, keys: list[int]) -> tuple:
    """`values[k]` for each k in keys, in one C-level `itemgetter` call.

    The leading copy of the first key keeps the result a tuple when keys
    holds one item, where `itemgetter` would return the bare item.
    """
    return itemgetter(keys[0], *keys)(values)[1:]


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_Twins = namedtuple("_Twins", "first firsts sizes degrees rows components sides")


@dataclass(frozen=True)
class IndependentGraph:
    """I_G(Z_n) as its rows (a ~ b exactly when `rows[a] >> b & 1`), one
    order per vertex, `edges()` and the invariants the audit reads.

    No invariant reads `edges()`: it serves `export` and the tests only.
    """

    n: int
    rows: tuple[int, ...]
    orders: tuple[int, ...]

    # -- basic queries ---------------------------------------------------

    def degrees(self) -> tuple[int, ...]:
        twins = self._twins
        return _pick(dict(zip(twins.firsts, twins.degrees)), twins.first)

    def edge_count(self) -> int:
        """Half the degree sum, taken once per twin class."""
        return sum(map(mul, self._twins.sizes, self._twins.degrees)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Unordered edges as (a, b) with a < b, lexicographic.

        Each row's bits above a are read from its binary string, lowest
        first, so a row costs one conversion and a `find` per edge;
        `_iter_bits` would copy the whole n-bit row once per edge.
        """
        for a in range(self.n):
            first = a + 1
            bits = bin(self.rows[a] >> first)[:1:-1]
            i = bits.find("1")
            while i >= 0:
                yield a, first + i
                i = bits.find("1", i + 1)

    # -- false-twin quotient ---------------------------------------------

    @cached_property
    def _twins(self) -> _Twins:
        """The false-twin classes: each vertex's class as its first member,
        the first members, the class sizes and degrees, the quotient's
        rows, the component count of G and the quotient's even and odd
        BFS sides.

        Class i is adjacent to class j exactly when the first member of
        i is adjacent to the first member of j. Equal rows hold no edge
        between their owners (a row never contains its own vertex), so
        every class is an independent set, the quotient is an induced
        subgraph of G, and no two of its rows are equal. Twins share
        their degree, so only the first member's row is counted.

        The rows are grouped in two steps, so no n-bit row is hashed once
        per vertex. One C-level pass over `map(id, rows)` maps each vertex
        to the first vertex holding the same row object. Then each
        distinct object's value is hashed once, which merges distinct
        objects holding equal rows: an object always equals itself, and
        the value merge catches the rest. The quotient rows test the t^2
        class pairs in C. One BFS of the quotient gives its components
        and sides.
        """
        rows = self.rows
        by_id: dict[int, int] = {}
        object_first = list(map(by_id.setdefault, map(id, rows), range(self.n)))
        # Objects are met in vertex order, so `index` keeps the smallest
        # vertex of each value and lists the classes by first member.
        index: dict[int, int] = {}
        merged = {f: index.setdefault(rows[f], f) for f in by_id.values()}
        # With no value held by two objects, each object's first vertex
        # is already its class's.
        first = object_first
        if len(index) < len(merged):
            first = list(map(merged.__getitem__, object_first))
        firsts = list(index.values())
        # Counter keeps first-seen order, which is the order of `firsts`.
        sizes = tuple(Counter(first).values())
        member_bits = [1 << v for v in firsts]
        class_bits = [1 << j for j in range(len(firsts))]
        quotient_rows = tuple(
            sum(compress(class_bits, map(rows[v].__and__, member_bits))) for v in firsts
        )
        components, sides = _layers(quotient_rows)
        # One more component for each extra member of a class with no edge.
        components += sum(size - 1 for row, size in zip(quotient_rows, sizes) if not row)
        degrees = tuple([rows[v].bit_count() for v in firsts])
        return _Twins(first, firsts, sizes, degrees, quotient_rows, components, sides)

    # -- connectivity ----------------------------------------------------

    def is_connected(self) -> bool:
        return self._twins.components == 1

    # -- distances -------------------------------------------------------

    def diameter(self) -> int | float:
        """Largest shortest-path distance, INFINITE if disconnected.

        Read off the false-twin quotient: a path between classes lifts
        to one between any of their members, and two twins of a
        connected graph with n >= 2 share a neighbor but no edge, so
        they sit at distance 2. The diameter is the quotient's, one less
        than the most BFS layers from any class, raised to 2 when some
        class has two or more members. Each BFS stops once every class
        is seen, so on a complete quotient of t classes it reads only
        its source's row: t rows in all.
        """
        twins = self._twins
        if twins.components != 1:
            return INFINITE
        rows = twins.rows
        best = max(len(_bfs(rows, s)) for s in range(len(rows))) - 1
        return max(best, 2) if max(twins.sizes) > 1 else best

    def girth(self) -> int | float:
        """Length of a shortest cycle, INFINITE when the graph is a forest.

        Read off the false-twin quotient. Classes are independent sets,
        so every triangle of G is one of G/≡. Two twins with two common
        neighbors close a 4-cycle. Otherwise every class with two or
        more members has at most one neighbor and lies on no cycle, so
        the cycles of G are those of G/≡.
        """
        twins = self._twins
        twin_cycle = any(s > 1 and d > 1 for s, d in zip(twins.sizes, twins.degrees))
        return min(_girth(twins.rows), 4 if twin_cycle else INFINITE)

    # -- colorability ----------------------------------------------------

    def is_bipartite(self) -> bool:
        """Two-colorable by BFS depth parity, decided on G/≡.

        Twins are never adjacent, so each can take its class's color.
        """
        rows, sides = self._twins.rows, self._twins.sides
        return not any(rows[v] & side for side in sides for v in _iter_bits(side))

    # -- structure -------------------------------------------------------

    def partite_count(self) -> int:
        """Number of distinct rows, i.e. of false-twin classes.

        Vertices sharing their row share their closed non-neighborhood
        too, and those classes are the parts whenever the graph is
        complete multipartite.
        """
        return len(self._twins.firsts)


def _bfs(rows: tuple[int, ...], source: int) -> list[int]:
    """The masks of the vertices at depth 0, 1, 2, ... of a BFS from `source`.

    The search returns as soon as its layers cover every vertex of
    `rows`, so the last layer is expanded only when some vertex is still
    unseen. No list ends in an empty layer.
    """
    full = (1 << len(rows)) - 1
    seen = frontier = 1 << source
    layers = [frontier]
    while seen != full:
        nxt = 0
        for v in _iter_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        if not frontier:
            break
        layers.append(frontier)
        seen |= frontier
    return layers


def _girth(rows: tuple[int, ...]) -> int | float:
    """Length of a shortest cycle of `rows`, by a BFS from each vertex.

    At depth i, an edge inside the layer closes an odd cycle of length at
    most 2i + 1, and an unseen vertex with two neighbors in the layer an
    even one of length at most 2i + 2. A BFS from a vertex of a shortest
    cycle meets that cycle's length. A source stops once 2i + 1 reaches
    the best cycle so far, and the search stops at 3.

    Itai & Rodeh (1978), "Finding a minimum circuit in a graph".
    """
    best: int | float = INFINITE
    for s in range(len(rows)):
        seen = 0
        for i, layer in enumerate(_bfs(rows, s)):
            if 2 * i + 1 >= best:
                break
            seen |= layer
            once = twice = 0
            for v in _iter_bits(layer):
                twice |= once & rows[v]
                once |= rows[v]
            if once & layer:
                best = 2 * i + 1
            elif twice & ~seen:
                best = 2 * i + 2
        if best == 3:
            break
    return best


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
        layers = _bfs(rows, (rest & -rest).bit_length() - 1)
        sides[0] |= sum(layers[::2])
        sides[1] |= sum(layers[1::2])
        seen = sides[0] | sides[1]
        count += 1
    return count, sides


def build(n: int, limit: int = DEFAULT_BUILD_LIMIT) -> IndependentGraph:
    """Construct I_G(Z_n): edges between residues of different order.

    One walk over the divisors g of n: the residues a with gcd(a, n) = g
    have order n / g. Writing n // g over the multiples of g, smallest g
    first, leaves the order at each residue. Largest g first, the class
    of gcd g is the multiples of g not yet seen, and its members share
    one row: every residue seen before or not a multiple of g. The rows
    take (number of divisors of n) * n bits, and each multiples mask is
    a run of set bits doubled until it spans n bits. Moduli above
    `limit` are refused, as the quotient pass and the searches take time
    quadratic in n.
    """
    check_modulus(n)
    if n > limit:
        raise CapacityError(f"n={n} exceeds the graph build limit {limit}")
    small = [g for g in range(1, isqrt(n) + 1) if n % g == 0]
    divisors = small + [n // g for g in reversed(small) if g * g < n]
    orders = [0] * n
    for g in divisors:
        orders[::g] = [n // g] * (n // g)
    full = (1 << n) - 1
    row_of: dict[int, int] = {}
    seen = 0
    for g in reversed(divisors):
        # Bit a of this mask is set exactly when g divides a.
        multiples, span = 1, g
        while span < n:
            multiples |= multiples << span
            span *= 2
        row_of[n // g] = full & (seen | ~multiples)
        seen |= multiples
    return IndependentGraph(n, tuple(map(row_of.__getitem__, orders)), tuple(orders))


def verify_complete_multipartite(graph: IndependentGraph) -> bool:
    """Check adjacency == "different order" for every vertex pair.

    Read from the rows, the orders and the twin record `_twins`.
    Let C be a twin class with first member f and N = full ^ rows[f].
    When no row holds its own vertex, C lies in N; the classes cover the
    n vertices once, so the sizes of the N add up to n exactly when each
    N is its own class (a bit at or above n only adds to the count).
    Then every row is the complement of its own twin class, and the twin
    classes are the order classes exactly when every vertex has its
    first member's order and the first members' orders are distinct.
    That is "every row equals full ^ (its order class)".

    Twins share their row, so "no row holds its own vertex" is read off
    one bit string per twin class: the class row, lowest bit first and
    padded to n characters, read at each member by C-level maps. The t
    strings take t * n bytes. The rest is t complements, one C-level
    gather of the first members' orders and a set of t orders; no n-bit
    row is shifted per vertex.
    """
    n, rows, orders = graph.n, graph.rows, graph.orders
    first, firsts = graph._twins.first, graph._twins.firsts
    full = (1 << n) - 1
    bits_of = {f: format(rows[f], f"0{n}b")[::-1] for f in firsts}
    diagonal = "".join(map(getitem, _pick(bits_of, first), range(n)))
    return (
        "1" not in diagonal
        and sum((full ^ rows[f]).bit_count() for f in firsts) == n
        and _pick(orders, first) == tuple(orders)
        and len(set(map(orders.__getitem__, firsts))) == len(firsts)
    )


# -- exact clique and coloring ------------------------------------------


def _color_classes(rows: tuple[int, ...], candidates: int) -> tuple[list[int], list[int]]:
    """Greedy color classes of the vertices in `candidates`.

    Class c takes the lowest uncolored candidate, then each higher one
    with no neighbor in the class so far. Returns the vertices in the
    order they were colored and their colors, 1 for the first class, so
    the last color is the number of classes.
    """
    order: list[int] = []
    colors: list[int] = []
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
            colors.append(color)
    return order, colors


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
        # A vertex in color class c can extend the clique by at most c
        # more vertices.
        order, bounds = _color_classes(rows, candidates)
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


def _k_coloring(rows: tuple[int, ...], k: int) -> list[int] | None:
    """Backtracking k-coloring with saturation-first vertex selection."""
    n = len(rows)
    colors = [-1] * n
    neighbor_colors = [0] * n

    def pick() -> int:
        best_v = -1
        best_key = (-1, -1, 0)
        for v in range(n):
            if colors[v] >= 0:
                continue
            key = (neighbor_colors[v].bit_count(), rows[v].bit_count(), -v)
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


def chromatic_number(graph: IndependentGraph, limit: int = DEFAULT_EXACT_SEARCH_LIMIT) -> int:
    """Exact chromatic number, from the rows of the false-twin quotient.

    Twins are never adjacent and can share a color, so chi(G) equals
    chi(G/≡). A greedy clique (the lowest class left, then only its
    neighbors) bounds chi from below and the greedy color classes from
    above; `_k_coloring` tries only the k between the two.
    """
    if graph.n > limit:
        raise CapacityError(f"n={graph.n} exceeds the exact search limit {limit}")
    rows = graph._twins.rows
    full = (1 << len(rows)) - 1
    lower, rest = 0, full
    while rest:
        lower += 1
        rest &= rows[(rest & -rest).bit_length() - 1]
    upper = _color_classes(rows, full)[1][-1]
    for k in range(lower, upper):
        if _k_coloring(rows, k) is not None:
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
    # Twins share their degree, so the profile is counted once per class.
    counts: Counter[int] = Counter()
    for size, degree in zip(graph._twins.sizes, graph._twins.degrees):
        counts[degree] += size
    edge_count = graph.edge_count()
    order_classes = sorted(Counter(graph.orders).items())
    # 2a = 0 exactly when o(a) divides 2; gcd(a, n) = 1 exactly when o(a) = n.
    involutions = sum(size for d, size in order_classes if d <= 2)
    neither = sum(size for d, size in order_classes if 2 < d < n)
    clique_vertices = chromatic = exact_tier = None
    if n <= exact_limit:
        clique_vertices = max_clique(graph, limit=exact_limit)
        chromatic = chromatic_number(graph, limit=exact_limit)
        exact_tier = ORACLE
    cycle = hamiltonian = hamiltonian_tier = None
    if n <= hamiltonian_limit:
        cycle = find_hamiltonian_cycle(graph, limit=hamiltonian_limit)
        hamiltonian = cycle is not None
        hamiltonian_tier = ORACLE
    return InvariantSet(
        n=n,
        tier=ORACLE,
        involutions=involutions,
        neither=neither,
        edge_count=edge_count,
        degree_counts=tuple(sorted(counts.items(), reverse=True)),
        order_classes=tuple(order_classes),
        degree_items=tuple(zip(range(n), graph.orders, graph.degrees(), repeat(1))),
        connected=graph.is_connected(),
        complete=edge_count == n * (n - 1) // 2,
        star=is_star_profile(n, counts),
        girth=graph.girth(),
        diameter=graph.diameter(),
        bipartite=graph.is_bipartite(),
        partite_count=graph.partite_count(),
        multipartite=verify_complete_multipartite(graph),
        exact_tier=exact_tier,
        clique_number=None if clique_vertices is None else len(clique_vertices),
        clique_vertices=clique_vertices,
        chromatic_number=chromatic,
        hamiltonian_tier=hamiltonian_tier,
        hamiltonian=hamiltonian,
        hamiltonian_cycle=cycle,
    )
