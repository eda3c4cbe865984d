import ast
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from indegraph import oracle, zn
from indegraph.invariants import INFINITE

from conftest import (
    bfs_expanding_every_layer,
    naive_bipartite,
    naive_bipartite_of_rows,
    naive_chromatic_number,
    naive_chromatic_number_of_rows,
    naive_clique_number,
    naive_clique_number_of_rows,
    naive_component_count_of_rows,
    naive_degree,
    naive_diameter,
    naive_diameter_of_rows,
    naive_edges,
    naive_girth,
    naive_girth_of_rows,
    naive_hamiltonian,
    naive_orders,
    per_vertex_rows,
    unreduced_bipartite,
    unreduced_component_count,
    unreduced_diameter,
    unreduced_girth,
)

moduli = st.integers(min_value=2, max_value=80)


@given(moduli)
def test_adjacency_matches_definition(n):
    graph = oracle.build(n)
    orders = naive_orders(n)
    for a in range(n):
        for b in range(n):
            expected = a != b and orders[a] != orders[b]
            assert graph.rows[a] >> b & 1 == expected


def test_edges_sorted_and_complete():
    for n in range(2, 40):
        graph = oracle.build(n)
        edges = list(graph.edges())
        assert edges == sorted(edges)
        assert edges == naive_edges(n)
        assert graph.edge_count() == len(edges)


@given(moduli)
def test_degrees(n):
    graph = oracle.build(n)
    degs = graph.degrees()
    for a in range(n):
        assert degs[a] == naive_degree(a, n)
    # handshake
    assert sum(degs) == 2 * graph.edge_count()


def test_connected_always():
    for n in range(2, 60):
        assert oracle.build(n).is_connected()


def test_girth_small_values():
    assert oracle.build(2).girth() == INFINITE
    assert oracle.build(7).girth() == INFINITE  # star
    assert oracle.build(4).girth() == 3
    assert oracle.build(9).girth() == 3


@pytest.mark.parametrize("n", range(2, 41))
def test_girth_matches_edge_deletion_bfs(n):
    assert oracle.build(n).girth() == naive_girth(n)


def graph_of(n, edges):
    """A hand-made graph. It has no order labels: girth reads only rows."""
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return oracle.IndependentGraph(n, tuple(rows), ())


def cycle(k, start=0):
    return [(start + i, start + (i + 1) % k) for i in range(k)]


PETERSEN = (
    cycle(5)
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)
TREE = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)]

# Every graph runs `_girth` on its false-twin quotient, and across the
# family it stops at 3 (every composite n) or finds a forest (every
# prime n, a star). So only hand-made graphs reach girth 4 or more.
GENERIC_GIRTHS = [
    *(pytest.param(k, cycle(k), k, id=f"C{k}") for k in range(3, 9)),
    pytest.param(6, [(a, b) for a in range(3) for b in range(3, 6)], 4, id="K33"),
    pytest.param(10, PETERSEN, 5, id="petersen"),
    pytest.param(7, TREE, INFINITE, id="tree"),
    pytest.param(13, TREE + cycle(6, start=7), 6, id="tree+C6"),
    pytest.param(12, cycle(5) + cycle(7, start=5), 5, id="C5+C7"),
    pytest.param(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)], 3, id="triangle-off-0"),
]

# One hand-made twin graph per branch of girth(): a triangle of the
# quotient, the twin rule (two twins with two common neighbors), a
# quotient cycle whose twins are leaves, and forests.
TWIN_GIRTHS = [
    pytest.param(4, cycle(3) + [(3, 0), (3, 1)], 3, id="K112"),
    pytest.param(5, [(a, b) for a in range(2) for b in range(2, 5)], 4, id="K23"),
    pytest.param(6, cycle(5) + [(5, 1), (5, 4)], 4, id="C5-one-vertex-doubled"),
    pytest.param(7, cycle(5) + [(0, 5), (0, 6)], 5, id="C5+twin-leaves"),
    pytest.param(9, cycle(7) + [(0, 7), (0, 8)], 7, id="C7+twin-leaves"),
    pytest.param(5, [(0, b) for b in range(1, 5)], INFINITE, id="star"),
    pytest.param(6, [(0, 1), (1, 2), (2, 3)], INFINITE, id="path+2-isolated"),
]


@pytest.mark.parametrize("n, edges, expected", GENERIC_GIRTHS + TWIN_GIRTHS)
def test_girth_of_generic_graphs(n, edges, expected):
    graph = graph_of(n, edges)
    assert graph.girth() == expected
    assert naive_girth_of_rows(graph.rows) == expected


@pytest.mark.parametrize("n, edges, expected", [
    pytest.param(13, TREE + cycle(6, start=7), 6, id="tree+C6"),
    pytest.param(12, cycle(5) + cycle(7, start=5), 5, id="C5+C7"),
    pytest.param(6, cycle(4, start=1), 4, id="isolated-0+C4"),
    pytest.param(5, [(0, 1), (2, 3), (3, 4)], INFINITE, id="forest"),
])
@pytest.mark.parametrize("girth_first", [False, True])
def test_disconnected_graphs(n, edges, expected, girth_first):
    # Every query reads one cached false-twin quotient; the order they
    # run in must not matter.
    graph = graph_of(n, edges)
    queries = [
        ("is_connected", False),
        ("girth", expected),
        ("diameter", INFINITE),
        ("is_bipartite", naive_bipartite_of_rows(graph.rows)),
    ]
    for name, value in reversed(queries) if girth_first else queries:
        assert getattr(graph, name)() == value


@pytest.mark.parametrize("n, searches", [(1680, 1), (20000, 1), (19997, 2)])
def test_girth_stops_at_a_triangle_or_the_last_class(monkeypatch, n, searches):
    # 1680 and 20000 have a complete quotient, so the first BFS finds a
    # triangle. The prime 19997 has two classes and no cycle.
    graph = oracle.build(n)
    graph._twins  # building the quotient runs `_bfs` too
    calls = []
    bfs = oracle._bfs
    monkeypatch.setattr(oracle, "_bfs", lambda rows, s: calls.append(s) or bfs(rows, s))
    graph.girth()
    assert len(calls) == searches


@pytest.mark.parametrize("n", [2, 12, 97, 1680, 20000])
def test_invariants_never_list_the_edges(monkeypatch, n):
    expected = oracle.invariants(oracle.build(n))

    def refuse(self):
        raise AssertionError("edges() called")

    monkeypatch.setattr(oracle.IndependentGraph, "edges", refuse)
    assert oracle.invariants(oracle.build(n)) == expected


@st.composite
def random_graphs(draw, triangle_free=False):
    """Random simple graphs; triangle_free drops each edge closing a triangle."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows = [0] * n
    for (a, b), chosen in zip(pairs, keep):
        if chosen and not (triangle_free and rows[a] & rows[b]):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return oracle.IndependentGraph(n, tuple(rows), ())


@given(st.one_of(random_graphs(), random_graphs(triangle_free=True)))
def test_girth_of_random_graphs_matches_edge_deletion_bfs(graph):
    assert graph.girth() == naive_girth_of_rows(graph.rows)


def assert_matches_row_references(graph):
    """Every fact read off the false-twin quotient, against the definitions."""
    rows = graph.rows
    assert graph.degrees() == tuple(row.bit_count() for row in rows)
    assert graph.is_connected() == (naive_component_count_of_rows(rows) == 1)
    assert graph.diameter() == naive_diameter_of_rows(rows)
    assert graph.is_bipartite() == naive_bipartite_of_rows(rows)
    assert graph.partite_count() == len(set(rows))
    assert graph.girth() == naive_girth_of_rows(rows)


# Hand-made graphs with twins: isolated twins, twin sides of K_{2,3},
# the leaves of a star, the opposite corners of C4. Then two twin-free
# trees centred on vertex 0, whose diameter a BFS from 0 alone would read
# as 2.
TWIN_GRAPHS = [
    pytest.param(1, [], True, 0, 1, id="1-isolated"),
    pytest.param(2, [], False, INFINITE, 1, id="2-isolated"),
    pytest.param(3, [], False, INFINITE, 1, id="3-isolated"),
    pytest.param(5, [(a, b) for a in range(2) for b in range(2, 5)], True, 2, 2, id="K23"),
    pytest.param(5, [(0, b) for b in range(1, 5)], True, 2, 2, id="star"),
    pytest.param(4, cycle(4), True, 2, 2, id="C4"),
    pytest.param(4, [(0, 1)], False, INFINITE, 3, id="edge+2-isolated"),
    pytest.param(5, [(3, 1), (1, 0), (0, 2), (2, 4)], True, 4, 5, id="path-from-its-middle"),
    pytest.param(7, [(0, 1), (1, 3), (0, 2), (2, 4), (0, 5), (5, 6)], True, 4, 7, id="spider"),
]


@pytest.mark.parametrize("n, edges, connected, diameter, parts", TWIN_GRAPHS)
def test_quotient_of_hand_made_graphs(n, edges, connected, diameter, parts):
    graph = graph_of(n, edges)
    assert graph.is_connected() is connected
    assert graph.diameter() == diameter
    assert graph.is_bipartite()
    assert graph.partite_count() == parts
    assert_matches_row_references(graph)


@st.composite
def twin_blowups(draw):
    """A random base graph with every vertex blown up into 1-3 false twins.

    Base vertices past `linked` get no edges, so some classes have an
    empty row. The twins are then relabeled by a random permutation, so
    a class need not be contiguous.
    """
    base = draw(st.integers(min_value=1, max_value=7))
    linked = draw(st.integers(min_value=0, max_value=base))
    pairs = [(a, b) for a in range(linked) for b in range(a + 1, linked)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base_edges = {pair for pair, chosen in zip(pairs, keep) if chosen}
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=base, max_size=base))
    owner = [c for c, size in enumerate(sizes) for _ in range(size)]
    label = draw(st.permutations(range(len(owner))))
    rows = [0] * len(owner)
    for x, cx in enumerate(owner):
        for y, cy in enumerate(owner):
            if (min(cx, cy), max(cx, cy)) in base_edges:
                rows[label[x]] |= 1 << label[y]
    return oracle.IndependentGraph(len(rows), tuple(rows), ())


@given(twin_blowups())
def test_quotient_of_twin_blowups_matches_definitions(graph):
    assert_matches_row_references(graph)


def edges_bit_by_bit(rows):
    return [(a, b) for a in range(len(rows)) for b in range(a + 1, len(rows))
            if rows[a] >> b & 1]


@given(st.one_of(random_graphs(), twin_blowups()))
def test_edges_of_any_rows_match_a_bit_by_bit_scan(graph):
    assert list(graph.edges()) == edges_bit_by_bit(graph.rows)


@pytest.mark.parametrize("n", [63, 64, 65, 300])
def test_edges_of_wide_random_rows_match_a_bit_by_bit_scan(n):
    """Rows wider than a machine word, with edges to the last vertex."""
    rng = random.Random(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
    graph = graph_of(n, pairs + [(a, n - 1) for a in range(n - 1)])
    assert list(graph.edges()) == edges_bit_by_bit(graph.rows)


@given(twin_blowups())
def test_twin_record_fields_match_their_definitions(graph):
    n, rows, twins = graph.n, graph.rows, graph._twins
    assert twins.first == [min(u for u in range(n) if rows[u] == rows[v]) for v in range(n)]
    assert twins.firsts == sorted(set(twins.first))
    assert twins.sizes == tuple(twins.first.count(f) for f in twins.firsts)
    assert twins.degrees == tuple(rows[f].bit_count() for f in twins.firsts)
    assert twins.rows == tuple(
        sum(1 << j for j, g in enumerate(twins.firsts) if rows[f] >> g & 1)
        for f in twins.firsts
    )
    assert twins.components == unreduced_component_count(rows)
    even, odd = twins.sides
    assert even & odd == 0
    assert even | odd == (1 << len(twins.firsts)) - 1


@pytest.mark.parametrize("n, edges, source, layers", [
    pytest.param(4, [(0, 1), (1, 2), (2, 3)], 0, [0b1, 0b10, 0b100, 0b1000],
                 id="path-from-an-end"),
    pytest.param(4, [(0, 1), (0, 2), (0, 3)], 0, [0b1, 0b1110], id="star-from-its-centre"),
    pytest.param(4, [(0, 1), (0, 2), (0, 3)], 1, [0b10, 0b1, 0b1100], id="star-from-a-leaf"),
    pytest.param(4, [(a, b) for a in range(4) for b in range(a + 1, 4)], 2,
                 [0b100, 0b1011], id="K4"),
    pytest.param(5, [(0, 1), (2, 3), (3, 4)], 3, [0b1000, 0b10100], id="two-components"),
    pytest.param(5, [(0, 1), (2, 3), (3, 4)], 0, [0b1, 0b10], id="the-other-component"),
    pytest.param(1, [], 0, [0b1], id="one-vertex"),
])
def test_bfs_layers_of_hand_made_graphs(n, edges, source, layers):
    assert oracle._bfs(graph_of(n, edges).rows, source) == layers


@given(st.one_of(random_graphs(), twin_blowups()))
def test_bfs_matches_a_search_that_expands_every_layer(graph):
    for source in range(graph.n):
        layers = oracle._bfs(graph.rows, source)
        assert layers == bfs_expanding_every_layer(graph.rows, source)
        assert all(layers)


def test_diameter_of_1680_expands_at_most_two_classes_per_class(monkeypatch):
    # 1680 has 40 order classes, and its quotient is K_40: each BFS is
    # done once its source's row is read. A BFS that expands every layer
    # reads all 40 rows from each source, 1600 in all.
    graph = oracle.build(1680)
    assert len(graph._twins.rows) == 40
    expanded = []
    iter_bits = oracle._iter_bits

    def counted(mask):
        for v in iter_bits(mask):
            expanded.append(v)
            yield v

    monkeypatch.setattr(oracle, "_iter_bits", counted)
    assert graph.diameter() == 2
    assert len(expanded) <= 2 * 40


def test_one_bfs_of_the_quotient_per_invariants_call(monkeypatch):
    calls = []
    layers = oracle._layers
    monkeypatch.setattr(oracle, "_layers", lambda rows: calls.append(rows) or layers(rows))
    for n in (2, 12, 30, 97, 360):
        calls.clear()
        oracle.invariants(oracle.build(n))
        assert len(calls) == 1, n


@given(twin_blowups())
def test_k_coloring_reads_degrees_off_its_own_rows(graph):
    def refuse(self):
        raise AssertionError("degrees() called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle.IndependentGraph, "degrees", refuse)
        colors = oracle._k_coloring(graph, graph.n)
    assert colors is not None


@given(twin_blowups())
def test_coloring_of_twin_blowups_matches_full_graph_search(graph):
    unreduced = next(
        k for k in range(1, graph.n + 1) if oracle._k_coloring(graph, k) is not None
    )
    clique = oracle.max_clique(graph)
    assert oracle.chromatic_number(graph) == unreduced
    assert oracle.chromatic_number(graph, clique_size=len(clique)) == unreduced


def mycielskian(n, edges):
    """Mycielski's construction: shadows n..2n-1 of 0..n-1, and an apex 2n."""
    return (
        edges
        + [(a + n, b) for a, b in edges]
        + [(a, b + n) for a, b in edges]
        + [(v + n, 2 * n) for v in range(n)]
    )


# Every I_G(Z_n) is complete multipartite, so omega = chi; only hand-made
# graphs reach the exact k-coloring fallback of chromatic_number().
@pytest.mark.parametrize("n, edges, girth, omega, chi", [
    pytest.param(5, cycle(5), 5, 2, 3, id="C5"),
    pytest.param(7, cycle(7), 7, 2, 3, id="C7"),
    pytest.param(10, PETERSEN, 5, 2, 3, id="petersen"),
    pytest.param(11, mycielskian(5, cycle(5)), 4, 2, 4, id="grotzsch"),
    pytest.param(23, mycielskian(11, mycielskian(5, cycle(5))), 4, 2, 5, id="mycielski-23"),
])
def test_exact_searches_where_clique_number_is_below_chromatic_number(
    monkeypatch, n, edges, girth, omega, chi
):
    graph = graph_of(n, edges)
    assert graph.girth() == naive_girth_of_rows(graph.rows) == girth
    ladder = next(k for k in range(1, n + 1) if oracle._k_coloring(graph, k) is not None)
    assert ladder == chi
    colors = oracle._k_coloring(graph, chi)
    assert all(colors[a] != colors[b] for a, b in graph.edges())

    clique = oracle.max_clique(graph)
    assert len(clique) == omega
    assert all(graph.rows[a] >> b & 1 for a in clique for b in clique if a != b)

    tried = []
    k_coloring = oracle._k_coloring
    monkeypatch.setattr(
        oracle, "_k_coloring", lambda g, k: tried.append(k) or k_coloring(g, k)
    )
    assert oracle.chromatic_number(graph) == chi
    assert oracle.chromatic_number(graph, clique_size=omega) == chi
    assert tried and min(tried) == omega


# The time is the naive reference's: eight isolated vertices beside a K4
# cost it all 3^8 colourings of them before k = 3 fails, about half a
# second, while the oracle's own searches take well under a millisecond.
@settings(deadline=None)
@given(random_graphs())
def test_exact_searches_of_random_graphs_match_brute_force(graph):
    clique = oracle.max_clique(graph)
    assert all(graph.rows[a] >> b & 1 for a in clique for b in clique if a != b)
    assert len(clique) == naive_clique_number_of_rows(graph.rows)
    assert oracle.chromatic_number(graph) == naive_chromatic_number_of_rows(graph.rows)


def test_quotient_matches_full_graph_searches_across_the_family():
    for n in range(2, 1025):
        graph = oracle.build(n)
        rows, full = graph.rows, (1 << n) - 1
        assert graph.degrees() == tuple(row.bit_count() for row in rows), n
        assert graph.is_connected() == (unreduced_component_count(rows) == 1), n
        assert graph.diameter() == unreduced_diameter(rows), n
        assert graph.is_bipartite() == unreduced_bipartite(rows), n
        assert graph.partite_count() == len({full ^ row for row in rows}), n
        assert graph.girth() == unreduced_girth(rows), n


@pytest.mark.parametrize("n", range(2, 41))
def test_diameter_matches_floyd_warshall(n):
    assert oracle.build(n).diameter() == naive_diameter(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_bipartite_matches_two_colorings(n):
    assert oracle.build(n).is_bipartite() == naive_bipartite(n)


def test_bipartite_prime_vs_composite():
    for n in (2, 3, 5, 7, 11, 13, 31):
        assert oracle.build(n).is_bipartite()
    for n in (4, 6, 8, 9, 10, 12, 30):
        assert not oracle.build(n).is_bipartite()


@given(moduli)
def test_partite_count_is_divisor_count(n):
    assert oracle.build(n).partite_count() == len(zn.divisors(n))


def test_complete_multipartite_structure():
    for n in range(2, 513):
        graph = oracle.build(n)
        # the check reads graph.orders; this keeps an independent reference
        assert graph.orders == naive_orders(n), n
        assert graph.rows == per_vertex_rows(n), n
        assert oracle.verify_complete_multipartite(graph), n
    # the most classes (1680, 15120), a prime square, a prime, and the build limit
    for n in [1680, 15120, 19321, 19997, 20000]:
        graph = oracle.build(n)
        assert graph.rows == per_vertex_rows(n), n
        assert oracle.verify_complete_multipartite(graph), n


def _doctored(n, change):
    """build(n) with `change` applied to a list of its rows, orders kept."""
    base = oracle.build(n)
    rows = list(base.rows)
    change(rows, (1 << n) - 1)
    return oracle.IndependentGraph(n, tuple(rows), base.orders)


def _set(rows, vertices, mask):
    for a in vertices:
        rows[a] = mask


def _on_parts(part):
    """Complete multipartite rows on the parts part(a, o(a)), built orders kept."""

    def change(rows, full):
        parts = [part(a, d) for a, d in enumerate(oracle.build(len(rows)).orders)]
        masks = {}
        for a, label in enumerate(parts):
            masks[label] = masks.get(label, 0) | 1 << a
        rows[:] = [full ^ masks[label] for label in parts]

    return change


def _swapped_second_members(rows, full):
    # Order 3 is {4, 8} and order 4 is {3, 9}. Each pair keeps equal
    # rows, so the twin classes, the first members' rows and
    # the non-neighborhood total are unchanged; only 8 in rows[8] shows.
    rows[4] = rows[8] = full ^ (1 << 4 | 1 << 9)
    rows[3] = rows[9] = full ^ (1 << 3 | 1 << 8)


def _without_edge_0_1(rows, full):
    rows[0] &= ~(1 << 1)
    rows[1] &= ~(1 << 0)


# At n = 30 the order class of 5 is {6, 12, 18, 24}, of 15 the other
# even non-multiples of 3, and 1 is a unit, of order 30. A change to one
# row splits its twin class; a change to the whole class keeps it.
@pytest.mark.parametrize(
    "n, change",
    [
        (30, lambda rows, full: _set(rows, [6], int(str(rows[6] | 1 << 12)))),
        (30, lambda rows, full: _set(rows, [6], int(str(rows[6] & ~(1 << 1))))),
        (30, lambda rows, full: _set(rows, [6, 12, 18, 24], rows[6] & ~(1 << 1))),
        (30, lambda rows, full: _set(rows, [6], rows[6] | 1 << 6)),
        (30, lambda rows, full: _set(rows, [6], rows[6] | 1 << 30)),
        (30, lambda rows, full: _set(rows, [6, 12, 18, 24], rows[6] | 1 << 30)),
        (12, _swapped_second_members),
        (30, _on_parts(lambda a, d: 5 if d == 15 else d)),
        (30, _on_parts(lambda a, d: (d, d == 5 and a < 15))),
        (6, _without_edge_0_1),
        # Vertex 2 (order 2) gets itself and bit 5: the non-neighborhood
        # total stays n, so only the diagonal shows it.
        (4, lambda rows, full: _set(rows, [2], rows[2] | 1 << 2 | 1 << 5)),
    ],
    ids=[
        "same-class-bit-set",
        "cross-class-bit-cleared",
        "cross-class-bit-cleared-in-class",
        "own-vertex",
        "bit-above-n",
        "bit-above-n-in-class",
        "swapped-second-members",
        "merged-order-classes",
        "split-order-class",
        "edge-removed",
        "own-vertex-with-a-bit-above-n",
    ],
)
def test_verify_multipartite_detects_deviation(n, change):
    assert not oracle.verify_complete_multipartite(_doctored(n, change))


def test_verify_multipartite_holds_under_a_vertex_permutation():
    base = oracle.build(30)
    perm = list(range(30))
    random.Random(30).shuffle(perm)
    rows = tuple(
        sum(1 << j for j in range(30) if base.rows[perm[i]] >> perm[j] & 1) for i in range(30)
    )
    orders = tuple(base.orders[perm[i]] for i in range(30))
    assert orders != base.orders
    assert oracle.verify_complete_multipartite(oracle.IndependentGraph(30, rows, orders))


def test_verify_multipartite_reads_the_graphs_own_orders():
    base = oracle.build(12)
    # One order changed under the built rows: 1 now claims order 6, like 2.
    orders = list(base.orders)
    orders[1] = 6
    assert not oracle.verify_complete_multipartite(
        oracle.IndependentGraph(12, base.rows, tuple(orders))
    )
    # A hand-built copy in new tuples verifies like the built graph.
    copy = oracle.IndependentGraph(12, tuple(list(base.rows)), tuple(list(base.orders)))
    assert copy.rows is not base.rows and copy.orders is not base.orders
    assert oracle.verify_complete_multipartite(copy)
    # Nothing of one modulus reaches the next.
    for n, m in [(12, 30), (30, 12), (1680, 1693), (1693, 1680)]:
        oracle.build(n)
        assert oracle.verify_complete_multipartite(oracle.build(m)), (n, m)


@pytest.mark.parametrize("n", [12, 60, 1680])
def test_quotient_groups_rows_by_value_not_by_object(n):
    shared = oracle.build(n)
    # int(str(row)) is a new object for every row above the small-int cache.
    apart = oracle.IndependentGraph(n, tuple(int(str(row)) for row in shared.rows), shared.orders)
    twins = [
        (a, b) for a in range(n) for b in range(a + 1, n) if shared.rows[a] == shared.rows[b]
    ]
    assert twins
    for a, b in twins:
        assert shared.rows[a] is shared.rows[b]
        assert apart.rows[a] is not apart.rows[b]
    assert apart._twins == shared._twins
    assert len(apart._twins.rows) == shared.partite_count()


@st.composite
def complete_multipartite_graphs(draw):
    """Complete multipartite rows on random labels, which serve as the
    orders, with at most one change: one row with a bit flipped, its own
    vertex set or a bit at or above n set, or every row made the
    complement of a part of permuted labels. The last keeps the twin
    classes, their orders and the non-neighborhood sizes, so only the
    diagonal shows it."""
    labels = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
    n = len(labels)
    change = draw(st.sampled_from(["none", "flip", "own", "above", "parts"]))
    parts = draw(st.permutations(labels)) if change == "parts" else labels
    rows = [
        sum(1 << b for b in range(n) if labels[a] != parts[b]) for a in range(n)
    ]
    a = draw(st.integers(min_value=0, max_value=n - 1))
    if change == "flip":
        rows[a] ^= 1 << draw(st.integers(min_value=0, max_value=n - 1))
    elif change == "own":
        rows[a] |= 1 << a
    elif change == "above":
        rows[a] |= 1 << draw(st.integers(min_value=n, max_value=n + 70))
    return oracle.IndependentGraph(n, tuple(rows), tuple(labels))


@st.composite
def rows_in_mixed_objects(draw):
    """A graph whose rows are redrawn as objects: each row is kept, made
    a fresh object by `int(str(row))`, or replaced by the first object of
    equal value drawn as shared. Graphs without orders get random ones,
    or their twin classes as orders."""
    graph = draw(st.one_of(random_graphs(), twin_blowups(), complete_multipartite_graphs()))
    shared: dict[int, int] = {}
    rows = []
    for row in graph.rows:
        how = draw(st.sampled_from(["kept", "fresh", "shared"]))
        if how == "fresh":
            row = int(str(row))
        elif how == "shared":
            row = shared.setdefault(row, row)
        rows.append(row)
    orders = graph.orders
    if not orders:
        index: dict[int, int] = {}
        by_class = tuple(index.setdefault(row, v) for v, row in enumerate(rows))
        orders = draw(st.one_of(
            st.just(by_class),
            st.lists(st.integers(min_value=0, max_value=2), min_size=graph.n,
                     max_size=graph.n).map(tuple),
        ))
    return oracle.IndependentGraph(graph.n, tuple(rows), orders)


def per_vertex_multipartite(rows, orders):
    """Adjacency == "different order" bit by bit, and no bit at or above n."""
    n = len(rows)
    return all(
        (rows[a] >> b & 1) == (a != b and orders[a] != orders[b])
        for a in range(n)
        for b in range(n)
    ) and all(row >> n == 0 for row in rows)


@given(rows_in_mixed_objects())
def test_twins_and_verify_of_rows_in_mixed_objects_match_value_references(graph):
    rows = graph.rows
    index: dict[int, int] = {}
    first = [index.setdefault(row, v) for v, row in enumerate(rows)]
    twins = graph._twins
    assert twins.first == first
    assert twins.firsts == list(index.values())
    assert twins.sizes == tuple(first.count(f) for f in index.values())
    assert graph.degrees() == tuple(row.bit_count() for row in rows)
    assert oracle.verify_complete_multipartite(graph) == per_vertex_multipartite(
        rows, graph.orders
    )


def test_verify_multipartite_of_one_vertex():
    assert oracle.verify_complete_multipartite(oracle.IndependentGraph(1, (0,), (1,)))
    assert not oracle.verify_complete_multipartite(oracle.IndependentGraph(1, (1,), (1,)))


def test_degree_items_list_every_vertex_in_order():
    for n in range(2, 301):
        graph = oracle.build(n)
        items = oracle.invariants(graph, exact_limit=2, hamiltonian_limit=2).degree_items
        expected = tuple(
            (a, graph.orders[a], graph.rows[a].bit_count(), 1) for a in range(n)
        )
        assert items == expected, n


def test_orders_match_the_gcd_definition_up_to_the_build_limit():
    # test_complete_multipartite_structure checks every n up to 512.
    for n in [1680, 15120, 19321, 19994, 19997, 20000]:
        orders = oracle.build(n).orders
        assert orders == tuple(n // math.gcd(a, n) for a in range(n)), n


@pytest.mark.parametrize("n", range(2, 15))
def test_clique_number_matches_subset_search(n):
    graph = oracle.build(n)
    clique = oracle.max_clique(graph)
    assert len(clique) == naive_clique_number(n)
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            assert graph.rows[a] >> b & 1


def test_clique_number_is_divisor_count_up_to_64():
    for n in range(2, 65):
        graph = oracle.build(n)
        assert len(oracle.max_clique(graph)) == len(zn.divisors(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_chromatic_matches_exhaustive(n):
    assert oracle.chromatic_number(oracle.build(n)) == naive_chromatic_number(n)


def test_chromatic_is_divisor_count_up_to_64():
    for n in range(2, 65):
        graph = oracle.build(n)
        assert oracle.chromatic_number(graph) == len(zn.divisors(n))


def test_greedy_coloring_is_proper():
    for n in range(2, 40):
        graph = oracle.build(n)
        colors = oracle.greedy_coloring(graph)
        for a, b in graph.edges():
            assert colors[a] != colors[b]


@pytest.mark.parametrize("n", range(2, 10))
def test_hamiltonian_matches_permutation_search(n):
    cycle = oracle.find_hamiltonian_cycle(oracle.build(n))
    assert (cycle is not None) == naive_hamiltonian(n)


def test_hamiltonian_cycles_are_valid_and_canonical():
    for n in range(4, 25):
        graph = oracle.build(n)
        cycle = oracle.find_hamiltonian_cycle(graph)
        if cycle is None:
            continue
        assert sorted(cycle) == list(range(n))
        assert cycle[0] == 0
        assert cycle[1] < cycle[-1]
        for i in range(n):
            assert graph.rows[cycle[i]] >> cycle[(i + 1) % n] & 1


def test_hamiltonian_exceptions_up_to_24():
    # composites missing a cycle are exactly the ones whose unit class
    # exceeds half the vertices
    expected_none = {9, 15, 21}
    found = set()
    for n in range(4, 25):
        if zn.is_prime(n):
            continue
        if oracle.find_hamiltonian_cycle(oracle.build(n)) is None:
            found.add(n)
    assert found == expected_none


def test_prime_stars_never_hamiltonian():
    for n in (5, 7, 11, 13, 17, 19, 23):
        assert oracle.find_hamiltonian_cycle(oracle.build(n)) is None


def test_capacity_errors_are_typed():
    with pytest.raises(oracle.CapacityError):
        oracle.build(oracle.DEFAULT_BUILD_LIMIT + 1)
    with pytest.raises(oracle.CapacityError):
        oracle.build(51, limit=50)
    graph = oracle.build(70)
    with pytest.raises(oracle.CapacityError):
        oracle.max_clique(graph)
    with pytest.raises(oracle.CapacityError):
        oracle.chromatic_number(graph)
    with pytest.raises(oracle.CapacityError):
        oracle.find_hamiltonian_cycle(graph)


def test_invariants_aggregator_limits():
    graph = oracle.build(30)
    inv = oracle.invariants(graph)
    assert inv.n == 30
    assert inv.edge_count == graph.edge_count()
    assert inv.clique_number == 8 and inv.chromatic_number == 8
    assert inv.hamiltonian is None  # 30 > hamiltonian limit
    small = oracle.invariants(oracle.build(6))
    assert small.hamiltonian is True
    assert small.degree_counts == ((5, 2), (4, 4))
    assert math.isinf(oracle.invariants(oracle.build(3)).girth)


def test_record_counts_involutions_and_neither_by_definition():
    for n in range(2, 513):
        inv = oracle.invariants(oracle.build(n), exact_limit=2, hamiltonian_limit=2)
        involutions = sum(1 for a in range(n) if 2 * a % n == 0)
        neither = sum(1 for a in range(n) if 2 * a % n and math.gcd(a, n) != 1)
        assert (inv.involutions, inv.neither) == (involutions, neither), n


def test_invariants_need_nothing_from_zn_but_the_modulus_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle asked zn for more than the modulus check")

    patched = [
        value
        for name, value in vars(zn).items()
        if not name.startswith("_")
        and name != "check_modulus"
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == zn.__name__
    ]
    assert zn.order_kind in patched and zn.divisors in patched
    for module in (zn, oracle):
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in patched):
                monkeypatch.setattr(module, name, refuse)
    for n in range(2, 65):
        assert oracle.invariants(oracle.build(n)).n == n


def test_oracle_imports_neither_closed_forms_nor_claims():
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported
    for name in imported:
        assert "closed_form" not in name.split("."), name
        assert "claims" not in name.split("."), name
