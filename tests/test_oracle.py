import ast
import math

import pytest
from hypothesis import given, strategies as st

from indegraph import oracle, zn
from indegraph.invariants import INFINITE

from conftest import (
    naive_bipartite,
    naive_bipartite_of_rows,
    naive_chromatic_number,
    naive_clique_number,
    naive_component_count_of_rows,
    naive_degree,
    naive_diameter,
    naive_diameter_of_rows,
    naive_edges,
    naive_girth,
    naive_girth_of_rows,
    naive_hamiltonian,
    unreduced_bipartite,
    unreduced_component_count,
    unreduced_diameter,
    unreduced_girth,
)

moduli = st.integers(min_value=2, max_value=80)


@given(moduli)
def test_adjacency_matches_definition(n):
    graph = oracle.build(n)
    for a in range(n):
        for b in range(n):
            expected = a != b and zn.element_order(a, n) != zn.element_order(b, n)
            assert graph.has_edge(a, b) == expected


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
        assert degs[a] == graph.degree(a) == naive_degree(a, n)
    # handshake
    assert sum(degs) == 2 * graph.edge_count()


def test_neighbors_of_zero():
    graph = oracle.build(6)
    # 0 has order 1, everything else has order > 1
    assert sorted(graph.neighbors(0)) == [1, 2, 3, 4, 5]
    assert sorted(graph.neighbors(1)) == [0, 2, 3, 4]  # misses its twin 5


def test_vertex_range_checked():
    graph = oracle.build(5)
    with pytest.raises(ValueError):
        graph.degree(5)
    with pytest.raises(ValueError):
        graph.has_edge(-1, 2)


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

# Every composite n gives a triangle and every prime n a star, so only
# hand-made graphs reach the per-source BFS of girth().
GENERIC_GIRTHS = [
    *(pytest.param(k, cycle(k), k, id=f"C{k}") for k in range(3, 9)),
    pytest.param(6, [(a, b) for a in range(3) for b in range(3, 6)], 4, id="K33"),
    pytest.param(10, PETERSEN, 5, id="petersen"),
    pytest.param(7, TREE, INFINITE, id="tree"),
    pytest.param(13, TREE + cycle(6, start=7), 6, id="tree+C6"),
    pytest.param(12, cycle(5) + cycle(7, start=5), 5, id="C5+C7"),
    pytest.param(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)], 3, id="triangle-off-0"),
]


@pytest.mark.parametrize("n, edges, expected", GENERIC_GIRTHS)
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
# the leaves of a star, the opposite corners of C4.
TWIN_GRAPHS = [
    pytest.param(1, [], True, 0, 1, id="1-isolated"),
    pytest.param(2, [], False, INFINITE, 1, id="2-isolated"),
    pytest.param(3, [], False, INFINITE, 1, id="3-isolated"),
    pytest.param(5, [(a, b) for a in range(2) for b in range(2, 5)], True, 2, 2, id="K23"),
    pytest.param(5, [(0, b) for b in range(1, 5)], True, 2, 2, id="star"),
    pytest.param(4, cycle(4), True, 2, 2, id="C4"),
    pytest.param(4, [(0, 1)], False, INFINITE, 3, id="edge+2-isolated"),
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


@given(twin_blowups())
def test_coloring_of_twin_blowups_matches_full_graph_search(graph):
    unreduced = next(
        k for k in range(1, graph.n + 1) if oracle._k_coloring(graph, k) is not None
    )
    clique = oracle.max_clique(graph)
    assert oracle.chromatic_number(graph) == unreduced
    assert oracle.chromatic_number(graph, clique_size=len(clique)) == unreduced


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


@given(moduli)
def test_complete_multipartite_structure(n):
    graph = oracle.build(n)
    assert oracle.verify_complete_multipartite(graph, zn.order_decomposition(n))


def test_verify_multipartite_rejects_wrong_modulus():
    graph = oracle.build(6)
    with pytest.raises(ValueError):
        oracle.verify_complete_multipartite(graph, zn.order_decomposition(8))


def test_verify_multipartite_detects_deviation():
    base = oracle.build(6)
    rows = list(base.rows)
    # drop edge 0-1 from an otherwise correct graph
    rows[0] &= ~(1 << 1)
    rows[1] &= ~(1 << 0)
    doctored = oracle.IndependentGraph(6, tuple(rows), base.orders)
    assert not oracle.verify_complete_multipartite(
        doctored, zn.order_decomposition(6)
    )


@pytest.mark.parametrize("n", range(2, 15))
def test_clique_number_matches_subset_search(n):
    graph = oracle.build(n)
    clique = oracle.max_clique(graph)
    assert len(clique) == naive_clique_number(n)
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            assert graph.has_edge(a, b)


def test_clique_number_is_divisor_count_up_to_64():
    for n in range(2, 65):
        graph = oracle.build(n)
        assert oracle.clique_number(graph) == len(zn.divisors(n))


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
            assert graph.has_edge(cycle[i], cycle[(i + 1) % n])


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
