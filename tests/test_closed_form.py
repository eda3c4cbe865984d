"""Closed forms against the oracle, mostly over exhaustive ranges.

The formulas only rely on the order-class decomposition, so once they
agree with the oracle on a decent range they are trusted as the
fallback ground-truth tier for large n.
"""

import math

import pytest
from hypothesis import given, strategies as st

from indegraph import closed_form, oracle, zn
from indegraph.invariants import INFINITE, length_str

from conftest import SMOOTH_MODULI, per_divisor_invariants

moduli = st.integers(min_value=2, max_value=300)


def test_edge_count_frozen_values():
    # n: expected, checked by listing pairs of distinct orders by hand
    expected = {2: 1, 4: 5, 5: 4, 6: 13, 10: 33, 15: 70}
    for n, count in expected.items():
        assert closed_form.edge_count(n) == count


@given(moduli)
def test_edge_count_matches_oracle(n):
    assert closed_form.edge_count(n) == oracle.build(n).edge_count()


@given(moduli)
def test_degree_matches_oracle(n):
    # Each vertex is adjacent to everything outside its own order class.
    sizes = dict(closed_form.invariants(n).order_classes)
    expected = tuple(n - sizes[zn.element_order(a, n)] for a in range(n))
    assert oracle.build(n).degrees() == expected


@given(moduli)
def test_degree_counts_match_oracle(n):
    ground = oracle.invariants(oracle.build(n), exact_limit=2, hamiltonian_limit=2)
    assert closed_form.degree_counts(n) == ground.degree_counts
    assert closed_form.invariants(n).order_classes == ground.order_classes


def test_part_sizes():
    classes = closed_form.invariants(12).order_classes
    assert classes == ((1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (12, 4))
    assert sum(size for _, size in classes) == 12


@given(moduli)
def test_part_sizes_are_totients(n):
    classes = closed_form.invariants(n).order_classes
    assert classes == tuple((d, zn.euler_phi(d)) for d in zn.divisors(n))


@pytest.mark.parametrize("n", range(2, 120))
def test_structure_flags_match_oracle(n):
    graph = oracle.build(n)
    assert closed_form.girth(n) == graph.girth()
    assert closed_form.diameter(n) == graph.diameter()
    assert closed_form.is_bipartite(n) == graph.is_bipartite()
    complete = graph.edge_count() == n * (n - 1) // 2
    assert closed_form.is_complete(n) == complete


def test_girth_split():
    assert closed_form.girth(13) == INFINITE
    assert closed_form.girth(2) == INFINITE
    assert closed_form.girth(4) == 3
    assert length_str(closed_form.girth(3)) == "INFINITE"


def test_diameter_values():
    assert closed_form.diameter(2) == 1
    assert all(closed_form.diameter(n) == 2 for n in range(3, 50))


@pytest.mark.parametrize("n", range(2, 65))
def test_clique_chromatic_closure(n):
    graph = oracle.build(n)
    expected = closed_form.clique_chromatic_number(n)
    assert oracle.clique_number(graph) == expected
    assert oracle.chromatic_number(graph) == expected
    assert expected == len(zn.divisors(n))


@pytest.mark.parametrize("n", range(2, 25))
def test_hamiltonian_criterion_matches_search(n):
    cycle = oracle.find_hamiltonian_cycle(oracle.build(n))
    assert closed_form.is_hamiltonian(n) == (cycle is not None)


def test_hamiltonian_criterion_cases():
    # fails exactly when units fill more than half the graph
    assert not closed_form.is_hamiltonian(2)
    assert not closed_form.is_hamiltonian(3)
    assert not closed_form.is_hamiltonian(9)
    assert not closed_form.is_hamiltonian(10**9 + 7)
    assert closed_form.is_hamiltonian(4)
    assert closed_form.is_hamiltonian(2 * 3 * 5 * 7)


@given(moduli)
def test_invariants_consistent(n):
    inv = closed_form.invariants(n)
    assert inv.n == n
    assert inv.partite_count == len(zn.divisors(n))
    assert inv.clique_number == inv.chromatic_number == inv.partite_count
    assert sum(cnt for _, cnt in inv.degree_counts) == n
    assert sum(deg * cnt for deg, cnt in inv.degree_counts) == 2 * inv.edge_count
    assert inv.connected


@pytest.mark.parametrize("n", SMOOTH_MODULI)
@pytest.mark.usefixtures("empty_factorize_cache")
def test_invariants_match_per_divisor_formulas(n):
    inv = closed_form.invariants(n)
    assert inv == per_divisor_invariants(n)
    assert closed_form.edge_count(n) == inv.edge_count
    assert closed_form.degree_counts(n) == inv.degree_counts
    assert closed_form.clique_chromatic_number(n) == inv.partite_count
    assert inv.order_classes == tuple((d, zn.euler_phi(d)) for d in zn.divisors(n))


def test_invariants_large_prime_is_fast_and_star_shaped():
    p = 10**9 + 7
    inv = closed_form.invariants(p)
    assert inv.edge_count == p - 1
    assert inv.bipartite
    assert inv.girth == INFINITE
    assert inv.degree_counts == ((p - 1, 1), (1, p - 1))
    assert not inv.hamiltonian


def test_degree_counts_frozen_values():
    assert closed_form.degree_counts(6) == ((5, 2), (4, 4))
    assert closed_form.degree_counts(12) == ((11, 2), (10, 6), (8, 4))


def test_degree_rejects_bad_input():
    with pytest.raises(ValueError):
        closed_form.degree_counts(1)
    with pytest.raises(ValueError):
        closed_form.edge_count(1)
