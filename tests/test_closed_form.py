"""Closed forms against the oracle, mostly over exhaustive ranges.

The formulas only rely on the order-class decomposition, so once they
agree with the oracle on a decent range they are trusted as the
fallback ground-truth tier for large n.
"""

import pytest
from hypothesis import given, strategies as st

from indegraph import closed_form, oracle, zn
from indegraph.invariants import INFINITE, length_str

from conftest import SMOOTH_MODULI, naive_orders, per_divisor_invariants

moduli = st.integers(min_value=2, max_value=300)


def test_edge_count_frozen_values():
    # n: expected, checked by listing pairs of distinct orders by hand
    expected = {2: 1, 4: 5, 5: 4, 6: 13, 10: 33, 15: 70}
    for n, count in expected.items():
        assert closed_form.invariants(n).edge_count == count


@given(moduli)
def test_edge_count_matches_oracle(n):
    q = oracle.twins(oracle.build(n)).quotient
    assert closed_form.invariants(n).edge_count == oracle.edge_count(q)


@given(moduli)
def test_degree_matches_oracle(n):
    # Each vertex is adjacent to everything outside its own order class.
    sizes = dict(closed_form.invariants(n).order_classes)
    expected = tuple(n - sizes[d] for d in naive_orders(n))
    record = oracle.invariants(oracle.build(n), exact_limit=2, hamiltonian_limit=2)
    assert record.vertex_degrees == expected


# The InvariantSet fields that do not depend on the search limits.
LIMIT_FREE_FIELDS = (
    "involutions", "neither", "edge_count", "degree_counts", "order_classes",
    "connected", "complete", "star", "girth", "diameter", "bipartite",
    "partite_count", "multipartite",
)


def test_degree_counts_match_oracle():
    # Every n in the range, and every fact the search limits leave alone.
    disagreements = []
    for n in range(2, 2049):
        ground = oracle.invariants(oracle.build(n), exact_limit=2, hamiltonian_limit=2)
        inv = closed_form.invariants(n)
        disagreements += [
            (n, field) for field in LIMIT_FREE_FIELDS
            if getattr(inv, field) != getattr(ground, field)
        ]
    assert disagreements == []


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
    q = oracle.twins(oracle.build(n)).quotient
    inv = closed_form.invariants(n)
    assert inv.girth == oracle.girth(q)
    assert inv.diameter == oracle.diameter(q)
    assert inv.bipartite == oracle.is_bipartite(q)
    complete = oracle.edge_count(q) == n * (n - 1) // 2
    assert inv.complete == complete


def test_girth_split():
    assert closed_form.invariants(13).girth == INFINITE
    assert closed_form.invariants(2).girth == INFINITE
    assert closed_form.invariants(4).girth == 3
    assert length_str(closed_form.invariants(3).girth) == "INFINITE"


def test_diameter_values():
    assert closed_form.invariants(2).diameter == 1
    assert all(closed_form.invariants(n).diameter == 2 for n in range(3, 50))


@pytest.mark.parametrize("n", range(2, 65))
def test_clique_chromatic_closure(n):
    graph = oracle.build(n)
    expected = closed_form.clique_chromatic_number(n)
    assert len(oracle.max_clique(graph)) == expected
    assert oracle.chromatic_number(oracle.twins(graph).quotient) == expected
    assert expected == len(zn.divisors(n))


def theorem_3_3_quotient(n):
    """K_t with one class of size phi(d) per divisor d of n, whose members
    have degree n - phi(d): the quotient Theorem 3.3 describes."""
    sizes = tuple(phi for _, phi in zn.divisor_phis(n))
    full = (1 << len(sizes)) - 1
    rows = tuple(full ^ (1 << i) for i in range(len(sizes)))
    return oracle.quotient(rows, sizes, tuple(n - size for size in sizes))


def assert_closed_forms_match_the_theorem_3_3_quotient(n):
    """The oracle's quotient functions, fed the quotient T3.3 gives, at any n.

    This checks the closed forms' arithmetic given T3.3, far above the
    build limit; T3.3 itself is checked by the oracle's multipartite
    verification, up to the limit.
    """
    q = theorem_3_3_quotient(n)
    inv = closed_form.invariants(n)
    assert oracle.edge_count(q) == inv.edge_count
    assert oracle.is_connected(q) == inv.connected
    assert oracle.diameter(q) == inv.diameter
    assert oracle.girth(q) == inv.girth
    assert oracle.is_bipartite(q) == inv.bipartite
    assert oracle.partite_count(q) == inv.partite_count
    assert oracle.chromatic_number(q, limit=n) == inv.chromatic_number


# 963761198400 and 530755139915304876 have 6720 and 5760 divisors; the
# third smooth modulus, with 103,680, is checked in CI.
@pytest.mark.parametrize("n", [
    2, 3, 12, 10**9 + 7, 2 * 3 * 5 * 7 * 11 * 13, *SMOOTH_MODULI[:2],
    963761198400, 530755139915304876,
])
def test_closed_forms_match_the_theorem_3_3_quotient(n):
    assert_closed_forms_match_the_theorem_3_3_quotient(n)


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
@pytest.mark.usefixtures("empty_zn_caches")
def test_invariants_match_per_divisor_formulas(n):
    inv = closed_form.invariants(n)
    assert inv == per_divisor_invariants(n)
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
    assert closed_form.invariants(6).degree_counts == ((5, 2), (4, 4))
    assert closed_form.invariants(12).degree_counts == ((11, 2), (10, 6), (8, 4))


def test_degree_rejects_bad_input():
    with pytest.raises(ValueError):
        closed_form.invariants(1)
    with pytest.raises(ValueError):
        closed_form.clique_chromatic_number(1)
    with pytest.raises(ValueError):
        closed_form.is_hamiltonian(1)


@pytest.mark.parametrize("n", [2, 3, 12, 10**9 + 7, 2 * 3 * 5 * 7 * 11 * 13])
def test_invariants_test_primality_once(n, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return zn.is_prime(m)

    monkeypatch.setattr(closed_form, "is_prime", counted)
    closed_form.invariants(n)
    assert calls == [n]
