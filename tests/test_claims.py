"""The claimed formulas are transcriptions, so these tests freeze their
outputs verbatim, including the values the audit later refutes."""

import math

import pytest
from hypothesis import given, strategies as st

from indegraph import claims, closed_form
from indegraph.audit import TheoremId, audit_n
from indegraph.invariants import INFINITE
from indegraph.zn import INVOLUTION, NEITHER, UNIT, euler_phi, order_kind

from conftest import classify_residue, naive_order

moduli = st.integers(min_value=2, max_value=300)


def test_involution_count():
    assert claims.involution_count(2) == 2
    assert claims.involution_count(3) == 1
    assert claims.involution_count(10) == 2
    assert claims.involution_count(81) == 1


def test_neither_count_printed_cases():
    # the printed cases disagree with direct enumeration by one
    assert claims.neither_count(6) == 3  # enumeration gives |{2, 4}| = 2
    assert claims.neither_count(3) == -1  # enumeration gives 0
    assert claims.neither_count(10) == 5  # enumeration gives 4


def test_neither_count_swapped_cases():
    for n in range(3, 60):
        # residues with 2a != 0 and gcd(a, n) != 1
        neither = sum(1 for a in range(n) if 2 * a % n and math.gcd(a, n) != 1)
        assert claims.neither_count(n, swapped=True) == neither


def test_degree_claim_kinds():
    assert claims.degree_claim(INVOLUTION, 9) == (8,)  # n - 1
    assert claims.degree_claim(INVOLUTION, 10) == (9,)
    assert claims.degree_claim(UNIT, 10) == (6,)  # n - phi(n)
    assert claims.degree_claim(NEITHER, 10) == (6, 5)  # phi+2 or phi+1
    assert 6 in claims.degree_claim(NEITHER, 10)
    assert 7 not in claims.degree_claim(NEITHER, 10)
    with pytest.raises(ValueError):
        claims.degree_claim(INVOLUTION, 1)
    for bad in ("bogus", ""):
        with pytest.raises(ValueError):
            claims.degree_claim(bad, 10)


def test_degree_claim_first_deviation():
    # vertex 2 of Z_12 has order 6 and degree 10; neither 6 nor 5
    assert order_kind(naive_order(2, 12), 12) == NEITHER
    assert claims.degree_claim(NEITHER, 12) == (6, 5)
    assert 10 not in claims.degree_claim(NEITHER, 12)


def test_degree_claim_follows_residue_kind():
    # n = 2 covers residue 1, both a unit and an involution: the
    # involution case comes first.
    for n in range(2, 65):
        phi = euler_phi(n)
        by_kind = {INVOLUTION: (n - 1,), UNIT: (n - phi,), NEITHER: (phi + 2, phi + 1)}
        for a in range(n):
            kind = order_kind(naive_order(a, n), n)
            assert claims.degree_claim(kind, n) == by_kind[classify_residue(a, n)]


def test_edge_count_claimed_values():
    assert claims.edge_count(2) == 1
    assert claims.edge_count(4) == 5
    assert claims.edge_count(5) == 4
    assert claims.edge_count(6) == 13
    assert claims.edge_count(10) == 37  # oracle says 33
    assert claims.edge_count(12) == 57  # agrees by coincidence


@given(st.integers(min_value=2, max_value=9))
def test_edge_count_agrees_with_truth_below_ten(n):
    assert claims.edge_count(n) == closed_form.invariants(n).edge_count


def test_clique_number_claimed_values():
    assert claims.clique_number(3) == 2
    assert claims.clique_number(4) == 3
    assert claims.clique_number(5) == -1  # reported verbatim, not clamped
    assert claims.clique_number(8) == 1
    with pytest.raises(ValueError):
        claims.clique_number(2)


def test_chromatic_number_claimed_values():
    assert claims.chromatic_number(3) == 2
    assert claims.chromatic_number(4) == 4  # truth is 3
    assert claims.chromatic_number(10) == 10
    with pytest.raises(ValueError):
        claims.chromatic_number(2)


def test_perfect_verdict_uses_claimed_numbers():
    assert claims.perfect_verdict(3) == claims.WEAKLY_PERFECT
    assert claims.perfect_verdict(4) == claims.STRONGLY_PERFECT
    assert claims.perfect_verdict(5) == claims.STRONGLY_PERFECT


@given(moduli)
def test_perfect_verdict_definition(n):
    if n == 2:
        return
    equal = claims.clique_number(n) == claims.chromatic_number(n)
    expected = claims.WEAKLY_PERFECT if equal else claims.STRONGLY_PERFECT
    assert claims.perfect_verdict(n) == expected


def test_structural_claims_prime():
    for p in (2, 3, 7, 97, 2**61 - 1):
        assert claims.girth(p) == INFINITE


def test_structural_claims_composite():
    for n in (4, 12, 91, 2**61 + 1):
        assert claims.girth(n) == 3


def test_structural_claims_tiny():
    assert claims.girth(2) == claims.girth(3) == INFINITE and claims.girth(4) == 3
    with pytest.raises(ValueError):
        claims.girth(1)
    # the other structural claims are stated inline by the audit's rows
    claimed = {n: {v.theorem: v.claimed for v in audit_n(n)} for n in (2, 3, 4)}
    assert [claimed[n][TheoremId.C2_13] for n in (2, 3, 4)] == [
        "complete", "not complete", "not complete"
    ]
    assert [claimed[n][TheoremId.R2_18] for n in (2, 3, 4)] == [
        "not hamiltonian", "not hamiltonian", "hamiltonian"
    ]
    assert {claimed[n][TheoremId.T2_16] for n in (2, 3, 4)} == {"<= 2"}
