import random

import pytest
from hypothesis import given, strategies as st

import indegraph
from indegraph import oracle, zn

from conftest import (
    SMOOTH_MODULI,
    classify_residue,
    clear_zn_caches,
    naive_factorize,
    naive_order,
    naive_orders,
    naive_phi,
    naive_primes_below,
    one_sort_divisor_phis,
)

moduli = st.integers(min_value=2, max_value=400)

# Primes checked by trial division; the last two are 2**61 - 1 and the
# largest prime below 10**18.
KNOWN_PRIMES = (
    2, 3, 5, 7, 13, 97, 997, 1009, 65537, 1_000_003, 2_147_483_647,
    1_000_000_007, 1_000_000_009, 4_294_967_291, 999_999_999_989,
    1_000_000_000_039, 2**61 - 1, 999_999_999_999_999_989,
)
# Strong pseudoprimes to the first 12 and the first 13 prime bases
# (Sorenson & Webster 2015), with their factors.
PSI_12 = (318_665_857_834_031_151_167_461, 399_165_290_221, 798_330_580_441)
PSI_13 = (3_317_044_064_679_887_385_961_981, 1_287_836_182_261, 2_575_672_364_521)
MERSENNE_89 = 2**89 - 1  # prime, above the Miller-Rabin limit


def test_check_modulus_rejects_small():
    for bad in (-3, 0, 1):
        with pytest.raises(ValueError):
            zn.check_modulus(bad)
    zn.check_modulus(2)


def test_factorize_known_values():
    assert zn.factorize(1) == {}
    assert zn.factorize(2) == {2: 1}
    assert zn.factorize(12) == {2: 2, 3: 1}
    assert zn.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert zn.factorize(97) == {97: 1}


@given(st.integers(min_value=1, max_value=10_000))
def test_factorize_reconstructs(n):
    product = 1
    for p, e in zn.factorize(n).items():
        assert zn.is_prime(p)
        product *= p**e
    assert product == n


def test_is_prime_matches_sieve_below_100000():
    primes = set(naive_primes_below(100_000))
    try:
        assert [n for n in range(100_000) if zn.is_prime(n)] == sorted(primes)
    finally:
        clear_zn_caches()


def test_factorize_matches_trial_division_to_200000():
    try:
        for n in range(1, 200_001):
            assert zn.factorize(n) == naive_factorize(n), n
    finally:
        clear_zn_caches()


@st.composite
def known_factorizations(draw):
    """A product of known prime powers below 2 * 10**18, with its factors."""
    factors: dict[int, int] = {}
    n = 1
    for p, e in draw(st.lists(
        st.tuples(st.sampled_from(KNOWN_PRIMES), st.integers(min_value=1, max_value=6)),
        min_size=1, max_size=8,
    )):
        while e and n * p**e > 2 * 10**18:
            e -= 1
        if e:
            factors[p] = factors.get(p, 0) + e
            n *= p**e
    return n, factors


@given(known_factorizations())
def test_factorize_products_of_known_primes(case):
    n, factors = case
    clear_zn_caches()
    assert zn.factorize(n) == dict(sorted(factors.items()))
    assert zn.is_prime(n) == (list(factors.values()) == [1])


@pytest.mark.parametrize("n, factors", [
    pytest.param(561, {3: 1, 11: 1, 17: 1}, id="carmichael-561"),
    pytest.param(41041, {7: 1, 11: 1, 13: 1, 41: 1}, id="carmichael-41041"),
    pytest.param(825265, {5: 1, 7: 1, 17: 1, 19: 1, 73: 1}, id="carmichael-825265"),
    pytest.param(2047, {23: 1, 89: 1}, id="spsp2-2047"),
    pytest.param(3215031751, {151: 1, 751: 1, 28351: 1}, id="spsp2-3215031751"),
    pytest.param(3825123056546413051, {149491: 1, 747451: 1, 34233211: 1},
                 id="spsp-bases-to-23"),
    pytest.param((2**31 - 1) ** 2, {2**31 - 1: 2}, id="mersenne-31-squared"),
    pytest.param((10**9 + 7) * (10**9 + 9), {10**9 + 7: 1, 10**9 + 9: 1},
                 id="two-primes-near-1e9"),
    pytest.param(2**61 - 1, {2**61 - 1: 1}, id="mersenne-61"),
    pytest.param(PSI_12[0], {PSI_12[1]: 1, PSI_12[2]: 1}, id="spsp-bases-to-37"),
    pytest.param(2**100 * 3, {2: 100, 3: 1}, id="smooth-above-the-limit"),
])
def test_factorize_hard_cases(n, factors):
    clear_zn_caches()
    assert zn.factorize(n) == factors
    assert zn.is_prime(n) == (list(factors.values()) == [1])


def test_factorize_keys_ascend():
    n = 999_999_999_989 * 2**3 * 1_000_003 * 97**2 * 65537
    clear_zn_caches()
    keys = list(zn.factorize(n))
    assert keys == sorted(keys) == [2, 97, 65537, 1_000_003, 999_999_999_989]


def test_factorize_result_is_read_only():
    # The cache hands every caller the same mapping; a write must not stick.
    clear_zn_caches()
    with pytest.raises(TypeError):
        zn.factorize(12)[2] = 5
    assert zn.divisor_count(12) == 6


@pytest.mark.parametrize("n, cofactor", [
    pytest.param(MERSENNE_89, MERSENNE_89, id="prime"),
    pytest.param(6 * MERSENNE_89, MERSENNE_89, id="small-times-prime"),
    pytest.param(PSI_13[0], PSI_13[0], id="spsp-bases-to-41"),
    pytest.param(1009**9, 1009**9, id="prime-power"),
])
def test_cofactor_at_or_above_the_miller_rabin_limit_is_refused(n, cofactor):
    assert cofactor >= zn.MILLER_RABIN_LIMIT
    clear_zn_caches()
    with pytest.raises(zn.CapacityError):
        zn.factorize(n)
    with pytest.raises(zn.CapacityError):
        zn.is_prime(cofactor)


def test_rho_over_its_budget_is_refused():
    with pytest.raises(zn.CapacityError, match="within 100 steps"):
        zn._rho((10**9 + 7) * (10**9 + 9), budget=100)
    factor, steps = zn._rho((10**9 + 7) * (10**9 + 9), zn.RHO_BUDGET)
    assert factor in (10**9 + 7, 10**9 + 9) and 0 < steps <= zn.RHO_BUDGET


def test_capacity_error_is_one_class():
    assert zn.CapacityError is oracle.CapacityError is indegraph.CapacityError


def test_phi_small_table():
    # phi(1..12) straight from the definition
    expected = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [zn.euler_phi(n) for n in range(1, 13)] == expected


@given(moduli)
def test_phi_matches_gcd_count(n):
    assert zn.euler_phi(n) == naive_phi(n)


@given(moduli)
def test_phi_divisor_sum(n):
    assert sum(zn.euler_phi(d) for d in zn.divisors(n)) == n


def test_divisors_known():
    assert zn.divisors(1) == [1]
    assert zn.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert zn.divisors(49) == [1, 7, 49]


@given(moduli)
def test_divisors_divide_and_sorted(n):
    assert zn.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@given(st.integers(min_value=-5, max_value=2000))
def test_is_prime_matches_trial(n):
    slow = n >= 2 and all(n % k for k in range(2, n))
    assert zn.is_prime(n) == slow


@given(moduli)
def test_order_invariant_under_negation(n):
    # -a generates the same cyclic subgroup as a, so same order; in
    # particular negation permutes units, involutions, and the rest.
    for a in range(n):
        assert naive_order(a, n) == naive_order((n - a) % n, n)
        assert classify_residue(a, n) == classify_residue((n - a) % n, n)


def test_order_kind_rejects_non_divisor():
    for d in (-2, 0, 4, 7, 11):
        with pytest.raises(ValueError):
            zn.order_kind(d, 10)
    with pytest.raises(ValueError):
        zn.order_kind(1, 1)


def test_classify_residue_cases():
    cases = (
        (0, 9, zn.INVOLUTION),
        (5, 10, zn.INVOLUTION),  # 2*5 = 10
        (3, 10, zn.UNIT),
        (2, 10, zn.NEITHER),
        (1, 2, zn.INVOLUTION),  # at n=2 the residue 1 is both; involution wins
    )
    for a, n, kind in cases:
        assert classify_residue(a, n) == kind
        assert zn.order_kind(naive_order(a, n), n) == kind


def test_order_kind_matches_residue_kind_to_512():
    for n in range(2, 513):
        for a, d in enumerate(naive_orders(n)):
            assert zn.order_kind(d, n) == classify_residue(a, n), (a, n)


def _kinds(n):
    """Z_n split by the reference classify_residue: {kind: set of residues}."""
    out = {zn.INVOLUTION: set(), zn.UNIT: set(), zn.NEITHER: set()}
    for a in range(n):
        out[classify_residue(a, n)].add(a)
    return out


def test_special_sets_n10():
    assert _kinds(10) == {
        zn.UNIT: {1, 3, 7, 9},
        zn.INVOLUTION: {0, 5},
        zn.NEITHER: {2, 4, 6, 8},
    }


def test_special_sets_overlap_at_2():
    # 1 is both a unit and an involution at n = 2; involution wins
    assert _kinds(2) == {zn.INVOLUTION: {0, 1}, zn.UNIT: set(), zn.NEITHER: set()}


@given(moduli)
def test_special_sets_cover(n):
    kinds = _kinds(n)
    assert len(kinds[zn.INVOLUTION]) == (2 if n % 2 == 0 else 1)
    if n > 2:
        assert len(kinds[zn.UNIT]) == zn.euler_phi(n)
        assert len(kinds[zn.NEITHER]) == n - zn.euler_phi(n) - len(kinds[zn.INVOLUTION])


@given(moduli)
def test_order_decomposition_classes(n):
    classes = {}
    for a, d in enumerate(naive_orders(n)):
        classes.setdefault(d, []).append(a)
    assert sorted(classes) == zn.divisors(n)
    for d, members in classes.items():
        assert len(members) == zn.euler_phi(d)


def test_divisor_phis_match_phi_of_each_divisor_to_5000():
    for n in range(1, 5001):
        table = zn.divisor_phis(n)
        assert table == [(d, zn.euler_phi(d)) for d in zn.divisors(n)], n
        assert zn.divisor_count(n) == len(table), n


@given(known_factorizations())
def test_divisor_phis_on_products_of_known_primes(case):
    n, _ = case
    clear_zn_caches()
    try:
        divs = zn.divisors(n)
        assert zn.divisor_phis(n) == [(d, zn.euler_phi(d)) for d in divs]
        assert zn.divisor_count(n) == len(divs)
    finally:
        clear_zn_caches()


def _seeded_smooth_moduli(count: int, seed: int) -> list[int]:
    """Products of primes below 60 with 10**3 to 10**4 divisors, at most 10**18."""
    rng = random.Random(seed)
    primes = naive_primes_below(60)
    found: list[int] = []
    while len(found) < count:
        n, tau = 1, 1
        for p in rng.sample(primes, rng.randint(4, 9)):
            e = rng.randint(1, 4)
            n, tau = n * p**e, tau * (e + 1)
        if 10**3 <= tau <= 10**4 and n <= 10**18 and n not in found:
            found.append(n)
    return found


@pytest.mark.parametrize(
    "n",
    SMOOTH_MODULI
    + (2**61 - 1, (10**9 + 7) * (10**9 + 9))
    + tuple(_seeded_smooth_moduli(10, seed=14)),
)
def test_divisor_phis_match_one_sort_of_the_whole_table(n):
    table = zn.divisor_phis(n)
    assert table == one_sort_divisor_phis(n)
    assert all(a < b for (a, _), (b, _) in zip(table, table[1:]))


def test_order_kinds_of_the_divisor_table_form_three_runs():
    # audit._degrees relies on this: ascending orders put the kinds in
    # one or two involutions, then the "neither" orders, then at most
    # one unit.
    for n in [*range(2, 2049), *SMOOTH_MODULI]:
        kinds = [zn.order_kind(d, n) for d, _ in zn.divisor_phis(n)]
        involutions, units = kinds.count(zn.INVOLUTION), kinds.count(zn.UNIT)
        neither = len(kinds) - involutions - units
        assert 1 <= involutions <= 2 and units <= 1, n
        runs = [zn.INVOLUTION] * involutions + [zn.NEITHER] * neither + [zn.UNIT] * units
        assert kinds == runs, n


def test_divisor_phis_edges():
    assert zn.divisor_phis(1) == [(1, 1)]
    assert zn.divisor_count(1) == 1
    for bad in (0, -6):
        for fn in (zn.divisor_phis, zn.divisor_count, zn.euler_phi, zn.divisors):
            with pytest.raises(ValueError):
                fn(bad)
    for not_prime in (-6, 0, 1):
        assert zn.is_prime(not_prime) is False
    clear_zn_caches()
    with pytest.raises(zn.CapacityError):
        zn.divisor_phis(MERSENNE_89)
    with pytest.raises(zn.CapacityError):
        zn.divisor_count(MERSENNE_89)


def test_phi_memo_matches_the_gcd_count_cold_and_warm():
    expected = [naive_phi(n) for n in range(1, 5001)]
    clear_zn_caches()
    try:
        assert [zn.euler_phi(n) for n in range(1, 5001)] == expected
        assert zn.euler_phi.cache_info().misses == 5000
        assert [zn.euler_phi(n) for n in range(1, 5001)] == expected
        assert zn.euler_phi.cache_info().hits == 5000
    finally:
        clear_zn_caches()


def test_phi_memo_caches_no_error():
    clear_zn_caches()
    zn.euler_phi(12)
    for _ in range(2):
        for bad in (0, -6):
            with pytest.raises(ValueError):
                zn.euler_phi(bad)
        with pytest.raises(zn.CapacityError):
            zn.euler_phi(2 * MERSENNE_89)
    assert zn.euler_phi.cache_info().currsize == 1


@pytest.mark.parametrize("n", [12, 97, 360, 1680])
def test_audit_asks_phi_of_n_alone(n):
    # Every claim and every per-vertex degree claim reads phi(n) from
    # the one cache entry.
    clear_zn_caches()
    indegraph.audit_n(n)
    assert zn.euler_phi.cache_info().misses == 1


def test_phi_large_prime():
    p = 10**9 + 7
    assert zn.euler_phi(p) == p - 1
    assert zn.euler_phi(2 * p) == p - 1
