"""Seeded inputs for the benchmark workloads.

The package under test never sees the seed: it receives only the moduli
built here. Every modulus is assembled from primes that this module
proves prime itself (deterministic Miller-Rabin), so the factorization
of each n is known without asking the package.

Each workload draws from narrow, stratified windows. A seed changes
which moduli run, but not how much work they cost, so the spread
between seeds stays close to the machine's own timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod

_MASK64 = (1 << 64) - 1

# Miller-Rabin with the first 13 prime bases is exact below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class SplitMix64:
    """Small deterministic generator; identical on every Python version."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], without modulo bias."""
        span = hi - lo + 1
        limit = (1 << 64) - (1 << 64) % span
        while True:
            x = self.next()
            if x < limit:
                return lo + x % span

    def choice(self, items: list):
        return items[self.between(0, len(items) - 1)]

    def shuffled(self, items: list) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.between(0, i)
            out[i], out[j] = out[j], out[i]
        return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def prime_in(rng: SplitMix64, lo: int, hi: int) -> int:
    """The first prime at or after a uniform start in [lo, hi], wrapping."""
    start = rng.between(lo, hi)
    for p in chain(range(start, hi + 1), range(lo, start)):
        if is_prime(p):
            return p
    raise ValueError(f"no prime in [{lo}, {hi}]")


@dataclass(frozen=True)
class Modulus:
    """One input n with its factorization as (prime, exponent), ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]
    kind: str

    def factor_dict(self) -> dict[int, int]:
        return dict(self.factors)


def modulus(kind: str, factors: dict[int, int]) -> Modulus:
    n = prod(p**e for p, e in factors.items())
    return Modulus(n, tuple(sorted(factors.items())), kind)


def divisor_count(factors: dict[int, int]) -> int:
    return prod(e + 1 for e in factors.values())


# -- sweep-512 ---------------------------------------------------------------

SWEEP_RANGE = (2, 512)


# -- oracle-mid --------------------------------------------------------------

# Every class but the prime square draws from one narrow size window, so
# a seed swaps moduli of the same shape and nearly the same cost: the
# oracle's girth search costs about (edge count) * n, and within the
# window that varies by under a tenth per class. pq fixes p = 5 for the
# same reason, since its edge count depends on the smaller prime. The
# highly composite member is 1680, the one highly composite number in
# the window. Prime squares are rare, so theirs come from a wider range;
# they cost little. The window sits near 1700 rather than at the largest
# size the oracle finishes, so that a run fits the many passes that keep
# its figures steady (see README.md, "How time is measured").
MID_WINDOW = (1650, 1750)
MID_SQUARE_ROOTS = (37, 43)
MID_PQ_SMALL = 5
MID_HIGHLY_COMPOSITE = {2: 4, 3: 1, 5: 1, 7: 1}


def oracle_mid(seed: int) -> list[Modulus]:
    """One modulus per structure class: prime, p^2, 2p, 5q, and 1680."""
    rng = SplitMix64(seed * 0x100 + 2)
    lo, hi = MID_WINDOW
    square = rng.choice(primes_between(*MID_SQUARE_ROOTS))
    return [
        modulus("prime", {prime_in(rng, lo, hi): 1}),
        modulus("prime-square", {square: 2}),
        modulus("2p", {2: 1, prime_in(rng, lo // 2, hi // 2): 1}),
        modulus("pq", {MID_PQ_SMALL: 1, prime_in(rng, lo // MID_PQ_SMALL, hi // MID_PQ_SMALL): 1}),
        modulus("highly-composite", MID_HIGHLY_COMPOSITE),
    ]


# -- closed-form-large -------------------------------------------------------

LARGE_PRIME_RANGE = (10**11, 10**12)
LARGE_FACTOR_RANGE = (10**5, 10**6)
SMOOTH_PRIMES = tuple(primes_between(2, 59))
SMOOTH_LIMIT = 10**18
SMOOTH_DIVISORS = (2000, 6000)
STRATA = 8
# Primes and semiprimes come from the middle tenth of their stratum. Smooth
# n take the whole stratum of divisor counts: few exponent vectors land in
# a narrower one.
STRATUM_CORE = 0.1


def _stratum(bounds: tuple[int, int], index: int, core: float = 1.0) -> tuple[int, int]:
    """The middle `core` share of stratum `index` of the range.

    Drawing near each stratum's centre lets the seed change the moduli
    while every seed's block costs nearly the same.
    """
    lo, hi = bounds
    width = (hi - lo) / STRATA
    centre = lo + (index + 0.5) * width
    half = width * core / 2
    return round(centre - half), round(centre + half)


def _large_prime(rng: SplitMix64, stratum: int) -> Modulus:
    return modulus("prime", {prime_in(rng, *_stratum(LARGE_PRIME_RANGE, stratum, STRATUM_CORE)): 1})


def _semiprime(rng: SplitMix64, stratum: int) -> Modulus:
    # Trial division stops at the smaller factor, so the stratum picks it.
    p = prime_in(rng, *_stratum(LARGE_FACTOR_RANGE, stratum, STRATUM_CORE))
    q = prime_in(rng, p + 1, LARGE_FACTOR_RANGE[1])
    return modulus("semiprime", {p: 1, q: 1})


def _smooth(rng: SplitMix64, stratum: int) -> Modulus:
    lo, hi = _stratum(SMOOTH_DIVISORS, stratum)
    while True:
        factors: dict[int, int] = {}
        n = 1
        for p in rng.shuffled(list(SMOOTH_PRIMES)):
            top = 0
            while n * p ** (top + 1) <= SMOOTH_LIMIT:
                top += 1
            e = rng.between(0, min(top, 6))
            if e:
                factors[p] = e
                n *= p**e
        if lo <= divisor_count(factors) <= hi:
            return modulus("smooth", factors)


def closed_form_large(seed: int) -> list[Modulus]:
    """One prime, one semiprime and one smooth n from every stratum of
    its class, in a seeded order: 3 * STRATA distinct moduli that cover
    each class evenly."""
    rng = SplitMix64(seed * 0x100 + 3)
    orders = [rng.shuffled(list(range(STRATA))) for _ in range(3)]
    out: list[Modulus] = []
    for i in range(STRATA):
        for make, order in zip((_large_prime, _semiprime, _smooth), orders):
            m = make(rng, order[i])
            while m.n in (x.n for x in out):
                m = make(rng, order[i])
            out.append(m)
    return out
