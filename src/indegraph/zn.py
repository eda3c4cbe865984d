"""Number theory for the additive group Z_n.

Everything downstream hangs off the additive order of a residue,
o(a) = n / gcd(a, n). Grouping Z_n by order yields one class of size
phi(d) per divisor d of n; those classes are the parts of the
independent graph. The functions here work on the factorization of n,
or on one order d, and never enumerate Z_n: the oracle groups the
residues itself, and the closed forms need only the divisors.

factorize is the one place that factors n and the one place that
checks n >= 1; primality, phi and the divisors are read off its cached
result. Trial division by the primes below TRIAL_LIMIT settles every n
below TRIAL_LIMIT**2 and strips the small factors of any other n. What
is left is tested with deterministic Miller-Rabin over the thirteen
prime bases 2..41, which is exact below MILLER_RABIN_LIMIT (about
3.3 * 10**24), and split with Pollard-Brent rho under a budget of
RHO_BUDGET steps per factorization. A cofactor at or above
MILLER_RABIN_LIMIT, or a split that overruns the budget, raises
CapacityError: no verdict here is ever probabilistic, and no input runs
for longer than the budget allows.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import gcd, isqrt
from operator import itemgetter
from types import MappingProxyType

INVOLUTION = "involution"
UNIT = "unit"
NEITHER = "neither"

TRIAL_LIMIT = 1000
# Strong probable primes to all of these bases are prime below the limit
# (Sorenson & Webster 2015, psi_13).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
# Iterations of x -> x*x + c, summed over every split of one n. The
# hardest cofactors below MILLER_RABIN_LIMIT, products of two primes near
# 1.8 * 10**12, took at most 2**22 of them in eight samples (2.1 s on a
# 2-vCPU Xeon, Python 3.11), so the budget leaves a margin of four.
RHO_BUDGET = 1 << 24
# Iterations between two gcds in rho.
_RHO_BATCH = 128


class CapacityError(Exception):
    """A requested computation exceeds its size limit or work budget."""


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p in range(limit) if sieve[p])


_SMALL_PRIMES = _primes_below(TRIAL_LIMIT)


def check_modulus(n: int) -> None:
    """Reject anything below the smallest supported modulus."""
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")


def _is_cofactor_prime(m: int) -> bool:
    """Primality of m > 1 with no prime factor below TRIAL_LIMIT.

    Below TRIAL_LIMIT**2 such an m is prime. Above, every base is tried
    as a strong-probable-prime witness, exact below MILLER_RABIN_LIMIT;
    at or above it a verdict would only be probable, so none is given.
    """
    if m < TRIAL_LIMIT * TRIAL_LIMIT:
        return True
    if m >= MILLER_RABIN_LIMIT:
        raise CapacityError(
            f"cofactor {m} is at or above {MILLER_RABIN_LIMIT}, where "
            "Miller-Rabin over fixed bases is no longer a proof"
        )
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho(m: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite m, and the steps it took.

    Pollard's rho with Brent's cycle detection, iterating x -> x*x + c
    from x = 2 for c = 1, 2, ... in turn, with one gcd per _RHO_BATCH
    differences multiplied together. Raises CapacityError rather than
    start a round that would take it past `budget` steps.
    """
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > budget:
                raise CapacityError(
                    f"Pollard-Brent rho found no factor of {m} within {budget} steps"
                )
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            # The batch overshot: replay it one difference at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g, steps


@lru_cache(maxsize=None)
def factorize(n: int) -> Mapping[int, int]:
    """Prime factorization of n >= 1, as {prime: exponent} by ascending prime.

    The cache hands the same mapping to every caller, so it is read-only.

    Trial division below TRIAL_LIMIT, then Miller-Rabin and Pollard-Brent
    rho on the cofactor (see the module docstring). Exact for every n
    whose cofactor after trial division is below MILLER_RABIN_LIMIT and
    splits within RHO_BUDGET steps; any other n raises CapacityError.
    n < 1 raises ValueError, for every function built on this one.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors[p] = e
    large: list[int] = []
    pending = [rest] if rest > 1 else []
    budget = RHO_BUDGET
    while pending:
        m = pending.pop()
        if _is_cofactor_prime(m):
            large.append(m)
            continue
        d, steps = _rho(m, budget)
        budget -= steps
        pending += (d, m // d)
    for p in sorted(large):
        factors[p] = factors.get(p, 0) + 1
    return MappingProxyType(factors)


def euler_phi(n: int) -> int:
    """Count of residues in [1, n] coprime to n."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return [d for d, _ in divisor_phis(n)]


def divisor_phis(n: int) -> list[tuple[int, int]]:
    """Every divisor d of n with phi(d), as (d, phi(d)) ascending by d.

    Built from the one factorization of n: phi is multiplicative and
    phi(p**k) = p**(k-1) * (p - 1), so each prime power extends the
    table without factoring any divisor. The table is key-sorted by d
    after each prime's extension, which appends e copies of the sorted
    table scaled by p, p**2, ..., p**e: e + 1 ascending runs, which the
    sort merges in about linear time.
    """
    table = [(1, 1)]
    for p, e in factorize(n).items():
        extended = list(table)
        pk, phik = p, p - 1
        for _ in range(e):
            extended += [(d * pk, phi * phik) for d, phi in table]
            pk *= p
            phik *= p
        extended.sort(key=itemgetter(0))
        table = extended
    return table


def divisor_count(n: int) -> int:
    """Number of divisors of n, the product of (e + 1) over n's exponents."""
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count


def is_prime(n: int) -> bool:
    """Exact primality, read off the cached factorization of n.

    Raises CapacityError wherever factorize does, so a composite n whose
    cofactor rho cannot split within RHO_BUDGET steps is refused, not
    reported as composite.
    """
    return n > 1 and factorize(n).get(n) == 1


def order_kind(d: int, n: int) -> str:
    """Case label of the claimed degree formulas for a residue of order d.

    The kind depends on the order alone: 2a = 0 exactly when o(a)
    divides 2, and gcd(a, n) = 1 exactly when o(a) = n. At n = 2 the
    residue 1 is both, and the involution case wins.
    """
    check_modulus(n)
    if d < 1 or n % d:
        raise ValueError(f"order {d} does not divide {n}")
    if d <= 2:
        return INVOLUTION
    if d == n:
        return UNIT
    return NEITHER
