"""Literal transcriptions of the audited claims about I_G(Z_n).

Each function evaluates one claimed formula or statement exactly as
printed, errors included. Nothing here is corrected; the corrected
counterparts live in indegraph.closed_form, and indegraph.audit reports
where the two disagree with ground truth on which side.
"""

from __future__ import annotations

from indegraph.invariants import INFINITE
from indegraph.zn import INVOLUTION, NEITHER, UNIT, check_modulus, euler_phi, is_prime

WEAKLY_PERFECT = "WEAKLY_PERFECT"
STRONGLY_PERFECT = "STRONGLY_PERFECT"


def involution_count(n: int) -> int:
    """Claimed count of solutions to 2a = 0: one for odd n, two for even."""
    check_modulus(n)
    return 2 if n % 2 == 0 else 1


def neither_count(n: int, swapped: bool = False) -> int:
    """Claimed size of Z_n minus units minus involutions, cases as printed.

    As printed the even case subtracts 1 and the odd case subtracts 2,
    which contradicts the involution counts next to it. swapped=True
    exchanges the cases, the reading the edge-count derivation actually
    uses.
    """
    check_modulus(n)
    even = n % 2 == 0
    if swapped:
        even = not even
    return n - euler_phi(n) - (1 if even else 2)


def degree_claim(kind: str, n: int) -> tuple[int, ...]:
    """Allowed degrees of a vertex of the given kind (zn.order_kind)."""
    check_modulus(n)
    if kind == INVOLUTION:
        return (n - 1,)
    if kind == UNIT:
        return (n - euler_phi(n),)
    if kind == NEITHER:
        phi = euler_phi(n)
        return (phi + 2, phi + 1)
    raise ValueError(f"unknown residue kind {kind!r}")


def edge_count(n: int) -> int:
    """Claimed edge count, halved with integer division.

    The numerator is even everywhere except n = 2, where the printed
    formula evaluates to 3/2 and flooring yields the (coincidentally
    correct) count of 1.
    """
    check_modulus(n)
    phi = euler_phi(n)
    base = (n - 1) ** 2 - phi * (phi - 2)
    if n % 2 == 0:
        base += 1
    return base // 2


def clique_number(n: int) -> int:
    """Claimed clique number; assumes n > 2, may be non-positive."""
    check_modulus(n)
    if n < 3:
        raise ValueError("the clique-number claim assumes n > 2")
    phi = euler_phi(n)
    return (n - phi * (phi - 2) + involution_count(n)) // 2


def chromatic_number(n: int) -> int:
    """Claimed chromatic number; assumes n > 2."""
    check_modulus(n)
    if n < 3:
        raise ValueError("the chromatic-number claim assumes n > 2")
    return (3 * n - 3 * euler_phi(n) + involution_count(n)) // 2


def perfect_verdict(n: int) -> str:
    """Perfectness label under the claimed definition and formulas.

    The audited definition inverts standard usage: equal chromatic and
    clique numbers are called weakly perfect, differing ones strongly
    perfect. Evaluated on the claimed formulas above, as printed.
    """
    if chromatic_number(n) == clique_number(n):
        return WEAKLY_PERFECT
    return STRONGLY_PERFECT


def girth(n: int) -> int | float:
    """Claimed girth: infinite for prime n, 3 for composite n."""
    check_modulus(n)
    return INFINITE if is_prime(n) else 3
