"""Output checks. Each returns None when an output is right, else a reason."""

from __future__ import annotations

import hashlib
import json
from math import prod

# sha256 of `render_report(sweep(2, 512), fmt)`, pinned from a serial sweep.
SWEEP_DIGESTS = {
    "md": "12f39ac4ea98ccc91da48da76d4f16e213130c127cd9a1d766509a618c476f53",
    "json": "ac8eabc8e7d2684d48764304e735cf8e57fa6a105a98078cd9281f828b7f89da",
    "csv": "56e002afb337ab2df7d463dca8f81009f8189813050df109dfeeffc84b3e3129",
}

# First counterexample of every claim over [2, 512]; None where it holds.
SWEEP_FIRST_COUNTEREXAMPLES = {
    "L2.5": None,
    "L2.6": 3,
    "L2.6-swapped": None,
    "T2.4": None,
    "T2.7": 12,
    "T2.10": 10,
    "T2.12": None,
    "C2.13": None,
    "T2.14": None,
    "T2.15": None,
    "T2.16": None,
    "T2.17": 9,
    "R2.18": 5,
    "T3.1": None,
    "T3.2": None,
    "T3.3": None,
    "C3.4": None,
    "T4.1": 5,
    "T4.3": 4,
    "T4.4": 4,
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_render(fmt: str, text: str, digests: dict[str, str]) -> str | None:
    got = digest(text)
    if got != digests[fmt]:
        return f"{fmt} report digest {got[:12]}, expected {digests[fmt][:12]}"
    return None


def check_first_counterexamples(report, expected: dict[str, int | None]) -> str | None:
    got = {t.value: s.first_counterexample for t, s in report.summary.items()}
    if got != expected:
        wrong = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
        return f"first counterexamples differ for {', '.join(wrong)}"
    return None


def statuses(verdicts) -> dict[str, str]:
    return {v.theorem.value: v.status.value for v in verdicts}


def check_statuses(verdicts, reference) -> str | None:
    """The oracle-tier verdicts of one n against a closed-form-tier audit."""
    got, want = statuses(verdicts), statuses(reference)
    if got != want:
        wrong = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        return f"status differs from the closed-form tier for {', '.join(wrong)}"
    return None


# -- closed-form-large -------------------------------------------------------


def facts(factors: dict[int, int]) -> dict[str, object]:
    """Invariants of I_G(Z_n) from the factorization alone.

    The parts are the order classes, one of size phi(d) per divisor d,
    so the edge count is (n^2 - sum of phi(d)^2) / 2, and the sum is
    multiplicative over prime powers.
    """
    n = prod(p**e for p, e in factors.items())
    phi = prod(p ** (e - 1) * (p - 1) for p, e in factors.items())
    squares = prod(
        1 + sum((p**k - p ** (k - 1)) ** 2 for k in range(1, e + 1))
        for p, e in factors.items()
    )
    prime = list(factors.values()) == [1]
    return {
        "n": n,
        "phi": phi,
        "edges": (n * n - squares) // 2,
        "parts": prod(e + 1 for e in factors.values()),
        "girth": "INFINITE" if prime else 3,
        "hamiltonian": n >= 3 and 2 * phi <= n,
    }


def check_factorization(factors: dict[int, int], got: dict[int, int]) -> str | None:
    if dict(got) != factors:
        return f"factorize gave {dict(got)}, expected {factors}"
    return None


def check_info(factors: dict[int, int], exit_code: int, text: str) -> str | None:
    if exit_code != 0:
        return f"info exited {exit_code}"
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return f"info printed no JSON: {exc}"
    want = facts(factors)
    for key in ("n", "edges", "parts", "girth", "hamiltonian"):
        if payload.get(key) != want[key]:
            return f"info {key} is {payload.get(key)!r}, expected {want[key]!r}"
    return None


def claimed_edges(n: int, phi: int) -> int:
    """The audited edge-count formula (claim T2.10) as printed, errors included."""
    return ((n - 1) ** 2 - phi * (phi - 2) + (n % 2 == 0)) // 2


def audit_rows(text: str) -> dict[str, tuple[int, int, int]]:
    """Summary table of a markdown audit: claim -> (holds, fails, skipped)."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[2].isdigit():
            rows[cells[0]] = (int(cells[2]), int(cells[3]), int(cells[4]))
    return rows


def check_audit(factors: dict[int, int], exit_code: int, text: str) -> str | None:
    if exit_code != 0:
        return f"audit exited {exit_code}"
    want = facts(factors)
    n, phi = want["n"], want["phi"]
    if not text.startswith(f"# Claim audit for I_G(Z_n), n in [{n}, {n}]"):
        return "audit header names another range"
    rows = audit_rows(text)
    if len(rows) != len(SWEEP_FIRST_COUNTEREXAMPLES):
        return f"audit table has {len(rows)} claims"
    claimed = claimed_edges(n, phi)
    if rows["T2.10"][1] != (claimed != want["edges"]):
        return f"T2.10 verdict wrong for claimed {claimed}, true {want['edges']}"
    for claim in ("T2.14", "T2.15"):
        if rows[claim][0] != 1:
            return f"{claim} should hold for every n"
    return None
