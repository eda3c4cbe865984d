"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
sweeps parallelize across cores; budgets are wall-clock seconds.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from indegraph import closed_form, oracle, zn
from indegraph.audit import Status, TheoremId, audit_n, sweep

from conftest import clear_zn_caches, naive_orders

GOLDEN = Path(__file__).parent / "golden"
JOBS = min(8, os.cpu_count() or 1)

CONFIRMED = (
    TheoremId.L2_5,
    TheoremId.T2_4,
    TheoremId.T2_12,
    TheoremId.C2_13,
    TheoremId.T2_14,
    TheoremId.T2_15,
    TheoremId.T2_16,
    TheoremId.T3_1,
    TheoremId.T3_2,
    TheoremId.T3_3,
    TheoremId.C3_4,
)

FIRST_COUNTEREXAMPLES = {
    TheoremId.L2_6: 3,
    TheoremId.T2_7: 12,
    TheoremId.T2_10: 10,
    TheoremId.T2_17: 9,
    TheoremId.T4_1: 5,
    TheoremId.T4_3: 4,
}


def report(num: int, description: str, ok: bool, elapsed: float | None = None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description}{timing}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_known_edge_counts():
    start = time.perf_counter()
    ok = True
    for n, expected in ((4, 5), (5, 4)):
        ok = ok and oracle.build(n).edge_count() == expected
        ok = ok and closed_form.invariants(n).edge_count == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, "edge counts 5 and 4 for n=4, n=5 from oracle and closed form, under 1s",
           ok, elapsed)


def test_criterion_2_multipartite_structure():
    start = time.perf_counter()
    ok = True
    for n in range(2, 513):
        graph = oracle.build(n)
        ok = ok and graph.orders == naive_orders(n)
        ok = ok and oracle.verify_complete_multipartite(graph)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(2, "complete multipartite on order classes for every n in [2, 512], under 2min",
           ok, elapsed)


def test_criterion_3_closed_forms_match_oracle():
    start = time.perf_counter()
    ok = True
    for n in range(2, 513):
        graph = oracle.build(n)
        inv = closed_form.invariants(n)
        ok = ok and inv.edge_count == graph.edge_count()
        sizes = dict(inv.order_classes)
        degs = tuple(n - sizes[d] for d in naive_orders(n))
        ok = ok and degs == graph.degrees()
        ok = ok and inv.girth == graph.girth()
        ok = ok and inv.diameter == graph.diameter()
        ok = ok and inv.bipartite == graph.is_bipartite()
        complete = graph.edge_count() == n * (n - 1) // 2
        ok = ok and inv.complete == complete
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(3, "edge count, degrees, girth, diameter, bipartite, complete match the "
              "oracle for every n in [2, 512], under 5min", ok, elapsed)


def test_criterion_4_np_hard_closure():
    start = time.perf_counter()
    ok = True
    for n in range(2, 65):
        graph = oracle.build(n)
        expected = closed_form.clique_chromatic_number(n)
        ok = ok and len(oracle.max_clique(graph)) == expected
        ok = ok and oracle.chromatic_number(graph) == expected
    for n in range(2, 25):
        found = oracle.find_hamiltonian_cycle(oracle.build(n)) is not None
        ok = ok and closed_form.is_hamiltonian(n) == found
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(4, "clique and chromatic closure on [2, 64], hamiltonian criterion on "
              "[2, 24], under 5min", ok, elapsed)


def test_criterion_5_confirmed_claims_hold_to_512():
    start = time.perf_counter()
    summary = sweep(2, 512, jobs=JOBS).summary
    failing = [t.value for t in CONFIRMED if summary[t].fails]
    elapsed = time.perf_counter() - start
    report(5, "zero mismatches on [2, 512] for the confirmed structural claims "
              f"(failing: {failing or 'none'})", not failing, elapsed)


def test_criterion_6_refuted_claims_first_counterexamples():
    start = time.perf_counter()
    summary = sweep(2, 64, jobs=JOBS).summary
    ok = all(
        summary[t].first_counterexample == n
        for t, n in FIRST_COUNTEREXAMPLES.items()
    )
    ok = ok and summary[TheoremId.L2_6_SWAPPED].fails == 0
    elapsed = time.perf_counter() - start
    report(6, "first counterexamples on [2, 64] at n=3, 12, 10, 9, 5, 4 for the six "
              "refuted claims; swapped-case count never fails", ok, elapsed)


def test_criterion_7_byte_determinism():
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "indegraph", "sweep", "2", "64",
           "--format", "json", "--jobs", "8"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    exported = subprocess.run(
        [sys.executable, "-m", "indegraph", "export", "6", "--format", "dot"],
        capture_output=True, check=True,
    )
    ok = ok and exported.stdout == (GOLDEN / "indep_6.dot").read_bytes()
    elapsed = time.perf_counter() - start
    report(7, "parallel sweep runs byte-identical; DOT export matches the golden file",
           ok, elapsed)


def test_criterion_8_closed_form_speed_and_typed_capacity():
    closed_form.invariants(2)  # warm imports and caches off the clock
    start = time.perf_counter()
    inv = closed_form.invariants(10**9 + 7)
    elapsed = time.perf_counter() - start
    ok = elapsed < 0.1 and inv.edge_count == 10**9 + 6
    try:
        oracle.build(oracle.DEFAULT_BUILD_LIMIT + 1)
        ok = False
    except oracle.CapacityError:
        pass
    report(8, "closed-form invariants for n=10^9+7 under 100ms; oracle build beyond "
              "the limit raises the typed capacity error", ok, elapsed)


def test_criterion_9_oracle_audit_at_build_limit():
    start = time.perf_counter()
    verdicts = audit_n(20000)
    elapsed = time.perf_counter() - start
    girth = next(v for v in verdicts if v.theorem is TheoremId.T2_15)
    ok = elapsed < 10.0 and girth.ground_truth == "ORACLE"
    report(9, "audit_n(20000) at the default limits under 10s, its girth verdict "
              "from the oracle", ok, elapsed)


def test_criterion_10_number_theory_cannot_hang():
    cases = (2**61 - 1, (10**9 + 7) * (10**9 + 9), 999_999_999_999_999_989, 10**18)
    closed_form.invariants(2)  # warm imports off the clock
    times = []
    for n in cases:
        clear_zn_caches()
        start = time.perf_counter()
        closed_form.invariants(n)
        times.append(time.perf_counter() - start)
    ok = max(times) < 0.1
    refused = subprocess.run(
        [sys.executable, "-m", "indegraph", "info", str(2 * (2**89 - 1))],
        capture_output=True, text=True,
    )
    ok = ok and refused.returncode == 1
    ok = ok and refused.stderr.startswith("indegraph: capacity:")
    report(10, "closed-form invariants under 100ms each from a cold cache for 2^61-1, "
               "(10^9+7)(10^9+9), 999999999999999989 and 10^18; info on "
               "2(2^89-1) exits 1 with a capacity error", ok, max(times))


def test_criterion_11_smooth_closed_forms_from_one_factorization():
    n = 897_612_484_786_617_600  # 103,680 divisors
    closed_form.invariants(2)  # warm imports off the clock
    clear_zn_caches()
    start = time.perf_counter()
    closed_form.invariants(n)
    elapsed = time.perf_counter() - start
    ok = elapsed < 0.5
    info = subprocess.run(
        [sys.executable, "-m", "indegraph", "info", str(n), "--json"],
        capture_output=True, text=True,
    )
    ok = ok and info.returncode == 0
    report(11, "closed-form invariants for n=897612484786617600 (103680 divisors) "
               "under 0.5s from a cold cache; info --json on it exits 0", ok, elapsed)
