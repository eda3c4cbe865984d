"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402  (puts the checkout's src on the path)
from spans import Tracer  # noqa: E402

from indegraph import audit, claims, zn  # noqa: E402


# -- generator -----------------------------------------------------------------


def test_same_seed_same_inputs():
    assert gen.oracle_mid(7) == gen.oracle_mid(7)
    assert gen.closed_form_large(7) == gen.closed_form_large(7)
    assert gen.closed_form_large(7) != gen.closed_form_large(8)
    assert gen.oracle_mid(1) != gen.oracle_mid(2)


def test_miller_rabin_matches_trial_division():
    for n in range(-2, 5000):
        assert gen.is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n**0.5) + 1)))
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751):
        assert not gen.is_prime(carmichael)
    assert gen.is_prime(2**61 - 1)
    assert not gen.is_prime((2**31 - 1) * (2**61 - 1))


def _check_modulus(m: gen.Modulus) -> None:
    assert prod(p**e for p, e in m.factors) == m.n
    assert all(gen.is_prime(p) and e >= 1 for p, e in m.factors)


def test_oracle_mid_classes():
    for seed in range(20):
        moduli = gen.oracle_mid(seed)
        assert [m.kind for m in moduli] == ["prime", "prime-square", "2p", "pq", "highly-composite"]
        for m in moduli:
            _check_modulus(m)
            assert 1024 <= m.n <= 4096
            if m.kind != "prime-square":
                assert gen.MID_WINDOW[0] <= m.n <= gen.MID_WINDOW[1]
        prime, square, two_p, pq, composite = (m.factor_dict() for m in moduli)
        assert len(prime) == 1 and list(square.values()) == [2]
        assert two_p.get(2) == 1 and len(two_p) == 2
        assert pq.get(gen.MID_PQ_SMALL) == 1 and len(pq) == 2
        assert composite == gen.MID_HIGHLY_COMPOSITE


def test_closed_form_large_classes_and_no_repeats():
    moduli = gen.closed_form_large(3)
    assert len({m.n for m in moduli}) == len(moduli) == 3 * gen.STRATA
    for m in moduli:
        _check_modulus(m)
        factors = m.factor_dict()
        if m.kind == "prime":
            assert 10**11 <= m.n <= 10**12 and len(factors) == 1
        elif m.kind == "semiprime":
            assert len(factors) == 2 and all(10**5 <= p <= 10**6 for p in factors)
        else:
            assert m.n <= 10**18 and max(factors) < 60
            assert 2000 <= gen.divisor_count(factors) <= 6000


# -- checks ----------------------------------------------------------------------


def test_facts_agree_with_the_package():
    for n in (2, 3, 12, 30, 97, 360, 1001):
        m = gen.modulus("any", zn.factorize(n))
        want = checks.facts(m.factor_dict())
        phi = sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
        assert want["phi"] == phi
        assert want["parts"] == len(zn.divisors(n))
        assert want["edges"] == (n * n - sum(zn.euler_phi(d) ** 2 for d in zn.divisors(n))) // 2
        assert checks.claimed_edges(n, phi) == claims.edge_count(n)


def _small_sweep():
    ns = range(2, 31)
    cfg = audit.AuditConfig()
    report = audit.sweep(ns[0], ns[-1], cfg, jobs=1)
    digests = {fmt: checks.digest(audit.render_report(report, fmt)) for fmt in metrics.RENDER_FORMATS}
    first = {t.value: s.first_counterexample for t, s in report.summary.items()}
    return ns, cfg, report, digests, first


def test_flipped_digest_drives_fail_ratio_above_zero():
    ns, cfg, _, digests, first = _small_sweep()
    run = workloads.Run(seed=0, seconds=0, trace=False)
    ledger = run.ledger
    workloads.sweep_pass(run, ns, cfg, digests=digests, first=first)
    assert ledger.failed == 0 and ledger.attempted == len(ns) + 4

    flipped = dict(digests, json=("0" if digests["json"][0] != "0" else "1") + digests["json"][1:])
    run = workloads.Run(seed=0, seconds=0, trace=False)
    ledger = run.ledger
    workloads.sweep_pass(run, ns, cfg, digests=flipped, first=first)
    assert ledger.failed / ledger.attempted > 0
    assert ledger.reasons[0].startswith("render json")


def test_changed_verdict_drives_fail_ratio_above_zero():
    ns, cfg, report, digests, first = _small_sweep()
    results = list(report.results)
    results[5] = results[6]
    changed = dataclasses.replace(report, results=tuple(results))
    run = workloads.Run(seed=0, seconds=0, trace=False)
    ledger = run.ledger
    workloads.sweep_pass(run, ns, cfg, report=changed, digests=digests, first=first)
    assert ledger.failed > 0
    assert ledger.reasons[0].startswith(f"audit_n({ns[5]})")


def test_wrong_factorization_drives_fail_ratio_above_zero():
    p, q = 100003, 100019
    right = gen.modulus("semiprime", {p: 1, q: 1})
    run = workloads.Run(seed=0, seconds=0, trace=False)
    ledger = run.ledger
    workloads.closed_form_pass(run, workloads.CacheMeter(), [right])
    assert (ledger.attempted, ledger.failed) == (2, 0)

    wrong = gen.Modulus(p * q, ((p * q, 1),), "prime")
    run = workloads.Run(seed=0, seconds=0, trace=False)
    ledger = run.ledger
    workloads.closed_form_pass(run, workloads.CacheMeter(), [wrong])
    assert ledger.failed / ledger.attempted > 0


def test_oracle_mid_check_compares_with_the_closed_form_tier():
    verdicts = audit.audit_n(100)
    reference = audit.audit_n(100, audit.AuditConfig(oracle_build_limit=2, exact_search_limit=2,
                                                    hamiltonian_limit=2))
    assert checks.check_statuses(verdicts, reference) is None
    assert checks.check_statuses(verdicts[:-1], reference) is not None


# -- tracing ---------------------------------------------------------------------


def test_tracer_sees_calls_through_imported_names_and_restores_them():
    original = zn.is_prime
    tracer = Tracer()
    tracer.install()
    try:
        assert claims.is_prime is not original
        audit.audit_n(12)
    finally:
        tracer.uninstall()
    assert zn.is_prime is original and claims.is_prime is original
    calls, self_s = tracer.summary()
    assert calls["audit.audit_n"] == 1
    assert calls["oracle.girth"] == 1
    assert calls["claims.degree_claim"] == 12
    assert calls["zn.is_prime"] >= 5
    assert tracer.is_prime_args == {12}
    assert all(v >= 0 for v in self_s.values())
    root = sum(
        tracer.span_end[i] - tracer.span_start[i]
        for i in range(len(tracer.span_start))
        if tracer.span_parent[i] < 0
    )
    assert sum(self_s.values()) == pytest.approx(root / 1e9)


def test_render_spans_are_split_by_format():
    report = audit.sweep(2, 10)
    tracer = Tracer()
    tracer.install()
    try:
        texts = {fmt: audit.render_report(report, fmt) for fmt in metrics.RENDER_FORMATS}
    finally:
        tracer.uninstall()
    calls, _ = tracer.summary()
    for fmt, text in texts.items():
        assert calls[f"audit.render_report.{fmt}"] == 1
        assert tracer.render_bytes[fmt] == len(text.encode("utf-8"))


# -- contract ----------------------------------------------------------------------


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
