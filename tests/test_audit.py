import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from indegraph import audit, claims, closed_form, oracle
from indegraph.audit import (
    AuditConfig,
    Status,
    TheoremId,
    audit_n,
    render_report,
    sweep,
)

from conftest import SMOOTH_MODULI, per_divisor_invariants


def verdict(verdicts, theorem):
    return next(v for v in verdicts if v.theorem is theorem)


def test_audit_order_and_coverage():
    verdicts = audit_n(6)
    assert [v.theorem for v in verdicts] == list(TheoremId)
    assert all(v.n == 6 for v in verdicts)


@pytest.mark.parametrize(
    "field", ("oracle_build_limit", "exact_search_limit", "hamiltonian_limit")
)
def test_config_limits_are_at_least_two(field):
    with pytest.raises(ValueError, match=field):
        AuditConfig(**{field: 1})
    assert getattr(AuditConfig(**{field: 2}), field) == 2


def test_audit_rejects_bad_modulus():
    with pytest.raises(ValueError):
        audit_n(1)


def test_edge_count_verdicts():
    ok = verdict(audit_n(6), TheoremId.T2_10)
    assert ok.status is Status.MATCH
    assert (ok.claimed, ok.observed) == ("13", "13")
    bad = verdict(audit_n(10), TheoremId.T2_10)
    assert bad.status is Status.MISMATCH
    assert (bad.claimed, bad.observed) == ("37", "33")
    assert "33 unordered pairs" in bad.witness


def test_hamiltonian_verdicts():
    nine = verdict(audit_n(9), TheoremId.T2_17)
    assert nine.status is Status.MISMATCH
    assert nine.observed == "not hamiltonian"
    assert "exhaustive" in nine.witness
    six = verdict(audit_n(6), TheoremId.T2_17)
    assert six.status is Status.MATCH
    assert six.witness.startswith("cycle ")
    prime = verdict(audit_n(7), TheoremId.T2_17)
    assert prime.status is Status.NOT_APPLICABLE
    iff_prime = verdict(audit_n(7), TheoremId.R2_18)
    assert iff_prime.status is Status.MISMATCH  # star cannot be hamiltonian


def test_degree_verdict_witness():
    bad = verdict(audit_n(12), TheoremId.T2_7)
    assert bad.status is Status.MISMATCH
    assert "vertex 2 (order 6) has degree 10" in bad.witness


def test_n2_is_all_match_or_not_applicable():
    for v in audit_n(2):
        assert v.status in (Status.MATCH, Status.NOT_APPLICABLE), v


def test_not_applicable_reasons():
    by_id = {v.theorem: v for v in audit_n(2)}
    assert by_id[TheoremId.L2_6].status is Status.NOT_APPLICABLE
    assert "degenerates" in by_id[TheoremId.L2_6].witness
    assert by_id[TheoremId.T4_1].status is Status.NOT_APPLICABLE
    semiprime = verdict(audit_n(12), TheoremId.C3_4)
    assert semiprime.status is Status.NOT_APPLICABLE
    ok = verdict(audit_n(15), TheoremId.C3_4)
    assert ok.status is Status.MATCH
    assert ok.observed == "complete 4-partite"


def test_perfectness_inversion_annotated():
    v = verdict(audit_n(3), TheoremId.T4_4)
    assert v.status is Status.MATCH  # both claimed formulas give 2 at n=3
    v = verdict(audit_n(9), TheoremId.T4_4)
    assert v.status is Status.MISMATCH
    assert "standard usage reversed" in v.witness


def test_sweep_first_counterexamples():
    report = sweep(2, 20)
    first = {
        t.value: s.first_counterexample for t, s in report.summary.items()
    }
    assert first["L2.6"] == 3
    assert first["L2.6-swapped"] is None
    assert first["T2.7"] == 12
    assert first["T2.10"] == 10
    assert first["T2.17"] == 9
    assert first["R2.18"] == 5
    assert first["T4.1"] == 5
    assert first["T4.3"] == 4
    assert first["T4.4"] == 4
    for always_true in ("L2.5", "T2.4", "T2.12", "C2.13", "T2.14", "T2.15",
                        "T2.16", "T3.1", "T3.2", "T3.3", "C3.4"):
        assert first[always_true] is None, always_true


def test_sweep_bounds_checked():
    with pytest.raises(ValueError):
        sweep(1, 5)
    with pytest.raises(ValueError):
        sweep(5, 4)
    with pytest.raises(ValueError):
        sweep(2, 8, jobs=0)
    with pytest.raises(ValueError):
        sweep(2, 8).verdicts_for(9)


def test_sweep_parallel_equals_serial():
    serial = sweep(2, 30, jobs=1)
    parallel = sweep(2, 30, jobs=4)
    assert serial.results == parallel.results
    assert serial.summary == parallel.summary


def test_oracle_tier_never_calls_the_closed_forms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed form called inside the oracle's limits")

    for name, value in vars(closed_form).items():
        if (inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == closed_form.__name__):
            monkeypatch.setattr(closed_form, name, refuse)
    for n in range(2, 25):
        assert {v.ground_truth for v in audit_n(n)} == {"ORACLE"}


def test_one_exact_clique_search_per_audit(monkeypatch):
    calls = []
    search = oracle.max_clique

    def counted(graph, *args, **kwargs):
        calls.append(graph.n)
        return search(graph, *args, **kwargs)

    monkeypatch.setattr(oracle, "max_clique", counted)
    for n in range(3, 65):
        audit_n(n)
    assert calls == list(range(3, 65))


def test_ground_truth_tiers():
    config = AuditConfig(oracle_build_limit=8, exact_search_limit=8,
                         hamiltonian_limit=8)
    small = verdict(audit_n(6, config), TheoremId.T2_10)
    assert small.ground_truth == "ORACLE"
    large = verdict(audit_n(50, config), TheoremId.T2_10)
    assert large.ground_truth == "CLOSED_FORM"
    assert large.status is Status.MISMATCH  # formula still audited


# Highly composite, prime powers, 2p, pq, a prime, and the build limit.
STRUCTURED_UP_TO_BUILD_LIMIT = (
    5040, 10080, 2**14, 3**9, 139**2, 2 * 9973, 101 * 197, 19997, 20000,
)


@pytest.mark.parametrize("n", STRUCTURED_UP_TO_BUILD_LIMIT)
def test_closed_form_tier_matches_oracle_tier_up_to_build_limit(n):
    assert n <= oracle.DEFAULT_BUILD_LIMIT
    _statuses_agree_between_tiers(n)
    assert oracle.build(n).girth() == closed_form.girth(n)


def _statuses_agree_between_tiers(n):
    below_n = AuditConfig(oracle_build_limit=n - 1, exact_search_limit=n - 1,
                          hamiltonian_limit=n - 1)
    by_oracle = audit_n(n)
    by_closed_form = audit_n(n, below_n)
    assert verdict(by_oracle, TheoremId.T2_15).ground_truth == "ORACLE"
    assert {v.ground_truth for v in by_closed_form} == {"CLOSED_FORM"}
    assert [(v.theorem, v.status) for v in by_oracle] == [
        (v.theorem, v.status) for v in by_closed_form
    ]


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(min_value=513, max_value=oracle.DEFAULT_BUILD_LIMIT))
def test_closed_form_tier_matches_oracle_tier_on_sampled_n(n):
    _statuses_agree_between_tiers(n)


@pytest.mark.parametrize("n", SMOOTH_MODULI)
@pytest.mark.usefixtures("empty_factorize_cache")
def test_closed_form_audit_matches_per_divisor_reference(n, monkeypatch):
    verdicts = audit_n(n)
    assert {v.ground_truth for v in verdicts} == {"CLOSED_FORM"}

    def reference(m, config):
        assert m > config.oracle_build_limit
        return per_divisor_invariants(m)

    monkeypatch.setattr(audit, "ground_truth", reference)
    assert verdicts == audit_n(n)


@pytest.mark.parametrize(
    "n, config",
    [
        pytest.param(897612484786617600, None, id="beyond-build-limit"),
        pytest.param(720720, AuditConfig(oracle_build_limit=2, exact_search_limit=2,
                                         hamiltonian_limit=2), id="small-limits"),
    ],
)
def test_closed_form_tier_evaluates_one_degree_claim_per_kind(n, config, monkeypatch):
    calls = []
    claim = claims.degree_claim

    def counted(a, m):
        calls.append(a)
        return claim(a, m)

    monkeypatch.setattr(claims, "degree_claim", counted)
    verdicts = audit_n(n, config)
    assert verdict(verdicts, TheoremId.T2_7).ground_truth == "CLOSED_FORM"
    assert 1 <= len(calls) <= 3


def test_fallback_disabled_yields_skips():
    config = AuditConfig(oracle_build_limit=8, exact_search_limit=8,
                         hamiltonian_limit=8, closed_form_fallback=False)
    verdicts = audit_n(50, config)
    edge = verdict(verdicts, TheoremId.T2_10)
    assert edge.status is Status.SKIPPED_ORACLE_LIMIT
    assert edge.claimed == "1021"  # claim still evaluated
    assert edge.observed == ""
    clique = verdict(verdicts, TheoremId.T4_1)
    assert clique.status is Status.SKIPPED_ORACLE_LIMIT
    report = sweep(40, 50, config)
    assert report.summary[TheoremId.T2_10].skipped == 11
    assert not report.has_mismatch()


def test_exact_limit_between_tiers():
    config = AuditConfig(exact_search_limit=8, hamiltonian_limit=8)
    v = verdict(audit_n(30, config), TheoremId.T4_1)
    assert v.ground_truth == "CLOSED_FORM"
    assert v.status is Status.MISMATCH


def test_json_report_round_trips():
    report = sweep(2, 20)
    text = render_report(report, "json")
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2) == text
    assert parsed["range"] == [2, 20]
    assert parsed["config"]["oracle_build_limit"] == 20000
    assert "jobs" not in parsed["config"]
    ns = [entry["n"] for entry in parsed["results"]]
    assert ns == list(range(2, 21))
    t210 = parsed["summary"]["T2.10"]
    assert t210["fails"] > 0 and t210["first_counterexample"] == 10


def test_csv_report_contains_pinned_row():
    text = render_report(sweep(2, 12), "csv")
    lines = text.split("\n")
    assert lines[0] == "n,theorem,status,claimed,observed"
    assert "10,T2.10,MISMATCH,37,33" in lines
    # every row splits into exactly five cells; no field smuggles commas
    assert all(len(line.split(",")) == 5 for line in lines)


def test_markdown_report_sections():
    text = render_report(sweep(2, 12), "md")
    assert text.startswith("# Claim audit")
    assert "| T2.10 |" in text
    assert "## Mismatches" in text
    assert "- T2.10 first fails at n=10: claimed 37, observed 33." in text


def test_markdown_no_mismatch_case():
    config = AuditConfig()
    text = render_report(sweep(2, 2, config), "md")
    assert "No mismatches in range." in text


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(sweep(2, 3), "xml")
