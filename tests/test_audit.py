import concurrent.futures
import hashlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from indegraph import audit, claims, closed_form, oracle, zn
from indegraph.audit import (
    CLAIMS,
    AuditConfig,
    Status,
    TheoremId,
    TheoremSummary,
    TheoremVerdict,
    _audit_rows,
    _verdict,
    audit_n,
    ground_truth,
    render_report,
    sweep,
)
from indegraph.invariants import INFINITE

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


@pytest.fixture
def in_process_pool(monkeypatch):
    """A fake pool that maps in-process, so no worker process is ever started.

    Returns (asked, tasks): the worker count of each pool and the inputs
    of each `map`.
    """
    asked, tasks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            tasks.append(list(iterable))
            return map(fn, tasks[-1])

    # `sweep` imports the pool class at call time, so patch it at its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return asked, tasks


def test_sweep_starts_no_more_workers_than_moduli(in_process_pool):
    asked, _ = in_process_pool
    report = sweep(2, 4, jobs=10**6)
    assert asked == [3]
    assert report == sweep(2, 4, jobs=1)


def test_strided_sweep_merges_back_in_order(in_process_pool):
    asked, tasks = in_process_pool
    serial = {hi: sweep(2, hi, jobs=1) for hi in range(2, 43)}
    for jobs in range(1, 10):
        for hi, expected in serial.items():
            asked.clear()
            tasks.clear()
            report = sweep(2, hi, jobs=jobs)
            assert report == expected, (jobs, hi)
            # A plain tuple equals the named tuple with the same fields,
            # so only the type shows that the strides were rebuilt.
            assert all(type(v) is TheoremVerdict for verdicts in report.results
                       for v in verdicts), (jobs, hi)
            if jobs == 1 or hi == 2:
                assert asked == tasks == []
                continue
            workers = min(jobs, hi - 1)
            assert asked == [workers]
            [strides] = tasks
            assert len(strides) <= 4 * workers
            assert all(type(stride) is range for stride in strides)
            assert sorted(chain.from_iterable(strides)) == list(range(2, hi + 1))


# Run in a fresh interpreter: single-n work and serial sweeps must not load
# the process pool's stack; only a sweep with more than one job does.
COLD_START = """
import contextlib, io, json, sys
from indegraph import cli
from indegraph.audit import TheoremVerdict, audit_n, sweep

POOL = ("multiprocessing", "concurrent.futures.process")
audit_n(12)
serial = sweep(2, 8)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["info", "12", "--json"]), cli.main(["audit", "12"])]
before = [m for m in POOL if m in sys.modules]
parallel = sweep(2, 8, jobs=2)
after = [m for m in POOL if m in sys.modules]
rebuilt = all(type(v) is TheoremVerdict for vs in parallel.results for v in vs)
print(json.dumps([codes, before, after, parallel == serial, rebuilt]))
"""


def test_only_a_parallel_sweep_loads_the_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    codes, before, after, equal, rebuilt = json.loads(done.stdout)
    assert codes == [0, 0]
    assert before == []
    assert after == ["multiprocessing", "concurrent.futures.process"]
    assert equal
    assert rebuilt


VERDICT_FIELDS = ("theorem", "n", "claimed", "observed", "status", "witness", "ground_truth")
SUMMARY_FIELDS = ("holds", "fails", "skipped", "first_counterexample")


def test_pool_tasks_send_back_plain_tuples():
    config = AuditConfig()
    rows = _audit_rows(range(2, 40), config)
    assert [[type(row) for row in per_n] for per_n in rows] == [
        [tuple] * len(CLAIMS) for _ in range(2, 40)
    ]
    for n, per_n in zip(range(2, 40), rows):
        expected = [tuple(getattr(v, f) for f in VERDICT_FIELDS) for v in audit_n(n, config)]
        assert per_n == expected, n
    assert b"TheoremVerdict" not in pickle.dumps(_audit_rows(range(2, 60, 7), config))


@pytest.mark.parametrize("record, fields, values", [
    (TheoremVerdict, VERDICT_FIELDS,
     (TheoremId.T2_10, 6, "13", "13", Status.MATCH, None, "ORACLE")),
    (TheoremSummary, SUMMARY_FIELDS, (3, 1, 0, 12)),
])
def test_records_build_by_position_and_keyword_and_stay_frozen(record, fields, values):
    assert record._fields == fields
    by_position = record(*values)
    by_keyword = record(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(by_position) == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, field, None)
    copy = pickle.loads(pickle.dumps(by_position))
    assert type(copy) is record
    assert copy == by_position


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


# Highly composite (15120 has 80 order classes, the most below the build
# limit), prime powers, 2p, 2pq, pq, a prime, and the build limit.
STRUCTURED_UP_TO_BUILD_LIMIT = (
    5040, 10080, 15120, 2**14, 3**9, 139**2, 2 * 9973, 2 * 13 * 769, 101 * 197,
    19997, 20000,
)


@pytest.mark.parametrize("n", STRUCTURED_UP_TO_BUILD_LIMIT)
def test_closed_form_tier_matches_oracle_tier_up_to_build_limit(n):
    assert n <= oracle.DEFAULT_BUILD_LIMIT
    _statuses_agree_between_tiers(n)
    assert oracle.build(n).girth() == closed_form.invariants(n).girth


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


def test_tier_statuses_agree_on_every_n_up_to_2048():
    by_oracle = sweep(2, 2048, AuditConfig(), jobs=2)
    closed_only = AuditConfig(oracle_build_limit=2, exact_search_limit=2,
                              hamiltonian_limit=2)
    by_closed_form = sweep(2, 2048, closed_only, jobs=2)
    assert {v.ground_truth for row in by_oracle.results for v in row
            if v.theorem is TheoremId.T2_4} == {"ORACLE"}
    assert {v.ground_truth for row in by_closed_form.results[1:] for v in row} == {
        "CLOSED_FORM"
    }
    disagreements = [
        (a.n, a.theorem, a.status, b.status)
        for row_a, row_b in zip(by_oracle.results, by_closed_form.results)
        for a, b in zip(row_a, row_b)
        if a.status is not b.status
    ]
    assert disagreements == []


# Above the build limit: a prime, where no residue is of the "neither"
# kind, and 2p and pq, where some are.
UNSMOOTH_BEYOND_BUILD_LIMIT = (10**9 + 7, 2 * (10**9 + 7), 100003 * 100019)
LIMITS_OF_2 = AuditConfig(oracle_build_limit=2, exact_search_limit=2, hamiltonian_limit=2)
# Small n, where the "neither" run of order classes (n = 2, 3), the unit
# run (n = 2), or neither run is empty.
SMALL_UNDER_LIMITS_OF_2 = (2, 3, 4, 6, 8, 9, 12)


@pytest.mark.parametrize(
    "n, config",
    [pytest.param(n, None, id=str(n)) for n in SMOOTH_MODULI + UNSMOOTH_BEYOND_BUILD_LIMIT]
    + [pytest.param(n, LIMITS_OF_2, id=f"limits-2-{n}") for n in SMALL_UNDER_LIMITS_OF_2],
)
@pytest.mark.usefixtures("empty_factorize_cache")
def test_closed_form_audit_matches_per_divisor_reference(n, config, monkeypatch):
    if n == 2:
        # Limits of 2 still leave n = 2 to the oracle; make the closed
        # forms its ground truth.
        monkeypatch.setattr(audit, "ground_truth", lambda m, cfg: closed_form.invariants(m))
    verdicts = audit_n(n, config)
    assert {v.ground_truth for v in verdicts} == {"CLOSED_FORM"}

    def reference(m, cfg):
        # Per-item degrees make _degrees evaluate one claim per order
        # class, the reference for the closed-form tier's kind runs.
        truth = per_divisor_invariants(m)
        items = tuple(((m // d) % m, d, m - size, size) for d, size in truth.order_classes)
        return replace(truth, degree_items=items)

    monkeypatch.setattr(audit, "ground_truth", reference)
    assert verdicts == audit_n(n, config)


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

    def counted(kind, m):
        calls.append(kind)
        return claim(kind, m)

    monkeypatch.setattr(claims, "degree_claim", counted)
    verdicts = audit_n(n, config)
    assert verdict(verdicts, TheoremId.T2_7).ground_truth == "CLOSED_FORM"
    assert 1 <= len(calls) <= 3
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("n", (2, 12, 30, 97, 360))
def test_oracle_tier_looks_up_one_kind_per_order(n, monkeypatch):
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    counting(claims, "degree_claim")
    counting(zn, "order_kind")
    verdicts = audit_n(n)
    assert verdict(verdicts, TheoremId.T2_7).ground_truth == "ORACLE"
    assert calls == {"degree_claim": n, "order_kind": zn.divisor_count(n)}


def test_degree_item_with_a_foreign_order_raises():
    truth = ground_truth(12, AuditConfig())
    vertex, order, degree, size = truth.degree_items[5]
    doctored_items = list(truth.degree_items)
    doctored_items[5] = (vertex, 5, degree, size)
    [t2_7] = [claim for claim in CLAIMS if claim.theorem is TheoremId.T2_7]
    with pytest.raises(ValueError, match="does not divide"):
        _verdict(t2_7, 12, replace(truth, degree_items=tuple(doctored_items)), True)


@pytest.mark.parametrize("exact, hamiltonian", [(2, 64), (64, 2), (2, 2), (64, 64)])
def test_ground_truth_fills_declined_searches_from_the_closed_forms(exact, hamiltonian):
    config = AuditConfig(exact_search_limit=exact, hamiltonian_limit=hamiltonian)
    record = audit.oracle_record(30, config)
    fill = {}
    if exact < 30:
        parts = closed_form.clique_chromatic_number(30)
        fill.update(exact_tier="CLOSED_FORM", clique_number=parts, chromatic_number=parts)
    if hamiltonian < 30:
        fill.update(hamiltonian_tier="CLOSED_FORM",
                    hamiltonian=closed_form.is_hamiltonian(30))
    assert ground_truth(30, config) == replace(record, **fill)


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


# Text as the claims and witnesses might hold it: non-ASCII, quotes,
# backslashes, control characters, empty strings.
report_text = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f \u00e9\u2028\u20ac\U0001f600a1')
                      | st.characters(), max_size=12)


@st.composite
def hand_built_reports(draw):
    lo = draw(st.integers(min_value=2, max_value=10**6))
    theorems = draw(st.lists(st.sampled_from(list(TheoremId)), min_size=1, max_size=4))
    results = tuple(
        tuple(
            audit.TheoremVerdict(
                theorem, n, draw(report_text), draw(report_text),
                draw(st.sampled_from(list(Status))), draw(st.none() | report_text),
                draw(report_text),
            )
            for theorem in theorems
        )
        for n in range(lo, lo + draw(st.integers(min_value=0, max_value=3)))
    )
    limits = st.integers(min_value=2, max_value=10**18)
    config = AuditConfig(draw(limits), draw(limits), draw(limits), draw(st.booleans()))
    counts = st.integers(min_value=0, max_value=600)
    summary = {
        theorem: audit.TheoremSummary(draw(counts), draw(counts), draw(counts),
                                      draw(st.none() | st.integers(2, 600)))
        for theorem in theorems
    }
    return audit.SweepReport(lo, lo + max(len(results) - 1, 0), config, results, summary)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hand_built_reports())
def test_json_report_equals_json_dumps_of_the_payload(report):
    payload = {
        "range": [report.lo, report.hi],
        "config": {
            "oracle_build_limit": report.config.oracle_build_limit,
            "exact_search_limit": report.config.exact_search_limit,
            "hamiltonian_limit": report.config.hamiltonian_limit,
            "closed_form_fallback": report.config.closed_form_fallback,
        },
        "results": [
            {
                "n": verdicts[0].n,
                "verdicts": [
                    {
                        "theorem": v.theorem.value,
                        "status": v.status.value,
                        "claimed": v.claimed,
                        "observed": v.observed,
                        "witness": v.witness,
                        "ground_truth": v.ground_truth,
                    }
                    for v in verdicts
                ],
            }
            for verdicts in report.results
        ],
        "summary": {
            theorem.value: {
                "holds": s.holds,
                "fails": s.fails,
                "first_counterexample": s.first_counterexample,
            }
            for theorem, s in report.summary.items()
        },
    }
    assert render_report(report, "json") == json.dumps(payload, indent=2)


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
    report = sweep(2, 3)
    for fmt in ("xml", "markdown", "MD"):
        with pytest.raises(ValueError):
            render_report(report, fmt)


# -- doctored records ------------------------------------------------------------

DOCTORED_NS = (2, 3, 4, 5, 6, 8, 9, 12, 15, 30, 35, 49, 97, 100)
LIMITS_2 = AuditConfig(oracle_build_limit=2, exact_search_limit=2, hamiltonian_limit=2)
FLAGS = ("connected", "complete", "star", "bipartite", "multipartite")


def _swap(value, a, b):
    return b if value == a else a if value == b else value


def doctored(truth):
    """The record, then one copy per field changed so that claims on it fail."""
    return [
        truth,
        replace(truth, involutions=truth.involutions + 1),
        replace(truth, neither=truth.neither + 1),
        replace(truth, edge_count=truth.edge_count + 1),
        *(replace(truth, **{flag: not getattr(truth, flag)}) for flag in FLAGS),
        replace(truth, girth=_swap(truth.girth, 3, 4)),
        replace(truth, girth=_swap(truth.girth, 3, INFINITE)),
        replace(truth, diameter=3),
        replace(truth, diameter=INFINITE),
        replace(truth, partite_count=truth.partite_count + 1),
        replace(truth, clique_number=truth.clique_number + 1),
        replace(truth, chromatic_number=truth.chromatic_number + 1),
        replace(truth, hamiltonian=not truth.hamiltonian),
    ]


def test_verdicts_on_doctored_records_are_pinned():
    # On [2, 512] the real records reach MISMATCH on 8 of the 20 claims; these
    # reach every claim's mismatch text and witness, under both tiers and
    # with the closed-form fallback on and off.
    reprs = []
    for n in DOCTORED_NS:
        for config in (AuditConfig(), LIMITS_2):
            for truth in doctored(ground_truth(n, config)):
                for claim in CLAIMS:
                    for fallback in (True, False):
                        v = _verdict(claim, n, truth, fallback)
                        assert v.witness is None or isinstance(v.witness, str), v
                        reprs.append(repr(v))
    assert len(reprs) == 19040
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == (
        "390a0a122f9f4b7bc96baf1a74ff7b0484ae996a6d507ec9c6eed5a69f5dd80a"
    )


def test_audit_reaches_claims_and_zn_through_module_attributes(monkeypatch):
    # Tracing and profiling rebind these module attributes; the audit must
    # look the functions up there at call time, not hold references.
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    targets = [
        (claims, name) for name, value in vars(claims).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__ == claims.__name__
    ]
    targets += [(zn, "is_prime"), (zn, "divisor_count")]
    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    names = {name for _, name in targets}
    for n in (12, 35):
        for config in (AuditConfig(), LIMITS_2):
            calls.clear()
            audit_n(n, config)
            assert set(calls) == names, (n, config)
