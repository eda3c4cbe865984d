"""Claim-by-claim audit of I_G(Z_n) against ground truth.

`ground_truth` builds one record of facts per n: from the brute-force
oracle while n sits inside the configured limits, from the
oracle-validated closed forms beyond them. Each claim is one row of
`CLAIMS`: a check, an `applies` rule, the tier field the check reads and
`witness_on_match`. `_equals` builds fifteen of the checks from a claimed
value as a function of n, the record field it must equal, a rendering
and a witness. T2.7, T2.16, T4.4 and T3.3/C3.4 keep checks of their own:
a degree per residue kind, a bound, a label over two fields, and a
structure together with a count. `_verdict` builds a witness only when
the verdict shows it and records the tier behind each verdict, so a
skeptical reader can filter the closed-form ones out; with the fallback
disabled, checks on closed-form facts surface as SKIPPED_ORACLE_LIMIT.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from indegraph import claims, closed_form, oracle, zn
from indegraph.invariants import (
    CLOSED_FORM,
    ORACLE,
    InvariantSet,
    length_str,
    profile_str,
)


class TheoremId(Enum):
    L2_5 = "L2.5"
    L2_6 = "L2.6"
    L2_6_SWAPPED = "L2.6-swapped"
    T2_4 = "T2.4"
    T2_7 = "T2.7"
    T2_10 = "T2.10"
    T2_12 = "T2.12"
    C2_13 = "C2.13"
    T2_14 = "T2.14"
    T2_15 = "T2.15"
    T2_16 = "T2.16"
    T2_17 = "T2.17"
    R2_18 = "R2.18"
    T3_1 = "T3.1"
    T3_2 = "T3.2"
    T3_3 = "T3.3"
    C3_4 = "C3.4"
    T4_1 = "T4.1"
    T4_3 = "T4.3"
    T4_4 = "T4.4"


class Status(Enum):
    MATCH = "MATCH"
    MISMATCH = "MISMATCH"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    SKIPPED_ORACLE_LIMIT = "SKIPPED_ORACLE_LIMIT"


# The renderers read each member's text from `_value_`: `Enum.value` is a
# Python-level property, and an Enum member hashes in Python, while a
# plain attribute and a str key cost neither. JSON reads the text already
# encoded.
_JSON_TEXT = {
    member._value_: encode_basestring_ascii(member._value_)
    for member in (*TheoremId, *Status)
}


@dataclass(frozen=True)
class AuditConfig:
    oracle_build_limit: int = oracle.DEFAULT_BUILD_LIMIT
    exact_search_limit: int = oracle.DEFAULT_EXACT_SEARCH_LIMIT
    hamiltonian_limit: int = oracle.DEFAULT_HAMILTONIAN_LIMIT
    closed_form_fallback: bool = True

    def __post_init__(self) -> None:
        for name in ("oracle_build_limit", "exact_search_limit", "hamiltonian_limit"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")


# Named tuples, not dataclasses: a sweep over [2, 512] builds 10,220
# verdicts, and a named tuple builds in under half the time. Fields:
# theorem (TheoremId), n, claimed, observed, status (Status), witness
# (str or None), ground_truth (the tier).
TheoremVerdict = namedtuple(
    "TheoremVerdict", "theorem n claimed observed status witness ground_truth"
)
# Fields: holds, fails, skipped, first_counterexample (an n or None).
TheoremSummary = namedtuple("TheoremSummary", "holds fails skipped first_counterexample")


@dataclass(frozen=True)
class SweepReport:
    lo: int
    hi: int
    config: AuditConfig
    results: tuple[tuple[TheoremVerdict, ...], ...]
    summary: dict[TheoremId, TheoremSummary]

    def verdicts_for(self, n: int) -> tuple[TheoremVerdict, ...]:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"n={n} outside swept range [{self.lo}, {self.hi}]")
        return self.results[n - self.lo]

    def has_mismatch(self) -> bool:
        return any(s.fails for s in self.summary.values())


# -- ground truth ---------------------------------------------------------


def oracle_record(n: int, config: AuditConfig) -> InvariantSet:
    """The oracle's record for n under the config's limits.

    A search beyond its limit is left as None; raises CapacityError when
    n exceeds the build limit.
    """
    return oracle.invariants(
        oracle.build(n, limit=config.oracle_build_limit),
        exact_limit=config.exact_search_limit,
        hamiltonian_limit=config.hamiltonian_limit,
    )


def ground_truth(n: int, config: AuditConfig) -> InvariantSet:
    """Every fact about n: the oracle's inside the build limit, else the closed forms'.

    A search the oracle declines (clique and chromatic number beyond the
    exact-search limit, Hamiltonicity beyond its own) is filled in from
    the closed forms, with its tier set to CLOSED_FORM. Whether facts
    from that tier may decide a verdict is the audit's call
    (`AuditConfig.closed_form_fallback`), not this function's.
    """
    if n > config.oracle_build_limit:
        return closed_form.invariants(n)
    truth = oracle_record(n, config)
    fill: dict[str, object] = {}
    if truth.exact_tier is None:
        parts = closed_form.clique_chromatic_number(n)
        fill.update(exact_tier=CLOSED_FORM, clique_number=parts, chromatic_number=parts)
    if truth.hamiltonian_tier is None:
        fill.update(hamiltonian_tier=CLOSED_FORM, hamiltonian=closed_form.is_hamiltonian(n))
    return replace(truth, **fill) if fill else truth


# -- the claims ------------------------------------------------------------

CheckResult = tuple[str, str, bool, Callable[[], str | None]]
Check = Callable[[int, InvariantSet], CheckResult]


def _always(n: int) -> None:
    """The `applies` of a claim whose hypotheses hold for every n."""


@dataclass(frozen=True)
class Claim:
    """One audited claim, as a row of data.

    `check` returns (claimed, observed, holds, witness); the witness is a
    function of no arguments, called only on a mismatch, or on a match too
    when `witness_on_match` is set. `tier` names the record field holding
    the tier of the facts `check` reads.
    """

    theorem: TheoremId
    gloss: str
    check: Check
    applies: Callable[[int], str | None] = _always
    tier: str = "tier"
    witness_on_match: bool = False


def _equals(
    claimed: Callable[[int], object],
    field: str,
    witness: Callable[[int, InvariantSet], str | None],
    show: Callable[[object], str] = str,
) -> Check:
    """The check that `claimed(n)` equals the record's `field`; `show` renders both.

    `claimed` looks its formula up when called (`lambda n: claims.girth(n)`,
    never `claims.girth` itself), so that tracers and profilers that
    rebind the layers' module attributes see every call.
    """

    def check(n: int, truth: InvariantSet) -> CheckResult:
        want, got = claimed(n), getattr(truth, field)
        return show(want), show(got), want == got, partial(witness, n, truth)

    return check


def _complete_partite(
    parts: Callable[[int], int],
    suffix: str,
    witness: Callable[[int, InvariantSet], str],
) -> Check:
    """The check that the graph is complete parts(n)-partite; `suffix` ends the claim."""

    def check(n: int, truth: InvariantSet) -> CheckResult:
        k = parts(n)
        if truth.multipartite:
            observed = f"complete {truth.partite_count}-partite"
        else:
            observed = "adjacency deviates from the order-class pattern"
        ok = truth.multipartite and truth.partite_count == k
        return f"complete {k}-partite{suffix}", observed, ok, partial(witness, n, truth)

    return check


def _is(word: str) -> Callable[[object], str]:
    """Renders a truth value as `word` or `not word`."""
    return lambda value: word if value else f"not {word}"


def _above_2(n: int) -> str | None:
    return "the claim assumes n > 2" if n == 2 else None


def _three_way_split(n: int) -> str | None:
    if n == 2:
        return "units and involutions overlap at n=2; the three-way split degenerates"
    return None


def _composite_from_4(n: int) -> str | None:
    return "the claim covers composite n >= 4 only" if n < 4 or zn.is_prime(n) else None


def _prime(n: int) -> str | None:
    return None if zn.is_prime(n) else "the claim covers prime n only"


def _composite(n: int) -> str | None:
    return "the claim covers composite n only" if zn.is_prime(n) else None


def _two_distinct_primes(n: int) -> str | None:
    if list(zn.factorize(n).values()) != [1, 1]:
        return "n is not a product of two distinct primes"
    return None


def _neither_witness(n: int, truth: InvariantSet) -> str:
    return f"enumeration finds {truth.neither} residues outside units and involutions"


def _completeness_witness(n: int, truth: InvariantSet) -> str:
    return f"the graph has {truth.edge_count} of {n * (n - 1) // 2} possible edges"


def _ham_witness(n: int, truth: InvariantSet) -> str:
    if truth.hamiltonian_tier == ORACLE:
        return "exhaustive backtracking over cycles through vertex 0 found none"
    phi = zn.euler_phi(n)
    return f"the unit class holds {phi} of {n} vertices, more than half"


def _iff_witness(n: int, truth: InvariantSet) -> str:
    return _ham_witness(n, truth) + "; biconditional reading of the claim"


def _cycle_witness(n: int, truth: InvariantSet) -> str | None:
    if not truth.hamiltonian:
        return _ham_witness(n, truth)
    if truth.hamiltonian_cycle is None:
        return None
    return "cycle " + " ".join(map(str, truth.hamiltonian_cycle))


def _clique_witness(n: int, truth: InvariantSet) -> str:
    size = truth.clique_number
    if truth.clique_vertices:
        found = " ".join(map(str, truth.clique_vertices))
        return f"exact search finds maximum clique {{{found}}} of size {size}"
    return f"one vertex from each of the {size} order classes is a maximum clique"


def _chromatic_witness(n: int, truth: InvariantSet) -> str:
    colors = truth.chromatic_number
    if truth.exact_tier == ORACLE:
        return f"exact search proves {colors} colors necessary and sufficient"
    return f"one color per order class: {colors} colors, clique-tight"


def _degrees(n: int, truth: InvariantSet) -> CheckResult:
    phi = zn.euler_phi(n)
    claimed = f"{n - 1} (involutions) / {n - phi} (units) / {phi + 2} or {phi + 1} (rest)"
    first_bad: tuple[int, int, int, tuple[int, ...]] | None = None
    deviating = 0
    items = truth.degree_items
    if items is None:
        # One class per order d, represented by (n // d) % n. The classes
        # ascend by order, so their kinds form three runs, any of them
        # empty: INVOLUTION (the first class and maybe the second),
        # NEITHER, UNIT (maybe the last class). The claim depends only
        # on the kind, so it is evaluated once per non-empty run.
        classes = truth.order_classes
        neither_from = 1 + (zn.order_kind(classes[1][0], n) == zn.INVOLUTION)
        unit_from = len(classes) - (zn.order_kind(classes[-1][0], n) == zn.UNIT)
        runs = (
            (zn.INVOLUTION, classes[:neither_from]),
            (zn.NEITHER, classes[neither_from:unit_from]),
            (zn.UNIT, classes[unit_from:]),
        )
        for kind, run in runs:
            if not run:
                continue
            claim = claims.degree_claim(kind, n)
            # A class of size s has degree n - s.
            claimed_sizes = {n - degree for degree in claim}
            bad = [cls for cls in run if cls[1] not in claimed_sizes]
            if bad:
                deviating += sum(map(itemgetter(1), bad))
                if first_bad is None:
                    order, size = bad[0]
                    first_bad = ((n // order) % n, order, n - size, claim)
    else:
        # The oracle tier evaluates the claim once per vertex; the
        # benchmark's tests pin that call count. The phi(n) inside each
        # call is a hit on zn.euler_phi's cache, and the kind is looked
        # up once per distinct order.
        kinds = {order: zn.order_kind(order, n) for order in set(map(itemgetter(1), items))}
        for vertex, order, deg, size in items:
            claim = claims.degree_claim(kinds[order], n)
            if deg not in claim:
                deviating += size
                if first_bad is None:
                    first_bad = (vertex, order, deg, claim)
    if first_bad is None:
        return claimed, "all degrees as claimed", True, lambda: None
    vertex, order, deg, claim = first_bad
    return claimed, f"vertex {vertex} has degree {deg}", False, lambda: (
        f"vertex {vertex} (order {order}) has degree {deg}, "
        f"claimed {' or '.join(map(str, claim))}; "
        f"{deviating} of {n} vertices deviate"
    )


def _diameter(n: int, truth: InvariantSet) -> CheckResult:
    observed = length_str(truth.diameter)
    ok = truth.diameter <= 2
    return "<= 2", observed, ok, lambda: f"some pair sits at distance {observed}"


def _perfectness(n: int, truth: InvariantSet) -> CheckResult:
    claimed = claims.perfect_verdict(n)
    clique, chromatic = truth.clique_number, truth.chromatic_number
    observed = claims.WEAKLY_PERFECT if clique == chromatic else claims.STRONGLY_PERFECT
    return claimed, observed, claimed == observed, lambda: (
        f"ground truth clique {clique} chromatic {chromatic}; equality is labeled "
        f"weakly perfect by the audited definition (standard usage reversed)"
    )


CLAIMS: tuple[Claim, ...] = (
    Claim(TheoremId.L2_5, "involution count is 1 for odd n, 2 for even n",
          _equals(lambda n: claims.involution_count(n), "involutions",
                  lambda n, t: f"enumeration finds {t.involutions} involutions")),
    Claim(TheoremId.L2_6, "count outside units and involutions, cases as printed",
          _equals(lambda n: claims.neither_count(n), "neither", _neither_witness),
          applies=_three_way_split),
    Claim(TheoremId.L2_6_SWAPPED, "the same count with the even/odd cases exchanged",
          _equals(lambda n: claims.neither_count(n, swapped=True), "neither",
                  _neither_witness),
          applies=_three_way_split),
    Claim(TheoremId.T2_4, "the graph is connected",
          _equals(lambda n: True, "connected",
                  lambda n, t: "breadth-first search from vertex 0 misses part "
                               "of the graph",
                  show=lambda value: "connected" if value else "disconnected")),
    Claim(TheoremId.T2_7, "degrees: n-1 / n-phi(n) / phi(n)+2 or phi(n)+1 by case",
          _degrees),
    Claim(TheoremId.T2_10, "edge-count formula in n and phi(n)",
          _equals(lambda n: claims.edge_count(n), "edge_count",
                  lambda n, t: f"the adjacency relation contains {t.edge_count} "
                               "unordered pairs")),
    Claim(TheoremId.T2_12, "never complete for n > 2",
          _equals(lambda n: False, "complete", _completeness_witness,
                  show=_is("complete")),
          applies=_above_2),
    Claim(TheoremId.C2_13, "complete exactly when n = 2",
          _equals(lambda n: n == 2, "complete", _completeness_witness,
                  show=_is("complete"))),
    Claim(TheoremId.T2_14, "star graph exactly when n is prime",
          _equals(lambda n: zn.is_prime(n), "star",
                  lambda n, t: f"degree profile {profile_str(t.degree_counts)}",
                  show=_is("star"))),
    Claim(TheoremId.T2_15, "girth is 3 for composite n, infinite for prime n",
          _equals(lambda n: claims.girth(n), "girth",
                  lambda n, t: f"shortest cycle length {length_str(t.girth)}",
                  show=length_str)),
    Claim(TheoremId.T2_16, "diameter is at most 2", _diameter),
    Claim(TheoremId.T2_17, "hamiltonian for every composite n >= 4",
          _equals(lambda n: True, "hamiltonian", _cycle_witness,
                  show=_is("hamiltonian")),
          applies=_composite_from_4, tier="hamiltonian_tier", witness_on_match=True),
    Claim(TheoremId.R2_18, "non-hamiltonian exactly for n in {2, 3} (iff reading)",
          _equals(lambda n: n not in (2, 3), "hamiltonian", _iff_witness,
                  show=_is("hamiltonian")),
          tier="hamiltonian_tier"),
    Claim(TheoremId.T3_1, "bipartite for prime n",
          _equals(lambda n: True, "bipartite", lambda n, t: "two-coloring fails",
                  show=_is("bipartite")),
          applies=_prime),
    Claim(TheoremId.T3_2, "not bipartite for composite n",
          _equals(lambda n: False, "bipartite", lambda n, t: "two-coloring succeeds",
                  show=_is("bipartite")),
          applies=_composite),
    Claim(TheoremId.T3_3, "complete multipartite on the order classes",
          _complete_partite(
              lambda n: zn.divisor_count(n), " on the order classes",
              lambda n, t: f"order classes: {zn.divisor_count(n)}; "
                           f"distinct non-neighborhoods: {t.partite_count}")),
    Claim(TheoremId.C3_4, "complete 4-partite when n is a product of two primes",
          _complete_partite(
              lambda n: 4, "",
              lambda n, t: f"distinct non-neighborhoods: {t.partite_count}"),
          applies=_two_distinct_primes),
    Claim(TheoremId.T4_1, "clique-number formula in n, phi(n) and the involution count",
          _equals(lambda n: claims.clique_number(n), "clique_number", _clique_witness),
          applies=_above_2, tier="exact_tier"),
    Claim(TheoremId.T4_3,
          "chromatic-number formula in n, phi(n) and the involution count",
          _equals(lambda n: claims.chromatic_number(n), "chromatic_number",
                  _chromatic_witness),
          applies=_above_2, tier="exact_tier"),
    Claim(TheoremId.T4_4,
          "perfectness verdict from the claimed formulas (inverted terms)",
          _perfectness, applies=_above_2, tier="exact_tier", witness_on_match=True),
)

_SKIP_REASON = "oracle limit exceeded and closed-form fallback disabled"


def _verdict(
    claim: Claim, n: int, truth: InvariantSet, fallback: bool
) -> TheoremVerdict:
    """NOT_APPLICABLE first, then SKIPPED_ORACLE_LIMIT, then MATCH or MISMATCH."""
    reason = claim.applies(n)
    if reason is not None:
        return TheoremVerdict(
            claim.theorem, n, "", "", Status.NOT_APPLICABLE, reason, truth.tier
        )
    claimed, observed, ok, witness = claim.check(n, truth)
    tier = getattr(truth, claim.tier)
    if tier == CLOSED_FORM and not fallback:
        skipped = Status.SKIPPED_ORACLE_LIMIT
        return TheoremVerdict(claim.theorem, n, claimed, "", skipped, _SKIP_REASON, ORACLE)
    status = Status.MATCH if ok else Status.MISMATCH
    shown = witness() if not ok or claim.witness_on_match else None
    return TheoremVerdict(claim.theorem, n, claimed, observed, status, shown, tier)


def audit_n(n: int, config: AuditConfig | None = None) -> list[TheoremVerdict]:
    """All twenty verdicts for one modulus, in TheoremId order."""
    zn.check_modulus(n)
    cfg = config or AuditConfig()
    truth = ground_truth(n, cfg)
    return [_verdict(claim, n, truth, cfg.closed_form_fallback) for claim in CLAIMS]


# -- sweeping --------------------------------------------------------------


def _summarize(
    results: tuple[tuple[TheoremVerdict, ...], ...]
) -> dict[TheoremId, TheoremSummary]:
    """Per-claim counts; each n's verdicts come in CLAIMS order."""
    summary: dict[TheoremId, TheoremSummary] = {}
    for i, claim in enumerate(CLAIMS):
        column = [verdicts[i] for verdicts in results]
        counts = Counter(v.status for v in column)
        first = next((v.n for v in column if v.status is Status.MISMATCH), None)
        summary[claim.theorem] = TheoremSummary(
            counts[Status.MATCH],
            counts[Status.MISMATCH],
            counts[Status.SKIPPED_ORACLE_LIMIT],
            first,
        )
    return summary


def _audit_all(
    ns: range, config: AuditConfig
) -> tuple[tuple[TheoremVerdict, ...], ...]:
    """The verdicts for every n in `ns`, in order: a serial sweep."""
    return tuple(tuple(audit_n(n, config)) for n in ns)


def _audit_rows(ns: range, config: AuditConfig) -> list[list[tuple]]:
    """One pool task: the verdicts for every n in `ns`, each as a plain tuple.

    Pickling a named tuple calls its Python-level `__getnewargs__` once
    per verdict; plain tuples pickle in C, several times as fast. The
    parent rebuilds the named tuples.
    """
    return [list(map(tuple, audit_n(n, config))) for n in ns]


def sweep(
    lo: int, hi: int, config: AuditConfig | None = None, jobs: int = 1
) -> SweepReport:
    """Audit every n in [lo, hi]; per-n audits are independent."""
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cfg = config or AuditConfig()
    ns = range(lo, hi + 1)
    if jobs > 1 and hi > lo:
        # Imported here, not at the top: the pool's stack (multiprocessing,
        # pickle, logging, ...) would load on every `import indegraph`.
        from concurrent.futures import ProcessPoolExecutor

        # Per-n cost grows with n, so the k strided ranges ns[i::k] cost
        # about the same. Each is one task, one message each way; 4 per
        # worker let a worker that finishes early take over the rest.
        workers = min(jobs, len(ns))
        k = min(4 * workers, len(ns))
        merged: list = [None] * len(ns)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            strides = [ns[i::k] for i in range(k)]
            for i, part in enumerate(pool.map(partial(_audit_rows, config=cfg), strides)):
                merged[i::k] = [tuple(map(TheoremVerdict._make, rows)) for rows in part]
        results = tuple(merged)
    else:
        results = _audit_all(ns, cfg)
    return SweepReport(lo, hi, cfg, results, _summarize(results))


# -- rendering ---------------------------------------------------------------


def render_report(report: SweepReport, fmt: str) -> str:
    """Deterministic rendering; equal reports give byte-identical text."""
    if fmt == "md":
        return _render_markdown(report)
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    raise ValueError(f"unknown report format: {fmt!r}")


# One verdict and one n of the JSON report at their fixed depths, as
# json.dumps(indent=2) writes them.
_VERDICT_JSON = """{
          "theorem": %s,
          "status": %s,
          "claimed": %s,
          "observed": %s,
          "witness": %s,
          "ground_truth": %s
        }"""
_RESULT_JSON = """{
      "n": %d,
      "verdicts": [
        %s
      ]
    }"""


def _render_json(report: SweepReport) -> str:
    """The report as json.dumps(indent=2) writes it.

    `json.dumps` writes the range, config and summary; each verdict is
    written straight into text, one by one.
    """
    text = json.dumps({
        "range": [report.lo, report.hi],
        "config": asdict(report.config),
        "results": [],
        "summary": {
            theorem.value: {
                "holds": s.holds,
                "fails": s.fails,
                "first_counterexample": s.first_counterexample,
            }
            for theorem, s in report.summary.items()
        },
    }, indent=2)
    if not report.results:
        return text
    enc = encode_basestring_ascii
    entries = [
        _RESULT_JSON % (verdicts[0].n, ",\n        ".join([
            _VERDICT_JSON % (
                _JSON_TEXT[v.theorem._value_],
                _JSON_TEXT[v.status._value_],
                enc(v.claimed),
                enc(v.observed),
                "null" if v.witness is None else enc(v.witness),
                enc(v.ground_truth),
            )
            for v in verdicts
        ]))
        for verdicts in report.results
    ]
    # Nothing in "range" or "config" can read '"results": []', so the first
    # match is the key itself. The entries take the text around it, so the
    # report is joined once: each extra copy of it would cost megabytes.
    head, _, tail = text.partition('"results": []')
    entries[0] = head + '"results": [\n    ' + entries[0]
    entries[-1] += "\n  ]" + tail
    return ",\n    ".join(entries)


def _render_csv(report: SweepReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "theorem", "status", "claimed", "observed"])
    for verdicts in report.results:
        for v in verdicts:
            writer.writerow(
                [v.n, v.theorem._value_, v.status._value_, v.claimed, v.observed]
            )
    return out.getvalue().rstrip("\n")


def _render_markdown(report: SweepReport) -> str:
    lines = [
        f"# Claim audit for I_G(Z_n), n in [{report.lo}, {report.hi}]",
        "",
        "Ground truth tiers: ORACLE (direct computation) inside the configured",
        "limits, CLOSED_FORM (oracle-validated formulas) beyond them.",
        "",
        "| claim | statement | holds | fails | skipped | first counterexample |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for claim in CLAIMS:
        s = report.summary[claim.theorem]
        first = str(s.first_counterexample) if s.first_counterexample else "-"
        lines.append(
            f"| {claim.theorem.value} | {claim.gloss} | {s.holds} | {s.fails} "
            f"| {s.skipped} | {first} |"
        )
    mismatch_lines = []
    for i, claim in enumerate(CLAIMS):
        first = report.summary[claim.theorem].first_counterexample
        if first is not None:
            v = report.verdicts_for(first)[i]
            detail = f" ({v.witness})" if v.witness else ""
            mismatch_lines.append(
                f"- {v.theorem.value} first fails at n={v.n}: "
                f"claimed {v.claimed}, observed {v.observed}.{detail}"
            )
    lines.append("")
    lines.append("## Mismatches")
    lines.append("")
    if mismatch_lines:
        lines.extend(mismatch_lines)
    else:
        lines.append("No mismatches in range.")
    return "\n".join(lines)
