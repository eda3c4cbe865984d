"""Claim-by-claim audit of I_G(Z_n) against ground truth.

`ground_truth` builds one record of facts per n: from the brute-force
oracle while n sits inside the configured limits, from the
oracle-validated closed forms beyond them. Each claim is one row of
`CLAIMS`, and one evaluator turns a row and the record into a verdict.
Every verdict records which tier produced it, so a skeptical reader can
filter the closed-form ones out; with the fallback disabled, checks on
closed-form facts surface as SKIPPED_ORACLE_LIMIT instead.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import partial
from operator import itemgetter

from indegraph import claims, closed_form, oracle, zn
from indegraph.invariants import (
    CLOSED_FORM,
    ORACLE,
    InvariantSet,
    json_text,
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


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: TheoremId
    n: int
    claimed: str
    observed: str
    status: Status
    witness: str | None
    ground_truth: str


@dataclass(frozen=True)
class TheoremSummary:
    holds: int
    fails: int
    skipped: int
    first_counterexample: int | None


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
    if truth.exact_tier is None:
        parts = closed_form.clique_chromatic_number(n)
        truth = replace(
            truth, exact_tier=CLOSED_FORM, clique_number=parts, chromatic_number=parts
        )
    if truth.hamiltonian_tier is None:
        truth = replace(
            truth, hamiltonian_tier=CLOSED_FORM, hamiltonian=closed_form.is_hamiltonian(n)
        )
    return truth


# -- the claims ------------------------------------------------------------

# A check reads the record and returns (claimed, observed, holds, witness),
# or raises NotApplicable when the claim's hypotheses exclude n.
CheckResult = tuple[str, str, bool, str | None]
Check = Callable[[int, InvariantSet], CheckResult]


class NotApplicable(Exception):
    """The claim's hypotheses exclude this n; the message says why."""


@dataclass(frozen=True)
class Claim:
    """One audited claim, as a row of data.

    `tier` names the record field holding the tier of the facts `check`
    reads. The witness is reported on a mismatch, and on a match too
    when `witness_on_match` is set.
    """

    theorem: TheoremId
    gloss: str
    check: Check
    tier: str = "tier"
    witness_on_match: bool = False


def _is(word: str, value: bool) -> str:
    return word if value else f"not {word}"


def _multipartite_str(truth: InvariantSet) -> str:
    if truth.multipartite:
        return f"complete {truth.partite_count}-partite"
    return "adjacency deviates from the order-class pattern"


def _completeness_witness(n: int, truth: InvariantSet) -> str:
    return f"the graph has {truth.edge_count} of {n * (n - 1) // 2} possible edges"


def _ham_witness(n: int, truth: InvariantSet) -> str:
    if truth.hamiltonian_tier == ORACLE:
        return "exhaustive backtracking over cycles through vertex 0 found none"
    phi = zn.euler_phi(n)
    return f"the unit class holds {phi} of {n} vertices, more than half"


def _needs_n_above_2(n: int) -> None:
    if n == 2:
        raise NotApplicable("the claim assumes n > 2")


def _involutions(n: int, truth: InvariantSet) -> CheckResult:
    claimed, observed = claims.involution_count(n), truth.involutions
    witness = f"enumeration finds {observed} involutions"
    return str(claimed), str(observed), claimed == observed, witness


def _neither(n: int, truth: InvariantSet, swapped: bool) -> CheckResult:
    if n == 2:
        raise NotApplicable(
            "units and involutions overlap at n=2; the three-way split degenerates"
        )
    claimed, observed = claims.neither_count(n, swapped=swapped), truth.neither
    witness = f"enumeration finds {observed} residues outside units and involutions"
    return str(claimed), str(observed), claimed == observed, witness


def _connected(n: int, truth: InvariantSet) -> CheckResult:
    observed = "connected" if truth.connected else "disconnected"
    witness = "breadth-first search from vertex 0 misses part of the graph"
    return "connected", observed, truth.connected, witness


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
        # benchmark's tests pin that call count.
        for vertex, order, deg, size in items:
            claim = claims.degree_claim(zn.order_kind(order, n), n)
            if deg not in claim:
                deviating += size
                if first_bad is None:
                    first_bad = (vertex, order, deg, claim)
    if first_bad is None:
        return claimed, "all degrees as claimed", True, None
    vertex, order, deg, claim = first_bad
    witness = (
        f"vertex {vertex} (order {order}) has degree {deg}, "
        f"claimed {' or '.join(map(str, claim))}; "
        f"{deviating} of {n} vertices deviate"
    )
    return claimed, f"vertex {vertex} has degree {deg}", False, witness


def _edges(n: int, truth: InvariantSet) -> CheckResult:
    claimed, observed = claims.edge_count(n), truth.edge_count
    witness = f"the adjacency relation contains {observed} unordered pairs"
    return str(claimed), str(observed), claimed == observed, witness


def _never_complete(n: int, truth: InvariantSet) -> CheckResult:
    _needs_n_above_2(n)
    observed = _is("complete", truth.complete)
    return "not complete", observed, not truth.complete, _completeness_witness(n, truth)


def _complete_iff(n: int, truth: InvariantSet) -> CheckResult:
    claimed, observed = _is("complete", n == 2), _is("complete", truth.complete)
    return claimed, observed, claimed == observed, _completeness_witness(n, truth)


def _star(n: int, truth: InvariantSet) -> CheckResult:
    claimed, observed = _is("star", zn.is_prime(n)), _is("star", truth.star)
    ok = claimed == observed
    # The profile is only rendered when it becomes the witness.
    witness = None if ok else f"degree profile {profile_str(truth.degree_counts)}"
    return claimed, observed, ok, witness


def _girth(n: int, truth: InvariantSet) -> CheckResult:
    claimed, observed = claims.girth(n), truth.girth
    witness = f"shortest cycle length {length_str(observed)}"
    return length_str(claimed), length_str(observed), claimed == observed, witness


def _diameter(n: int, truth: InvariantSet) -> CheckResult:
    observed = truth.diameter
    witness = f"some pair sits at distance {length_str(observed)}"
    return "<= 2", length_str(observed), observed <= 2, witness


def _hamiltonian_composite(n: int, truth: InvariantSet) -> CheckResult:
    if n < 4 or zn.is_prime(n):
        raise NotApplicable("the claim covers composite n >= 4 only")
    cycle = truth.hamiltonian_cycle
    if not truth.hamiltonian:
        witness = _ham_witness(n, truth)
    elif cycle is not None:
        witness = "cycle " + " ".join(str(v) for v in cycle)
    else:
        witness = None
    observed = _is("hamiltonian", truth.hamiltonian)
    return "hamiltonian", observed, truth.hamiltonian, witness


def _hamiltonian_iff(n: int, truth: InvariantSet) -> CheckResult:
    claimed = n not in (2, 3)
    witness = _ham_witness(n, truth) + "; biconditional reading of the claim"
    return (
        _is("hamiltonian", claimed),
        _is("hamiltonian", truth.hamiltonian),
        claimed == truth.hamiltonian,
        witness,
    )


def _bipartite_prime(n: int, truth: InvariantSet) -> CheckResult:
    if not zn.is_prime(n):
        raise NotApplicable("the claim covers prime n only")
    observed = _is("bipartite", truth.bipartite)
    return "bipartite", observed, truth.bipartite, "two-coloring fails"


def _bipartite_composite(n: int, truth: InvariantSet) -> CheckResult:
    if zn.is_prime(n):
        raise NotApplicable("the claim covers composite n only")
    observed = _is("bipartite", truth.bipartite)
    return "not bipartite", observed, not truth.bipartite, "two-coloring succeeds"


def _multipartite(n: int, truth: InvariantSet) -> CheckResult:
    parts = zn.divisor_count(n)
    ok = truth.multipartite and truth.partite_count == parts
    witness = f"order classes: {parts}; distinct non-neighborhoods: {truth.partite_count}"
    claimed = f"complete {parts}-partite on the order classes"
    return claimed, _multipartite_str(truth), ok, witness


def _semiprime(n: int, truth: InvariantSet) -> CheckResult:
    factors = zn.factorize(n)
    if len(factors) != 2 or any(e != 1 for e in factors.values()):
        raise NotApplicable("n is not a product of two distinct primes")
    ok = truth.multipartite and truth.partite_count == 4
    witness = f"distinct non-neighborhoods: {truth.partite_count}"
    return "complete 4-partite", _multipartite_str(truth), ok, witness


def _clique(n: int, truth: InvariantSet) -> CheckResult:
    _needs_n_above_2(n)
    claimed, observed = claims.clique_number(n), truth.clique_number
    if truth.clique_vertices:
        found = " ".join(str(v) for v in truth.clique_vertices)
        witness = f"exact search finds maximum clique {{{found}}} of size {observed}"
    else:
        witness = (
            f"one vertex from each of the {observed} order classes is a maximum clique"
        )
    return str(claimed), str(observed), claimed == observed, witness


def _chromatic(n: int, truth: InvariantSet) -> CheckResult:
    _needs_n_above_2(n)
    claimed, observed = claims.chromatic_number(n), truth.chromatic_number
    if truth.exact_tier == ORACLE:
        witness = f"exact search proves {observed} colors necessary and sufficient"
    else:
        witness = f"one color per order class: {observed} colors, clique-tight"
    return str(claimed), str(observed), claimed == observed, witness


def _perfectness(n: int, truth: InvariantSet) -> CheckResult:
    _needs_n_above_2(n)
    claimed = claims.perfect_verdict(n)
    clique, chromatic = truth.clique_number, truth.chromatic_number
    observed = claims.WEAKLY_PERFECT if clique == chromatic else claims.STRONGLY_PERFECT
    witness = (
        f"ground truth clique {clique} chromatic {chromatic}; equality is labeled "
        f"weakly perfect by the audited definition (standard usage reversed)"
    )
    return claimed, observed, claimed == observed, witness


CLAIMS: tuple[Claim, ...] = (
    Claim(TheoremId.L2_5, "involution count is 1 for odd n, 2 for even n", _involutions),
    Claim(TheoremId.L2_6, "count outside units and involutions, cases as printed",
          partial(_neither, swapped=False)),
    Claim(TheoremId.L2_6_SWAPPED, "the same count with the even/odd cases exchanged",
          partial(_neither, swapped=True)),
    Claim(TheoremId.T2_4, "the graph is connected", _connected),
    Claim(TheoremId.T2_7, "degrees: n-1 / n-phi(n) / phi(n)+2 or phi(n)+1 by case",
          _degrees),
    Claim(TheoremId.T2_10, "edge-count formula in n and phi(n)", _edges),
    Claim(TheoremId.T2_12, "never complete for n > 2", _never_complete),
    Claim(TheoremId.C2_13, "complete exactly when n = 2", _complete_iff),
    Claim(TheoremId.T2_14, "star graph exactly when n is prime", _star),
    Claim(TheoremId.T2_15, "girth is 3 for composite n, infinite for prime n", _girth),
    Claim(TheoremId.T2_16, "diameter is at most 2", _diameter),
    Claim(TheoremId.T2_17, "hamiltonian for every composite n >= 4",
          _hamiltonian_composite, tier="hamiltonian_tier", witness_on_match=True),
    Claim(TheoremId.R2_18, "non-hamiltonian exactly for n in {2, 3} (iff reading)",
          _hamiltonian_iff, tier="hamiltonian_tier"),
    Claim(TheoremId.T3_1, "bipartite for prime n", _bipartite_prime),
    Claim(TheoremId.T3_2, "not bipartite for composite n", _bipartite_composite),
    Claim(TheoremId.T3_3, "complete multipartite on the order classes", _multipartite),
    Claim(TheoremId.C3_4, "complete 4-partite when n is a product of two primes",
          _semiprime),
    Claim(TheoremId.T4_1, "clique-number formula in n, phi(n) and the involution count",
          _clique, tier="exact_tier"),
    Claim(TheoremId.T4_3,
          "chromatic-number formula in n, phi(n) and the involution count",
          _chromatic, tier="exact_tier"),
    Claim(TheoremId.T4_4,
          "perfectness verdict from the claimed formulas (inverted terms)",
          _perfectness, tier="exact_tier", witness_on_match=True),
)

_SKIP_REASON = "oracle limit exceeded and closed-form fallback disabled"


def _verdict(
    claim: Claim, n: int, truth: InvariantSet, fallback: bool
) -> TheoremVerdict:
    """NOT_APPLICABLE first, then SKIPPED_ORACLE_LIMIT, then MATCH or MISMATCH."""
    try:
        claimed, observed, ok, witness = claim.check(n, truth)
    except NotApplicable as reason:
        return TheoremVerdict(
            claim.theorem, n, "", "", Status.NOT_APPLICABLE, str(reason), truth.tier
        )
    tier = getattr(truth, claim.tier)
    if tier == CLOSED_FORM and not fallback:
        skipped = Status.SKIPPED_ORACLE_LIMIT
        return TheoremVerdict(claim.theorem, n, claimed, "", skipped, _SKIP_REASON, ORACLE)
    status = Status.MATCH if ok else Status.MISMATCH
    if ok and not claim.witness_on_match:
        witness = None
    return TheoremVerdict(claim.theorem, n, claimed, observed, status, witness, tier)


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

        task = partial(audit_n, config=cfg)
        with ProcessPoolExecutor(max_workers=min(jobs, len(ns))) as pool:
            results = tuple(tuple(r) for r in pool.map(task, ns, chunksize=4))
    else:
        results = tuple(tuple(audit_n(n, cfg)) for n in ns)
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


def _render_json(report: SweepReport) -> str:
    payload = {
        "range": [report.lo, report.hi],
        "config": asdict(report.config),
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
    return json_text(payload)


def _render_csv(report: SweepReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "theorem", "status", "claimed", "observed"])
    for verdicts in report.results:
        for v in verdicts:
            writer.writerow([v.n, v.theorem.value, v.status.value, v.claimed, v.observed])
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
    for theorem in TheoremId:
        s = report.summary[theorem]
        if s.first_counterexample is None:
            continue
        for v in report.verdicts_for(s.first_counterexample):
            if v.theorem is theorem and v.status is Status.MISMATCH:
                detail = f" ({v.witness})" if v.witness else ""
                mismatch_lines.append(
                    f"- {theorem.value} first fails at n={v.n}: "
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
