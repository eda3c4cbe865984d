"""Run one benchmark workload in this (fresh) interpreter.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

bench/run.py starts this script once per workload, with the checkout's
`src` on the path, and reads the JSON object it prints last. The
package is driven only through its public API. Untraced runs patch
nothing; a traced run measures one untraced pass, installs the spans of
bench/spans.py, and repeats the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import indegraph  # noqa: E402
from indegraph import audit, cli, zn  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

# The parallel pass always uses the process pool, whatever the core count.
SWEEP_JOBS = 2
# Between inputs, a run times the reference job at most once per TICK_S,
# and an untraced run one fresh interpreter's start-up once per SETUP_TICK_S.
TICK_S = 0.25
SETUP_TICK_S = 1.0
SETUP_PROBE = "import time, indegraph; indegraph.audit_n(2); print(time.monotonic_ns())"
# Captured before any tracing, so the benchmark's own cache handling and
# checks never show up as spans.
FACTORIZE = zn.factorize


class Ledger:
    """Operations attempted and failed; an operation fails if it raises or a check rejects it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {reason}")


class CacheMeter:
    """Hits and misses of the `zn.factorize` cache, summed across clears."""

    def __init__(self) -> None:
        self.hits = self.misses = 0
        self.counting = False

    def _stats(self):
        info = getattr(FACTORIZE, "cache_info", None)
        return info() if info else None

    def cold(self) -> None:
        """Empty the cache, as a fresh process would find it."""
        stats = self._stats()
        if stats is None:
            return
        if self.counting:
            self.hits += stats.hits
            self.misses += stats.misses
        FACTORIZE.cache_clear()

    def quiet_factorize(self, n: int) -> dict[int, int]:
        """Call `zn.factorize` for a check, leaving the counts as they were."""
        before = self._stats()
        out = FACTORIZE(n)
        after = self._stats()
        if before is not None and self.counting:
            self.hits -= after.hits - before.hits
            self.misses -= after.misses - before.misses
        return out

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def timed(fn, *args, **kwargs):
    """(result, seconds, error); the error is None when fn returned."""
    start = time.perf_counter()
    try:
        out, err = fn(*args, **kwargs), None
    except Exception as exc:  # one failed operation must not end the run
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, err


class Run:
    """One invocation: its arguments, its ledger, and what it samples between inputs."""

    def __init__(self, seed: int, seconds: float, trace: bool, spans: str | None = None) -> None:
        self.seed, self.seconds, self.trace, self.spans = seed, seconds, trace, spans
        self.ledger = Ledger()
        self.speed = reference.Speed()
        self.setup: list[float] = []
        self.began = time.perf_counter()
        self._ticked = self._setup_ticked = float("-inf")

    def tick(self) -> None:
        """Between two inputs: sample the host's speed and start-up when due."""
        now = time.perf_counter()
        if now - self._ticked >= TICK_S:
            self.speed.sample()
            self._ticked = now
        if not self.trace and now - self._setup_ticked >= SETUP_TICK_S:
            self.setup.append(setup_seconds())
            self._setup_ticked = time.perf_counter()

    def done(self, passes: int) -> bool:
        """Whether to stop after this many passes.

        Untraced runs time every input on at least two passes, so that
        `fastest` has a repeat to choose from, and stop before a pass
        that would likely end after `seconds`. Traced runs measure one
        untraced pass before the traced one.
        """
        if self.trace:
            return True
        spent = time.perf_counter() - self.began
        return passes >= 2 and spent + spent / passes > self.seconds


def setup_seconds() -> float:
    """Start-up of a fresh interpreter to `import indegraph` done and `audit_n(2)` returned."""
    start = time.monotonic_ns()
    child = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return (int(child.stdout.split()[-1]) - start) / 1e9


class Pass:
    """Wall times of one pass over a workload's inputs; the run ticks before each input."""

    def __init__(self, run: Run) -> None:
        self.times: list[float] = []
        self.run = run

    def timed(self, fn, *args, **kwargs):
        self.run.tick()
        out, dt, err = timed(fn, *args, **kwargs)
        self.times.append(dt)
        return out, err


def fastest(passes: list[Pass]) -> list[float]:
    """Each input's fastest wall time over the passes.

    Other tenants of a shared host only ever add time, in bursts of a
    few seconds; passes lie seconds apart, so the fastest is the reading
    least touched by them.
    """
    return [min(times) for times in zip(*(p.times for p in passes))]


@contextlib.contextmanager
def tracing(meter: CacheMeter):
    """Spans on, cache counts on, from an empty factorize cache; all undone on exit."""
    tracer = Tracer()
    meter.cold()
    meter.counting = True
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
        meter.cold()
        meter.counting = False


def _metric(value: float, unit: str, samples: int, wall: float | None = None) -> dict:
    out = {"value": value, "unit": unit, "samples": samples}
    if wall is not None:
        out["wall"] = wall
    return out


def _untraced_result(run: Run, passes: list[Pass], figures) -> dict:
    """`figures(per_input)` -> {metric: (value, samples)}, from each input's
    fastest time scaled to nominal host speed; `wall` is the same unscaled.

    Also setup_s, the fastest start-up sampled during the run, scaled the
    same way: like the fastest-of-passes times, it reads the host when
    other tenants leave it alone, and the samples span the whole run.
    """
    units = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.SWEEP_ONLY}
    per_input = fastest(passes)
    factor = run.speed.factor(len(passes))
    nominal = figures([t * factor for t in per_input])
    wall = figures(per_input)
    out = {m: _metric(v, units[m], n, wall[m][0]) for m, (v, n) in nominal.items()}
    setup = min(run.setup)
    out["setup_s"] = _metric(setup * run.speed.factor(len(run.setup)), "s", len(run.setup), setup)
    return out


def _throughput(per_n: list[float], passes: int, extra_s: float = 0.0, audits: int = 1) -> dict:
    """moduli_per_s and latency_ms_p50 from per-modulus times.

    `extra_s` is time the throughput also pays for, such as sweep-512's
    parallel sweep and renders; `audits` is how often each modulus is
    processed in that time.
    """
    return {
        "moduli_per_s": (audits * len(per_n) / (sum(per_n) + extra_s), passes),
        "latency_ms_p50": (statistics.median(per_n) * 1e3, len(per_n)),
    }


# -- sweep-512 ---------------------------------------------------------------


def sweep_pass(run, ns, cfg, report=None, digests=checks.SWEEP_DIGESTS,
               first=checks.SWEEP_FIRST_COUNTEREXAMPLES, order=None):
    """Serial audit_n per n, the parallel sweep unless a report is given, the renders.

    The serial audits run in `order`, a permutation of the indices of
    `ns` (ascending by default). The inputs of the pass, as its times
    keep them: every n in ascending order, the parallel sweep (when it
    runs), and one render per format.
    """
    ledger = run.ledger
    p = Pass(run)
    order = range(len(ns)) if order is None else order
    serial = {}
    for i in order:
        verdicts, err = p.timed(audit.audit_n, ns[i], cfg)
        serial[i] = (None if verdicts is None else tuple(verdicts), err)
    p.times = [t for _, t in sorted(zip(order, p.times))]
    report_error = None
    if report is None:
        report, report_error = p.timed(audit.sweep, ns[0], ns[-1], cfg, jobs=SWEEP_JOBS)
        if report_error is None:
            report_error = checks.check_first_counterexamples(report, first)
        ledger.record("parallel sweep", report_error)
    for i, n in enumerate(ns):
        verdicts, reason = serial[i]
        if reason is None and report is not None and verdicts != report.results[i]:
            reason = "serial verdicts differ from the parallel sweep"
        ledger.record(f"audit_n({n})", reason)
    for fmt in metrics.RENDER_FORMATS:
        text, reason = p.timed(audit.render_report, report, fmt)
        ledger.record(f"render {fmt}", reason or checks.check_render(fmt, text, digests))
    return p, report


def sweep_512(run: Run) -> dict:
    # The range is fixed, whatever the seed: it is the paper's reference range.
    lo, hi = gen.SWEEP_RANGE
    ns = range(lo, hi + 1)
    cfg = audit.AuditConfig()
    meter = CacheMeter()
    k = len(ns)
    # A fresh order per pass: the n of one cost would otherwise run
    # together, and each percentile would read a second or so of the host.
    rng = gen.SplitMix64(run.seed)
    passes = []
    while True:
        meter.cold()
        p, report = sweep_pass(run, ns, cfg, order=rng.shuffled(list(range(k))))
        passes.append(p)
        if run.done(len(passes)):
            break

    def split(per_input):
        """Per-n times, the parallel sweep, the renders together."""
        return per_input[:k], per_input[k], sum(per_input[k + 1 :])

    def figures(per_input):
        per_n, t_parallel, t_render = split(per_input)
        # Each n is audited twice, serially and in the pool, so
        # moduli_per_s pays for both paths and the renders.
        out = _throughput(per_n, len(passes), t_parallel + t_render, audits=2)
        out["parallel_moduli_per_s"] = (k / (t_parallel + t_render), len(passes))
        out["latency_ms_p98"] = (metrics.p98(per_n) * 1e3, k)
        return out

    if not run.trace:
        return _untraced_result(run, passes, figures)

    per_n, t_parallel, t_render = split(fastest(passes))
    nominal = figures([t * run.speed.factor(len(passes)) for t in fastest(passes)])
    with tracing(meter) as tracer:
        traced, _ = sweep_pass(run, ns, cfg, report)
    return _layer_result(run, tracer, {
        "zn.factorize.hit_ratio": meter.hit_ratio(),
        "audit.sweep.parallel_efficiency": sum(per_n) / (SWEEP_JOBS * t_parallel),
        "sweep.parallel_moduli_per_s": nominal["parallel_moduli_per_s"][0],
        "sweep.latency_ms_p98": nominal["latency_ms_p98"][0],
        "trace.overhead_ratio": sum(traced.times) / (sum(per_n) + t_render),
    })


# -- oracle-mid --------------------------------------------------------------


def oracle_mid_pass(run, moduli, references) -> Pass:
    """audit_n on each modulus, checked against the closed-form tier."""
    ledger = run.ledger
    p = Pass(run)
    for m in moduli:
        verdicts, err = p.timed(audit.audit_n, m.n)
        if err is None:
            if m.n not in references:
                # Every limit below n: the closed forms are the ground truth.
                cfg = audit.AuditConfig(
                    oracle_build_limit=2, exact_search_limit=2, hamiltonian_limit=2
                )
                references[m.n] = audit.audit_n(m.n, cfg)
            err = checks.check_statuses(verdicts, references[m.n])
        ledger.record(f"audit_n({m.n})", err)
    return p


def oracle_mid(run: Run) -> dict:
    moduli = gen.oracle_mid(run.seed)
    meter = CacheMeter()
    references: dict = {}
    passes = []
    while True:
        meter.cold()
        passes.append(oracle_mid_pass(run, moduli, references))
        if run.done(len(passes)):
            break
    if not run.trace:
        return _untraced_result(run, passes, lambda per_n: _throughput(per_n, len(passes)))
    with tracing(meter) as tracer:
        traced = oracle_mid_pass(run, moduli, references)
    return _layer_result(run, tracer, {
        "zn.factorize.hit_ratio": meter.hit_ratio(),
        "trace.overhead_ratio": sum(traced.times) / sum(passes[0].times),
    })


# -- closed-form-large -------------------------------------------------------


def _cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, _, err = timed(cli.main, argv)
    return code, out.getvalue(), err


def closed_form_pass(run: Run, meter: CacheMeter, block: list[gen.Modulus]) -> Pass:
    """`info N --json`, then `audit N`, for every N of the block.

    Each command starts from an emptied factorize cache, as in a fresh
    CLI process, so a repeated pass does the same work as the first.
    """
    ledger = run.ledger
    p = Pass(run)
    for m in block:
        factors = m.factor_dict()
        run.tick()
        meter.cold()
        start = time.perf_counter()
        code, text, err = _cli(["info", str(m.n), "--json"])
        t_info = time.perf_counter() - start
        if err is None:
            err = checks.check_info(factors, code, text) or checks.check_factorization(
                factors, meter.quiet_factorize(m.n)
            )
        ledger.record(f"info {m.n}", err)
        meter.cold()
        start = time.perf_counter()
        code, text, err = _cli(["audit", str(m.n)])
        p.times.append(t_info + time.perf_counter() - start)
        ledger.record(f"audit {m.n}", err or checks.check_audit(factors, code, text))
    return p


def closed_form_large(run: Run) -> dict:
    moduli = gen.closed_form_large(run.seed)
    meter = CacheMeter()
    passes = []
    while True:
        passes.append(closed_form_pass(run, meter, moduli))
        if run.done(len(passes)):
            break
    if not run.trace:
        return _untraced_result(run, passes, lambda per_n: _throughput(per_n, len(passes)))
    with tracing(meter) as tracer:
        traced = closed_form_pass(run, meter, moduli)
    return _layer_result(run, tracer, {
        "zn.factorize.hit_ratio": meter.hit_ratio(),
        "trace.overhead_ratio": sum(traced.times) / sum(passes[0].times),
    })


# -- results -----------------------------------------------------------------


def _layer_result(run: Run, tracer: Tracer, special: dict[str, float]) -> dict:
    calls, self_s = tracer.summary()
    special = dict(special)
    for fmt in metrics.RENDER_FORMATS:
        special[f"audit.render_report.{fmt}.bytes"] = tracer.render_bytes[fmt]
    distinct = len(tracer.is_prime_args)
    special["zn.is_prime.repeat_ratio"] = calls["zn.is_prime"] / distinct if distinct else 0
    values = metrics.layer_metrics(calls, self_s, special)
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    if run.spans:
        tracer.write(run.spans)
    return {name: _metric(value, units[name], 1) for name, value in values.items()}


WORKLOADS = {
    "sweep-512": sweep_512,
    "oracle-mid": oracle_mid,
    "closed-form-large": closed_form_large,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="traced runs: write every span here as CSV")
    args = parser.parse_args(argv)

    src = SRC.resolve()
    if Path(indegraph.__file__).resolve().parent.parent != src:
        print(f"indegraph imported from {indegraph.__file__}, not {src}", file=sys.stderr)
        return 2

    run = Run(args.seed, args.seconds, bool(args.trace), args.spans)
    result = WORKLOADS[args.workload](run)
    if not run.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = _metric(peak_kb / 1024, "MB", 1)
    ledger = run.ledger
    for reason in ledger.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"attempted": ledger.attempted, "failed": ledger.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
