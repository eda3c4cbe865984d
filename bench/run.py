"""The indegraph benchmark.

    python3 bench/run.py --workload sweep-512 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. Each workload runs in a fresh
interpreter (bench/workloads.py) against the checkout's own `src`. An
untraced run (--trace 0) reports end-to-end metrics, among them
setup_s, the start-up of further interpreters that the workload starts
between its inputs. A traced run (--trace 1) reports per-layer metrics.

The output is a table of every metric with its unit and sample count,
then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when any operation
failed, and 2 when the checkout has no indegraph sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The whole command must end within 180 s; keep a margin for start-up and output.
DEADLINE_S = 170


def _env() -> dict[str, str]:
    """This environment without indegraph's limit variables, `src` first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INDEGRAPH_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    child = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{argv[1:3]} did not finish within {timeout:.0f} s") from None
    if child.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {child.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, spans: str | None,
                 deadline: float) -> dict:
    argv = [
        sys.executable, str(ROOT / "bench" / "workloads.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if spans:
        argv += ["--spans", spans]
    lines = _run(argv, timeout=deadline - time.monotonic()).splitlines()
    if not lines:
        raise RuntimeError(f"{name} printed no result")
    return json.loads(lines[-1])


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def _listed(trace: int) -> list[tuple[str, str]]:
    if trace:
        return [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    return [(name, unit) for name, unit, *_ in metrics.END_TO_END]


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    """Print the table for one workload; return the metrics of its result line."""
    values = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  trace {trace}")
    print(
        f"machine  nproc={os.cpu_count()} python={platform.python_version()} "
        f"{platform.machine()} commit={_commit()}"
    )
    rows = _listed(trace)
    if not trace:
        rows += [(m, unit) for m, unit, _ in metrics.SWEEP_ONLY if m in values]
    print(f"  {'metric':<40} {'value':>12}  {'unit':<6} {'samples':>7} {'wall':>12}")
    for metric, unit in rows:
        v = values[metric]
        wall = f"{v['wall']:>12.6g}" if "wall" in v else ""
        print(f"  {metric:<40} {v['value']:>12.6g}  {unit:<6} {v['samples']:>7} {wall}")
    if not trace:
        print(f"  {metrics.FAIL_RATIO[0]:<40} {failed / attempted:>12.6g}  "
              f"{metrics.FAIL_RATIO[1]:<6} {attempted:>7}")
    return {m: {"value": values[m]["value"], "unit": unit} for m, unit in _listed(trace)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*metrics.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="traced runs: write every span here as CSV")
    args = parser.parse_args(argv)
    if args.spans and args.workload == "all":
        parser.error("--spans takes one workload")

    if not (SRC / "indegraph" / "__init__.py").is_file():
        print(f"no indegraph sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    line_metrics: dict = {}
    deadline = time.monotonic() + DEADLINE_S
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.spans, deadline)
        except (RuntimeError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        shown = report(name, args.seed, args.trace, result)
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            line_metrics = shown
        else:
            line_metrics.update({f"{name}.{m}": v for m, v in shown.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": line_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
