"""Command-line front end: invariants, audits and exports.

Exit codes are a stable scripting contract: 0 on success, 1 for usage
or capacity errors on required operations, 2 when --strict finds a
mismatch (or `info --verify` finds a disagreement).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from indegraph import closed_form, oracle, zn
from indegraph.audit import AuditConfig, render_report, sweep
from indegraph.invariants import json_text, length_str, profile_str

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRICT = 2

_ENV_ORACLE = "INDEGRAPH_ORACLE_LIMIT"
_ENV_EXACT = "INDEGRAPH_EXACT_LIMIT"
_ENV_HAMILTONIAN = "INDEGRAPH_HAMILTONIAN_LIMIT"
_ENV_JOBS = "INDEGRAPH_JOBS"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for --strict here."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _pick(flag_value: int | None, env_name: str, default: int) -> int:
    """The flag if given, else the environment variable if set, else the default."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(env_name, "")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{env_name} must be an integer, got {raw!r}") from None


def _config_from(args: argparse.Namespace) -> AuditConfig:
    return AuditConfig(
        oracle_build_limit=_pick(
            args.oracle_limit, _ENV_ORACLE, oracle.DEFAULT_BUILD_LIMIT
        ),
        exact_search_limit=_pick(
            args.exact_limit, _ENV_EXACT, oracle.DEFAULT_EXACT_SEARCH_LIMIT
        ),
        hamiltonian_limit=_pick(
            args.ham_limit, _ENV_HAMILTONIAN, oracle.DEFAULT_HAMILTONIAN_LIMIT
        ),
    )


# -- info --------------------------------------------------------------------


# (label, InvariantSet field): the rows `info` prints, and on --verify
# compares with the oracle's record.
_INFO_ROWS = (
    ("vertices", "n"),
    ("edges", "edge_count"),
    ("parts", "partite_count"),
    ("degrees", "degree_counts"),
    ("connected", "connected"),
    ("complete", "complete"),
    ("star", "star"),
    ("bipartite", "bipartite"),
    ("girth", "girth"),
    ("diameter", "diameter"),
    ("clique", "clique_number"),
    ("chromatic", "chromatic_number"),
    ("hamiltonian", "hamiltonian"),
)


def _show(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return profile_str(value)
    if isinstance(value, (int, float)):
        return length_str(value)
    return str(value)


def _json_value(value: object) -> object:
    if isinstance(value, tuple):
        return [list(item) for item in value]
    if isinstance(value, float):
        return length_str(value)
    return value


def _cmd_info(args: argparse.Namespace, config: AuditConfig) -> int:
    n = args.n
    zn.check_modulus(n)
    inv = closed_form.invariants(n)
    rows = [(name, getattr(inv, field)) for name, field in _INFO_ROWS]

    checks: dict[str, dict[str, object]] = {}
    capacity_note = None
    disagreements = 0
    if args.verify:
        if n <= config.oracle_build_limit:
            ground = oracle.invariants(
                oracle.build(n, limit=config.oracle_build_limit),
                exact_limit=config.exact_search_limit,
                hamiltonian_limit=config.hamiltonian_limit,
            )
            for name, field in _INFO_ROWS:
                truth = getattr(ground, field)
                if truth is None:
                    checks[name] = {"status": "skipped", "oracle": None}
                elif truth == getattr(inv, field):
                    checks[name] = {"status": "agree", "oracle": _json_value(truth)}
                else:
                    checks[name] = {"status": "disagree", "oracle": _json_value(truth)}
                    disagreements += 1
        else:
            capacity_note = (
                f"oracle checks skipped: n exceeds the build limit "
                f"({config.oracle_build_limit})"
            )

    if args.as_json:
        payload: dict[str, object] = {"n": n}
        payload.update((name, _json_value(value)) for name, value in rows)
        if args.verify:
            payload["verify"] = {"note": capacity_note, "checks": checks}
        print(json_text(payload))
    else:
        print(f"I_G(Z_{n})")
        for name, value in rows:
            line = f"  {name:<12} {_show(value)}"
            if name in checks:
                status = checks[name]["status"]
                if status == "agree":
                    line += "  [agree]"
                elif status == "skipped":
                    line += "  [oracle skipped: capacity]"
                else:
                    line += f"  [DISAGREE: oracle says {checks[name]['oracle']}]"
            print(line)
        if capacity_note:
            print(f"  note: {capacity_note}")

    return EXIT_STRICT if disagreements else EXIT_OK


# -- audit / sweep -----------------------------------------------------------


def _cmd_audit(args: argparse.Namespace, config: AuditConfig) -> int:
    report = sweep(args.n, args.n, config, jobs=1)
    print(render_report(report, "md"))
    if args.strict and report.has_mismatch():
        return EXIT_STRICT
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, config: AuditConfig) -> int:
    jobs = _pick(args.jobs, _ENV_JOBS, os.cpu_count() or 1)
    report = sweep(args.lo, args.hi, config, jobs=jobs)
    print(render_report(report, args.format))
    if args.strict and report.has_mismatch():
        return EXIT_STRICT
    return EXIT_OK


# -- export ------------------------------------------------------------------


def render_dot(graph: oracle.IndependentGraph, label_orders: bool = False) -> str:
    lines = [f"graph indep_{graph.n} {{"]
    for v in range(graph.n):
        if label_orders:
            lines.append(f'  {v} [label="{v} o={graph.orders[v]}"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {a} -- {b};" for a, b in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_edgelist(graph: oracle.IndependentGraph) -> str:
    return "".join(f"{a} {b}\n" for a, b in graph.edges())


def render_json_graph(graph: oracle.IndependentGraph) -> str:
    payload = {"n": graph.n, "edges": [[a, b] for a, b in graph.edges()]}
    return json.dumps(payload) + "\n"


def _cmd_export(args: argparse.Namespace, config: AuditConfig) -> int:
    graph = oracle.build(args.n, limit=config.oracle_build_limit)
    if args.format == "dot":
        text = render_dot(graph, label_orders=args.label_orders)
    elif args.format == "edgelist":
        text = render_edgelist(graph)
    else:
        text = render_json_graph(graph)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"indegraph: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- hamiltonian -------------------------------------------------------------


def _cmd_hamiltonian(args: argparse.Namespace, config: AuditConfig) -> int:
    n = args.n
    zn.check_modulus(n)
    predicted = closed_form.is_hamiltonian(n)
    print(f"prediction: {'hamiltonian' if predicted else 'not hamiltonian'}")
    search_limit = min(config.hamiltonian_limit, config.oracle_build_limit)
    if n > search_limit:
        print(f"search skipped: n exceeds the search limit ({search_limit})")
        return EXIT_OK
    graph = oracle.build(n, limit=config.oracle_build_limit)
    cycle = oracle.find_hamiltonian_cycle(graph, limit=config.hamiltonian_limit)
    print("NONE" if cycle is None else " ".join(str(v) for v in cycle))
    return EXIT_OK


# -- wiring ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="indegraph",
        description="Invariants and claim audits for the independent graph of Z_n.",
    )
    parser.add_argument(
        "--oracle-limit",
        type=int,
        default=None,
        metavar="N",
        help=f"largest n the oracle will build (default {oracle.DEFAULT_BUILD_LIMIT}, "
        f"env {_ENV_ORACLE})",
    )
    parser.add_argument(
        "--exact-limit",
        type=int,
        default=None,
        metavar="N",
        help=f"largest n for exact clique/chromatic search "
        f"(default {oracle.DEFAULT_EXACT_SEARCH_LIMIT}, env {_ENV_EXACT})",
    )
    parser.add_argument(
        "--hamiltonian-limit",
        dest="ham_limit",
        type=int,
        default=None,
        metavar="N",
        help=f"largest n for hamiltonian search "
        f"(default {oracle.DEFAULT_HAMILTONIAN_LIMIT}, env {_ENV_HAMILTONIAN})",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_info = sub.add_parser("info", help="print closed-form invariants for one n")
    p_info.add_argument("n", type=int)
    p_info.add_argument(
        "--verify",
        action="store_true",
        help="recompute via the oracle (within limits) and mark agreement",
    )
    p_info.add_argument("--json", dest="as_json", action="store_true")

    p_audit = sub.add_parser("audit", help="audit every claim for one n")
    p_audit.add_argument("n", type=int)
    p_audit.add_argument(
        "--strict", action="store_true", help="exit 2 if any claim mismatches"
    )

    p_sweep = sub.add_parser("sweep", help="audit every claim over a range of n")
    p_sweep.add_argument("lo", type=int)
    p_sweep.add_argument("hi", type=int)
    p_sweep.add_argument("--format", choices=("md", "json", "csv"), default="md")
    p_sweep.add_argument(
        "--jobs", type=int, default=None, metavar="K",
        help=f"worker processes (default: cores, env {_ENV_JOBS})",
    )
    p_sweep.add_argument(
        "--strict", action="store_true", help="exit 2 if any claim mismatches"
    )

    p_export = sub.add_parser("export", help="serialize the graph for one n")
    p_export.add_argument("n", type=int)
    p_export.add_argument("--format", choices=("dot", "json", "edgelist"), required=True)
    p_export.add_argument("-o", "--output", default=None, metavar="PATH")
    p_export.add_argument(
        "--label-orders",
        action="store_true",
        help="DOT only: label each vertex with its additive order",
    )

    p_ham = sub.add_parser(
        "hamiltonian", help="search for a hamiltonian cycle for one n"
    )
    p_ham.add_argument("n", type=int)

    return parser


_HANDLERS = {
    "info": _cmd_info,
    "audit": _cmd_audit,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
    "hamiltonian": _cmd_hamiltonian,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        return _HANDLERS[args.command](args, config)
    except zn.CapacityError as exc:
        print(f"indegraph: capacity: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"indegraph: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (e.g. piping into head).  Point stdout at
        # devnull so the interpreter's exit-time flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
