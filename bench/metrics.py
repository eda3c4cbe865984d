"""The workloads and metrics of BENCHMARK.json, and how per-layer values are derived.

BENCHMARK.json at the root of the checkout is the one list of workloads
and metrics, with their units, directions and bounds. README.md maps
each per-layer metric to the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])

# (name, unit, better, bound): reported by every untraced run.
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"])

# (name, unit, better): reported by every traced run. Metrics of a layer
# a workload never reaches read 0, as do the sweep.* metrics outside
# sweep-512.
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"])

# Printed by untraced runs next to END_TO_END, but not part of the
# result line: the first two exist on sweep-512 only, and fail_ratio is
# 0 on a correct run (the result line carries it as failed / attempted).
SWEEP_ONLY = (
    ("parallel_moduli_per_s", "1/s", "higher"),
    ("latency_ms_p98", "ms", "lower"),
)
FAIL_RATIO = ("fail_ratio", "ratio", "lower")

# Layers whose `<layer>.self_s` sums the self time of all their spans.
LAYERS = ("zn", "oracle", "closed_form", "claims", "audit", "cli")
RENDER_FORMATS = ("md", "json", "csv")


def p98(samples: list[float]) -> float:
    """98th percentile; needs at least 500 samples to leave 10 beyond it."""
    return statistics.quantiles(samples, n=50)[-1]


def layer_metrics(
    calls: Counter[str],
    self_s: Counter[str],
    special: dict[str, float],
) -> dict[str, float]:
    """Every PER_LAYER value from span totals plus the workload's own figures.

    `special` supplies the ratios, byte counts and sweep figures that
    spans alone do not give; anything it omits reads 0.
    """
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls[name.removesuffix(".calls")]
        elif name.endswith(".self_s"):
            key = name.removesuffix(".self_s")
            if key in LAYERS:
                out[name] = sum(v for k, v in self_s.items() if k.startswith(key + "."))
            else:
                out[name] = self_s[key]
        else:
            out[name] = 0
    return out
