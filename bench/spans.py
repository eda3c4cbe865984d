"""Spans around the public functions of each indegraph layer.

The package itself stays untouched: `Tracer.install` rebinds, from
outside, every public function of the six layer modules, every public
method of `oracle.IndependentGraph`, and every other name in the
package that refers to one of those functions (`claims` and
`closed_form` import `is_prime`, `euler_phi` and `divisors` straight
from `zn`, so patching `zn` alone would miss their calls).

Spans are kept in flat arrays while the traced pass runs. Self time is
derived afterwards: a span's duration minus the time its child spans
cover. Nothing is written until the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from importlib import import_module

from metrics import LAYERS, RENDER_FORMATS


def _public_functions(module) -> dict[str, object]:
    """Functions a module defines and exports, lru_cache wrappers included."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


class Tracer:
    """Spans of one traced pass, plus the counts spans alone do not give."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.render_bytes: Counter[str] = Counter()
        self.is_prime_args: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- installation --------------------------------------------------------

    def _wrappers(self) -> dict[int, object]:
        """Map id(original) -> wrapper for every traced callable."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = import_module(f"indegraph.{layer}")
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)

        zn = import_module("indegraph.zn")
        is_prime = wrappers[id(zn.is_prime)]
        seen = self.is_prime_args

        def counted_is_prime(n):
            seen.add(n)
            return is_prime(n)

        wrappers[id(zn.is_prime)] = functools.update_wrapper(counted_is_prime, zn.is_prime)

        audit = import_module("indegraph.audit")
        per_format = {
            fmt: self.wrap(f"audit.render_report.{fmt}", audit.render_report)
            for fmt in RENDER_FORMATS
        }
        other = wrappers[id(audit.render_report)]
        sizes = self.render_bytes

        def render_report(report, fmt):
            key = fmt.lower()
            text = per_format.get(key, other)(report, fmt)
            sizes[key] += len(text.encode("utf-8"))
            return text

        wrappers[id(audit.render_report)] = functools.update_wrapper(
            render_report, audit.render_report
        )
        return wrappers

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers()
        oracle = import_module("indegraph.oracle")
        cls = oracle.IndependentGraph
        for name, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                if f"oracle.{name}" in self._ids:
                    raise RuntimeError(f"oracle.{name} names both a function and a method")
                self._undo.append((cls, name, fn))
                setattr(cls, name, self.wrap(f"oracle.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "indegraph" or mod_name.startswith("indegraph.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> tuple[Counter[str], Counter[str]]:
        """Calls and self time in seconds, by span name."""
        if len(self._stack) != 1:
            raise RuntimeError("summary taken while spans are still open")
        count = len(self.span_start)
        starts, ends, parents, names = (
            self.span_start, self.span_end, self.span_parent, self.span_name
        )
        covered = [0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls: Counter[str] = Counter()
        self_ns: Counter[int] = Counter()
        for i in range(count):
            self_ns[names[i]] += ends[i] - starts[i] - covered[i]
        for nid, n in Counter(names).items():
            calls[self.names[nid]] = n
        self_s = Counter({self.names[nid]: ns / 1e9 for nid, ns in self_ns.items()})
        return calls, self_s

    def write(self, path: str) -> None:
        """All spans as CSV rows: name, parent row (-1 at the root), start and end in ns."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,parent,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
