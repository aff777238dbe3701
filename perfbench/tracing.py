"""Spans around calls into the public functions of each gbtc module.

``Tracer.install`` rebinds every public function of every gbtc module, in
each module namespace that names it, to a wrapper that records a span while
the tracer is active.  Calls between modules and within one module go
through those namespaces, so nested calls become child spans.  A span is
``[name, start_ns, end_ns, parent, op]``; spans stay in memory and are
written out when the run ends.  Counters are read at the same boundaries
from the arguments and results of a few calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("graph_core", "discrete_config", "free_groups", "local_graphs", "tc_bounds", "corpus", "cli")


def _count_complex(counts, args, result) -> None:
    counts["discrete_config.cells"] += sum(len(layer) for layer in result.cells)
    counts["discrete_config.boundary_nnz"] += sum(
        len(col) for layer in result.boundaries for col in layer
    )


def _count_pullback(counts, args, result) -> None:
    counts["free_groups.pullback_nodes"] += len(result.nodes)
    counts["free_groups.pullback_edges"] += len(result.edges)
    counts["free_groups.pullback_live_nodes"] += len(
        {x for e in result.edges for x in e[:2]}
    )


def _count_core(counts, args, result) -> None:
    counts["free_groups.core_states"] += result.n_states
    gens = args[1]
    if isinstance(gens, (list, tuple)):
        counts["free_groups.bouquet_states"] += 1 + sum(max(len(w) - 1, 0) for w in gens)


def _count_oracle(counts, args, result) -> None:
    counts["free_groups.oracle_violations"] += result.found_violation


def _count_h_words(counts, args, result) -> None:
    counts["free_groups.oracle_h_words"] += len(result)


def _count_lambda(counts, args, result) -> None:
    counts["local_graphs.lambda_vertices"] += result.n_vertices
    counts["local_graphs.lambda_edges"] += result.n_edges


HOOKS = {
    "discrete_config.build_complex": _count_complex,
    "free_groups.pullback": _count_pullback,
    "free_groups.stallings_core": _count_core,
    "free_groups.disjoint_conjugates_bruteforce": _count_oracle,
    "free_groups.subgroup_elements_up_to": _count_h_words,
    "local_graphs.build_lambda": _count_lambda,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.active = False
        self.op = None
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # direct recursion stays inside the caller's span
            if not self.active or (self._stack and self.spans[self._stack[-1]][0] == name):
                return fn(*args, **kwargs)
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"gbtc.{m}") for m in MODULES]
        modules.append(importlib.import_module("gbtc"))
        wrapped: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("gbtc."):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name)
                setattr(mod, attr, wrapped[obj])

    def add(self, spans: list[list], counts: dict, op) -> None:
        """Adopt spans recorded in another process under the current span."""
        base, parent = len(self.spans), self._stack[-1] if self._stack else None
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par is None else base + par, op])
        for key, v in counts.items():
            self.counts[key] += v


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover (children
    of one span never overlap: the benchmark runs one caller, one thread)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
