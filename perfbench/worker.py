"""Run one workload in this fresh process and print its figures as JSON.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports gbtc from the checkout, builds the inputs from the seed and, unless
``--setup-only``, runs passes over them, one operation at a time, until S
seconds have gone by.  Every output is checked outside the timed region.
With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans (see tracing.py) and give the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
from tracing import MODULES, Tracer, self_times

MIN_SAMPLES = 40  # ten samples beyond the tail percentile put it at p75 or higher
CLI_COMMANDS = ("classify", "bound", "stable", "corpus", "verify-lemmas", "lambda", "homology")
SPAN_TIMES = {  # per-layer time metric -> (span name, scale from ns)
    "graph_core.normalize_ms": ("graph_core.normalize", 1e-6),
    "discrete_config.sufficient_subdivision_ms": ("discrete_config.sufficient_subdivision", 1e-6),
    "discrete_config.build_complex_s": ("discrete_config.build_complex", 1e-9),
    "discrete_config.betti_s": ("discrete_config.betti", 1e-9),
    "free_groups.stallings_core_ms": ("free_groups.stallings_core", 1e-6),
    "free_groups.pullback_ms": ("free_groups.pullback", 1e-6),
    "free_groups.is_forest_ms": ("free_groups.is_forest", 1e-6),
    "free_groups.oracle_ms": ("free_groups.disjoint_conjugates_bruteforce", 1e-6),
    "local_graphs.build_lambda_ms": ("local_graphs.build_lambda", 1e-6),
    "local_graphs.pi1_rank_ms": ("local_graphs.pi1_rank", 1e-6),
    "tc_bounds.lower_bound_us": ("tc_bounds.lower_bound", 1e-3),
    "tc_bounds.stable_report_us": ("tc_bounds.stable_report", 1e-3),
    "corpus.load_bundled_ms": ("corpus.load_bundled", 1e-6),
    "cli.interpreter_ms": ("cli.interpreter", 1e-6),
    "cli.import_ms": ("cli.import", 1e-6),
    "cli.main_ms": ("cli.main", 1e-6),
}
COUNTS = (
    "discrete_config.cells",
    "discrete_config.boundary_nnz",
    "free_groups.core_states",
    "free_groups.pullback_nodes",
    "free_groups.pullback_edges",
    "free_groups.oracle_h_words",
    "free_groups.oracle_violations",
    "local_graphs.lambda_vertices",
    "local_graphs.lambda_edges",
    "cli.stdout_bytes",
)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with ten samples beyond it, and its name."""
    xs = sorted(samples)
    n = len(xs)
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f}"


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Runner:
    def __init__(self, name: str, workload, items: list, tracer: Tracer | None):
        self.name, self.wl, self.items, self.tracer = name, workload, items, tracer
        self.attempted = 0
        self.errors: list[str] = []
        self.op_labels: dict[int, str] = {}

    def one_pass(self, traced: bool, op_ms: list[float], kernel_s: list[float] | None) -> float:
        """Run every input once; return the summed operation time in s.
        With ``kernel_s`` each operation is preceded by one host-speed kernel."""
        wall = 0
        for item in self.items:
            self.attempted += 1
            op = self.attempted
            if kernel_s is not None:
                kernel_s.append(hostspeed.kernel_seconds())
            gc.collect()  # every operation starts from the same collector state
            t0 = time.perf_counter_ns()
            try:
                out = self.traced_op(item, op) if traced else self.wl.run(item)
                dt = time.perf_counter_ns() - t0
                err = self.wl.check(item, out)
            except Exception as exc:  # a failed operation, counted and reported
                dt = time.perf_counter_ns() - t0
                err = f"{type(exc).__name__}: {exc}"
            wall += dt
            op_ms.append(dt / 1e6)
            if err is not None:
                self.errors.append(err)
        return wall / 1e9

    def traced_op(self, item, op: int):
        tr = self.tracer
        tr.op = op
        if self.name == "cli":
            self.op_labels[op] = item[0]
        rec = tr.begin(f"bench.{self.name}")
        try:
            if hasattr(self.wl, "run_traced"):
                return self.wl.run_traced(item, tr)
            tr.active = True
            try:
                return self.wl.run(item)
            finally:
                tr.active = False
        finally:
            tr.end(rec)

    def measure(self, seconds: float) -> dict:
        deadline = time.perf_counter() + seconds
        walls: list[float] = []
        op_ms: list[float] = []
        # Untraced runs time the host-speed kernel around every operation;
        # traced runs compare raw pass times, so they time none.
        kernel_s: list[float] | None = [] if self.tracer is None else None
        traced_walls: list[float] = []
        traced_ms: list[float] = []
        while True:
            t0 = time.perf_counter()
            walls.append(self.one_pass(False, op_ms, kernel_s))
            if self.tracer is not None:
                traced_walls.append(self.one_pass(True, traced_ms, None))
            # stop before a pass that would end past the deadline
            now = time.perf_counter()
            enough = len(walls) >= 2 if self.tracer else len(op_ms) >= MIN_SAMPLES
            if now + (now - t0) > deadline and enough:
                break
        out = {
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors[:5],
            "passes": len(walls),
            "ops": len(op_ms),
        }
        if kernel_s is not None:
            kernel_s.append(hostspeed.kernel_seconds())  # the one after the last operation
            who = resource.RUSAGE_CHILDREN if self.name == "cli" else resource.RUSAGE_SELF
            scaled_ms = hostspeed.scaled(op_ms, kernel_s)
            per = len(self.items)
            scaled_walls = [sum(scaled_ms[i : i + per]) / 1e3 for i in range(0, len(scaled_ms), per)]
            tail_ms, tail_name = tail(scaled_ms)
            out["tail_name"] = tail_name
            out["raw"] = {
                "wall_s": statistics.median(walls),
                "op_p50_ms": statistics.median(op_ms),
                "op_tail_ms": tail(op_ms)[0],
            }
            out["kernel_ms"] = statistics.median(kernel_s) * 1e3
            out["metrics"] = {
                "wall_s": (statistics.median(scaled_walls), "s"),
                "op_p50_ms": (statistics.median(scaled_ms), "ms"),
                "op_tail_ms": (tail_ms, "ms"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            }
        else:
            overhead = statistics.median(t - u for u, t in zip(walls, traced_walls))
            out["traced_passes"] = len(traced_walls)
            out["metrics"] = self.layer_metrics(len(traced_walls), overhead)
        return out

    def layer_metrics(self, passes: int, overhead: float) -> dict:
        tr = self.tracer
        dur: defaultdict[str, int] = defaultdict(int)
        own: defaultdict[str, int] = defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        per_cmd: defaultdict[str, int] = defaultdict(int)
        for (name, start, end, _, op), self_ns in zip(tr.spans, self_times(tr.spans)):
            dur[name] += end - start
            if name == "cli.main":
                per_cmd[self.op_labels[op]] += end - start
            module = name.split(".", 1)[0]
            if module in MODULES and name not in ("cli.interpreter", "cli.import"):
                own[module] += self_ns
                calls[module] += 1
        m: dict[str, tuple[float, str]] = {}
        for metric, (span, scale) in SPAN_TIMES.items():
            m[metric] = (dur[span] * scale / passes, metric.rsplit("_", 1)[1])
        for cmd in CLI_COMMANDS:
            m[f"cli.main_ms.{cmd}"] = (per_cmd[cmd] / 1e6 / passes, "ms")
        for key in COUNTS:
            m[key] = (tr.counts[key] / passes, "B" if key == "cli.stdout_bytes" else "count")
        for module in MODULES:
            m[f"{module}.self_ms"] = (own[module] / 1e6 / passes, "ms")
            m[f"{module}.calls"] = (calls[module] / passes, "count")
        c = tr.counts
        m["discrete_config.cells_per_s"] = (
            ratio(c["discrete_config.cells"], dur["discrete_config.build_complex"] / 1e9),
            "1/s",
        )
        m["free_groups.pullback_live_ratio"] = (
            ratio(c["free_groups.pullback_live_nodes"], c["free_groups.pullback_nodes"]),
            "ratio",
        )
        m["free_groups.fold_ratio"] = (
            ratio(c["free_groups.core_states"], c["free_groups.bouquet_states"]),
            "ratio",
        )
        m["trace.overhead_s"] = (overhead, "s")
        m["trace.spans"] = (len(tr.spans) / passes, "count")
        return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import gbtc
    import workloads

    src = workloads.ROOT / "src"
    if src not in Path(gbtc.__file__).resolve().parents:
        sys.stderr.write(f"gbtc imported from {gbtc.__file__}, not from {src}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    items = wl.inputs(args.seed)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = Runner(args.workload, wl, items, tracer).measure(args.seconds)
    if tracer is not None:
        out_dir = workloads.ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.spans), "utf-8")
        result["spans_file"] = str(path.relative_to(workloads.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
