"""The gbtc benchmark: one seeded, closed-loop workload per run, one caller.

    python3 perfbench/run.py --workload homology|fold|cli|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; gbtc is imported from its ``src``.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
nonzero when any output check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
from checkout import ROOT, child_env

WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("homology", "fold", "cli")
SETUPS = 11  # fresh processes timed for setup_s, after one untimed warm-up
WORKER_TIMEOUT_S = 170


def worker(args: list[str], timeout: float) -> bytes:
    """Run worker.py in its own process group and return its stdout; on a
    timeout the whole group, command processes included, is killed."""
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return out


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh process to first operation ready: interpreter, import gbtc and
    input generation, each timed from spawn to exit.  Returns those times
    and the host-speed kernel times taken around them."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    worker(args, 60)  # fills the bytecode cache, as an installed tool has it
    times, kernel_s = [], []
    for _ in range(SETUPS):
        kernel_s.append(hostspeed.kernel_seconds())
        t0 = time.perf_counter()
        worker(args, 60)
        times.append(time.perf_counter() - t0)
    kernel_s.append(hostspeed.kernel_seconds())
    return times, kernel_s


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    setups, kernel_s = setup_seconds(workload, seed) if not trace else ([], [])
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = worker([*args, "--trace", str(trace)], WORKER_TIMEOUT_S)
    res = json.loads(out.decode().strip().splitlines()[-1])
    if setups:
        res["raw"]["setup_s"] = statistics.median(setups)
        res["metrics"]["setup_s"] = (statistics.median(hostspeed.scaled(setups, kernel_s)), "s")
        res["setups"] = len(setups)
        res["setup_kernel_ms"] = statistics.median(kernel_s) * 1e3
    return res


def report(workload: str, seed: int, trace: int, res: dict) -> None:
    m = res["metrics"]
    print(
        f"== {workload}  seed={seed}  trace={trace}  nproc={os.cpu_count()}  "
        f"python={platform.python_version()}  closed loop, 1 caller"
    )
    if not trace:
        notes = {
            "setup_s": f"median of {res['setups']} fresh processes",
            "wall_s": f"median of {res['passes']} passes over {res['ops'] // res['passes']} inputs",
            "op_p50_ms": f"n={res['ops']}",
            "op_tail_ms": f"{res['tail_name']}, n={res['ops']}, 10 samples beyond",
            "peak_rss_mb": (
                "ru_maxrss, largest over the command processes"
                if workload == "cli"
                else "ru_maxrss of the fresh worker process"
            ),
        }
        print(
            f"  times scaled to a host where the speed kernel takes "
            f"{hostspeed.NOMINAL_S * 1e3:.0f} ms; here it took {res['kernel_ms']:.2f} ms "
            f"(median of {res['ops'] + 1}) in the worker and {res['setup_kernel_ms']:.2f} ms "
            f"(median of {res['setups'] + 1}) around the setups"
        )
        print(f"  {'metric':<14} {'value':>12} {'unit':<3} {'unscaled':>12}")
        for name in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
            value, unit = m[name]
            raw = f"{res['raw'][name]:>12.4f}" if name in res["raw"] else " " * 12
            print(f"  {name:<14} {value:>12.4f} {unit:<3} {raw} {notes[name]}")
    else:
        print(
            f"  per pass, mean of {res['traced_passes']} traced passes; "
            f"{res['passes']} untraced passes for the overhead; spans in {res['spans_file']}"
        )
        for name in sorted(m):
            value, unit = m[name]
            if value:
                print(f"  {name:<44} {value:>14.4f} {unit}")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"  fail_ratio     {fail_ratio:>12.4f}     {res['failed']}/{res['attempted']} operations")
    for err in res["errors"]:
        print(f"  FAILED: {err}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gbtc" / "__init__.py").is_file():
        sys.stderr.write(f"no gbtc sources under {ROOT / 'src'}; run from a gbtc checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        try:
            res = run_workload(workload, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            sys.stderr.write(f"{workload}: the worker did not finish: {exc}\n")
            return 2
        if set(res["metrics"]) != declared:
            sys.stderr.write(
                f"{workload}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(res['metrics']) ^ declared)}\n"
            )
            return 2
        report(workload, args.seed, args.trace, res)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, (value, unit) in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        res["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version()}
        (out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1), "utf-8"
        )
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
