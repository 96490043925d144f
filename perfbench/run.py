"""tpc-lab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and metric_map.json for why each exists):

- verify-n7: `cli.main` in-process, `verify --jobs 1` for thm4, thm5 and
  thm6 at n = 7, cor2-consistency at n = 6 and prop2 at n = 5-7 (seeded).
- sweep-n8: a cold `enumerate_connected_graphs(8)`, then `tpc_exact` on
  200 order-8 classes, one from each of 200 equal strata of the classes
  ranked by reference search cost (see workload.stratified_draw).
- refute-n8: `tpc_exact` on the 24 order-7 classes that need k = 3
  exhaustion plus a seeded draw of the order-8 classes that exhaust a k or
  time out.

With --trace 0 the run starts fresh interpreters that only set up, then
runs whole passes, each in a fresh interpreter, while they fit in
--seconds (at least one). It reports medians over them. With --trace 1 it
runs one plain pass and two traced passes under different PYTHONHASHSEED
values, fails if the deterministic counts differ, and reports the
per-layer metrics of the first traced pass. The traced passes write their
spans under .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed
(operations with a wrong output) and metrics. Lines before it give every
metric with its unit, fail_frac, and the machine the numbers come from.
Exit status: 0 when every output was correct, 1 when one was wrong or a
pass failed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = os.path.join(HERE, "workload.py")

sys.path.insert(0, HERE)
from tracer import DETERMINISTIC  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_ONLY_STARTS = 4
PASS_TIMEOUT_S = 170
TRACE_HASH_SEEDS = ("1", "977")


class BenchError(Exception):
    pass


def child_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    # the CLI's default --jobs reads TPC_LAB_JOBS; every pass is one process
    env.pop("TPC_LAB_JOBS", None)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def start_child(workload: str, seed: int, mode: str, hash_seed: str = "0") -> dict:
    """Run one workload.py interpreter and return its JSON line."""
    cmd = [
        sys.executable, WORKLOAD, "--workload", workload,
        "--seed", str(seed), "--mode", mode,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(hash_seed), capture_output=True,
            text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} ran over {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    # interpreter start to the first timed call: imports, inputs, references
    doc["setup_s"] = doc["ready"] - started
    doc["process_s"] = time.monotonic() - started
    return doc


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and sample count of the highest percentile with
    at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} latency samples leave no percentile with 10 beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def pass_metrics(doc: dict) -> dict[str, float]:
    value, _, _ = tail(doc["latencies_s"])
    failed = doc["undecided"] + len(doc["errors"])
    return {
        "wall_s": doc["wall_s"],
        "graph_ms_p50": statistics.median(doc["latencies_s"]) * 1000,
        "graph_ms_tail": value * 1000,
        "peak_rss_mb": doc["peak_rss_mb"],
        "decided_frac": 1 - failed / doc["attempted"],
    }


def plain_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    setups = [
        start_child(workload, seed, "setup")["setup_s"]
        for _ in range(SETUP_ONLY_STARTS)
    ]
    passes: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        doc = start_child(workload, seed, "plain")
        passes.append(doc)
        setups.append(doc["setup_s"])
        if doc["errors"] or time.monotonic() + doc["process_s"] > deadline:
            break
    per_pass = [pass_metrics(doc) for doc in passes]
    metrics = {"setup_s": statistics.median(setups)}
    for key in per_pass[0]:
        metrics[key] = statistics.median(m[key] for m in per_pass)
    return metrics, passes


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict]]:
    plain = start_child(workload, seed, "plain")
    traced = [start_child(workload, seed, "traced", h) for h in TRACE_HASH_SEEDS]
    first, second = (doc["layers"] for doc in traced)
    for key in DETERMINISTIC:
        if first[key] != second[key]:
            traced[0]["errors"].append(
                f"{key} differs across PYTHONHASHSEED {TRACE_HASH_SEEDS}: "
                f"{first[key]} vs {second[key]}"
            )
    metrics = dict(first)
    metrics["trace.overhead_frac"] = traced[0]["wall_s"] / plain["wall_s"] - 1
    return metrics, [plain] + traced


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def declared_units(section: str) -> dict[str, str]:
    """Metric name to unit, for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_workload(args) -> int:
    if args.trace:
        metrics, passes = traced_run(args.workload, args.seed)
        units = declared_units("per_layer")
    else:
        metrics, passes = plain_run(args.workload, args.seed, args.seconds)
        units = declared_units("end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"run lacks declared metrics {sorted(missing)}")
    metrics = {k: metrics[k] for k in units}
    errors = [e for doc in passes for e in doc["errors"]]
    attempted = sum(doc["attempted"] for doc in passes)
    undecided = sum(doc["undecided"] for doc in passes)
    _, pct, samples = tail(passes[-1]["latencies_s"])

    print(f"workload      {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"machine       {os.cpu_count()} cores, Python {platform.python_version()}, "
        f"{platform.platform()}"
    )
    print(f"commit        {git_commit()}")
    print(f"passes        {len(passes)}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    print(f"{'graph_ms_tail percentile':<40} {pct:>16.2f} p ({samples} samples per pass)")
    print(f"{'fail_frac':<40} {(undecided + len(errors)) / attempted:>16.6f} ratio "
          f"({undecided + len(errors)}/{attempted})")
    for err in errors[:20]:
        print(f"WRONG: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        # solver._finish checks every witness with an assert, which -O drops
        print("error: refusing to run under python -O or PYTHONOPTIMIZE", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "tpc_lab", "__init__.py")):
        print(f"error: no tpc_lab sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        args.workload = name
        try:
            status = max(status, run_workload(args))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
