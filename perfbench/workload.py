"""One pass of one benchmark workload, in a fresh interpreter.

perfbench/run.py starts this file once per pass; it is not meant to be run
by hand. Every workload is a closed loop with one caller that sends its next
call only when the last one returned. The pass prints one JSON line: when
set-up ended, the pass's wall time, per-graph latencies, peak memory, and
the outcome counts of the correctness checks, which run after the timed
region. With --mode traced it also wraps the package's public functions
(see tracer.py) and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("verify-n7", "sweep-n8", "refute-n8")

# connected graphs per order, OEIS A001349
CONNECTED_CLASSES = {7: 853, 8: 11117}

VERIFY_STATEMENTS = (
    ("thm4", "7"),
    ("thm5", "7"),
    ("thm6", "7"),
    ("cor2-consistency", "6"),
    ("prop2", "5-7"),
)

# order-8 classes solved per sweep-n8 pass, and order-8 classes drawn per
# refute-n8 pass from the exhausted and from the bounds-only pool
SWEEP_DRAW = 200
REFUTE_DRAW_EXHAUSTED = 8
REFUTE_DRAW_BOUNDS_ONLY = 1


def _load(name: str) -> dict:
    with open(os.path.join(DATA, name), encoding="ascii") as fh:
        return json.load(fh)


def stratified_draw(rows: list, count: int, rng: random.Random) -> list:
    """One row from each of `count` equal strata of rows ranked by cost.

    Cost is the decide_k nodes the reference solve spent. Where a stratum's
    rows all cost the same (no search, or a full-budget timeout), the seed
    picks any of them. Where they differ, solve times differ 2-5x even
    between neighbouring rows, and a seeded pick moved graph_ms_tail and the
    solve time by 10-15% between seeds; there the draw takes the stratum's
    median row. Each stratum gives exactly one row, so the draw keeps the
    population's mix of routes.
    """
    ranked = sorted(rows, key=lambda row: (row[6], row[0]))
    step = len(ranked) / count
    out = []
    for i in range(count):
        stratum = ranked[int(i * step):int((i + 1) * step)]
        if stratum[0][6] == stratum[-1][6]:
            out.append(rng.choice(stratum))
        else:
            out.append(stratum[len(stratum) // 2])
    return out


class Pass:
    """Inputs, timed loop and checks of one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        from tpc_lab import cli, coloring, graphs, harness, solver

        self.mods = {
            "cli": cli, "coloring": coloring, "graphs": graphs,
            "harness": harness, "solver": solver,
        }
        self.workload = workload
        self.seed = seed
        self.latencies: list[float] = []
        self.attempted = 0
        self.undecided = 0
        self.errors: list[str] = []
        rng = random.Random(seed)
        if workload == "verify-n7":
            self.expected = _load("verify_expected.json")["examined"]
        elif workload == "sweep-n8":
            table = _load("order8_verdicts.json")["rows"]
            self.reference = table
            # bounds-only classes burn the whole node budget; refute-n8
            # measures them, and leaving them out here keeps wall_s unimodal
            drawable = [row for row in table if row[2] == "exact"]
            self.draw = stratified_draw(drawable, SWEEP_DRAW, rng)
        elif workload == "refute-n8":
            pool = _load("refute_pool.json")
            exhausted = [row for row in pool["order8"] if row[2] == "exact"]
            bounds_only = [row for row in pool["order8"] if row[2] != "exact"]
            self.draw = (
                pool["order7_hard"]
                + stratified_draw(exhausted, REFUTE_DRAW_EXHAUSTED, rng)
                + stratified_draw(bounds_only, REFUTE_DRAW_BOUNDS_ONLY, rng)
            )
        else:
            raise ValueError(f"unknown workload {workload!r}")
        if workload != "verify-n7":
            # in ranked order all no-search classes would be solved in one
            # burst of a few milliseconds, where one stall moves graph_ms_p50
            rng.shuffle(self.draw)
            self.graphs = [graphs.parse_graph6(row[0]) for row in self.draw]

    # -- timed region ------------------------------------------------------

    def run(self) -> None:
        getattr(self, "_run_" + self.workload.replace("-", "_"))()

    def _run_verify_n7(self) -> None:
        cli, harness = self.mods["cli"], self.mods["harness"]
        # the CLI has no seed flag; prop2 reads the seed from TheoremCase
        cli.TheoremCase = functools.partial(harness.TheoremCase, seed=self.seed)
        inner = harness.tpc_exact
        clock = time.perf_counter
        latencies = self.latencies

        def timed_tpc_exact(g, *args, **kwargs):
            t0 = clock()
            cert = inner(g, *args, **kwargs)
            latencies.append(clock() - t0)
            return cert

        harness.tpc_exact = timed_tpc_exact
        self.outputs = []
        for statement, orders in VERIFY_STATEMENTS:
            argv = [
                "verify", "--statement", statement, "--n", orders,
                "--jobs", "1", "--format", "json",
            ]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            self.outputs.append((statement, code, buf.getvalue()))
        harness.tpc_exact = inner

    def _run_sweep_n8(self) -> None:
        self.classes = list(self.mods["graphs"].enumerate_connected_graphs(8))
        self._solve_all()

    def _run_refute_n8(self) -> None:
        self._solve_all()

    def _solve_all(self) -> None:
        solver = self.mods["solver"]
        clock = time.perf_counter
        certs = []
        for g in self.graphs:
            t0 = clock()
            cert = solver.tpc_exact(g)
            self.latencies.append(clock() - t0)
            certs.append(cert)
        self.certs = certs

    # -- checks, after the timed region ------------------------------------

    def check(self) -> None:
        if self.workload == "verify-n7":
            self._check_reports()
            return
        if self.workload == "sweep-n8":
            to_graph6 = self.mods["graphs"].to_graph6
            codes = {to_graph6(g) for g in self.classes}
            if len(self.classes) != CONNECTED_CLASSES[8]:
                self.errors.append(
                    f"order 8 gave {len(self.classes)} classes, "
                    f"expected {CONNECTED_CLASSES[8]}"
                )
            elif codes != {row[0] for row in self.reference}:
                self.errors.append("order-8 classes differ from the reference table")
            self.attempted += 1
        for g, cert, ref in zip(self.graphs, self.certs, self.draw):
            self.attempted += 1
            self._check_cert(g, cert, ref)

    def _check_cert(self, g, cert, ref) -> None:
        g6, ref_tpc, ref_status, ref_lower, ref_upper = ref[:5]
        check = self.mods["coloring"].check_total_proper_connected
        problems = []
        if cert.graph != g:
            problems.append("certificate names another graph")
        if not check(g, cert.witness).ok:
            problems.append("witness fails the checker")
        if cert.witness.num_colors() > cert.value:
            problems.append(f"witness uses {cert.witness.num_colors()} colors")
        if cert.status == "exact":
            if ref_status == "exact":
                if cert.value != ref_tpc:
                    problems.append(f"tpc {cert.value}, reference {ref_tpc}")
            elif not ref_lower <= cert.value <= ref_upper:
                # a class the reference left bounds-only may now be solved
                problems.append(
                    f"tpc {cert.value} outside recorded bounds [{ref_lower}, {ref_upper}]"
                )
        elif cert.status == "bounds-only":
            self.undecided += 1
            # both intervals are proven, so they must overlap
            if max(cert.lower_bound, ref_lower) > min(cert.value, ref_upper):
                problems.append(
                    f"bounds [{cert.lower_bound}, {cert.value}] contradict "
                    f"reference [{ref_lower}, {ref_upper}]"
                )
        else:
            problems.append(f"unknown status {cert.status!r}")
        if problems:
            self.errors.append(f"{g6}: " + "; ".join(problems))

    def _check_reports(self) -> None:
        for statement, code, text in self.outputs:
            self.attempted += 1
            if code == 3:
                self.undecided += 1
            elif code != 0:
                self.errors.append(f"{statement}: exit code {code}")
                continue
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                self.errors.append(f"{statement}: report is not JSON ({exc})")
                continue
            if report["counterexamples"]:
                self.errors.append(
                    f"{statement}: {len(report['counterexamples'])} counterexamples"
                )
            if report["examined"] != self.expected[statement]:
                self.errors.append(
                    f"{statement}: examined {report['examined']}, "
                    f"expected {self.expected[statement]}"
                )
            if (code == 3) != bool(report["timeouts"]):
                self.errors.append(f"{statement}: exit {code} with timeouts {report['timeouts']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    job = Pass(args.workload, args.seed)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.mode != "setup":
        t0 = time.perf_counter()
        job.run()
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        if tracer is not None:
            tracer.uninstall()
        job.check()
        result.update(
            latencies_s=job.latencies,
            attempted=job.attempted,
            undecided=job.undecided,
            errors=job.errors,
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            os.makedirs(OUT, exist_ok=True)
            stem = os.path.join(
                OUT,
                f"{args.workload}-seed{args.seed}-hash{os.environ.get('PYTHONHASHSEED', 'random')}",
            )
            tracer.dump(stem + ".spans.tsv")
            with open(stem + ".solves.json", "w", encoding="ascii") as fh:
                json.dump(tracer.request_nodes(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
