"""One-off generator for the benchmark's committed inputs and reference tables.

Sweeps every connected class of orders 7 and 8 with `tpc_exact` at the
default budget and writes, under perfbench/data/:

- order8_verdicts.json: graph6, tpc, status, proven bounds, route and the
  decide_k nodes spent (in total and per k), for all 11,117 order-8 classes;
- refute_pool.json: the order-7 classes that need k = 3 exhaustion and the
  order-8 classes whose solve exhausts a k or times out;
- verify_expected.json: the `examined` count each verify-n7 report must
  show, derived from networkx's graph atlas, not from this package.

The benchmark reads these files; it never runs this script. The order-8
sweep takes about 11 CPU-minutes at the parent commit. Run it from the
repository root:

    python3 perfbench/gen_reference.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
sys.path.insert(0, os.path.join(ROOT, "src"))

from tpc_lab import solver  # noqa: E402
from tpc_lab.graphs import (  # noqa: E402
    enumerate_connected_graphs,
    parse_graph6,
    to_graph6,
)

# (k, status, nodes) of each decide_k call made by the current solve
_decide_log: list[tuple[int, str, int]] = []
_original_decide_k = solver.decide_k


def _counting_decide_k(g, k, *args, **kwargs):
    res = _original_decide_k(g, k, *args, **kwargs)
    _decide_log.append((k, res.status, res.nodes))
    return res


def route_of(cert, decides: list[tuple[int, str, int]]) -> str:
    """Which branch of the tpc_exact cascade produced the certificate."""
    if cert.status != "exact":
        return "bounds-only"
    if not decides:
        return "complete" if cert.value == 1 else "bound-match"
    if decides[-1][1] == "found" and len(decides) == 1:
        return "found-at-lower"
    return "exhausted"


def solve_row(g6: str) -> list:
    # tpc_exact looks decide_k up as a module global at call time
    solver.decide_k = _counting_decide_k
    _decide_log.clear()
    cert = solver.tpc_exact(parse_graph6(g6))
    decides = list(_decide_log)
    return [
        g6,
        cert.value,
        cert.status,
        cert.lower_bound,
        cert.upper_bound,
        route_of(cert, decides),
        sum(nodes for _, _, nodes in decides),
        [[k, status, nodes] for k, status, nodes in decides],
    ]


def sweep(n: int, jobs: int) -> list[list]:
    codes = [to_graph6(g) for g in enumerate_connected_graphs(n)]
    if jobs <= 1:
        return [solve_row(c) for c in codes]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        return list(pool.map(solve_row, codes, chunksize=16))


def atlas_expected() -> dict[str, int]:
    """examined counts of the verify-n7 statements, from networkx's atlas."""
    import networkx as nx

    by_order: dict[int, list] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            by_order.setdefault(h.number_of_nodes(), []).append(h)

    def complement_pairs(n: int) -> int:
        # classes G with G and its complement connected, G ~ co-G counted once
        graphs = [
            h for h in by_order[n] if nx.is_connected(nx.complement(h))
        ]
        self_comp = sum(
            1 for h in graphs if nx.is_isomorphic(h, nx.complement(h))
        )
        return (len(graphs) - self_comp) // 2 + self_comp

    two_connected_6 = sum(1 for h in by_order[6] if nx.is_biconnected(h))
    # ng_scan examines every pair plus the explicit sum-6 construction
    pairs7 = complement_pairs(7) + 1
    return {
        "thm4": len(by_order[7]),
        "thm5": pairs7,
        "thm6": pairs7,
        "cor2-consistency": two_connected_6,
        "prop2": 200,
    }


def _git_commit() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


FIELDS = [
    "graph6", "tpc", "status", "lower_bound", "upper_bound", "route",
    "nodes", "decides",
]


def _write(name: str, doc: dict) -> None:
    path = os.path.join(DATA, name)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    os.makedirs(DATA, exist_ok=True)
    meta = {
        "generated_from": _git_commit(),
        "python": sys.version.split()[0],
        "budget": {
            "max_nodes": solver.DEFAULT_BUDGET.max_nodes,
            "ham_steps": solver.DEFAULT_BUDGET.ham_steps,
        },
        "fields": FIELDS,
    }
    tables = {}
    for n in (7, 8):
        rows = sweep(n, args.jobs)
        tables[n] = rows
        routes: dict[str, int] = {}
        for row in rows:
            routes[row[5]] = routes.get(row[5], 0) + 1
        print(f"order {n}: {len(rows)} classes, routes {routes}", file=sys.stderr)
    _write("order8_verdicts.json", dict(meta, order=8, rows=tables[8]))
    hard7 = [
        row for row in tables[7]
        if row[5] == "exhausted" and any(
            k == 3 and status == "none" for k, status, _ in row[7]
        )
    ]
    pool8 = [row for row in tables[8] if row[5] in ("exhausted", "bounds-only")]
    _write(
        "refute_pool.json",
        dict(meta, order7_hard=hard7, order8=pool8),
    )
    _write("verify_expected.json", dict(meta, examined=atlas_expected()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
