"""Tests of the benchmark's own code and committed references.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workload  # noqa: E402
from tracer import Tracer  # noqa: E402
from tpc_lab import graphs, solver  # noqa: E402

nx = pytest.importorskip("networkx")


def _table(name: str) -> dict:
    with open(os.path.join(HERE, "data", name), encoding="ascii") as fh:
        return json.load(fh)


def test_order7_classes_match_networkx_atlas():
    atlas = {
        graphs.canonical_code(
            graphs.Graph(7, [(min(u, v), max(u, v)) for u, v in h.edges()])
        )
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() == 7 and nx.is_connected(h)
    }
    ours = {graphs.canonical_code(g) for g in graphs.enumerate_connected_graphs(7)}
    assert len(atlas) == workload.CONNECTED_CLASSES[7]
    assert ours == atlas


def test_verify_expected_counts_come_from_the_atlas():
    import gen_reference

    assert _table("verify_expected.json")["examined"] == gen_reference.atlas_expected()


def test_order8_reference_route_split():
    rows = _table("order8_verdicts.json")["rows"]
    assert len(rows) == workload.CONNECTED_CLASSES[8]
    routes: dict[str, int] = {}
    for row in rows:
        routes[row[5]] = routes.get(row[5], 0) + 1
    assert routes["complete"] + routes["bound-match"] == 10121
    assert routes["found-at-lower"] == 810
    assert routes["exhausted"] == 171
    assert sorted(row[0] for row in rows if row[5] == "bounds-only") == sorted(
        "G??X}{ G??y{{ G??z~w G??z~{ G?CX]{ G?CX}[ G?CX}w G?CX}{ G?CZ~{ "
        "G?Ci{{ G?CxuK G?Cys{ G?Cy{{ G?Kx}c G@Kx}K".split()
    )


def test_refute_pool_is_the_exhausted_and_bounds_only_classes():
    pool = _table("refute_pool.json")
    assert len(pool["order7_hard"]) == 24
    k3_nodes = [
        nodes for row in pool["order7_hard"]
        for k, status, nodes in row[7] if k == 3 and status == "none"
    ]
    assert len(k3_nodes) == 24 and sum(k3_nodes) == 1_737_952
    assert len(pool["order8"]) == 186


def test_stratified_draw_is_seeded_where_costs_tie():
    rows = [[f"g{i:02d}", 0, "exact", 0, 0, "r", 0 if i < 50 else i] for i in range(100)]
    a = workload.stratified_draw(rows, 10, random.Random(5))
    assert a == workload.stratified_draw(rows, 10, random.Random(5))
    b = workload.stratified_draw(rows, 10, random.Random(6))
    # one row per stratum; the seed chooses only among equal-cost rows
    assert [int(row[0][1:]) // 10 for row in a] == list(range(10))
    assert a[:5] != b[:5]
    assert a[5:] == b[5:] == [rows[i] for i in (55, 65, 75, 85, 95)]


def test_tracer_reproduces_reference_nodes_and_restores_functions():
    original = solver.decide_k
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.decide_k is not original
        g = graphs.parse_graph6("F?K~_")
        cert = solver.tpc_exact(g)
    finally:
        tracer.uninstall()
    assert solver.decide_k is original
    layers = tracer.metrics()
    assert cert.value == 4
    assert layers["solver.decide.nodes.none_order7"] == 398_657
    assert layers["solver.route.exhausted"] == 1
    assert layers["solver.tpc_exact.calls"] == 1
    (row,) = tracer.request_nodes()
    assert row["graph6"] == "F?K~_"


def test_check_flags_a_wrong_value():
    job = workload.Pass("refute-n8", 1)
    job.draw = job.draw[:2]
    job.graphs = job.graphs[:2]
    job.run()
    job.check()
    assert job.errors == [] and job.undecided == 0
    job.draw[0] = [job.draw[0][0], job.draw[0][1] + 1] + job.draw[0][2:]
    job.errors.clear()
    job.check()
    assert len(job.errors) == 1 and "reference" in job.errors[0]
