"""Span tracing of tpc_lab from outside the package.

`Tracer.install()` wraps every public function of the traced modules and
puts each wrapper in place of the original under every name that refers to
it in any tpc_lab module namespace. This reaches internal calls too, because
the package calls these functions through module globals (`from .graphs
import canonical_form` binds a global that is looked up at call time).

A span records its name, start, end, parent span and request id; a request
is the outermost span open at the time, that is one graph solved by the
benchmark or one CLI statement. Spans stay in memory, in flat arrays, until
the run ends. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

TRACED_MODULES = ("graphs", "coloring", "families", "solver", "harness", "cli")

# counts that must repeat exactly across runs of one code and seed
DETERMINISTIC = (
    "solver.decide.nodes.found",
    "solver.decide.nodes.none",
    "solver.decide.nodes.timeout",
    "solver.strong.nodes",
    "graphs.ham_steps",
    "graphs.canonical_form.calls",
)

STATUSES = ("found", "none", "timeout")
ROUTES = ("complete", "bound-match", "found-at-lower", "exhausted", "bounds-only")
STATEMENTS = ("thm4", "thm5", "thm6", "cor2-consistency", "prop2")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # per-span facts taken from arguments and results, by span id
        self.notes: dict[int, object] = {}
        self.harness_graphs: list = []
        self._originals: list[tuple[object, str, object]] = []
        self._unwrapped: dict[str, object] = {}

    def _span_name(self, qualname: str) -> int:
        nid = self._name_id.get(qualname)
        if nid is None:
            nid = self._name_id[qualname] = len(self.names)
            self.names.append(qualname)
        return nid

    def _wrap(self, qualname: str, fn):
        nid = self._span_name(qualname)
        note = _NOTES.get(qualname)
        eager = inspect.isgeneratorfunction(fn)
        stack = self.stack
        name, parent, request = self.name, self.parent, self.request
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name)
            up = stack[-1] if stack else -1
            name.append(nid)
            parent.append(up)
            request.append(request[up] if up >= 0 else sid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if eager:
                    # a generator's work happens while it is consumed, so
                    # run it to the end inside its own span
                    result = list(result)
            finally:
                end[sid] = clock()
                stack.pop()
            if note is not None:
                note(self, sid, args, kwargs, result)
            return iter(result) if eager else result

        return wrapper

    def install(self) -> None:
        modules = {
            m: importlib.import_module(f"tpc_lab.{m}") for m in TRACED_MODULES
        }
        namespaces = list(modules.values()) + [importlib.import_module("tpc_lab")]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                qualname = f"{short}.{attr}"
                self._unwrapped[qualname] = fn
                wrapper = self._wrap(qualname, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._originals.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._originals):
            setattr(ns, key, fn)
        self._originals.clear()

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line."""
        names = self.names
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tparent\trequest\tstart_s\tend_s\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{names[self.name[sid]]}\t{self.parent[sid]}\t"
                    f"{self.request[sid]}\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )

    def original(self, qualname: str):
        """The unwrapped function, for work the benchmark does outside spans."""
        return self._unwrapped[qualname]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and their notes."""
        names = self.names
        nspans = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(nspans)]
        child = [0.0] * nspans
        decided_under: set[int] = set()
        decide = self._span_name("solver.decide_k")
        for sid in range(nspans):
            up = self.parent[sid]
            if up >= 0:
                child[up] += dur[sid]
                if self.name[sid] == decide:
                    decided_under.add(up)
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid in range(nspans):
            key = names[self.name[sid]]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + dur[sid] - child[sid]
            if self.parent[sid] < 0 or names[self.name[self.parent[sid]]] != key:
                total[key] = total.get(key, 0.0) + dur[sid]

        out: dict[str, float] = {}

        def spans_of(qualname: str):
            nid = self._name_id.get(qualname, -1)
            return [sid for sid in range(nspans) if self.name[sid] == nid]

        enum = spans_of("graphs.enumerate_connected_graphs")
        out["graphs.enumerate_s"] = sum(dur[s] for s in enum)
        out["graphs.classes"] = sum(self.notes[s] for s in enum)
        cf_calls = calls.get("graphs.canonical_form", 0)
        out["graphs.canonical_form.calls"] = cf_calls
        out["graphs.canonical_form.us_per_call"] = (
            total.get("graphs.canonical_form", 0.0) / cf_calls * 1e6 if cf_calls else 0.0
        )
        out["graphs.canonical_code.calls"] = calls.get("graphs.canonical_code", 0)
        out["graphs.canonical_code_s"] = total.get("graphs.canonical_code", 0.0)
        ham = spans_of("graphs.find_hamiltonian_path")
        out["graphs.ham.calls"] = len(ham)
        out["graphs.ham_steps"] = sum(self.notes[s] for s in ham)
        out["graphs.ham_s"] = total.get("graphs.find_hamiltonian_path", 0.0)
        out["solver.bounds_s"] = total.get("solver.compute_bounds", 0.0)
        # color_complete_bipartite calls color_bipartite_plus_vertex: count
        # only the outermost coloring span
        is_color = [n.startswith("families.color_") for n in names]
        out["families.color_s"] = sum(
            dur[sid] for sid in range(nspans)
            if is_color[self.name[sid]]
            and not (self.parent[sid] >= 0 and is_color[self.name[self.parent[sid]]])
        )
        out["coloring.check.calls"] = calls.get("coloring.check_total_proper_connected", 0)
        out["coloring.check_s"] = total.get("coloring.check_total_proper_connected", 0.0)

        split = {st: [0, 0, 0.0] for st in STATUSES}
        none_order7 = 0
        for sid in spans_of("solver.decide_k"):
            _, status, nodes, order = self.notes[sid]
            if status == "none" and order == 7:
                none_order7 += nodes
            row = split[status]
            row[0] += 1
            row[1] += nodes
            row[2] += dur[sid]
        for st, (n_calls, nodes, secs) in split.items():
            out[f"solver.decide.calls.{st}"] = n_calls
            out[f"solver.decide.nodes.{st}"] = nodes
            out[f"solver.decide.s.{st}"] = secs
        out["solver.decide.nodes.none_order7"] = none_order7
        all_nodes = sum(row[1] for row in split.values())
        all_secs = sum(row[2] for row in split.values())
        out["solver.decide.nodes_per_s"] = all_nodes / all_secs if all_secs else 0.0
        out["solver.decide.timeout_node_share"] = (
            split["timeout"][1] / all_nodes if all_nodes else 0.0
        )

        routes = dict.fromkeys(ROUTES, 0)
        for sid in spans_of("solver.tpc_exact"):
            routes[_route(self.notes[sid], sid in decided_under)] += 1
        for route, count in routes.items():
            out[f"solver.route.{route}"] = count
        out["solver.tpc_exact.calls"] = calls.get("solver.tpc_exact", 0)
        out["solver.tpc_exact.self_s"] = self_s.get("solver.tpc_exact", 0.0)

        strong = spans_of("solver.find_strong_coloring")
        out["solver.strong.calls"] = len(strong)
        out["solver.strong.nodes"] = sum(self.notes[s] for s in strong)
        out["solver.strong.s"] = total.get("solver.find_strong_coloring", 0.0)
        out["coloring.strong_check.calls"] = calls.get("coloring.has_strong_property", 0)
        out["coloring.strong_check_s"] = total.get("coloring.has_strong_property", 0.0)

        per_statement = dict.fromkeys(STATEMENTS, 0.0)
        for sid in spans_of("harness.verify_statement"):
            per_statement[self.notes[sid]] = (
                per_statement.get(self.notes[sid], 0.0) + dur[sid]
            )
        for statement, secs in per_statement.items():
            out[f"harness.verify_s.{statement}"] = secs
        out["harness.ng_scan.self_s"] = self_s.get("harness.ng_scan", 0.0)
        solves = len(self.harness_graphs)
        canonical_code = self.original("graphs.canonical_code")
        distinct = len({canonical_code(g) for g in self.harness_graphs})
        out["harness.solve.calls"] = solves
        out["harness.solve.distinct"] = distinct
        out["harness.solve.reuse_ratio"] = distinct / solves if solves else 0.0

        # the CLI's own work: parsing, dispatch and report serialisation
        main = spans_of("cli.main")
        main_set = set(main)
        inner = sum(
            dur[s] for s in spans_of("harness.verify_statement")
            if self.parent[s] in main_set
        )
        out["cli.main.self_s"] = sum(dur[s] for s in main) - inner
        return out

    def request_nodes(self) -> list[dict]:
        """decide_k outcome and nodes per k, one row per tpc_exact call."""
        to_graph6 = self.original("graphs.to_graph6")
        tpc = self._span_name("solver.tpc_exact")
        decide = self._span_name("solver.decide_k")
        rows: dict[int, dict] = {}
        for sid in range(len(self.name)):
            if self.name[sid] == tpc:
                rows[sid] = {"graph6": to_graph6(self.notes[sid][0]), "decide": []}
            elif self.name[sid] == decide and self.parent[sid] in rows:
                rows[self.parent[sid]]["decide"].append(list(self.notes[sid]))
        return list(rows.values())


def _route(note, decided: bool) -> str:
    _, status, value, lower_reason = note
    if status != "exact":
        return "bounds-only"
    if not decided:
        return "complete" if value == 1 else "bound-match"
    # tpc_exact names its reason "bound-match" when the first k searched,
    # the lower bound, already found a coloring
    return "found-at-lower" if lower_reason == "bound-match" else "exhausted"


# -- facts recorded from arguments and results ------------------------------


def _note_enumerate(tr: Tracer, sid, args, kwargs, result) -> None:
    tr.notes[sid] = len(result)


def _note_ham(tr: Tracer, sid, args, kwargs, result) -> None:
    tr.notes[sid] = result.steps


def _note_decide(tr: Tracer, sid, args, kwargs, result) -> None:
    g = args[0] if args else kwargs["g"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    tr.notes[sid] = (k, result.status, result.nodes, g.n)


def _note_strong(tr: Tracer, sid, args, kwargs, result) -> None:
    tr.notes[sid] = result.nodes


def _note_tpc(tr: Tracer, sid, args, kwargs, result) -> None:
    g = args[0] if args else kwargs["g"]
    tr.notes[sid] = (g, result.status, result.value, result.lower_reason)
    up = tr.parent[sid]
    if up >= 0 and tr.names[tr.name[up]].startswith("harness."):
        tr.harness_graphs.append(g)


def _note_verify(tr: Tracer, sid, args, kwargs, result) -> None:
    case = args[0] if args else kwargs["case"]
    tr.notes[sid] = case.statement


_NOTES = {
    "graphs.enumerate_connected_graphs": _note_enumerate,
    "graphs.find_hamiltonian_path": _note_ham,
    "solver.decide_k": _note_decide,
    "solver.find_strong_coloring": _note_strong,
    "solver.tpc_exact": _note_tpc,
    "harness.verify_statement": _note_verify,
}
