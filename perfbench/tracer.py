"""Span tracing of semidop's layers from outside the package.

Each public entry point is wrapped where its caller module resolves it (for
example ``semidop.pipeline.cholesky`` and the ``mat_mul`` name inside
``structure`` and ``integrable``), so nothing under ``src/`` changes. A span
records name, start, end, parent span, item id and, when the call raised, the
exception class. Start and end are readings of the traced thread's CPU clock
(``thread_time``); the worker maps them to reference seconds (``speed.py``).
Spans stay in memory until the pass ends; the per-layer metrics are derived
from the span tree afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
from time import thread_time

FIELDS = ("name", "start", "end", "parent", "item", "error", "extra")
NAME, START, END, PARENT, ITEM, ERROR, EXTRA = range(len(FIELDS))
REFUSALS = ("TermBudgetExceeded", "DivergentSeries")


def _table_columns(self, w, m_max, *args, **kwargs):
    return m_max + 1


# (module, attribute path, span name, extra(args) or None). Functions are
# patched in every module that imports them; methods on their class.
TARGETS = (
    ("semidop.moments", "MomentTable.__init__", "moments.table", _table_columns),
    ("semidop.moments", "MomentTable.rebuilt", "moments.confirm", None),
    ("semidop.moments", "MomentTable.det_rows", "moments.det_rows", None),
    ("semidop.pipeline", "cholesky", "moments.cholesky", None),
    ("semidop.pipeline", "get_pipeline", "pipeline.request", None),
    ("semidop.report", "get_pipeline", "pipeline.request", None),
    ("semidop.integrable", "get_pipeline", "pipeline.request", None),
    ("semidop.cli", "get_pipeline", "pipeline.request", None),
    ("semidop.pipeline", "WeightPipeline.__init__", "pipeline.build", None),
    ("semidop.pipeline", "WeightPipeline.flow_scaled", "pipeline.flow_scaled", None),
    ("semidop.pipeline", "WeightPipeline.shifted", "pipeline.shifted", None),
    ("semidop.flows", "tau_jet", "flows.jet", None),
    ("semidop.flows", "log_tau_jet", "flows.jet", None),
    ("semidop.integrable", "log_tau_jet", "flows.jet", None),
    ("semidop.integrable", "tau_derivative", "flows.jet", None),
    ("semidop.flows", "fd_flow_derivative", "flows.fd", None),
    ("semidop.flows", "derivative_fd_crosscheck", "flows.fd", None),
    ("semidop.integrable", "fd_flow_derivative", "flows.fd", None),
    ("semidop.integrable", "derivative_fd_crosscheck", "flows.fd", None),
    ("semidop.integrable", "fd_convergence_study", "flows.fd", None),
    ("semidop.pipeline", "jacobi_matrix", "structure.jacobi", None),
    ("semidop.pipeline", "dressed_pascal", "structure.pascal", None),
    ("semidop.pipeline", "psi_structure_check", "structure.psi", None),
    ("semidop.linalg", "mat_mul", "linalg.mat_mul", None),
    ("semidop.structure", "mat_mul", "linalg.mat_mul", None),
    ("semidop.integrable", "mat_mul", "linalg.mat_mul", None),
    ("semidop.moments", "ldl_no_pivot", "linalg.ldl", None),
    ("semidop.structure", "ldl_no_pivot", "linalg.ldl", None),
    ("semidop.moments", "lu_determinant", "linalg.lu_det", None),
)


class Tracer:
    """Records spans while an item is open; outside items calls pass through."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item: str | None = None
        self.unpatched: list[str] = []

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            return self._run(name, fn, args, kwargs, extra(*args, **kwargs) if extra else None)

        return traced

    def _run(self, name, fn, args, kwargs, extra):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, thread_time(), 0.0, parent, self._item, None, extra]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = thread_time()
            self._stack.pop()

    def item(self, item_id: str, fn, *args):
        """Run one workload item as a root span."""
        self._item = item_id
        try:
            return self._run("item", fn, args, {}, None)
        finally:
            self._item = None

    def install(self) -> None:
        """Patch every target that exists; missing ones are listed in ``unpatched``."""
        for module_name, path, span_name, extra in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.unpatched.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span_name, fn, extra))
        self._install_checks()
        if self.unpatched:
            print("tracer: not found: " + ", ".join(self.unpatched), file=sys.stderr)

    def _install_checks(self) -> None:
        from semidop.report import REGISTRY

        for name, spec in REGISTRY.items():
            runner = self.wrap("report.check", spec.runner, lambda *a, _n=name, **k: _n)
            REGISTRY[name] = dataclasses.replace(spec, runner=runner)


def _children(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def _ancestor_names(spans: list[list], i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def layer_metrics(spans: list[list], check_names, item: str | None = None) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass, or of one of its items.

    Durations of a name sum its outermost spans only, so a name that calls
    itself (log_tau_jet -> tau_jet) is not counted twice; self times subtract
    every child span.
    """
    kids = _children(spans)
    dur = [s[END] - s[START] for s in spans]
    self_s = [dur[i] - sum(dur[c] for c in kids[i]) for i in range(len(spans))]
    outer = [s[NAME] not in _ancestor_names(spans, i) for i, s in enumerate(spans)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if item is None or s[ITEM] == item:
            by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, where=lambda i: True):
        return sum(dur[i] for i in idx(name) if outer[i] and where(i))

    def has_child(i, name):
        return any(spans[c][NAME] == name for c in kids[i])

    def nearest(i, names):
        return next((n for n in _ancestor_names(spans, i) if n in names), None)

    def in_confirm(i):
        return "moments.confirm" in _ancestor_names(spans, i)

    def ratio(hits, calls):
        return hits / calls if calls else 0.0

    det = idx("moments.det_rows")
    det_hits = sum(1 for i in det if not has_child(i, "linalg.lu_det"))
    requests = idx("pipeline.request")
    request_hits = sum(1 for i in requests if not has_child(i, "pipeline.build"))
    builds = idx("pipeline.build")
    build_origin = [nearest(i, ("pipeline.flow_scaled", "pipeline.shifted")) for i in builds]
    items = idx("item")
    refused = [i for i in items if spans[i][ERROR] in REFUSALS]
    checks = idx("report.check")
    out = {
        "moments.table_builds": sum(1 for i in idx("moments.table") if not in_confirm(i)),
        "moments.moments_summed": sum(spans[i][EXTRA] for i in idx("moments.table")),
        "moments.table_s": total("moments.table", lambda i: not in_confirm(i)),
        "moments.confirm_builds": sum(
            1 for i in idx("moments.confirm") if has_child(i, "moments.table")
        ),
        "moments.confirm_s": total("moments.confirm"),
        "moments.cholesky_calls": len(idx("moments.cholesky")),
        "moments.cholesky_self_s": sum(self_s[i] for i in idx("moments.cholesky")),
        "moments.refusals": len(refused),
        "moments.refusal_s": sum(dur[i] for i in refused),
        "moments.det_rows_calls": len(det),
        "moments.det_rows_hit_ratio": ratio(det_hits, len(det)),
        "moments.det_rows_s": total("moments.det_rows"),
        "pipeline.requests": len(requests),
        "pipeline.builds": len(builds),
        "pipeline.hit_ratio": ratio(request_hits, len(requests)),
        "pipeline.fd_builds": build_origin.count("pipeline.flow_scaled"),
        "pipeline.shift_builds": build_origin.count("pipeline.shifted"),
        "flows.jet_calls": sum(1 for i in idx("flows.jet") if outer[i]),
        "flows.jet_s": total("flows.jet"),
        "flows.fd_studies": sum(1 for i in idx("flows.fd") if outer[i]),
        "flows.fd_self_s": sum(self_s[i] for i in idx("flows.fd")),
        "structure.jacobi_s": total("structure.jacobi"),
        "structure.pascal_s": total("structure.pascal"),
        "structure.psi_s": total("structure.psi"),
        "linalg.mat_mul_calls": len(idx("linalg.mat_mul")),
        "linalg.mat_mul_s": total("linalg.mat_mul"),
        "linalg.ldl_s": total("linalg.ldl"),
        "linalg.lu_det_s": total("linalg.lu_det"),
        "report.checks_run": len(checks),
    }
    for name in check_names:
        out[f"report.check_s.{name}"] = sum(self_s[i] for i in checks if spans[i][EXTRA] == name)
    return out


def main(argv: list[str]) -> int:
    """Print the per-layer metrics of a written trace, optionally for one item."""
    if not argv or len(argv) > 2:
        print("usage: python3 perfbench/tracer.py TRACE.json [ITEM_ID]", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    item = argv[1] if len(argv) > 1 else None
    names = sorted({s[EXTRA] for s in spans if s[NAME] == "report.check"})
    walls = [s[END] - s[START] for s in spans if s[NAME] == "item" and item in (None, s[ITEM])]
    print(f"items {len(walls)}  wall_s {sum(walls):.4f}")
    for name, value in layer_metrics(spans, names, item).items():
        print(f"{name:<40} {value:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
