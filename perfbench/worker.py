"""One cold pass over a workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/worker.py WORKLOAD SEED TRACE_PATH|-

Runs the workload's items in their fixed order, calling
``semidop.pipeline.clear_cache()`` before each, and prints one JSON object:
pass and per-item times (CPU time of this thread in reference seconds, see
``speed.py``; also unscaled, and as wall time), each item's gate outcome, the
median probe time, peak RSS and, when TRACE_PATH is given, the per-layer
metrics (spans are written there, in reference seconds).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter, thread_time

from mpmath import mp

from semidop import pipeline
from semidop.moments import PrecisionContext
from semidop.report import REGISTRY, SuiteConfig, run_suite
from semidop.weights import parse_weight_spec

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from speed import SpeedProbe  # noqa: E402
from tracer import END, FIELDS, REFUSALS, START, Tracer, layer_metrics  # noqa: E402
from workloads import BITS, MIN_AGREEMENT_BITS, WORKLOADS, Item, item_accuracy  # noqa: E402


def margin_bits(tolerance, residual) -> float | None:
    """log2(tolerance / residual); None for an exactly zero residual."""
    if residual == 0:
        return None
    return float(mp.log(tolerance / residual, 2))


def compute(item: Item, seed: int):
    """The timed request: exactly what the matching CLI command computes."""
    w = parse_weight_spec(item.spec)
    if item.kind == "suite":
        return run_suite(SuiteConfig(weight=w, size=item.size, mantissa_bits=BITS, seed=seed))
    # looked up on the module at call time, so the traced run sees the request
    return pipeline.get_pipeline(w, item.size, PrecisionContext(mantissa_bits=BITS)).jac


def gate(item: Item, outcome) -> dict:
    """Check one item's output; the work here is outside the timed region."""
    if item.refusal:
        return {"ok": False, "reason": "returned numbers where a typed refusal is correct",
                "margin_bits": None, "accuracy_bits": None}
    w = parse_weight_spec(item.spec)
    ctx = PrecisionContext(mantissa_bits=BITS)
    if item.kind == "suite":
        margins = [margin_bits(c.tolerance, c.max_residual) for c in outcome.checks]
        jac = pipeline.get_pipeline(w, item.size, ctx).jac
        failing = [c.name for c in outcome.checks if not c.passed]
        reason = f"failing checks: {', '.join(failing)}" if failing else None
    else:
        # recurrence data is reported with its precision-doubling confirmation
        chol = pipeline.get_pipeline(w, item.size, ctx).chol
        margins = [chol.confirmed_bits + math.log2(ctx.default_tolerance())]
        jac = outcome
        reason = None
    margins = [m for m in margins if m is not None]
    accuracy = item_accuracy(item, list(jac.beta), list(jac.gamma))
    if reason is None and accuracy is not None and accuracy < MIN_AGREEMENT_BITS:
        reason = f"only {accuracy:.1f} bits agree with the {item.oracle} oracle"
    return {
        "ok": reason is None,
        "reason": reason,
        "margin_bits": min(margins) if margins else None,
        "accuracy_bits": accuracy,
    }


def run_item(item: Item, seed: int, tracer: Tracer | None) -> dict:
    pipeline.clear_cache()
    wall, start = perf_counter(), thread_time()
    try:
        outcome = tracer.item(item.item_id, compute, item, seed) if tracer else compute(item, seed)
    except Exception as exc:  # the item boundary: record the failure and go on
        times = {"start": start, "end": thread_time(), "wall_s": perf_counter() - wall}
        refused = item.refusal and type(exc).__name__ in REFUSALS
        reason = None if refused else "".join(traceback.format_exception_only(exc)).strip()
        return {"id": item.item_id, **times, "ok": refused, "reason": reason,
                "margin_bits": None, "accuracy_bits": None}
    times = {"start": start, "end": thread_time(), "wall_s": perf_counter() - wall}
    return {"id": item.item_id, **times, **gate(item, outcome)}


def main(argv: list[str]) -> int:
    workload, seed, trace_path = argv[0], int(argv[1]), argv[2]
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    with SpeedProbe() as probe:
        items = [run_item(item, seed, tracer) for item in WORKLOADS[workload]]
    for i in items:
        start, end = i.pop("start"), i.pop("end")
        i["cpu_s"] = end - start
        i["seconds"] = probe.clock(end) - probe.clock(start)
    result = {
        "wall_s": sum(i["seconds"] for i in items),
        "raw_cpu_s": sum(i["cpu_s"] for i in items),
        "raw_wall_s": sum(i["wall_s"] for i in items),
        "probe_ms": probe.median_ms(),
        "items": items,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        for span in tracer.spans:
            span[START], span[END] = probe.clock(span[START]), probe.clock(span[END])
        result["layers"] = layer_metrics(tracer.spans, REGISTRY)
        result["unpatched"] = tracer.unpatched
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": tracer.spans}, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
