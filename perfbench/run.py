"""semidop benchmark: cold passes over a named workload, one worker at a time.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: each pass runs the workload's items in a fixed
order inside a fresh interpreter (``worker.py``), calling
``semidop.pipeline.clear_cache()`` before every item, because each CLI call a
user makes starts cold and because earlier items in the same process change a
later item's time (allocator and cache state). A pass is never cut short: at
least one runs, and another starts only if it is expected to end within
``--seconds``.

Every time of a pass is the CPU time of the thread doing the work, rescaled by
a host-speed probe to what it would be on a host of fixed speed (``speed.py``):
a shared host steals time from its guests and drifts in speed by tens of
percent. ``setup_s`` is CPU time, unscaled. The unscaled pass time is printed
as ``raw_cpu_s`` and as wall time ``raw_wall_s``, beside the median probe time
``probe_ms``.

With ``--trace 0`` the end-to-end metrics are reported (medians over passes);
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics of the traced passes are reported, with the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
# every run must end within 180 s; a worker gets what is left of this budget
RUN_BUDGET_S = 170.0
# CPU time of the import on one CPU. It is not scaled to reference seconds: an
# import is too short for the probe, and in fresh interpreters its time moved
# only 0.3-0.45 times as much as the probe's, so scaling widened its spread.
SETUP_CODE = (
    "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    "from time import thread_time as p; t = p(); import semidop, semidop.cli; print(p() - t)"
)
UNITS = {
    "setup_s": "s", "wall_s": "s", "item_s_max": "s", "failed_frac": "1",
    "residual_margin_bits": "bits", "accuracy_bits": "bits", "peak_rss_mib": "MiB",
    "raw_cpu_s": "s", "raw_wall_s": "s", "probe_ms": "ms",
}
END_TO_END = ("setup_s", "wall_s", "item_s_max", "residual_margin_bits", "accuracy_bits",
              "peak_rss_mib")


class BenchError(RuntimeError):
    pass


def python(args: list[str], deadline: float) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next pass")
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run budget: {args}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker failed ({done.returncode}): {done.stderr.strip()}")
    return done.stdout.strip().splitlines()[-1]


def setup_times(deadline: float) -> list[float]:
    """CPU time of importing semidop and semidop.cli in fresh interpreters."""
    return [float(python(["-c", SETUP_CODE], deadline)) for _ in range(SETUP_PROBES)]


def one_pass(workload: str, seed: int, trace_path: str | None, deadline: float) -> dict:
    args = [os.path.join(HERE, "worker.py"), workload, str(seed), trace_path or "-"]
    return json.loads(python(args, deadline))


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Untraced passes, or alternating untraced/traced pairs, for ``seconds``."""
    plain, traced = [], []
    start = perf_counter()
    round_s = 0.0
    while not plain or perf_counter() - start + round_s <= seconds:
        t = perf_counter()
        plain.append(one_pass(workload, seed, None, deadline))
        if trace:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{workload}-seed{seed}-{len(traced)}.json")
            traced.append(one_pass(workload, seed, path, deadline))
        round_s = perf_counter() - t
    return plain, traced


def median(values):
    return statistics.median(values) if values else None


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    items = [i for p in passes for i in p["items"]]
    margins = [i["margin_bits"] for i in items if i["margin_bits"] is not None]
    accuracy = [i["accuracy_bits"] for i in items if i["accuracy_bits"] is not None]
    return {
        "setup_s": median(setup),
        "wall_s": median([p["wall_s"] for p in passes]),
        "raw_cpu_s": median([p["raw_cpu_s"] for p in passes]),
        "raw_wall_s": median([p["raw_wall_s"] for p in passes]),
        "probe_ms": median([p["probe_ms"] for p in passes]),
        "item_s_max": median([max(i["seconds"] for i in p["items"]) for p in passes]),
        "failed_frac": sum(not i["ok"] for i in items) / len(items),
        "residual_margin_bits": min(margins) if margins else None,
        "accuracy_bits": min(accuracy) if accuracy else None,
        "peak_rss_mib": median([p["peak_rss_mib"] for p in passes]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    out = {name: median([p["layers"][name] for p in traced]) for name in names}
    out["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - median(
        [p["wall_s"] for p in plain])
    return out


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="sample seed passed as SuiteConfig.seed "
                             "(default semidop.report.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semidop", "__init__.py")):
        print(f"error: no semidop sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_BUDGET_S
    if args.seed is None:
        sys.path.insert(0, SRC)
        from semidop.report import DEFAULT_SEED

        args.seed = DEFAULT_SEED

    try:
        # unrecorded: byte-compiles a fresh checkout, as users import from a warm cache
        python(["-c", SETUP_CODE], deadline)
        # probes before and after the passes, as the host's speed drifts over a run
        setup = setup_times(deadline)
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                   deadline)
        setup += setup_times(deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = end_to_end(plain, setup)
    items = [i for p in plain + traced for i in p["items"]]
    failed = [i for i in items if not i["ok"]]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced")
    for name, value in summary.items():
        print(f"  {name:<22} {value if value is None else round(value, 4)} {unit(name)}")
    for item in failed:
        print(f"  FAILED {item['id']}: {item['reason']}")

    if args.trace:
        layers = per_layer(plain, traced)
        for name, value in layers.items():
            print(f"  {name:<40} {round(value, 4)} {unit(name)}")
        selected = layers
    else:
        selected = {name: summary[name] for name in END_TO_END}
    correct = not failed and all(v is not None for v in selected.values())
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in selected.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
