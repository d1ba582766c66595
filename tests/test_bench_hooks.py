"""The benchmark tracer must find every entry point it wraps, and the
benchmark must time every registry check.

``perfbench/tracer.py`` patches functions and methods by name from outside
the package; a renamed or deleted target is skipped with a warning and its
per-layer metrics silently read zero. These tests fail instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_patches_every_target():
    code = "import json, tracer; t = tracer.Tracer(); t.install(); print(json.dumps(t.unpatched))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_traced_suite_reaches_every_span():
    # a target that is imported where the tracer wraps it but called through
    # another name records no span; its per-layer metrics would read zero
    code = (
        "import json, tracer\n"
        "from semidop import SuiteConfig, clear_cache, parse_weight_spec, run_suite\n"
        "t = tracer.Tracer(); t.install(); clear_cache()\n"
        "w = parse_weight_spec('a=3/2; b=5/2; eta=1/3')\n"
        "t.item('suite', run_suite, SuiteConfig(weight=w, size=8, mantissa_bits=256))\n"
        "print(json.dumps(sorted({s[tracer.NAME] for s in t.spans})))\n"
        "print(json.dumps(sorted({target[2] for target in tracer.TARGETS})))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    recorded, targets = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    # nothing in a default suite reads a factorization's confirmation
    missing = set(targets) - set(recorded) - {"moments.confirm"}
    assert not missing, sorted(missing)


def test_benchmark_times_every_registry_check():
    # a check missing from BENCHMARK.json's per-layer metrics is never timed;
    # a metric naming no check reads zero on every run
    from semidop.report import REGISTRY

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    prefix = "report.check_s."
    timed = {m["name"][len(prefix):] for m in bench["per_layer"] if m["name"].startswith(prefix)}
    assert timed == set(REGISTRY)
