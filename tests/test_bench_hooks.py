"""The benchmark tracer must find every entry point it wraps.

``perfbench/tracer.py`` patches functions and methods by name from outside
the package; a renamed or deleted target is skipped with a warning and its
per-layer metrics silently read zero. This test fails instead.
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
