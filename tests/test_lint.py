"""The repo's lint step: every import in ``src/semidop`` is used by its module.

No linter ships with the toolchain, so this test parses each module with
``ast``. A name imported but never read fails it, with one exception: a name
that ``perfbench/tracer.py`` wraps in that module (its ``TARGETS``) may stay
imported unused, because the tracer patches it there. The package's
``__init__`` imports to export, so it is not checked.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semidop"


def _tracer_targets() -> set[tuple[str, str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {(module, path) for module, path, *_ in tracer.TARGETS if "." not in path}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_imports_flagged():
    source = "import os\nfrom math import ceil, floor\nfrom . import flows\nceil(flows.x)\n"
    assert _unused_imports(source) == ["floor", "os"]


def test_no_unused_imports():
    allowed = _tracer_targets()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"semidop.{path.stem}"
        for name in _unused_imports(path.read_text()):
            if (module, name) not in allowed:
                unused.append(f"{module}: {name}")
    assert unused == []
