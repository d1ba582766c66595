"""The repo's lint step: every import in ``src/semidop`` is used by its module,
every top-level function and class there is read somewhere, and the modules
import one another in one layer order.

No linter ships with the toolchain, so this test parses each module with
``ast``. A name imported but never read fails it, with one exception: a name
that ``perfbench/tracer.py`` wraps in that module (its ``TARGETS``) may stay
imported unused, because the tracer patches it there. A module that imports a
module of a later layer fails it too, unless the import sits under
``if TYPE_CHECKING:`` (annotations only). The package's ``__init__`` imports
to export, so it is not checked. One module owns the depth of the moment
tables the checks read, so a ``MomentTable`` is built only there
(``pipeline``), by the ``moments`` command (``cli``) and by ``rebuilt``
(``moments``). Only ``moments`` reads the names that decide where a lattice
pass stops, and only ``weights`` and ``moments`` read the term-by-term walk
(``term_ratio``, ``fixed_point_terms``). Only ``linalg`` does arithmetic on
raw ``libmp`` values; ``moments`` and ``weights`` may build them with three
constructors. A top-level ``def`` or ``class`` of the package must be read
outside its own definition: by its module, another module (the ``__init__``
re-exports do not count), a test or ``perfbench``.
Every ``to_mpf`` call runs under an explicit ``workprec``. Every ``mpf_add``,
``mpf_sub`` and ``mpf_mul`` call in ``linalg`` passes a precision, but for
``_max_abs``'s exact difference. Only ``WeightPipeline.flow_scaled`` builds
a moment table that walks every column (``walk_all=True``): a moment
witness, which no pipeline holds. Only ``flows`` and ``integrable._log_tau``
read a table's memos of flow derivatives (``tau_derivatives``,
``log_tau_derivatives``). Every option of a CLI command is read by the
command's handler, a ``cli`` function it calls, or ``main``.
"""

import argparse
import ast
import sys
from pathlib import Path

from semidop import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semidop"
# Each module imports only from modules of earlier layers (or its own layer).
LAYERS = (
    ("errors",),
    ("weights",),
    ("linalg",),
    ("moments",),
    ("flows", "result"),
    ("structure",),
    ("pipeline",),
    ("integrable",),
    ("report",),
    ("cli",),
    ("__main__",),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


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


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _package_imports(source: str) -> set[str]:
    """The package modules a module imports, outside ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and _is_type_checking(block.test)
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    out = set()
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semidop."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            out.update(name.split(".")[1] for name in names if name.startswith("semidop."))
    return out


def _later_imports(module: str, source: str) -> list[str]:
    return sorted(name for name in _package_imports(source) if RANK[name] > RANK[module])


def test_later_layer_imports_flagged():
    assert _later_imports("integrable", "from .report import FD_HALVINGS\n") == ["report"]
    assert _later_imports("flows", "from . import result, pipeline\nimport semidop.cli\n") == [
        "cli",
        "pipeline",
    ]
    guarded = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .pipeline import P\n"
    assert _later_imports("structure", guarded) == []


def test_imports_follow_the_layer_order():
    modules = {path.stem: path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    assert set(modules) == set(RANK)
    violations = [
        f"{module} imports {name}"
        for module, path in sorted(modules.items())
        for name in _later_imports(module, path.read_text())
    ]
    assert violations == []


# The modules that may build a MomentTable: the pipeline, which sets every
# checked table's depth, the moment witnesses' too; the `moments` command; and
# `MomentTable.rebuilt`.
TABLE_BUILDERS = {"pipeline", "cli", "moments"}


def _table_builds(source: str) -> list[int]:
    """The lines of a module that call ``MomentTable(...)``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "MomentTable")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "MomentTable")
        )
    )


def test_table_builds_flagged():
    source = "from . import moments\nt = MomentTable(w, 8, ctx)\nu = moments.MomentTable(w, 4, c)\n"
    assert _table_builds(source) == [2, 3]
    assert _table_builds("def f(t: MomentTable) -> MomentTable:\n    return t\n") == []


def test_only_the_depth_owner_builds_moment_tables():
    builds = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in TABLE_BUILDERS
        for line in _table_builds(path.read_text())
    ]
    assert builds == []


# -- dead code: every top-level definition is read somewhere --------------------

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(statements: list[ast.stmt]) -> set[str]:
    """The names the statements read, as names or attributes; a name imported
    as an alias counts as read where the alias is."""
    read, aliases = set(), {}
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                aliases.update((alias.asname, alias.name) for alias in node.names if alias.asname)
    return read | {aliases[name] for name in read if name in aliases}


def _unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The top-level definitions of ``modules`` (name -> source) that nothing
    reads outside their own definition; ``readers`` are further sources."""
    bodies = {name: ast.parse(source).body for name, source in modules.items()}
    reads = {name: _reads(body) for name, body in bodies.items()}
    external = set().union(*(_reads(ast.parse(source).body) for source in readers))
    unread = []
    for module, body in bodies.items():
        elsewhere = external.union(*(r for m, r in reads.items() if m != module))
        for i, node in enumerate(body):
            if isinstance(node, DEFINITIONS) and node.name not in elsewhere:
                if node.name not in _reads(body[:i] + body[i + 1 :]):
                    unread.append(f"{module}: {node.name}")
    return unread


def test_unread_definitions_flagged():
    modules = {
        "errors": "class Used(Exception): ...\nclass Left(Exception): ...\n",
        "walk": "from .errors import Used\ndef down(n):\n    return down(n - 1) if n else Used\n"
        "def up(n):\n    return n\nSTEP = up\n",
    }
    test = "from semidop.walk import down as descend\ndescend(3)\n"
    assert _unread_definitions(modules, []) == ["errors: Left", "walk: down"]
    assert _unread_definitions(modules, [test]) == ["errors: Left"]


def test_every_definition_is_read():
    modules = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    readers = [
        path.read_text()
        for folder in ("tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert _unread_definitions(modules, readers) == []


# -- one owner for the lattice stop ---------------------------------------------

# The names that decide where a lattice pass stops. Only ``moments`` reads them;
# every other walk over the lattice sums the points of a pass it accepted.
LATTICE_STOP = {"MAX_TERMS", "_ratio_sup", "_tail_shortfall"}


def _names_read(source: str, names: set[str]) -> list[str]:
    """Which of ``names`` a module imports or reads, as names or attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return sorted(found & names)


def _reads_outside(names: set[str], owners: set[str]) -> list[str]:
    """``module: name`` for each of ``names`` a package module outside ``owners`` reads."""
    return [
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in owners
        for name in _names_read(path.read_text(), names)
    ]


def test_stop_reads_flagged():
    source = "from .moments import MAX_TERMS as CAP\nfrom . import moments\nmoments._ratio_sup(w, 0)\n"
    assert _names_read(source, LATTICE_STOP) == ["MAX_TERMS", "_ratio_sup"]
    assert _names_read("from .moments import MomentTable\n", LATTICE_STOP) == []


def test_only_moments_decides_the_lattice_stop():
    assert _reads_outside(LATTICE_STOP, {"moments"}) == []


# -- one owner of the accepted pass ----------------------------------------------

# A table's accepted pass is read only where it is made: every other module
# reads a table's values and its ``last_point``.
LATTICE_PASS = {"lattice_pass", "LatticePass"}


def test_pass_reads_flagged():
    source = "from .moments import LatticePass\nK = table.lattice_pass.last\n"
    assert _names_read(source, LATTICE_PASS) == ["LatticePass", "lattice_pass"]
    assert _names_read("K = table.last_point\n", LATTICE_PASS) == []


def test_only_moments_reads_the_accepted_pass():
    assert _reads_outside(LATTICE_PASS, {"moments"}) == []


# -- one owner of the all-columns walk -----------------------------------------

# An undeformed weight's table walks its Pearson base columns and derives the
# rest. Only the moment witnesses walk every column, so that what the
# moment_flow rows compare comes from no Pearson relation:
# ``WeightPipeline.flow_scaled`` is the one place that passes ``walk_all=True``,
# to the bare table it returns; no pipeline holds a witness, so nothing passes
# the request on.
WALK_ALL_OWNERS = ["pipeline: WeightPipeline.flow_scaled"]


def _walk_all_requests(module: str, source: str) -> list[str]:
    """``module: Class.function`` for each call of the module that passes
    ``walk_all`` a literal True."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, *DEFINITIONS)):
            scope += (node.name,)
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                value = keyword.value
                if keyword.arg == "walk_all" and isinstance(value, ast.Constant) and value.value is True:
                    found.append(f"{module}: {'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_walk_all_requests_flagged():
    source = (
        "class P:\n    def f(self, flag):\n        return g(w, walk_all=True)\n"
        "    def h(self, flag):\n        return g(w, walk_all=flag)\n"
        "t = MomentTable(w, 8, ctx, walk_all=True)\n"
    )
    assert _walk_all_requests("m", source) == ["m: P.f", "m: "]
    assert _walk_all_requests("m", "g(w, walk_all=False)\n") == []


def test_only_the_moment_witnesses_walk_every_column():
    requests = [
        found
        for path in sorted(PACKAGE.glob("*.py"))
        for found in _walk_all_requests(path.stem, path.read_text())
    ]
    assert requests == WALK_ALL_OWNERS


# -- one owner of the derivative memos ------------------------------------------

# A ``MomentTable`` memoizes the flow derivatives of tau_k and log tau_k formed
# on it. ``flows`` fills and reads the memos; ``integrable._log_tau`` reads an
# entry before it asks ``flows.log_tau_jet`` for one. Every other caller takes
# derivatives through the ``flows`` functions.
DERIVATIVE_MEMOS = {"tau_derivatives", "log_tau_derivatives"}
MEMO_READERS = ["integrable: _log_tau"]


def _memo_reads(module: str, source: str) -> list[str]:
    """``module: Class.function`` for each read of a derivative memo."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, *DEFINITIONS)):
            scope += (node.name,)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in DERIVATIVE_MEMOS
        ):
            found.append(f"{module}: {'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_memo_reads_flagged():
    source = (
        "class T:\n    def __init__(self):\n        self.tau_derivatives: dict = {}\n"
        "def f(table):\n    return table.log_tau_derivatives.get(2, {})\n"
        "g = lambda t: t.tau_derivatives[1]\n"
    )
    assert _memo_reads("m", source) == ["m: f", "m: "]
    assert _memo_reads("m", "jet = tau_jet(table, 2, [(1, 0, 0)])\n") == []


def test_only_flows_and_log_tau_read_the_derivative_memos():
    reads = [
        found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "flows"
        for found in _memo_reads(path.stem, path.read_text())
    ]
    assert reads == MEMO_READERS


# -- one lattice walk -----------------------------------------------------------

# The names that walk the lattice term by term. ``weights`` defines them and
# ``moments``, which owns a walk's last point and fixed-point scale, reads them;
# every other module takes w(k) from ``MomentTable.lattice_weights`` or from
# the closed form ``weight_value``.
LATTICE_WALK = {"term_ratio", "fixed_point_terms"}


def test_walk_reads_flagged():
    source = (
        "from .weights import fixed_point_terms as terms\n"
        "from . import weights\nweights.term_ratio(w, 0)\n"
    )
    assert _names_read(source, LATTICE_WALK) == ["fixed_point_terms", "term_ratio"]
    assert _names_read("from .weights import weight_value\n", LATTICE_WALK) == []


def test_only_weights_and_moments_walk_the_lattice():
    assert _reads_outside(LATTICE_WALK, {"weights", "moments"}) == []


# -- one module of raw arithmetic -----------------------------------------------

# ``linalg`` is the one module that does arithmetic on raw ``libmp`` values
# (its docstring): no other module reads an mpf's ``_mpf_`` tuple or imports
# from ``mpmath.libmp``, except that ``moments`` and ``weights`` build values
# with the constructors below. Wrapping a raw value (``mp.make_mpf``) is not
# arithmetic.
RAW_CONSTRUCTORS = {"from_man_exp", "from_rational", "round_nearest"}
CONSTRUCTOR_USERS = {"moments", "weights"}


def _raw_reads(source: str, allowed: set[str]) -> list[str]:
    """``line: name`` for each ``_mpf_`` or ``libmp`` attribute a module
    reads, each name outside ``allowed`` it imports from ``mpmath.libmp``, and
    each import of ``libmp`` itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("_mpf_", "libmp"):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath.libmp"):
            found.extend((node.lineno, a.name) for a in node.names if a.name not in allowed)
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found.extend((node.lineno, a.name) for a in node.names if a.name == "libmp")
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names if a.name.startswith("mpmath.libmp"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_raw_reads_flagged():
    source = (
        "from mpmath.libmp import from_man_exp, mpf_div, to_str\n"
        "import mpmath.libmp.libmpf\n"
        "from mpmath import libmp, mp, mpf\n"
        "t = x._mpf_\n"
        "u = mpmath.libmp.normalize\n"
        "v = mp.make_mpf(from_man_exp(1, 0))\n"
    )
    assert _raw_reads(source, RAW_CONSTRUCTORS) == [
        "1: mpf_div", "1: to_str", "2: mpmath.libmp.libmpf", "3: libmp", "4: ._mpf_", "5: .libmp",
    ]
    assert _raw_reads("from mpmath.libmp import round_nearest\n", set()) == ["1: round_nearest"]
    assert _raw_reads("from mpmath import mp, mpf, workprec\nx = mp.make_mpf(t)\n", set()) == []


def test_only_linalg_does_raw_arithmetic():
    reads = [
        f"{path.stem}:{read}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "linalg"
        for read in _raw_reads(
            path.read_text(), RAW_CONSTRUCTORS if path.stem in CONSTRUCTOR_USERS else set()
        )
    ]
    assert reads == []


# -- conversions at the working precision ---------------------------------------

# ``weights.to_mpf`` rounds at the precision in effect, mpmath's default of 53
# bits outside a ``workprec`` block. So every call sits lexically inside
# ``with workprec(...)``, or in a function whose docstring says "Call under
# workprec", as ``moments.ldl_pivot_floor`` does, whose callers hold the block.
CALL_UNDER_WORKPREC = "Call under workprec"


def _is_workprec_block(node: ast.AST) -> bool:
    return isinstance(node, ast.With) and any(
        isinstance(item.context_expr, ast.Call)
        and getattr(item.context_expr.func, "id", getattr(item.context_expr.func, "attr", None))
        == "workprec"
        for item in node.items
    )


def _bare_conversions(source: str) -> list[int]:
    """The lines of ``to_mpf`` calls outside every ``with workprec(...)`` block
    and every function whose docstring says it is called under one."""
    lines = []

    def visit(node: ast.AST, covered: bool) -> None:
        if _is_workprec_block(node):
            covered = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            covered = covered or CALL_UNDER_WORKPREC in (ast.get_docstring(node) or "")
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "to_mpf"
            and not covered
        ):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, covered)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_bare_conversions_flagged():
    source = (
        "c = to_mpf(x)\n"
        "with workprec(bits):\n    d = to_mpf(x)\n    f = lambda: weights.to_mpf(y)\n"
        "with mp.workprec(bits), open(p):\n    e = to_mpf(x)\n"
        "def g(x):\n    '''Call under workprec(bits).'''\n    return to_mpf(x)\n"
        "def h(x):\n    '''Convert x.'''\n    return weights.to_mpf(x)\n"
        "with workdps(30):\n    k = to_mpf(x)\n"
    )
    assert _bare_conversions(source) == [1, 12, 14]


def test_conversions_run_under_workprec():
    bare = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _bare_conversions(path.read_text())
    ]
    assert bare == []


# -- one kernel for signed sums of products -------------------------------------

# A signed sum of matrix products is one ``linalg.product_sum`` call, which
# rounds each entry once; ``mat_add`` or ``mat_sub`` around a product
# (``mat_mul``, ``commutator`` or ``product_sum``), or ``mat_scale`` of one by
# an int, would round each product and then the sum. The product may be
# written in the op or bound to a name earlier in the same function.
# A scale by a rounded mpf (``contiguous``'s eta kappa) is a product with a
# third factor, not a signed sum, and stays an entrywise op.
ENTRYWISE = {"mat_add", "mat_sub", "mat_scale"}
PRODUCTS = {"mat_mul", "commutator", "product_sum"}


def _called(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def _is_int(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _products_bound(scope: ast.AST) -> set[str]:
    """The names a function binds to a product; none at module level."""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    return {
        target.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Assign) and _called(node.value) in PRODUCTS
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _rounded_product_sums(source: str) -> list[int]:
    """Lines of an entrywise op around a product, called in the op or bound
    to a name in the op's function."""
    lines = set()
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        bound = _products_bound(scope)
        for node in ast.walk(scope):
            name = _called(node)
            if name not in ENTRYWISE:
                continue
            operands = node.args
            if name == "mat_scale":
                if len(node.args) != 2 or not _is_int(node.args[1]):
                    continue
                operands = node.args[:1]
            if any(
                _called(n) in PRODUCTS or isinstance(n, ast.Name) and n.id in bound
                for arg in operands
                for n in ast.walk(arg)
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_rounded_product_sums_flagged():
    source = (
        "x = mat_add(mat_mul(a, b), c)\n"
        "y = linalg.mat_sub(c, transpose(mat_mul(a, b)))\n"
        "z = mat_scale(mat_mul(a, b), -1)\n"
        "w = mat_scale(mat_mul(a, b), factor)\n"
        "v = mat_sub(a, b)\n"
        "u = product_sum((1, a, b), (-1, b, a))\n"
        "t = mat_scale(mat_sub(a, b), 2)\n"
        "s = mat_sub(mat_sub(a, b), commutator(a, b))\n"
        "def f(a, b):\n"
        "    p = mat_mul(a, b)\n"
        "    q = product_sum((1, a, b))\n"
        "    return mat_sub(p, a), mat_add(a, q), mat_scale(p, -1), mat_scale(q, factor)\n"
        "def g(a, p):\n"
        "    return mat_sub(p, a)\n"
    )
    assert _rounded_product_sums(source) == [1, 2, 3, 8, 12]


def test_signed_sums_of_products_go_through_the_one_kernel():
    found = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _rounded_product_sums(path.read_text())
    ]
    assert found == []


# -- sums rounded at a precision ------------------------------------------------

# Every sum ``linalg`` forms is exact and rounded once at the precision in
# effect, and a kernel that reads a nan or an infinity forms no sum. So every
# ``mpf_add``, ``mpf_sub`` or ``mpf_mul`` call there passes a precision: at
# libmp's default, precision 0, the call is an exact sum that nothing rounds.
# The one kept is ``_max_abs``'s difference of an operand with a zero, a nan
# or an infinity, which it ranks and rounds only if it wins.
UNROUNDED = {"mpf_add", "mpf_sub", "mpf_mul"}
EXACT_SUMS = {"_max_abs"}


def _unrounded_calls(source: str, allowed: set[str]) -> list[str]:
    """``function: line`` for each ``mpf_add``, ``mpf_sub`` or ``mpf_mul``
    call with no precision argument outside the functions ``allowed``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (
            _called(node) in UNROUNDED
            and len(node.args) < 3
            and not any(k.arg == "prec" for k in node.keywords)
            and function not in allowed
        ):
            found.append(f"{function}: {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_unrounded_calls_flagged():
    source = (
        "def f(x, y):\n    return mpf_add(x, y), mpf_mul(x, y, prec, rnd)\n"
        "def _max_abs(x, y):\n    return mpf_sub(x, y)\n"
        "def g(x, y):\n    return libmpf.mpf_sub(x, y, prec=p), mpf_mul(x, y, rnd=r)\n"
        "t = mpf_sub(a, b)\n"
    )
    assert _unrounded_calls(source, EXACT_SUMS) == ["f: 2", "g: 6", "<module>: 7"]
    assert _unrounded_calls(source, set()) == ["f: 2", "_max_abs: 4", "g: 6", "<module>: 7"]


def test_linalg_sums_are_rounded_at_a_precision():
    assert _unrounded_calls((PACKAGE / "linalg.py").read_text(), EXACT_SUMS) == []


# -- every CLI flag is read -----------------------------------------------------

# A flag a command accepts but never reads exits 0 and does nothing (as
# ``recurrence --out r.csv`` once did). So each option of each subcommand of
# ``cli.build_parser()`` is read as ``args.<dest>`` by the command's handler
# (``cli.HANDLERS``), by a ``cli`` function the handler calls, directly or
# not, or by ``main``.


def _args_read(source: str, entries: list[str]) -> set[str]:
    """The attributes of ``args`` read by the module-level functions
    ``entries`` of a module and by every module-level function they call by
    name, directly or not. A function named but not called (``main``'s table
    of handlers) is not followed."""
    functions = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    seen, todo, read = set(), list(entries), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                todo.append(node.func.id)
    return read


def _unread_flags(parser: argparse.ArgumentParser, source: str, handlers: dict[str, str]) -> list[str]:
    """``command --flag`` for each option no reader of its command reads."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        f"{command} {action.option_strings[-1]}"
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
        and action.dest not in _args_read(source, [handlers[command], "main"])
    ]


def test_unread_flags_flagged():
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers(dest="command")
    for name in ("run", "show"):
        sub = commands.add_parser(name)
        sub.add_argument("--size")
        sub.add_argument("--out")
        sub.add_argument("--max-m")
    source = (
        "def _size(args):\n    return args.size\n"
        "def _run(args):\n    if args.max_m:\n        write(args.out)\n    return _size(args)\n"
        "def _show(args):\n    return getattr(args, 'out', None)\n"
        "def main(argv):\n    args = parse(argv)\n    return {'run': _run, 'show': _show}[args.command](args)\n"
    )
    assert _unread_flags(parser, source, {"run": "_run", "show": "_show"}) == [
        "show --size", "show --out", "show --max-m",
    ]


def test_every_cli_flag_is_read():
    handlers = {command: fn.__name__ for command, fn in cli.HANDLERS.items()}
    assert _unread_flags(cli.build_parser(), (PACKAGE / "cli.py").read_text(), handlers) == []
