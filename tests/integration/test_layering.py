"""The layering the package docstrings claim, checked in a fresh
interpreter: what importing one package loads of the others.

``repro.lang`` and ``repro.stream`` stand alone; the static analyses
reach neither a tracer nor a simulator nor the compiler driver; the
simulator does not reach a tracer (the chunk size it slices by is
``repro.stream.CHUNK_ACCESSES``).  Importing every module of the package
loads nothing outside the standard library but numpy, the one declared
dependency.  And ``repro.lang`` alone knows which fields of which AST
node hold subexpressions and bodies: no other module rebuilds a node
field by field (the structural rewriter is ``lang.map_expr`` /
``lang.map_exprs`` / ``Stmt.map_bodies``).  Likewise ``lang.Walk`` alone
knows how a program executes: the interpreter, the legality snapshot
and the oracle tracer only say what an assignment instance does, and no
module outside ``repro.lang`` but inlining binds a procedure's formals.
The tracers' fold is defined once, in ``lang/lowering.py``, and the
codegen tracer reads nothing of ``repro.interp`` but the trace container.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

LAYERS = {
    "repro.lang": {"only": {"lang"}},
    "repro.stream": {"only": {"stream"}},
    "repro.static": {"not": {"interp", "codegen", "memsim", "core", "harness"}},
    "repro.memsim": {"not": {"interp", "codegen"}},
}


def _loaded(package: str) -> set[str]:
    """The ``repro`` subpackages a fresh ``import package`` loads."""
    code = (
        f"import json, sys, {package}; print(json.dumps(sorted("
        "{m.split('.')[1] for m in sys.modules if m.startswith('repro.')})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    ).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("package", sorted(LAYERS))
def test_package_loads_only_what_its_layer_allows(package):
    loaded = _loaded(package)
    rule = LAYERS[package]
    if "only" in rule:
        assert loaded == rule["only"], loaded
    else:
        assert not loaded & rule["not"], sorted(loaded & rule["not"])


#: top-level modules an import of every ``repro`` module may add beyond
#: the standard library; ``__mp_main__`` is multiprocessing's alias of
#: ``__main__``
THIRD_PARTY_ALLOWED = {"numpy", "repro", "__mp_main__"}


def test_package_imports_only_numpy_beyond_the_stdlib():
    # the baseline is taken in the child: ``site`` may already have
    # loaded third-party modules through ``.pth`` files
    code = (
        "import importlib, json, pkgutil, sys\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not info.name.endswith('.__main__'):\n"
        "        importlib.import_module(info.name)\n"
        "new = {m.partition('.')[0] for m in sys.modules} - before\n"
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    ).stdout
    extra = set(json.loads(out)) - THIRD_PARTY_ALLOWED
    assert not extra, sorted(extra)


#: node class -> the field a rebuild copies from the node it replaces
_COPIED_FIELDS = {
    "BinOp": {"op"},
    "UnaryOp": {"op"},
    "Call": {"func"},
    "Guard": {"index", "intervals"},
}


def field_rebuilds(source: str) -> list[str]:
    """``line: Node`` for each constructor call in ``source`` that copies
    the node's identifying fields from another node (``BinOp(e.op, ...)``,
    ``Guard(g.index, g.intervals, ...)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        fields = _COPIED_FIELDS.get(node.func.id)
        values = list(node.args) + [k.value for k in node.keywords]
        copied = {v.attr for v in values if isinstance(v, ast.Attribute)}
        if fields and fields <= copied:
            found.append(f"{node.lineno}: {node.func.id}")
    return found


def test_only_lang_rebuilds_ast_nodes_field_by_field():
    offenders = {
        str(path.relative_to(PACKAGE)): hits
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.parent.name != "lang"
        for hits in [field_rebuilds(path.read_text())]
        if hits
    }
    assert not offenders, offenders


def test_field_rebuild_gate_sees_the_walks_it_forbids():
    hand_rolled = (
        "def walk(e, g):\n"
        "    a = BinOp(e.op, walk(e.left), walk(e.right))\n"
        "    b = UnaryOp(e.op, walk(e.operand))\n"
        "    c = Call(func=e.func, args=())\n"
        "    return Guard(g.index, g.intervals, (), ())\n"
    )
    assert field_rebuilds(hand_rolled) == [
        "2: BinOp", "3: UnaryOp", "4: Call", "5: Guard",
    ]
    assert field_rebuilds("x = BinOp('+', a, b)\ny = Guard(v, ivs, ())") == []


def test_only_inlining_reads_formals_outside_lang():
    readers = {
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if path.parent.name != "lang"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "formals"
    }
    assert readers == {"transform/inline.py"}, sorted(readers)


def test_instance_walkers_share_the_walk_order():
    from repro.interp import Interpreter
    from repro.interp.trace import TraceWalk
    from repro.lang import Walk
    from repro.verify.snapshot import _Walker

    for walker in (Interpreter, _Walker, TraceWalk):
        assert issubclass(walker, Walk)
        assert walker.walk_stmt is Walk.walk_stmt, walker


#: outside ``repro.lang``, the functions that may read a guard's
#: ``intervals`` (``None``: the whole module): the codegen tracer and
#: parallelism's concrete checker evaluate membership per instance,
#: substitution rewrites the intervals, and the linter's V105/V106 lints
#: inspect them; every range a symbolic analysis narrows comes from
#: ``lang.scope.narrow``
INTERVAL_READERS = {
    "codegen/tracer.py": None,
    "transform/subst.py": None,
    "static/parallelism.py": {"_ConcreteChecker._guard_member"},
    "verify/ir_verifier.py": {"_Linter.guard"},
}


def attribute_readers(source: str, attr: str) -> set[str]:
    """The qualified names of the functions (``<module>`` for top-level
    code) in ``source`` that read an attribute named ``attr``."""
    found: set[str] = set()

    def visit(node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}" if qual else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.add(qual or "<module>")
            visit(child, qual)

    visit(ast.parse(source), "")
    return found


def eliminations(source: str) -> list[str]:
    """Functions in ``source`` that eliminate indices from an affine form:
    a loop substituting each index by a bound picked by its coefficient's
    sign, for the minimum and the maximum."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for loop in ast.walk(func):
            picks = [
                call for call in ast.walk(loop)
                if isinstance(loop, ast.For)
                and isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "substitute"
                and any(
                    isinstance(v, ast.IfExp)
                    for arg in call.args if isinstance(arg, ast.Dict)
                    for v in arg.values
                )
            ]
            if len(picks) >= 2:
                found.append(func.name)
                break
    return found


def test_only_lang_narrows_index_ranges():
    readers, defined = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE))
        source = path.read_text()
        if path.parent.name != "lang":
            names = attribute_readers(source, "intervals")
            if names:
                readers[rel] = names
        if eliminations(source):
            defined[rel] = eliminations(source)
    allowed = {
        rel: readers.get(rel) if names is None else names
        for rel, names in INTERVAL_READERS.items()
    }
    assert readers == allowed, readers
    assert defined == {"lang/scope.py": ["eliminate"]}, defined


def _imports(source: str) -> set[str]:
    """The modules ``source`` imports, relative ones resolved as if it
    sat one package below ``repro`` (``..interp.trace`` is
    ``repro.interp.trace``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "repro." * (node.level == 2) + (node.module or "")
            found |= {base} if node.module else {f"repro.{a.name}" for a in node.names}
    return found


def test_codegen_imports_only_the_trace_container_from_interp():
    imported = {
        str(path.relative_to(PACKAGE)): sorted(
            m for m in _imports(path.read_text()) if m.startswith("repro.interp")
        )
        for path in sorted((PACKAGE / "codegen").rglob("*.py"))
    }
    allowed = {"repro.interp.trace"}
    assert all(set(m) <= allowed for m in imported.values()), imported
    assert _imports("from ..interp import tracegen as _tg") == {"repro.interp"}


def test_the_fold_is_defined_once():
    """The tracers' fold of the lowering (address records ``(const,
    ((var, coeff), ...))`` at a binding) lives in ``lang/lowering.py``."""
    defined = {
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and node.name in {"Fold", "FoldedRef", "FoldedAssign", "FoldedGuard", "FoldedLoop"}
    }
    assert defined == {"lang/lowering.py"}, defined
