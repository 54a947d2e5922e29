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
knows how a program executes: the interpreter, the legality snapshot,
the oracle tracer and coherence's witness lookup only say what an
assignment instance does; the parallelism analyzer walks no instance at
all (its brute-force oracles live in ``tests/``), and no module outside
``repro.lang`` but inlining binds a procedure's formals.
The tracers' fold is defined once, in ``lang/lowering.py``, and the
codegen tracer reads nothing of ``repro.interp`` but the trace container.
Every concrete index range comes from ``lang.scope.fold_range``, which
eliminates before it folds; no module widens one index at a time.
"""

from __future__ import annotations

import ast
import inspect
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
    from repro.static.coherence import _FirstTouch
    from repro.verify.snapshot import _Walker

    for walker in (Interpreter, _Walker, TraceWalk, _FirstTouch):
        assert issubclass(walker, Walk)
        assert walker.walk_stmt is Walk.walk_stmt, walker
        assert walker.walk_span is Walk.walk_span, walker


def test_the_parallelism_analyzer_imports_no_walk():
    """One tier: every verdict comes from the pair questions over boxes;
    no iteration space is enumerated in ``src/``."""
    from repro.lang import Walk
    from repro.static import parallelism

    tree = ast.parse((PACKAGE / "static" / "parallelism.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {name for name in imported if name.rpartition(".")[2] == "Walk"}
    assert not [
        name for name, value in vars(parallelism).items()
        if isinstance(value, type) and issubclass(value, Walk)
    ]


def test_the_codegen_tracer_walks_no_instance():
    """The witness lookup is a Walk domain: the codegen tracer defines no
    scalar walk of its own."""
    tree = ast.parse((PACKAGE / "codegen" / "tracer.py").read_text())
    defined = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "first_touch" not in defined


#: outside ``repro.lang``, the functions that may read a guard's
#: ``intervals`` (``None``: the whole module): the codegen tracer
#: evaluates membership per instance block, substitution rewrites the
#: intervals, and the linter's V105/V106 lints inspect them; every range
#: a symbolic analysis narrows comes from ``lang.scope.narrow``
INTERVAL_READERS = {
    "codegen/tracer.py": None,
    "transform/subst.py": None,
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
    """Guard intervals are read by ``lang.scope.narrow`` (and the readers
    listed above), indices are eliminated by ``lang.scope.eliminate`` only,
    and next to it ``fold_range`` is the one concrete range."""
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
    from repro.lang import scope

    assert interval_folds(inspect.getsource(scope)) == ["fold_range"]


def width_products(source: str) -> list[str]:
    """Functions in ``source`` that multiply ``Poly.from_affine(...)``
    widths into a count in a loop."""

    def is_width(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_affine"
        )

    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        products = [
            node
            for loop in ast.walk(func) if isinstance(loop, (ast.For, ast.While))
            for node in ast.walk(loop)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (is_width(node.left) or is_width(node.right))
            or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
            and is_width(node.value)
        ]
        if products:
            found.append(func.name)
    return found


def large_probes(source: str) -> int:
    """How often ``source`` spells the large-parameter probe ``10**4``."""
    return sum(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and [ast.dump(node.left), ast.dump(node.right)]
        == [ast.dump(ast.Constant(10)), ast.dump(ast.Constant(4))]
        or isinstance(node, ast.Constant) and node.value == 10**4
        for node in ast.walk(ast.parse(source))
    )


def test_the_reuse_ladder_measures_through_one_step():
    """The static reuse ladder states each region step once: one function
    outside ``regions.py`` unions hulls into disjoint groups (and
    finalizes and measures them), iteration counts come from
    ``model.iterations`` rather than width products in ``reuse.py``
    (array-space measures stay in ``regions.py``), and only ``regions.py``
    spells the large-parameter probe."""
    static = PACKAGE / "static"
    unions, products, probes = set(), [], {}
    for path in sorted(static.glob("*.py")):
        source = path.read_text()
        if path.name == "regions.py":
            continue
        callers = attribute_readers(source, "union_disjoint")
        unions |= {f"{path.name}:{name}" for name in callers}
        if large_probes(source):
            probes[path.name] = large_probes(source)
    products = width_products((static / "reuse.py").read_text())
    assert len(unions) == 1, unions
    assert products == [], products
    assert probes == {}, probes
    # the gate sees what it forbids
    assert width_products(
        "def f(box):\n    n = 1\n    for lo, hi in box:\n"
        "        n = n * Poly.from_affine(hi - lo + 1)\n"
    ) == ["f"]
    assert large_probes("env = {v: 10**4 for v in names}") == 1


def _eliminates(node: ast.AST) -> bool:
    """Does ``node`` call ``eliminate``?"""
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "eliminate"
        for n in ast.walk(node)
    )


def interval_folds(source: str) -> list[str]:
    """The functions in ``source`` that fold a concrete interval:
    :meth:`Affine.fold` a form and then widen one index at a time
    (``min`` or ``max`` of products, as in ``min(c * lo, c * hi)``), or
    fold an eliminated bound — an ``eliminate(...)`` value met directly,
    through a local name or through a parameter the module passes one
    to.  Interval arithmetic over integer terms (the dependence screen)
    folds no form and is no such fold."""
    tree = ast.parse(source)
    passed = {
        (call.func.id, k)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        for k, arg in enumerate(call.args) if _eliminates(arg)
    }
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        eliminated = {
            a.arg for k, a in enumerate(func.args.args) if (func.name, k) in passed
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                bound, value = node.targets, node.value
            elif isinstance(node, ast.For):
                bound, value = [node.target], node.iter
            else:
                continue
            if _eliminates(value):
                eliminated |= {
                    n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)
                }
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
        folded = [
            call.func.value for call in calls
            if isinstance(call.func, ast.Attribute) and call.func.attr == "fold"
            and len(call.args) == 1
        ]
        widens = any(
            isinstance(call.func, ast.Name) and call.func.id in ("min", "max")
            and len(call.args) > 1
            and all(
                isinstance(a, ast.BinOp) and isinstance(a.op, ast.Mult)
                for a in call.args
            )
            for call in calls
        )
        if folded and widens or any(
            _eliminates(form) or any(
                isinstance(n, ast.Name) and n.id in eliminated for n in ast.walk(form)
            )
            for form in folded
        ):
            found.append(func.name)
    return found


def test_only_lang_folds_concrete_intervals():
    """Every concrete index range comes from ``lang.scope.fold_range``,
    which eliminates over the (narrowed) scope and then folds: widening
    each index on its own gives a coupled subscript or bound a range
    outside its iteration space."""
    users = {
        str(path.relative_to(PACKAGE)): hits
        for path in sorted(PACKAGE.rglob("*.py"))
        for hits in [interval_folds(path.read_text())]
        if hits
    }
    assert users == {"lang/scope.py": ["fold_range"]}, users
    # the gate sees what it forbids
    assert interval_folds(
        "def interval(form, params, ranges):\n"
        "    lo, terms = form.fold(params)\n"
        "    for name, c in terms:\n"
        "        lo += min(c * ranges[name][0], c * ranges[name][1])\n"
        "    return lo\n"
        "def value(form, env):\n    return form.fold(env)[0]\n"
        "def box(lo, hi, outer, env):\n"
        "    return value(eliminate(lo, outer)[0], env), eliminate(hi, outer)[1].fold(env)\n"
        "def through(form, scope, env):\n"
        "    low, high = eliminate(form, scope)\n    return low.fold(env)\n"
        "def checks(form, scope, env):\n"
        "    form.fold(env)\n    return fold_range(form, scope, env), max(1, 2)\n"
        "def screen(base, terms):\n"
        "    return base + sum(min(c * lo, c * hi) for c, lo, hi in terms)\n"
    ) == ["interval", "value", "box", "through"]


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
