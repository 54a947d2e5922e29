"""The layering the package docstrings claim, checked in a fresh
interpreter: what importing one package loads of the others.

``repro.lang`` and ``repro.stream`` stand alone; the static analyses
reach neither a tracer nor a simulator nor the compiler driver; the
simulator does not reach a tracer (the chunk size it slices by is
``repro.stream.CHUNK_ACCESSES``).  Importing every module of the package
loads nothing outside the standard library but numpy, the one declared
dependency.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

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
