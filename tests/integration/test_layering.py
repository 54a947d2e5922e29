"""The layering the package docstrings claim, checked in a fresh
interpreter: what importing one package loads of the others.

``repro.lang`` and ``repro.stream`` stand alone; the static analyses
reach neither a tracer nor a simulator nor the compiler driver; the
simulator does not reach a tracer (the chunk size it slices by is
``repro.stream.CHUNK_ACCESSES``).
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
