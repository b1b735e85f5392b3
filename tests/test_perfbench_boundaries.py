"""The benchmark's trace boundaries still name live program functions.

``perfbench/spans.py`` wraps the public callables listed in its
``BOUNDARIES`` table by module and attribute path.  A refactor that
renames one of them, or drops the module-level ``call_kernel`` binding a
kernel module is traced through, would otherwise only surface as a
failed ``perfbench/run.py --trace 1``.  The module is loaded from source
without importing the ``perfbench`` directory as a package, so nothing
is written there.
"""

from __future__ import annotations

import os
import types

import pytest

from repro import nn

SPANS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                          "spans.py")


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = SPANS_PATH
    with open(SPANS_PATH) as handle:
        exec(compile(handle.read(), SPANS_PATH, "exec"), module.__dict__)
    return module


spans = _load_spans()

BOUNDARY_PATHS = [(name, module_name, path)
                  for name, module_name, paths in spans.BOUNDARIES
                  for path in paths]


@pytest.mark.parametrize(
    "name,module_name,path", BOUNDARY_PATHS,
    ids=[f"{module_name}:{path}" for _, module_name, path in BOUNDARY_PATHS])
def test_boundary_resolves_to_a_callable(name, module_name, path):
    owner, attr = spans._resolve(module_name, path)
    target = getattr(owner, attr)
    assert callable(target), f"{name}: {module_name}.{path} is not callable"
    if name == "nn.kernel":
        assert target is nn.call_kernel, (
            f"{module_name}.call_kernel is not repro.nn.call_kernel")

