from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import perfbench_module

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "diracq").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    """Invalid escapes and similar compile-time warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_traced_functions_exist():
    """Every function the benchmark tracer wraps still resolves, so a rename
    fails here rather than in a traced benchmark run."""
    tracer = perfbench_module("tracer")
    for metric, (module_name, path) in {**tracer.TARGETS,
                                        **tracer.COUNTED}.items():
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(target, attr), f"{metric}: {module_name}.{path}"
            target = getattr(target, attr)
        assert callable(target), metric
    for module_name in tracer.CANCEL_MODULES:
        assert hasattr(importlib.import_module(module_name), "sp")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_resolve(path):
    """Every name a module exports exists, so a deletion cannot leave a
    stale ``__all__`` entry."""
    module = importlib.import_module(f"diracq.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_private_definitions_are_used():
    """Every ``_``-prefixed top-level function or class of the package is
    referenced somewhere in it other than in its own body, so a helper left
    behind by a refactor fails here."""
    defined, used = {}, set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = node.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined[owner] = path.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    unused = sorted(f"{defined[name]}: {name}" for name in defined
                    if name not in used)
    assert unused == []


def _fresh_interpreter(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("before, enabled", [("", "True"),
                                             ("gc.disable()", "False")],
                         ids=["collector-on", "collector-off"])
def test_import_freezes_the_heap_and_keeps_the_collector_state(before,
                                                               enabled):
    """``import diracq`` moves the heap it built to the permanent
    generation and leaves the collector on or off as the caller had it."""
    out = _fresh_interpreter(f"import gc\n{before}\nimport diracq\n"
                             "print(gc.get_freeze_count() > 0, gc.isenabled())")
    assert out == f"True {enabled}"


def test_failed_import_restores_the_collector():
    out = _fresh_interpreter("import gc, sys\n"
                             "sys.modules['diracq.chart'] = None\n"
                             "try:\n    import diracq\n"
                             "except ImportError:\n"
                             "    print(gc.isenabled(), gc.get_freeze_count())")
    assert out == "True 0"
