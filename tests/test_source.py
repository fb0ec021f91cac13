from __future__ import annotations

import importlib
import importlib.util
import warnings
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "diracq").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    """Invalid escapes and similar compile-time warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _tracer_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    """Every function the benchmark tracer wraps still resolves, so a rename
    fails here rather than in a traced benchmark run."""
    tracer = _tracer_module()
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
