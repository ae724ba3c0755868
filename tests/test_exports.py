"""Every exported name, and every name the benchmark's tracer wraps, resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import transportlab

MODULES = ["transportlab"] + sorted(
    m.name for m in pkgutil.iter_modules(transportlab.__path__, "transportlab."))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_traced_function_exists():
    spans = _spans()
    missing = [(mod, attr) for mod, attr, *_ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_every_traced_method_exists():
    spans = _spans()
    missing = [(mod, cls, method) for mod, cls, method, *_ in spans.METHODS
               if method not in vars(getattr(importlib.import_module(mod), cls))]
    assert missing == []
