"""Every span the traced benchmark run reports names a function inside canrep.

``bench/tracer.py`` wraps the public functions defined in each layer module
(``LAYER_MODULES``) and a few methods looked up on their class with a bare
``getattr`` (``METHODS``); ``bench/spec.py``'s ``REPORTED_SPANS`` lists the
span names the run must report.  A refactor that moves or renames one of these
functions would break ``bench/run.py --trace 1`` while the rest of the suite
still passes.  Both files are only read here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("spec").REPORTED_SPANS
TRACER = _load("tracer")
METHODS = {span: (modname, cls, meth) for modname, cls, meth, span in TRACER.METHODS}


def _wrapped_function(name):
    """The function the tracer wraps under a span name, or None."""
    if name in METHODS:
        modname, clsname, meth = METHODS[name]
        cls = getattr(importlib.import_module(modname), clsname, None)
        return vars(cls).get(meth) if cls is not None else None
    layers = [layer for layer in TRACER.LAYER_MODULES if name.startswith(layer + ".")]
    if not layers:
        return None
    layer = max(layers, key=len)
    modname = TRACER.LAYER_MODULES[layer]
    attr = name[len(layer) + 1:]
    obj = vars(importlib.import_module(modname)).get(attr)
    if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
        return None
    return obj


@pytest.mark.parametrize("name", SPANS)
def test_reported_span_resolves(name):
    assert callable(_wrapped_function(name)), name
