"""The benchmark tracer patches padelab by name: every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # tracer.py imports only the standard library, so loading it is harmless
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_on_padelab():
    tracer = _load_tracer()
    assert tracer.FUNCTION_PATCHES and tracer.METHOD_PATCHES and tracer.COUNTER_PATCHES
    for modname, attr, _ in tracer.FUNCTION_PATCHES:
        target = getattr(importlib.import_module(modname), attr, None)
        assert callable(target), f"{modname}.{attr}"
    for modname, clsname, meth, _ in tracer.METHOD_PATCHES + tracer.COUNTER_PATCHES:
        cls = getattr(importlib.import_module(modname), clsname, None)
        assert callable(getattr(cls, meth, None)), f"{modname}.{clsname}.{meth}"
