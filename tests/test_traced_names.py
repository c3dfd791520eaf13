"""The benchmark's tracer (`perfbench/tracing.py`) looks its functions up by
name; each one must still exist, or `run.py --trace 1` breaks."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.WORK)


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_name_resolves(qualname):
    module_name, func_name = qualname.split(".")
    module = importlib.import_module(f"choralegen.{module_name}")
    assert callable(getattr(module, func_name, None)), f"{qualname} is gone"
