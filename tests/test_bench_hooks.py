"""The benchmark tracer's hooks still name live functions of the package.

``bench/tracer.py`` patches mvsgru's functions by module and attribute
name, and splits backward time by the name of the op that owns each tape
closure.  After a rename the tracer only reports the hook as ``absent`` and
the layer's metric reads 0, so these checks fail the test run instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from mvsgru import tensor

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(tracer):
    assert tracer.HOOKS
    absent = [f"{module}.{attr}" for _, module, attr in tracer.HOOKS
              if tracer._resolve(module, attr) is None]
    assert not absent


def test_backward_ops_are_tensor_functions(tracer):
    assert tracer.BACKWARD_OPS
    gone = [op for op in tracer.BACKWARD_OPS
            if not inspect.isfunction(getattr(tensor, op, None))]
    assert not gone
