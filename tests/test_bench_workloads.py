"""Each benchmark workload still runs on the package and passes its checks.

``bench/workloads.py`` drives the package through its public names, and a
run whose operations fail their checks reports no timing at all.  Here each
workload is set up once, its warm-up operation must pass its own check, and
one operation under ``bench/tracer.py``'s hooks must pass it too, with no
hook absent or unreadable and with time in both lookup spans.  Both bench
modules are loaded from their files and used as they are.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    workloads, tracer = load("workloads"), load("tracer")
    yield workloads, tracer
    sys.modules.pop("bench_workloads", None)
    sys.modules.pop("bench_tracer", None)


@pytest.mark.parametrize("name", ["infer-256", "train-64", "reconstruct-128"])
def test_workload_passes_its_checks_traced_and_untraced(bench, name, tmp_path):
    workloads, tracer = bench
    workload = workloads.WORKLOADS[name](1, str(tmp_path / "work"))
    try:
        warm = workload.prepare(-1)
        workload.check(workload.op(warm), warm)

        traced = tracer.Tracer()
        i = workload.QUALITY_OPS
        inputs = workload.prepare(i)
        traced.begin_op(i)
        try:
            out = workload.op(inputs)
        finally:
            traced.end_op()
        workload.check(out, inputs)
    finally:
        workload.close()
    assert traced.absent == []
    assert traced.unreadable == {}
    metrics = traced.metrics(overhead_ratio=0.0)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["tensor.conv2d_n"] > 0
    # a hook whose target still resolves but is no longer called reads 0
    assert metrics["matching.warp_and_correlate_s"] > 0
    assert metrics["matching.group_correlation_s"] > 0
