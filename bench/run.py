"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload infer-256 --seed 1 --seconds 24 --trace 0

Without ``--workload`` every workload runs, each in a fresh process, and
each metric is printed as one ``workload metric value unit`` line before a
final JSON object that maps each workload to its result.

Run from the repository root; the package is imported from ``src/``.  The
run sets up the workload several times (the median is ``setup_s``), then
runs the workload's fixed quality list untimed and then issues operations
in a closed loop for ``--seconds`` seconds, checking every output.  After
each untraced operation it times the fixed kernel in ``reference.py``; the
``op_rel_*`` metrics are operation times in units of that kernel's time, so
the host's slow spells, which slow both, cancel.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` every other operation is traced and the metrics are the
per-layer ones; the spans are written to ``bench/out/``.  The line before
the result records the environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_TRACED_OPS = 4
# the warm-up operation; its inputs are fixed, so the state it leaves
# (the weights after one training step) is the same for every seed
WARMUP_INDEX = -1
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "op_rel_p50": "ref", "op_rel_tail": "ref",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "eta_err_init": "eta", "eta_err_final": "eta", "train_loss": "loss",
    "fused_acc": "scene_units", "fused_comp": "scene_units",
}
# wall-clock timings, in the details line only: they follow the host's
# slow spells (see reference.py) by more than a bound can hold
DETAIL_TIMINGS = {"op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
                  "reference_s_p50": "s"}
QUALITY_METRICS = ("eta_err_init", "eta_err_final", "train_loss", "fused_acc",
                   "fused_comp")


def prepare_environment() -> None:
    """Run BLAS on one thread and put src/ on the path.

    A second BLAS thread made no operation faster on two cores, but it
    doubled the CPU time and made every operation wait on whatever else ran
    on the other core.  Must run before numpy is first imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (SRC, BENCH):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples above.

    Below 20 samples no percentile at or above the median qualifies; the
    median is reported and the percentile says so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Loop:
    """The quality list, untimed, then the closed-loop timed phase."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.w = workload
        self.seconds = seconds
        self.tracer = tracer
        self.times: list[float] = []
        # reference_s() timed right after each operation in self.times
        self.references: list[float] = []
        self.traced_times: list[float] = []
        self.quality: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall = 0.0
        self.peak_rss_mb = 0.0

    def _failed(self, i: int, e: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {type(e).__name__}: {e}")

    def run(self) -> None:
        w = self.w
        first = w.QUALITY_OPS
        if self.tracer is None:
            for i in range(first):
                self.attempted += 1
                try:
                    self.quality.append(w.quality(i))
                except Exception as e:  # noqa: BLE001 - a failure is a result
                    self._failed(i, e)
        # the set-ups, warm-ups and quality list ran the same operations
        # the timed loop runs; the reference kernel's arrays come after
        self.peak_rss_mb = peak_rss_mb()
        import reference
        reference.kernel()
        min_ops = MIN_TRACED_OPS if self.tracer else 1
        preparing = referencing = 0.0
        start = time.perf_counter()
        i = first
        while (time.perf_counter() - start - preparing < self.seconds
               or i - first < min_ops):
            t = time.perf_counter()
            inputs = w.prepare(i)
            preparing += time.perf_counter() - t
            traced = self.tracer is not None and i % 2 == 1
            self.attempted += 1
            try:
                if traced:
                    self.tracer.begin_op(i)
                t0 = time.perf_counter()
                try:
                    out = w.op(inputs)
                finally:
                    dt = time.perf_counter() - t0
                    if traced:
                        self.tracer.end_op()
                w.check(out, inputs)
            except Exception as e:  # noqa: BLE001 - a failure is a result
                self._failed(i, e)
            else:
                if traced:
                    self.traced_times.append(dt)
                else:
                    self.times.append(dt)
                    t = time.perf_counter()
                    self.references.append(reference.reference_s())
                    referencing += time.perf_counter() - t
            out = inputs = None
            i += 1
        self.wall = time.perf_counter() - start - preparing - referencing


def measure(workload_cls, seed: int, seconds: float, trace: bool,
            workdir: str, trace_path: str | None = None) -> tuple[dict, dict]:
    """(result, details) of one run; result is the final JSON line."""
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t = time.perf_counter()
        workload = workload_cls(seed, workdir)
        warm = workload.prepare(WARMUP_INDEX)
        workload.check(workload.op(warm), warm)
        setups.append(time.perf_counter() - t)
        warm = None
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    loop = Loop(workload, seconds, tracer)
    try:
        loop.run()
    finally:
        workload.close()
    nan = float("nan")
    median = statistics.median(loop.times) if loop.times else nan
    tail_q, tail_s = tail(loop.times) if loop.times else (None, nan)
    rel = [t / r for t, r in zip(loop.times, loop.references)]
    details = {"setup_s_each": setups, "errors": loop.errors,
               "failed_ratio": loop.failed / loop.attempted,
               "timed_s": loop.wall, "op_samples": len(loop.times),
               "op_s_p50": median, "op_s_tail": tail_s,
               "op_s_tail_percentile": tail_q,
               "ops_per_s": len(loop.times) / loop.wall,
               "reference_s_p50": (statistics.median(loop.references)
                                   if loop.references else nan),
               "peak_rss_mb_at_end": peak_rss_mb()}
    if trace:
        from tracer import metric_units
        traced = (statistics.median(loop.traced_times)
                  if loop.traced_times else float("nan"))
        units = metric_units()
        metrics = tracer.metrics(overhead_ratio=traced / median - 1.0)
        details.update(traced_ops=tracer.ops, absent=tracer.absent,
                       unreadable=tracer.unreadable)
        if trace_path:
            tracer.write(trace_path, details)
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": statistics.median(setups),
            "op_rel_p50": statistics.median(rel) if rel else nan,
            "op_rel_tail": tail(rel)[1] if rel else nan,
            "peak_rss_mb": loop.peak_rss_mb,
            "ok_ratio": 1.0 - loop.failed / loop.attempted,
        }
        for key in QUALITY_METRICS:
            values = [q[key] for q in loop.quality]
            metrics[key] = statistics.fmean(values) if values else nan
        details["quality_ops"] = len(loop.quality)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return result, details


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        info, result = proc.stdout.strip().splitlines()[-2:]
        print(info)
        results[name] = json.loads(result)
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        details = json.loads(info)["details"]
        for metric, unit in DETAIL_TIMINGS.items():
            print(f"{name} {metric} {details[metric]:.6g} {unit} (details)")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help="one workload, or all of them (default)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "mvsgru", "__init__.py")):
        print(f"error: no mvsgru package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 1
    prepare_environment()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = os.path.join(BENCH, ".work", tag)
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        trace_path = os.path.join(BENCH, "out",
                                  f"trace-{args.workload}-seed{args.seed}.json")
    result, details = measure(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), workdir,
                              trace_path)
    print(json.dumps({"environment": environment(args.workload, args.seed),
                      "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
