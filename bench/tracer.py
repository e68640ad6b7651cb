"""Span tracer that times mvsgru's layers from outside the package.

Each hook replaces one public function or method with a wrapper that opens a
span around the call.  A function is patched under every name that refers
to it inside the package (``mvsgru.nn.conv2d`` as well as
``mvsgru.tensor.conv2d``), so calls through any import are seen.  Hooks are
installed for one traced operation at a time and removed afterwards, so the
untraced operations of the same run pay nothing.

A hook whose target no longer exists is reported as absent and skipped;
its metrics read 0.  A counter that can no longer be read from a call's
arguments or result is reported as unreadable and left out.  Spans live in
memory and are written once, at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# owning ops of tape closures that backward time is split by
BACKWARD_OPS = ("bilinear_sample", "bilinear_resize", "take_depth", "gather2d",
                "getitem", "concat", "conv2d")

# (span name, module, attribute); several targets may share a span name
HOOKS = (
    ("tensor.conv2d", "mvsgru.tensor", "conv2d"),
    ("tensor.bilinear_sample", "mvsgru.tensor", "bilinear_sample"),
    ("tensor.bilinear_resize", "mvsgru.tensor", "bilinear_resize"),
    ("tensor.backward", "mvsgru.tensor", "backward"),
    ("geometry.warp_points", "mvsgru.geometry", "warp_points"),
    ("features.extract", "mvsgru.features", "FeatureExtractor.extract"),
    ("matching.warp_and_correlate", "mvsgru.matching", "warp_and_correlate"),
    ("matching.group_correlation", "mvsgru.matching", "group_correlation"),
    ("matching.view_weight", "mvsgru.matching", "view_weight"),
    ("matching.aggregate", "mvsgru.matching", "AggregationUnet.__call__"),
    ("matching.multiscale_similarity", "mvsgru.matching",
     "multiscale_similarity"),
    ("estimator.run", "mvsgru.estimator", "DepthEstimator.run"),
    ("estimator.initialize", "mvsgru.estimator", "DepthEstimator.initialize"),
    ("estimator.generate_hypotheses", "mvsgru.estimator",
     "DepthEstimator.generate_hypotheses"),
    ("estimator.gru_update", "mvsgru.estimator", "gru_update"),
    ("estimator.readout", "mvsgru.estimator",
     "DepthEstimator.predict_probability"),
    ("estimator.readout", "mvsgru.estimator", "predict_depth"),
    ("estimator.readout", "mvsgru.estimator",
     "DepthEstimator.predict_confidence"),
    ("upsample.upsample_depth", "mvsgru.upsample",
     "ConvexUpsampler.upsample_depth"),
    ("training.sample_loss", "mvsgru.training", "sample_loss"),
    ("training.loss_full", "mvsgru.training", "loss_full"),
    ("training.make_gt", "mvsgru.training", "make_gt"),
    ("optim.step", "mvsgru.optim", "Adam.step"),
    ("nn.load_checkpoint", "mvsgru.nn", "load_checkpoint"),
    ("scenes.load_scene", "mvsgru.scenes", "load_scene"),
    ("scenes.save_pfm", "mvsgru.scenes", "save_pfm"),
    ("scenes.load_pfm", "mvsgru.scenes", "load_pfm"),
    ("scenes.build_gt_cloud", "mvsgru.scenes", "build_gt_cloud"),
    ("scenes.evaluate", "mvsgru.scenes", "evaluate"),
    ("fusion.fuse", "mvsgru.fusion", "fuse"),
    ("fusion.geometric_filter", "mvsgru.fusion", "geometric_filter"),
    ("fusion.backproject", "mvsgru.fusion", "backproject"),
    ("cli.infer", "mvsgru.cli", "_cmd_infer"),
    ("cli.fuse", "mvsgru.cli", "_cmd_fuse"),
    ("cli.eval", "mvsgru.cli", "_cmd_eval"),
)

# readouts per estimator run: the initial one plus one per GRU iteration
READOUTS = 5

SELF_TIME_SPANS = tuple(dict.fromkeys(name for name, _, _ in HOOKS)) + tuple(
    f"tensor.backward.{op}" for op in BACKWARD_OPS + ("other",))

COUNT_SPANS = ("tensor.bilinear_sample", "tensor.conv2d", "features.extract")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}_s": "s" for name in SELF_TIME_SPANS}
    units.update({f"{name}_n": "count" for name in COUNT_SPANS})
    units.update({
        "tensor.tape_entries": "count",
        "tensor.bilinear_sample_mb": "MB-computed",
        "tensor.conv2d_gflop": "GFLOP-computed",
        "features.extract_repeat_share": "ratio",
        "matching.valid_ratio": "ratio",
        "fusion.kept_ratio": "ratio",
        "estimator.run_child_share": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    for k in range(READOUTS):
        units[f"estimator.eta_err.{k}"] = "eta"
    for k in range(1, READOUTS):
        units[f"estimator.delta_eta.{k}"] = "eta"
        units[f"estimator.argmax_moved.{k}"] = "ratio"
    return units


def _resolve(module: str, attr: str):
    """(owner, name, function) for a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(name) if isinstance(owner, type) else \
        getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


def _aliases(owner, name: str, fn) -> list[tuple[object, str]]:
    """Every (namespace, name) in the package that refers to fn."""
    if isinstance(owner, type):
        return [(owner, name)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mvsgru"
                               or mod_name.startswith("mvsgru.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, key))
    return found


class Tracer:
    """Records nested spans and layer counters over traced operations."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.absent: list[str] = []
        self.unreadable: dict[str, str] = {}   # span -> observer error
        self._stack: list[int] = []
        self._op = -1
        self._runs: list[tuple] = []
        self._images: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)              # reserved; filled on exit
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _exit(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (sid, name, start, end, parent, self._op)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            sid, start = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, name, start)
            if observe is not None:
                try:
                    observe(args, out)
                except Exception as e:  # noqa: BLE001 - the API changed
                    tracer.unreadable.setdefault(
                        name, f"{type(e).__name__}: {e}")
            return out

        return traced

    # -- per-operation install / remove ------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self._images.clear()
        seen = set()
        for name, module, attr in HOOKS:
            target = _resolve(module, attr)
            if target is None:
                if f"{module}.{attr}" not in self.absent:
                    self.absent.append(f"{module}.{attr}")
                continue
            owner, key, fn = target
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            wrapper = (self._wrap_backward(fn) if name == "tensor.backward"
                       else self._wrap(name, fn))
            for ns, alias in _aliases(owner, key, fn):
                self._patches.append((ns, alias, fn))
                setattr(ns, alias, wrapper)

    def end_op(self) -> None:
        for ns, alias, fn in reversed(self._patches):
            setattr(ns, alias, fn)
        self._patches.clear()
        self.ops += 1
        self._convergence()

    # -- layer observers (run after the span closes) ------------------------

    def _wrap_backward(self, fn):
        traced_backward = self._wrap("tensor.backward", fn)

        def backward(tape, loss):
            self.counters["tensor.tape_entries"] += len(tape.entries)
            tape.entries[:] = [(out, parents, self._closure(f))
                               for out, parents, f in tape.entries]
            return traced_backward(tape, loss)

        return backward

    def _closure(self, fn):
        owner = getattr(fn, "__qualname__", "").split(".")[0]
        name = "tensor.backward." + (owner if owner in BACKWARD_OPS
                                     else "other")
        return self._wrap(name, fn)

    def _observe_tensor_conv2d(self, args, out) -> None:
        weight = args[1]
        c_out, c_in, k, _ = weight.shape
        positions = out.size // c_out
        self.counters["tensor.conv2d_gflop"] += \
            2.0 * c_in * k * k * c_out * positions / 1e9

    def _observe_tensor_bilinear_sample(self, args, out) -> None:
        # four corner gathers plus the blended write, from array sizes
        self.counters["tensor.bilinear_sample_mb"] += 5 * out[0].data.nbytes / 1e6

    def _observe_features_extract(self, args, out) -> None:
        image = args[1]
        key = np.asarray(getattr(image, "data", image)).tobytes()
        self.counters["features.extract_calls"] += 1
        self.counters["features.extract_repeated"] += key in self._images
        self._images.add(key)

    def _observe_matching_warp_and_correlate(self, args, out) -> None:
        valid = out[1]
        self.counters["matching.valid"] += int(valid.sum())
        self.counters["matching.samples"] += valid.size

    def _observe_fusion_fuse(self, args, out) -> None:
        masks = out[1]
        self.counters["fusion.kept"] += sum(int(m.sum()) for m in masks)
        self.counters["fusion.pixels"] += sum(m.size for m in masks)

    def _observe_estimator_run(self, args, out) -> None:
        views = args[1]
        ref = views[0]
        if ref.gt_depth is not None:
            self._runs.append(([d.data for d in out.depths], list(out.indices),
                               ref.gt_depth, out.d_min, out.d_max))

    def _convergence(self) -> None:
        from mvsgru.geometry import normalize_inv
        for depths, indices, gt_depth, d_min, d_max in self._runs:
            gt = gt_depth[1::4, 1::4]
            valid = np.isfinite(gt) & (gt > 0)
            eta_gt = normalize_inv(np.where(valid, gt, d_min), d_min, d_max)
            etas = [normalize_inv(d, d_min, d_max) for d in depths]
            self.counters["estimator.runs"] += 1
            for k, eta in enumerate(etas[:READOUTS]):
                err = np.abs(eta - eta_gt)[valid].mean()
                self.counters[f"estimator.eta_err.{k}"] += float(err)
                if k:
                    self.counters[f"estimator.delta_eta.{k}"] += float(
                        np.abs(eta - etas[k - 1]).mean())
                    self.counters[f"estimator.argmax_moved.{k}"] += float(
                        (indices[k] != indices[k - 1]).mean())
        self._runs.clear()

    # -- results --------------------------------------------------------------

    def _child_times(self) -> list[float]:
        """Per span, the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self) -> list[float]:
        return [end - start - child for (_, _, start, end, _, _), child
                in zip(self.spans, self._child_times())]

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-operation layer metrics over all traced operations."""
        ops = max(self.ops, 1)
        out = {name: 0.0 for name in metric_units()}
        for span, self_s in zip(self.spans, self.self_times()):
            key = span[1] + "_s"
            if key in out:
                out[key] += self_s / ops
            count_key = span[1] + "_n"
            if count_key in out:
                out[count_key] += 1.0 / ops
        c = self.counters
        for key in ("tensor.tape_entries", "tensor.bilinear_sample_mb",
                    "tensor.conv2d_gflop"):
            out[key] = c[key] / ops
        if c["features.extract_calls"]:
            out["features.extract_repeat_share"] = \
                c["features.extract_repeated"] / c["features.extract_calls"]
        if c["matching.samples"]:
            out["matching.valid_ratio"] = c["matching.valid"] / c["matching.samples"]
        if c["fusion.pixels"]:
            out["fusion.kept_ratio"] = c["fusion.kept"] / c["fusion.pixels"]
        runs = c["estimator.runs"]
        for key in out:
            if key.startswith(("estimator.eta_err.", "estimator.delta_eta.",
                               "estimator.argmax_moved.")) and runs:
                out[key] = c[key] / runs
        out["estimator.run_child_share"] = self.run_child_share()
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def run_child_share(self) -> float:
        """Smallest share of an estimator.run span that its children cover."""
        shares = [child / (end - start) for (_, name, start, end, _, _), child
                  in zip(self.spans, self._child_times())
                  if name == "estimator.run" and end > start]
        return min(shares) if shares else 0.0

    def write(self, path: str, info: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"info": info, "absent": self.absent,
                       "unreadable": self.unreadable, "names": names,
                       "fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": [[sid, index[name], round(start, 7),
                                  round(end, 7), parent, op]
                                 for sid, name, start, end, parent, op
                                 in self.spans]}, f)
