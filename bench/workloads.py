"""The benchmark's three workloads.

Each workload is a closed loop: one caller in one process issues the next
operation only after the previous one returned.  Weights are the seeded
``DepthEstimator(TrainConfig().estimator_config(), default_rng(0))``; inputs
come from ``synth_scene``.  Why each workload exists, and which layer metric
should move which end-to-end metric on it, is in README.md next to this file.

A workload object is one set-up: building it generates the inputs, the
model and any files.  ``prepare(i)`` makes the inputs of operation i outside
the timed region, ``op`` is the timed operation and ``check`` raises
``CheckFailed`` on a wrong output.

Operations 0 .. ``QUALITY_OPS`` - 1 form the quality list; ``quality(i)``
runs one of them, checks it and scores it, untimed.  Their inputs, and the
warm-up's (i = -1), come from a fixed seed, so the quality metrics repeat
exactly from run to run unless the arithmetic changes.  The timed
operations that follow draw their inputs from the workload seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import shutil

import numpy as np

from mvsgru import cli, fusion, scenes, training
from mvsgru import tensor as T
from mvsgru.estimator import DepthEstimator
from mvsgru.geometry import normalize_inv
from mvsgru.nn import save_checkpoint
from mvsgru.optim import Adam


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _model(cfg: training.TrainConfig) -> DepthEstimator:
    return DepthEstimator(cfg.estimator_config(), np.random.default_rng(0))


def _scene_pool(entropy: list[int], count: int, views: int,
                size: int) -> list:
    """count synthetic scenes whose seeds derive from entropy."""
    seeds = np.random.SeedSequence(entropy + [size, views]).generate_state(
        count)
    return [scenes.synth_scene(scenes.SynthSpec(seed=int(s), views=views,
                                                size=size))
            for s in seeds]


def _check_depth(d: np.ndarray, shape: tuple, d_min: float, d_max: float,
                 what: str) -> None:
    if d.shape != shape:
        raise CheckFailed(f"{what}: shape {d.shape}, expected {shape}")
    if not np.isfinite(d).all():
        raise CheckFailed(f"{what}: non-finite depth")
    tol = 1e-4 * d_max
    if d.min() < d_min - tol or d.max() > d_max + tol:
        raise CheckFailed(f"{what}: depth [{d.min():.4g}, {d.max():.4g}] "
                          f"outside [{d_min:.4g}, {d_max:.4g}]")


def _check_run(res, size: int, readouts: int) -> None:
    q = size // 4
    _check_depth(res.d_init.data, (q, q), res.d_min, res.d_max, "d_init")
    if len(res.depths) != readouts:
        raise CheckFailed(f"{len(res.depths)} readouts, expected {readouts}")
    for k, d in enumerate(res.depths):
        _check_depth(d.data, (q, q), res.d_min, res.d_max, f"depth {k}")
    _check_depth(res.d_up.data, (size, size), res.d_min, res.d_max, "d_up")


def _eta_err(depth: np.ndarray, gt: np.ndarray, d_min: float,
             d_max: float) -> float:
    """Mean |eta - eta_gt| over pixels with ground truth."""
    valid = np.isfinite(gt) & (gt > 0)
    eta = normalize_inv(depth, d_min, d_max)
    eta_gt = normalize_inv(np.where(valid, gt, d_min), d_min, d_max)
    return float(np.abs(eta - eta_gt)[valid].mean())


def _run_scores(res, ref, cfg: training.TrainConfig) -> dict[str, float]:
    """eta_err_init and train_loss of one estimator run."""
    gt = ref.gt_depth
    with T.no_grad():
        loss = training.loss_full(
            res, training.make_gt(gt, ref.d_min, ref.d_max, cfg.d2), cfg)
    return {"eta_err_init": _eta_err(res.d_init.data, gt[1::4, 1::4],
                                     ref.d_min, ref.d_max),
            "train_loss": float(loss.total.data)}


def _single_view_scores(res, ref, cfg: training.TrainConfig) -> dict:
    """All five quality scores of one estimator run.

    The cloud is the reference depth map back-projected alone (no
    cross-view vote), scored against that view's ground truth as ``mvsgru
    eval`` scores a fused cloud.  Both clouds keep a 64 x 64 grid of pixels:
    nearest-neighbour scoring of full 256 px clouds takes seconds.
    """
    d_up = res.d_up.data
    stride = max(1, d_up.shape[0] // 64)
    mask = np.zeros(d_up.shape, dtype=bool)
    mask[::stride, ::stride] = True
    cloud = fusion.PointCloud(*fusion.backproject(ref, d_up, mask))
    gt_cloud = scenes.build_gt_cloud(scenes.Scene([ref]), stride=stride)
    acc, comp, _ = scenes.evaluate(cloud, gt_cloud, EVAL_THRESHOLD)
    return {**_run_scores(res, ref, cfg),
            "eta_err_final": _eta_err(d_up, ref.gt_depth, ref.d_min,
                                      ref.d_max),
            "fused_acc": acc, "fused_comp": comp}


EVAL_THRESHOLD = 0.25    # the `mvsgru eval` default


@contextlib.contextmanager
def _scoring_runs(score):
    """Call score(result, views) after every DepthEstimator.run in the block.

    Scores are taken as each run returns, so no result outlives its caller.
    The class attribute found is wrapped, not the original, so a tracer hook
    on the same method stays in the call chain.
    """
    inner = DepthEstimator.__dict__["run"]

    def run(self, views, *args, **kwargs):
        res = inner(self, views, *args, **kwargs)
        score(res, views)
        return res

    DepthEstimator.run = run
    try:
        yield
    finally:
        DepthEstimator.run = inner


def _pools(seed: int, quality: int, timed: int, views: int,
           size: int) -> tuple[list, list]:
    """(fixed quality scenes, scenes drawn from the workload seed)."""
    return (_scene_pool([], quality, views, size),
            _scene_pool([seed], timed, views, size))


def _input_rng(seed: int, i: int, quality_ops: int) -> np.random.Generator:
    """Generator for operation i: fixed on the quality list and for the
    warm-up (i = -1), drawn from the workload seed after."""
    if i < quality_ops:
        return np.random.default_rng([1, i + 1])
    return np.random.default_rng([0, seed, i])


class InferWorkload:
    """infer-256: forward-only estimator run on one 256 px reference view."""

    name = "infer-256"
    SIZE = 256
    VIEWS = 3
    FIXED = 2           # quality scenes, two reference views each
    POOL = 3
    QUALITY_OPS = 4
    NOISE = 0.01

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = training.TrainConfig()
        self.fixed, self.pool = _pools(seed, self.FIXED, self.POOL,
                                       self.VIEWS, self.SIZE)
        self.model = _model(self.cfg)

    def prepare(self, i: int):
        """Views of operation i, each image with its own seeded noise."""
        if i < self.QUALITY_OPS:
            scene, k = self.fixed[i % self.FIXED], i // self.FIXED
        else:
            k = i - self.QUALITY_OPS
            scene, k = self.pool[k % self.POOL], k // self.POOL
        ref = k % self.VIEWS
        rng = _input_rng(self.seed, i, self.QUALITY_OPS)
        views = []
        for j in [ref] + scene.sources(ref, self.VIEWS - 1):
            v = scene.views[j]
            noisy = v.image + rng.normal(0.0, self.NOISE, v.image.shape)
            views.append(dataclasses.replace(
                v, image=np.clip(noisy, 0.0, 1.0).astype(np.float32)))
        return views

    def op(self, views):
        with T.no_grad():
            return self.model.run(views, iters=self.cfg.iters, upsample=True)

    def check(self, res, views) -> None:
        _check_run(res, self.SIZE, self.cfg.iters + 1)

    def quality(self, i: int) -> dict[str, float]:
        views = self.prepare(i)
        res = self.op(views)
        self.check(res, views)
        return _single_view_scores(res, views[0], self.cfg)

    def close(self) -> None:
        pass


class TrainWorkload:
    """train-64: one optimizer step as train() makes it, at 64 px."""

    name = "train-64"
    SIZE = 64
    SCENE_VIEWS = 5
    POOL = 4
    QUALITY_OPS = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = training.TrainConfig()      # batch 1, 3 views, 4 iters
        self.fixed, self.pool = _pools(seed, self.POOL, self.POOL,
                                       self.SCENE_VIEWS, self.SIZE)
        self.model = _model(self.cfg)
        self.opt = Adam(self.model.parameters(), lr=self.cfg.lr)

    def prepare(self, i: int):
        """Sample, source choice and scale augmentation as train() draws them."""
        cfg = self.cfg
        rng = _input_rng(self.seed, i, self.QUALITY_OPS)
        pool = self.fixed if i < self.QUALITY_OPS else self.pool
        scene = pool[int(rng.integers(len(pool)))]
        ri = int(rng.integers(len(scene.views)))
        candidates = scene.sources(ri, cfg.source_pool)
        n_src = min(cfg.views - 1, len(candidates))
        chosen = rng.choice(len(candidates), size=n_src, replace=False)
        src_idxs = [candidates[int(c)] for c in chosen]
        s = rng.uniform(cfg.scale_lo, cfg.scale_hi)
        return training.scale_views(scene.views, s), ri, src_idxs

    def op(self, sample):
        views, ri, src_idxs = sample
        self.opt.zero_grad()
        with T.Tape() as tape:
            bd = training.sample_loss(self.model, views, ri, src_idxs,
                                      self.cfg)
            loss = bd.total / self.cfg.batch
        if not np.isfinite(loss.data):
            raise CheckFailed("non-finite training loss")
        T.backward(tape, loss)
        self.opt.step()
        return bd

    def check(self, bd, sample) -> None:
        if not np.isfinite(float(bd.total.data)):
            raise CheckFailed("non-finite training loss")

    def quality(self, i: int) -> dict[str, float]:
        """Scores of the step's forward pass, taken before its update."""
        sample = self.prepare(i)
        scores = []

        def score(res, views):
            _check_run(res, self.SIZE, self.cfg.iters + 1)
            scores.append(_single_view_scores(res, views[0], self.cfg))

        with _scoring_runs(score):
            bd = self.op(sample)
        self.check(bd, sample)
        return scores[0]

    def close(self) -> None:
        pass


class ReconstructWorkload:
    """reconstruct-128: infer all 5 views, fuse, eval, through cli.main."""

    name = "reconstruct-128"
    SIZE = 128
    VIEWS = 5
    POOL = 4
    QUALITY_OPS = 2
    # the untrained weights pass very few pixels through the default
    # three-view vote and confidence filter; one vote and no confidence
    # threshold keep 11-25 % of the pixels, enough for a steady score
    FUSE_ARGS = ("--ngeo", "1", "--tau", "0")
    # scoring against every second ground-truth pixel keeps the scipy
    # nearest-neighbour queries, whose cost varies with the scene, from
    # dominating the operation
    EVAL_ARGS = ("--stride", "2")

    def __init__(self, seed: int, workdir: str):
        self.cfg = training.TrainConfig()
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        fixed, pool = _pools(seed, self.QUALITY_OPS, self.POOL, self.VIEWS,
                             self.SIZE)
        self.scenes = fixed + pool
        self.roots = []
        for k, scene in enumerate(self.scenes):
            root = os.path.join(workdir, f"scene_{k}")
            scenes.save_scene(scene, root)
            self.roots.append(root)
        self.ckpt = os.path.join(workdir, "model.ckpt")
        save_checkpoint(self.ckpt, _model(self.cfg).parameters())
        training.save_train_config(self.cfg, os.path.join(workdir, "model.cfg"))
        self.depths = os.path.join(workdir, "depths")
        self.cloud = os.path.join(workdir, "cloud.ply")

    def prepare(self, i: int) -> int:
        """Index of operation i's scene: fixed ones first, then the pool."""
        q = self.QUALITY_OPS
        return i % q if i < q else q + (i - q) % self.POOL

    def op(self, k: int):
        root = self.roots[k]
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            codes = (
                cli.main(["infer", "--scene", root, "--checkpoint", self.ckpt,
                          "--out", self.depths]),
                cli.main(["fuse", "--scene", root, "--depths", self.depths,
                          "--out", self.cloud, *self.FUSE_ARGS]),
                cli.main(["eval", "--cloud", self.cloud, "--scene", root,
                          *self.EVAL_ARGS]))
        return codes, log.getvalue()

    def check(self, out, k: int) -> None:
        codes, text = out
        if codes != (0, 0, 0):
            raise CheckFailed(f"cli exit codes {codes}")
        points = re.search(r"wrote (\d+) points", text)
        if points is None or int(points.group(1)) == 0:
            raise CheckFailed("fused cloud is empty")

    def quality(self, i: int) -> dict[str, float]:
        k = self.prepare(i)
        runs = []

        def score(res, views):
            _check_run(res, self.SIZE, self.cfg.iters + 1)
            runs.append(_run_scores(res, views[0], self.cfg))

        with _scoring_runs(score):
            out = self.op(k)
        self.check(out, k)
        if len(runs) != self.VIEWS:
            raise CheckFailed(f"{len(runs)} estimator runs, "
                              f"expected {self.VIEWS}")
        finals = []
        for j, v in enumerate(self.scenes[k].views):
            d = scenes.load_pfm(os.path.join(self.depths, f"depth_{j:04d}.pfm"))
            finals.append(_eta_err(d, v.gt_depth, v.d_min, v.d_max))
        text = out[1]
        return {"eta_err_init": float(np.mean([r["eta_err_init"]
                                               for r in runs])),
                "eta_err_final": float(np.mean(finals)),
                "train_loss": float(np.mean([r["train_loss"] for r in runs])),
                "fused_acc": float(re.search(r"accuracy (\S+)", text)[1]),
                "fused_comp": float(re.search(r"completeness (\S+)", text)[1])}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (InferWorkload, TrainWorkload,
                                 ReconstructWorkload)}
