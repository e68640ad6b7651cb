"""Loss functions, ground-truth preparation and the training loop.

The composite loss mixes a classification term on the sampled probability
volume, a gated regression term in normalized inverse depth, a confidence
term, and absolute-error terms on the coarse initialization and the final
upsampled map.  Early iterations are downweighted geometrically.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, EmptySampleError, TrainStepError
from .estimator import DepthEstimator, RunResult
from .geometry import CameraView, normalize_inv
from .nn import save_checkpoint
from .optim import Adam
from .scenes import Scene
from .tensor import Tape, Tensor, backward

LOG_EPS = 1e-12


@dataclass
class TrainConfig:
    iters: int = 4
    views: int = 3              # reference + sources per sample
    d1: int = 32
    d2: int = 256
    readout_radius: int = 4
    radii: tuple[float, ...] = (2.0 ** -7, 2.0 ** -5, 2.0 ** -3)
    counts: tuple[int, ...] = (4, 4, 2)
    alpha: float = 0.8
    gamma: float = 0.002
    lr: float = 1e-3
    lr_halve_epochs: tuple[int, ...] = (4, 8, 12)
    epochs: int = 16
    batch: int = 1
    seed: int = 0
    warmup_epochs: int = 1
    scale_lo: float = 0.8
    scale_hi: float = 1.25
    source_pool: int = 4        # sources are drawn from the nearest k views

    @property
    def beta(self) -> float:
        return float(self.d2)

    def estimator_config(self) -> TrainConfig:
        # DepthEstimator takes this config itself; bench/workloads.py still calls this
        return self

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-indexed epoch."""
        halvings = sum(1 for h in self.lr_halve_epochs if epoch > h)
        return self.lr * 0.5 ** halvings


_TUPLE_FIELDS = {"radii": float, "counts": int, "lr_halve_epochs": int}
# keys that older model.cfg files carry and nothing reads any more; the
# fusion threshold is FuseConfig.tau
_RETIRED_KEYS = {"tau"}


def save_train_config(cfg: TrainConfig, path) -> None:
    with open(path, "w") as f:
        for fld in fields(cfg):
            val = getattr(cfg, fld.name)
            if isinstance(val, tuple):
                val = ",".join(repr(v) for v in val)
            f.write(f"{fld.name}={val}\n")


def load_train_config(path) -> TrainConfig:
    """Parse key=value lines; any malformed line raises ConfigError at path:line."""
    known = {f.name for f in fields(TrainConfig)}
    kwargs = {}
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").split("#")[0].strip()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in _RETIRED_KEYS:
                continue
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key in _TUPLE_FIELDS:
                    cast = _TUPLE_FIELDS[key]
                    kwargs[key] = tuple(cast(v) for v in val.split(",") if v)
                else:
                    # scalar fields carry their type in the dataclass default
                    kwargs[key] = type(getattr(TrainConfig, key))(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# ground truth


@dataclass
class GroundTruth:
    d_full: np.ndarray
    valid_full: np.ndarray
    eta_full: np.ndarray
    d_q: np.ndarray
    valid_q: np.ndarray
    eta_q: np.ndarray
    x_gt: np.ndarray
    n_valid: int


def make_gt(depth: np.ndarray, d_min: float, d_max: float,
            d2: int = 256) -> GroundTruth:
    """Prepare full- and quarter-resolution targets from one GT depth map.

    Invalid pixels are NaN or <= 0.  The quarter map uses nearest-neighbor
    downsampling (fine index 4i+1); X_gt is the nearest of the d2 inverse-
    depth samples, ties resolving to the lower index.
    """
    valid_full = np.isfinite(depth) & (depth > 0)
    if not valid_full.any():
        raise EmptySampleError("ground-truth depth has no valid pixels")
    eta_full = np.where(valid_full,
                        normalize_inv(np.where(valid_full, depth, d_min),
                                      d_min, d_max), 0.0)
    d_q = depth[1::4, 1::4]
    valid_q = valid_full[1::4, 1::4]
    eta_q = eta_full[1::4, 1::4]
    c = eta_q * (d2 - 1)
    lo = np.floor(c)
    x_gt = np.where(c - lo > 0.5, lo + 1, lo)
    x_gt = np.clip(x_gt, 0, d2 - 1).astype(np.int64)
    return GroundTruth(depth, valid_full, eta_full, d_q, valid_q, eta_q,
                       x_gt, int(valid_full.sum()))


# ---------------------------------------------------------------------------
# loss terms


def _masked_mean(x: Tensor, mask: np.ndarray, scale: float = 1.0) -> Tensor:
    """``scale`` times the mean of x over the pixels of mask; 0 for an empty mask."""
    n = int(mask.sum())
    if n == 0:
        return Tensor(np.zeros(()))
    return (x * mask.astype(x.dtype)).sum() * (scale / n)


def loss_class(prob: Tensor, x_gt: np.ndarray, valid: np.ndarray) -> Tensor:
    """Cross entropy against the one-hot nearest-sample encoding."""
    p_gt = T.take_depth(prob, x_gt[None]).reshape(x_gt.shape)
    return _masked_mean(p_gt.clip(LOG_EPS, None).log(), valid, -1.0)


def loss_regress(eta_k: Tensor, x_k: np.ndarray, eta_gt: np.ndarray,
                 x_gt: np.ndarray, valid: np.ndarray, radius: int = 4,
                 beta: float = 256.0) -> Tensor:
    """Gated L1 in normalized inverse depth.

    Pixels whose argmax strayed more than ``radius`` samples from the target
    index are excluded entirely; with nothing left the loss is 0.
    """
    return eta_mae(eta_k, eta_gt, valid & (np.abs(x_gt - x_k) <= radius), beta)


def loss_conf(conf: Tensor, target: np.ndarray, valid: np.ndarray) -> Tensor:
    """Binary cross entropy against the boolean near-ground-truth indicator."""
    p_target = T.where(target, conf, 1.0 - conf)
    return _masked_mean(p_target.clip(LOG_EPS, None).log(), valid, -1.0)


def eta_mae(eta: Tensor, eta_gt: np.ndarray, valid: np.ndarray,
            beta: float) -> Tensor:
    return _masked_mean((eta - eta_gt).abs(), valid, beta)


@dataclass
class LossBreakdown:
    total: Tensor
    initial: Tensor
    upsample: Tensor
    clas: list[Tensor] = field(default_factory=list)
    regress: list[Tensor] = field(default_factory=list)
    conf: list[Tensor] = field(default_factory=list)

    def row(self) -> dict[str, float]:
        return {
            "loss_full": float(self.total.data),
            "loss_initial": float(self.initial.data),
            "loss_upsample": float(self.upsample.data),
            "loss_class": float(sum(t.data for t in self.clas)),
            "loss_regress": float(sum(t.data for t in self.regress)),
            "loss_conf": float(sum(t.data for t in self.conf)),
        }


def loss_full(run: RunResult, gt: GroundTruth, cfg: TrainConfig,
              warmup: bool = False) -> LossBreakdown:
    """Weighted composite loss over every readout of one forward pass.

    During warm-up the regression and confidence terms are left out of the
    total (their values are still reported), so they contribute exactly zero
    gradient.
    """
    k_last = len(run.probs) - 1
    alpha = cfg.alpha
    beta = cfg.beta
    eta_init = normalize_inv(run.d_init, run.d_min, run.d_max)
    initial = eta_mae(eta_init, gt.eta_q, gt.valid_q, beta)
    if run.d_up is not None:
        eta_up = normalize_inv(run.d_up, run.d_min, run.d_max)
        upsample = eta_mae(eta_up, gt.eta_full, gt.valid_full, beta)
    else:
        upsample = Tensor(np.zeros(()))
    out = LossBreakdown(total=Tensor(np.zeros(())), initial=initial,
                        upsample=upsample)
    total = initial * alpha ** (k_last + 1) + upsample
    for k in range(k_last + 1):
        weight = alpha ** (k_last - k)
        cls = loss_class(run.probs[k], gt.x_gt, gt.valid_q)
        eta_k = normalize_inv(run.depths[k], run.d_min, run.d_max)
        reg = loss_regress(eta_k, run.indices[k], gt.eta_q, gt.x_gt,
                           gt.valid_q, cfg.readout_radius, beta)
        near_gt = np.abs(gt.eta_q - eta_k.data) <= cfg.gamma
        cnf = loss_conf(run.confs[k], near_gt, gt.valid_q)
        out.clas.append(cls)
        out.regress.append(reg)
        out.conf.append(cnf)
        term = cls if warmup else cls + reg + cnf
        total = total + term * weight
    out.total = total
    return out


def sample_loss(model: DepthEstimator, views: list[CameraView], ref_idx: int,
                src_idxs: list[int], cfg: TrainConfig,
                warmup: bool = False) -> LossBreakdown:
    """Forward pass + loss for one reference view of one scene.

    Raises EmptySampleError before the forward pass if the reference view
    has no valid ground truth.
    """
    ordered = [views[ref_idx]] + [views[i] for i in src_idxs]
    ref = ordered[0]
    if ref.gt_depth is None:
        raise EmptySampleError("reference view has no ground truth")
    gt = make_gt(ref.gt_depth, ref.d_min, ref.d_max, cfg.d2)
    run = model.run(ordered, iters=cfg.iters)
    return loss_full(run, gt, cfg, warmup)


def scale_views(views: list[CameraView], s: float) -> list[CameraView]:
    """Scale the scene by s: translations, depth ranges and GT depths."""
    return [replace(v, t=v.t * s, d_min=v.d_min * s, d_max=v.d_max * s,
                    gt_depth=None if v.gt_depth is None else v.gt_depth * s)
            for v in views]


# ---------------------------------------------------------------------------
# training loop

METRIC_COLUMNS = ("step", "epoch", "lr", "loss_full", "loss_initial",
                  "loss_upsample", "loss_class", "loss_regress", "loss_conf")


def train(scenes: list[Scene], cfg: TrainConfig, out_dir,
          log=None) -> DepthEstimator:
    """Train from scratch over all (scene, reference-view) samples.

    Writes metrics.csv, the final checkpoint (model.ckpt) and the config
    actually used (model.cfg) into out_dir.  Deterministic for a fixed
    config and scene list.  A sample whose reference view has no valid
    ground truth is skipped without a metrics row; each epoch's skip count
    goes to ``log``.
    """
    if not scenes:
        raise ConfigError("no training scenes")
    if cfg.batch < 1:
        raise ConfigError(f"batch must be >= 1, got {cfg.batch}")
    os.makedirs(str(out_dir), exist_ok=True)
    model = DepthEstimator(cfg, np.random.default_rng(cfg.seed))
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed + 1)
    samples = [(si, ri) for si, sc in enumerate(scenes)
               for ri in range(len(sc.views))]
    ckpt_path = os.path.join(str(out_dir), "model.ckpt")
    save_train_config(cfg, os.path.join(str(out_dir), "model.cfg"))
    metrics_path = os.path.join(str(out_dir), "metrics.csv")
    step = 0
    t0 = time.monotonic()
    with open(metrics_path, "w", newline="") as mf:
        writer = csv.DictWriter(mf, fieldnames=METRIC_COLUMNS)
        writer.writeheader()
        for epoch in range(1, cfg.epochs + 1):
            opt.lr = cfg.lr_at(epoch)
            warmup = epoch <= cfg.warmup_epochs
            order = rng.permutation(len(samples))
            pending = skipped = 0
            for idx in order:
                si, ri = samples[idx]
                scene = scenes[si]
                pool = scene.sources(ri, cfg.source_pool)
                n_src = min(cfg.views - 1, len(pool))
                chosen = rng.choice(len(pool), size=n_src, replace=False)
                src_idxs = [pool[int(c)] for c in chosen]
                s = rng.uniform(cfg.scale_lo, cfg.scale_hi)
                views = scale_views(scene.views, s)
                if pending == 0:
                    opt.zero_grad()
                try:
                    with Tape() as tape:
                        bd = sample_loss(model, views, ri, src_idxs, cfg, warmup)
                        loss = bd.total / cfg.batch
                except EmptySampleError:
                    skipped += 1
                    continue
                if not np.isfinite(loss.data):
                    save_checkpoint(ckpt_path, params)
                    raise TrainStepError(
                        f"non-finite loss at step {step}; "
                        f"last-good parameters kept at {ckpt_path}")
                backward(tape, loss)
                pending += 1
                if pending == cfg.batch:
                    opt.step()
                    pending = 0
                step += 1
                row = {"step": step, "epoch": epoch,
                       "lr": f"{opt.lr:.6g}"}
                row.update((k, f"{v:.6f}") for k, v in bd.row().items())
                writer.writerow(row)
                mf.flush()
                if log is not None and step % 25 == 0:
                    log(f"step {step} epoch {epoch} "
                        f"loss {float(bd.total.data):.4f} "
                        f"({time.monotonic() - t0:.0f}s)")
            if pending:  # a trailing partial batch still gets its update
                opt.step()
            if log is not None:
                log(f"epoch {epoch}: skipped {skipped} samples with no "
                    f"valid ground truth")
            save_checkpoint(ckpt_path, params)
    return model


def mean_eta_errors(model: DepthEstimator, views: list[CameraView],
                    iters: int) -> np.ndarray:
    """Per-iteration mean |eta - eta_gt| over valid pixels (inference)."""
    ref = views[0]
    gt = make_gt(ref.gt_depth, ref.d_min, ref.d_max, model.cfg.d2)
    with T.no_grad():
        run = model.run(views, iters=iters, upsample=False)
    errs = []
    for d in run.depths:
        eta = normalize_inv(d.data, ref.d_min, ref.d_max)
        errs.append(float(np.abs(eta - gt.eta_q)[gt.valid_q].mean()))
    return np.array(errs)
