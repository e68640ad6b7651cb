"""GRU-based per-pixel depth probability estimator.

Initializes a hidden state from coarse plane-sweep matching, then runs K
convolutional-GRU updates at 1/4 resolution.  Each update injects fresh
multi-scale matching evidence around the previous estimate; depth is read
out with an argmax-windowed expectation over inverse depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ShapeError
from .features import LEVEL_CHANNELS, FeatureExtractor, FeaturePyramid
from .geometry import (CameraView, denormalize_inv, inverse_grid, normalize_inv,
                       relative_poses, scale_intrinsics)
from .matching import (GROUPS, AggregationUnet, ViewWeightCNN, integrate, lookup_levels,
                       multiscale_similarity, view_shares, view_weight, warp_and_correlate)
from .nn import Conv2d, Module
from .tensor import Tensor, bilinear_resize, concat, getitem, take_depth
from .upsample import ConvexUpsampler

if TYPE_CHECKING:  # training imports this module
    from .training import TrainConfig

HIDDEN = 32  # GRU hidden-state channels


class GruCell(Module):
    """Convolutional gated recurrent unit over [hidden + input] channels."""

    def __init__(self, hidden: int, x_ch: int, rng: np.random.Generator):
        self.hidden = hidden
        self.x_ch = x_ch
        self.wz = Conv2d(hidden + x_ch, hidden, 3, rng)
        self.wr = Conv2d(hidden + x_ch, hidden, 3, rng)
        self.wh = Conv2d(hidden + x_ch, hidden, 3, rng)


def gru_update(cell: GruCell, h: Tensor, x: Tensor) -> Tensor:
    if h.shape[0] != cell.hidden or x.shape[0] != cell.x_ch:
        raise ShapeError(f"gru expects {cell.hidden}+{cell.x_ch} channels, "
                         f"got {h.shape[0]}+{x.shape[0]}")
    hx = concat([h, x], 0)
    z = cell.wz(hx).sigmoid()
    r = cell.wr(hx).sigmoid()
    candidate = cell.wh(concat([r * h, x], 0)).tanh()
    return (1.0 - z) * h + z * candidate


def predict_depth(prob: Tensor, inv_grid: np.ndarray,
                  radius: int) -> tuple[Tensor, np.ndarray]:
    """Hybrid readout: expectation in inverse depth near the argmax.

    prob: normalized [D, H, W].  Ties in the argmax resolve to the lowest
    index.  The window [X-r, X+r] is intersected with [0, D-1] and the
    probabilities renormalized inside it.
    """
    d = prob.shape[0]
    # argmax over axis 0 copies its input; the bool mask of maxima is 4-8x
    # smaller than the volume, and its first True is the lowest-index maximum
    x_best = np.argmax(prob.data == prob.data.max(0), axis=0)
    offsets = np.arange(-radius, radius + 1)
    idx = x_best[None] + offsets[:, None, None]
    inside = (idx >= 0) & (idx < d)
    idx_c = np.clip(idx, 0, d - 1)
    win = take_depth(prob, idx_c) * inside.astype(prob.dtype)
    mass = win.sum(0)
    inv_exp = (win * inv_grid[idx_c]).sum(0) / mass
    return 1.0 / inv_exp, x_best


@dataclass
class InitState:
    h0: Tensor
    s_init: Tensor               # [D1, H/8, W/8]
    shares_up: Tensor            # [S, 1, H/4 * W/4] view shares, summing to 1 over S
    inv_grid_init: np.ndarray    # [D1]
    d_init: Tensor               # [H/4, W/4]


@dataclass
class RunResult:
    """Everything the loss and the CLI need from one forward pass."""
    d_init: Tensor
    probs: list[Tensor] = field(default_factory=list)
    depths: list[Tensor] = field(default_factory=list)
    etas: list[Tensor] = field(default_factory=list)   # each depth as normalize_inv maps it
    indices: list[np.ndarray] = field(default_factory=list)
    confs: list[Tensor] = field(default_factory=list)
    d_up: Tensor | None = None
    conf_up: Tensor | None = None
    d_min: float = 0.0
    d_max: float = 0.0
    inv_grid: np.ndarray | None = None


class DepthEstimator(Module):
    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.fpn = FeatureExtractor(rng)
        self.vw_cnn = ViewWeightCNN(rng)
        self.init_unet = AggregationUnet(GROUPS * cfg.d1, cfg.d1, rng)
        # correlation logits live in [-1, 1]; the gain sharpens their
        # softmax so the coarse expectation tracks the argmax from the start
        self.init_gain = Tensor(np.full((), 8.0), requires_grad=True)
        self.h0a = Conv2d(cfg.d1, HIDDEN, 3, rng, leaky=True)
        self.h0b = Conv2d(HIDDEN, HIDDEN, 3, rng)
        self.level_unets = [AggregationUnet(GROUPS * n, n, rng) for n in cfg.counts]
        self.gru = GruCell(HIDDEN, 1 + sum(cfg.counts), rng)
        self.prob_head = Conv2d(HIDDEN, cfg.d2, 3, rng)
        self.conf_head = Conv2d(HIDDEN, 1, 3, rng)
        self.upsampler = ConvexUpsampler(LEVEL_CHANNELS[1], rng)

    def initialize(self, pyramids: list[FeaturePyramid],
                   views: list[CameraView]) -> InitState:
        """Coarse plane sweep at 1/8 resolution over D1 hypotheses.

        The view weights are normalized over S for the sweep and again after
        their resize to 1/4 resolution, for every later lookup; resizing the
        1/8 shares instead would change the values."""
        cfg = self.cfg
        ref = views[0]
        f3 = pyramids[0].f3
        c3, h8, w8 = f3.shape
        h4, w4 = h8 * 2, w8 * 2
        inv_init = inverse_grid(ref.d_min, ref.d_max, cfg.d1)
        hyp_vol = np.broadcast_to(1.0 / inv_init[:, None], (cfg.d1, h8 * w8))
        ys, xs = np.mgrid[:h8, :w8].reshape(2, -1).astype(np.float64)
        f_ref, k_ref = f3.reshape((c3, h8 * w8)), scale_intrinsics(ref.k, 3)
        # one source at a time (S = 1): all S*D1 planes of 64 channels at once
        # would double the peak memory of a 256 px run (correlation, view-weight CNN)
        sims, ws = [], []
        for p, v in zip(pyramids[1:], views[1:]):
            sim, valid = warp_and_correlate(f_ref, p.f3.reshape((1, c3, h8, w8)), xs, ys, hyp_vol,
                                            k_ref, scale_intrinsics(v.k[None], 3),
                                            relative_poses(ref, [v]))
            sims.append(sim)
            ws.append(view_weight(self.vw_cnn, sim.reshape((GROUPS, cfg.d1, h8, w8)),
                                  valid.reshape(cfg.d1, h8, w8)))
        w = concat(ws, 0)
        shares = view_shares(w).reshape((len(ws), 1, h8 * w8))
        merged = integrate(concat(sims, 1), shares).reshape((GROUPS * cfg.d1, h8, w8))
        s_init = self.init_unet(merged) * self.init_gain
        pre = self.h0b(self.h0a(s_init))
        h0 = bilinear_resize(pre, (h4, w4)).tanh()
        p_init = s_init.softmax(0)
        d_coarse = 1.0 / (p_init * inv_init[:, None, None]).sum(0)
        d_init = bilinear_resize(d_coarse, (h4, w4))
        shares_up = view_shares(bilinear_resize(w, (h4, w4)).reshape((len(ws), 1, h4 * w4)))
        return InitState(h0, s_init, shares_up, inv_init, d_init)

    def generate_hypotheses(self, eta: Tensor, d_min: float,
                            d_max: float) -> list[Tensor]:
        """Per-level hypothesis sets around the previous estimate.

        eta is the previous depth in normalized inverse depth, [1, H, W].
        N_l samples spaced evenly over [eta - R_l, eta + R_l], clamped to
        [0, 1], then mapped back to depth: all N1+N2+N3 in one volume, of
        which each level gets its slice.
        """
        offs = [np.linspace(-r, r, n) for r, n in zip(self.cfg.radii, self.cfg.counts)]
        samples = (eta + np.concatenate(offs)[:, None, None]).clip(0.0, 1.0)
        hyps = denormalize_inv(samples, d_min, d_max)
        ends = np.cumsum(self.cfg.counts)
        return [getitem(hyps, np.s_[end - n:end]) for n, end in zip(self.cfg.counts, ends)]

    def predict_probability(self, h: Tensor) -> Tensor:
        return self.prob_head(h).softmax(0)

    def predict_confidence(self, h: Tensor) -> Tensor:
        c = self.conf_head(h).sigmoid()
        return c.reshape((h.shape[1], h.shape[2]))

    def run(self, views: list[CameraView], iters: int | None = None,
            upsample: bool = True,
            pyramids: list[FeaturePyramid] | None = None) -> RunResult:
        """Full forward pass; views[0] is the reference.

        pyramids, if given, holds one ``self.fpn.extract(v.image)`` per view,
        in the order of views, so a caller that runs several references over
        shared views extracts each view once; without it, run extracts every
        view itself.  A count that differs from the views' raises ShapeError.
        """
        cfg = self.cfg
        if len(views) < 2:
            raise ConfigError("need a reference and at least one source view")
        k = cfg.iters if iters is None else iters
        if k < 0:
            raise ConfigError(f"iteration count must be >= 0, got {k}")
        ref = views[0]
        if pyramids is None:
            pyramids = [self.fpn.extract(v.image) for v in views]
        elif len(pyramids) != len(views):
            raise ShapeError(f"{len(pyramids)} feature pyramids for "
                             f"{len(views)} views")
        init = self.initialize(pyramids, views)
        inv2 = inverse_grid(ref.d_min, ref.d_max, cfg.d2)
        # from here on run holds the sources only as one stacked copy per level
        levels, ref_f2 = lookup_levels(pyramids, views), pyramids[0].f2
        del pyramids
        res = RunResult(d_init=init.d_init, d_min=ref.d_min, d_max=ref.d_max,
                        inv_grid=inv2)
        h = init.h0
        h4, w4 = h.shape[1], h.shape[2]

        def readout(hidden: Tensor) -> None:
            prob = self.predict_probability(hidden)
            depth, x_best = predict_depth(prob, inv2, cfg.readout_radius)
            res.probs.append(prob)
            res.depths.append(depth)
            res.etas.append(normalize_inv(depth, ref.d_min, ref.d_max))
            res.indices.append(x_best)
            res.confs.append(self.predict_confidence(hidden))

        readout(h)
        for _ in range(k):
            eta = res.etas[-1].reshape((1, h4, w4))
            hyps = self.generate_hypotheses(eta, ref.d_min, ref.d_max)
            s_bar = multiscale_similarity(levels, hyps, init.shares_up, self.level_unets)
            h = gru_update(self.gru, h, concat([eta, s_bar], 0))
            readout(h)
        if upsample:
            res.d_up = self.upsampler.upsample_depth(res.depths[-1], ref_f2)
            res.conf_up = bilinear_resize(res.confs[-1], (h4 * 4, w4 * 4))
        return res
