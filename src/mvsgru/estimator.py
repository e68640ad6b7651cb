"""GRU-based per-pixel depth probability estimator.

Initializes a hidden state from coarse plane-sweep matching, then runs K
convolutional-GRU updates at 1/4 resolution.  Each update injects fresh
multi-scale matching evidence around the previous estimate, which the loop
carries as normalized inverse depth η: an argmax-windowed expectation over
bins evenly spaced in η reads it out, and every lookup projects η directly.
Lookups take η as a constant, as RAFT's take their coordinates: the loss
reaches η through the GRU input only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ShapeError
from .features import LEVEL_CHANNELS, FeatureExtractor, FeaturePyramid, stack_pyramids
from .geometry import (CameraView, denormalize_inv, eta_projection, inverse_grid,
                       relative_poses, scale_intrinsics)
from .matching import (GROUPS, AggregationUnet, ViewWeightCNN, integrate, lookup_levels,
                       multiscale_similarity, view_shares, view_weight, warp_and_correlate)
from .nn import Conv2d, Module
from .tensor import (Tensor, active_tape, bilinear_resize, bilinear_sample, concat, getitem,
                     no_grad, take_depth, weighted_sum, work_slices)
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


def _lowest_argmax(v: np.ndarray) -> np.ndarray:
    """Index of the maximum along axis 0 of v [D, H, ...], the lowest one
    where several bins hold it, and 0 where a column's maximum is NaN.

    That index is D − max_j (D − j)·[v_j is maximal], taken in int16 (int32
    from 2^15 bins): numpy's argmax along the leading axis of a float or
    bool volume ran 2.5x slower on [256, 64, 64].  Its bool and int volumes
    are formed in bands of rows along H, split by ``work_slices``.
    """
    d = v.shape[0]
    rank = np.arange(d, 0, -1, dtype=np.int16 if d < 2**15 else np.int32)
    rank = rank.reshape((d,) + (1,) * (v.ndim - 1))
    top = np.empty(v.shape[1:], dtype=rank.dtype)
    for band in work_slices(v.shape[1], v.size // v.shape[1]):
        vb = v[:, band]
        top[band] = ((vb == vb.max(0)) * rank).max(0)
    return (d - top.astype(np.intp)) % d


def predict_depth(logits: Tensor, radius: int) -> tuple[Tensor, np.ndarray]:
    """Hybrid readout from the probability head's logits [D, H, W]: classify,
    then regress in normalized inverse depth η near the class.

    The class X is the argmax of the logits, the lowest index on a tie
    (``_lowest_argmax``).  A softmax over the window [X-r, X+r] weighs the
    bins' η values j/(D-1), those of ``inverse_grid``; window entries outside
    [0, D-1] get logit −inf, so weight exactly 0.  That is the expectation of
    the D-bin softmax renormalized inside the window, whose normalizer
    cancels, so no [D, H, W] volume is normalized.
    """
    d, dtype = logits.shape[0], logits.dtype.type
    x_best = _lowest_argmax(logits.data)
    # the window arrays in the types the ops take: int32 indices, clipped in
    # place, and the mask and η values in the logits' dtype
    idx = x_best.astype(np.int32) + np.arange(-radius, radius + 1, dtype=np.int32)[:, None, None]
    mask = np.where((idx >= 0) & (idx < d), dtype(0), dtype(-np.inf))
    np.clip(idx, 0, d - 1, out=idx)
    weights = (take_depth(logits, idx) + mask).softmax(0)
    return weighted_sum(weights, (np.arange(d) / (d - 1.0)).astype(dtype)[idx], 0), x_best


@dataclass
class InitState:
    h0: Tensor
    s_init: Tensor               # [D1, H/8, W/8]
    shares_up: Tensor            # [S, 1, H/4 * W/4] view shares, summing to 1 over S
    d_init: Tensor               # [H/4, W/4]


@dataclass
class RunResult:
    """Everything the loss and the CLI need from one forward pass.

    Readout k (k = 0 reads the initial hidden state, then one per GRU
    iteration) keeps its hidden state ``hiddens[k]`` [HIDDEN, H/4, W/4],
    η, depth (η over [d_min, d_max], off any tape: the losses read η, and
    ``d_up`` maps the last η to depth again on the tape), argmax index and
    confidence logits [H/4, W/4].  Its probability head's logits [D2, H/4,
    W/4] are read through ``logit(k)``; only ``predict_probability`` forms
    their softmax, the volume over ``inverse_grid(d_min, d_max, D2)``.

    A run under a tape keeps every readout's logits in ``logits``, since
    the tape holds them for backward anyway.  A run with no tape keeps no
    volume at all: with HIDDEN = 32 channels against D2 = 256 bins, each
    readout adds an eighth of a volume to the result (4 MB per volume at
    256 px).  ``logit(k)`` then rebuilds them as ``prob_head(hiddens[k])``
    under ``no_grad``: the same op on the same input, so the same bits as
    the taped run's, as long as the weights have not changed since.
    """
    d_init: Tensor
    hiddens: list[Tensor] = field(default_factory=list)
    logits: list[Tensor] = field(default_factory=list)
    depths: list[Tensor] = field(default_factory=list)  # each η as denormalize_inv maps it
    etas: list[Tensor] = field(default_factory=list)
    indices: list[np.ndarray] = field(default_factory=list)
    conf_logits: list[Tensor] = field(default_factory=list)
    d_up: Tensor | None = None
    conf_up: Tensor | None = None
    d_min: float = 0.0
    d_max: float = 0.0
    estimator: DepthEstimator | None = field(default=None, repr=False)

    def logit(self, k: int) -> Tensor:
        """Readout k's probability-head logits; a negative k counts from the end."""
        k = range(len(self.depths))[k]
        if self.logits:
            return self.logits[k]
        with no_grad():
            return self.estimator.prob_head(self.hiddens[k])


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

    def initialize(self, ref_pyramid: FeaturePyramid, sources: FeaturePyramid,
                   views: list[CameraView]) -> InitState:
        """Coarse plane sweep at 1/8 resolution over D1 hypotheses.

        sources stacks the source views' pyramids (``stack_pyramids``), in
        the order of views[1:].  One lookup correlates all sources; the
        view-weight CNN runs per source (tensor notes).  The view weights
        are normalized over S for the sweep and again after their resize to
        1/4 resolution, for every later lookup; resizing the 1/8 shares
        instead would change the values."""
        cfg = self.cfg
        ref = views[0]
        f3 = ref_pyramid.f3
        h8, w8 = f3.shape[1:]
        h4, w4 = h8 * 2, w8 * 2
        inv_init = inverse_grid(ref.d_min, ref.d_max, cfg.d1)
        planes = np.linspace(0.0, 1.0, cfg.d1)[:, None]  # inv_init's η values, [D1, 1]
        ys, xs = np.mgrid[:h8, :w8].reshape(2, -1).astype(np.float64)
        # the reference as a [C3, P] view of [P, C3] memory, as the lookup
        # reads it: sampled at its own texels, which bilinear_sample reads
        # exactly
        f_ref, _ = bilinear_sample(f3, xs, ys)
        a, b = eta_projection(xs, ys, scale_intrinsics(ref.k, 3),
                              scale_intrinsics(np.stack([v.k for v in views[1:]]), 3),
                              relative_poses(ref, views[1:]), ref.d_min, ref.d_max)
        sim, valid = warp_and_correlate(f_ref, sources.f3, planes, a, b)
        n_src = len(views) - 1
        w = concat([view_weight(self.vw_cnn,
                                getitem(sim, np.s_[:, i]).reshape((GROUPS, cfg.d1, h8, w8)),
                                valid[i].reshape(cfg.d1, h8, w8)) for i in range(n_src)], 0)
        shares = view_shares(w).reshape((n_src, 1, h8 * w8))
        merged = integrate(sim, shares).reshape((GROUPS * cfg.d1, h8, w8))
        s_init = self.init_unet(merged) * self.init_gain
        pre = self.h0b(self.h0a(s_init))
        h0 = bilinear_resize(pre, (h4, w4)).tanh()
        p_init = s_init.softmax(0)
        d_coarse = 1.0 / weighted_sum(p_init, inv_init[:, None, None], 0)
        d_init = bilinear_resize(d_coarse, (h4, w4))
        shares_up = view_shares(bilinear_resize(w, (h4, w4)).reshape((n_src, 1, h4 * w4)))
        return InitState(h0, s_init, shares_up, d_init)

    def generate_hypotheses(self, eta: np.ndarray) -> list[np.ndarray]:
        """Per-level hypothesis sets around the previous estimate.

        eta is the previous estimate [1, H, W], a constant array as in RAFT.
        N_l samples spaced evenly over [eta - R_l, eta + R_l], clamped to
        [0, 1]: all N1+N2+N3 in one volume, of which each level gets its slice.
        """
        offs = [np.linspace(-r, r, n) for r, n in zip(self.cfg.radii, self.cfg.counts)]
        hyps = np.clip(eta + np.concatenate(offs).astype(eta.dtype)[:, None, None], 0.0, 1.0)
        ends = np.cumsum(self.cfg.counts)
        return [hyps[end - n:end] for n, end in zip(self.cfg.counts, ends)]

    def predict_probability(self, h: Tensor) -> Tensor:
        """The probability volume [D2, H, W] of a hidden state."""
        return self.prob_head(h).softmax(0)

    def predict_confidence(self, h: Tensor) -> Tensor:
        """The confidence logits [H, W] of a hidden state."""
        return self.conf_head(h).reshape((h.shape[1], h.shape[2]))

    def run(self, views: list[CameraView], iters: int | None = None,
            upsample: bool = True,
            pyramids: list[FeaturePyramid] | None = None) -> RunResult:
        """Full forward pass; views[0] is the reference.

        pyramids, if given, holds one ``self.fpn.extract(v.image)`` per view,
        in the order of views, so a caller that runs several references over
        shared views extracts each view once; without it, run extracts every
        view itself.  A count that differs from the views', or a view whose
        image size differs from the reference's, raises ShapeError.

        run holds each input only until its last reader has run: the
        per-view pyramids until the sources are stacked, the reference's
        until the lookup levels are built, and the stacked sources and the
        levels until the last lookup.  The last GRU update, readout and
        upsampler run without them; under ``no_grad``, where no tape keeps
        them for backward, that lowers the run's peak.  A run with no tape
        keeps no probability volume either (``RunResult``).
        """
        cfg = self.cfg
        if len(views) < 2:
            raise ConfigError("need a reference and at least one source view")
        k = cfg.iters if iters is None else iters
        if k < 0:
            raise ConfigError(f"iteration count must be >= 0, got {k}")
        ref = views[0]
        for i, v in enumerate(views[1:], 1):
            if v.image.shape != ref.image.shape:
                raise ShapeError(f"views[{i}] is {v.image.shape[1]}x{v.image.shape[2]} px "
                                 f"but the reference views[0] is "
                                 f"{ref.image.shape[1]}x{ref.image.shape[2]} px")
        if pyramids is None:
            pyramids = [self.fpn.extract(v.image) for v in views]
        elif len(pyramids) != len(views):
            raise ShapeError(f"{len(pyramids)} feature pyramids for "
                             f"{len(views)} views")
        # from here on run holds the sources only as one stacked, texel-major
        # copy per level, which the init sweep and every lookup sample, and
        # after those the reference only as its level-2 map; the levels go
        # after the last lookup
        ref_pyramid, sources = pyramids[0], stack_pyramids(pyramids[1:])
        del pyramids
        init = self.initialize(ref_pyramid, sources, views)
        levels, ref_f2 = lookup_levels(ref_pyramid, sources, views), ref_pyramid.f2
        del ref_pyramid, sources
        res = RunResult(d_init=init.d_init, d_min=ref.d_min, d_max=ref.d_max, estimator=self)
        h = init.h0
        h4, w4 = h.shape[1], h.shape[2]
        keep_logits = active_tape() is not None

        def readout(hidden: Tensor) -> None:
            logits = self.prob_head(hidden)
            eta, x_best = predict_depth(logits, cfg.readout_radius)
            if keep_logits:
                res.logits.append(logits)
            res.hiddens.append(hidden)
            res.etas.append(eta)
            with no_grad():  # no loss reads these depths
                res.depths.append(denormalize_inv(eta, ref.d_min, ref.d_max))
            res.indices.append(x_best)
            res.conf_logits.append(self.predict_confidence(hidden))

        readout(h)
        for i in range(k):
            eta = res.etas[-1].reshape((1, h4, w4))
            hyps = self.generate_hypotheses(eta.data)
            s_bar = multiscale_similarity(levels, hyps, init.shares_up, self.level_unets)
            if i == k - 1:
                del levels
            h = gru_update(self.gru, h, concat([eta, s_bar], 0))
            readout(h)
        if upsample:
            d_last = denormalize_inv(res.etas[-1], ref.d_min, ref.d_max)
            res.d_up = self.upsampler.upsample_depth(d_last, ref_f2)
            res.conf_up = bilinear_resize(res.conf_logits[-1].sigmoid(), (h4 * 4, w4 * 4))
        return res
