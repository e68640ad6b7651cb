"""Similarity computation between reference and source views.

Covers group-wise correlation of warped features, pixel-wise view weights,
weighted multi-view integration, per-level neighborhood aggregation and the
assembly of the multi-scale similarity stack consumed by the update GRU.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .geometry import CameraView, RelativePose, scale_intrinsics, warp_points
from .nn import Conv2d, Module
from .tensor import Tensor, bilinear_resize, bilinear_sample, concat

GROUPS = 8


def group_correlation(f0: Tensor, fi: Tensor, groups: int = GROUPS) -> Tensor:
    """Group-wise dot products, scaled by groups/C.

    f0: [C, *spatial] reference features.
    fi: [C, D, *spatial] warped source features for D hypotheses.
    Returns [groups, D, *spatial].
    """
    c = f0.shape[0]
    if fi.shape[0] != c:
        raise ShapeError(f"channel mismatch: {c} vs {fi.shape[0]}")
    if c % groups:
        raise ShapeError(f"{c} channels not divisible into {groups} groups")
    cg = c // groups
    scale = groups / c
    parts = []
    for g in range(groups):
        a = f0[g * cg:(g + 1) * cg]
        b = fi[g * cg:(g + 1) * cg]
        a = a.reshape((cg, 1) + tuple(f0.shape[1:]))
        s = (a * b).sum(0) * scale
        parts.append(s.reshape((1,) + tuple(s.shape)))
    return concat(parts, 0)


class ViewWeightCNN(Module):
    """Reduces the G similarity channels to a single visibility logit."""

    def __init__(self, groups: int, rng: np.random.Generator):
        self.conv1 = Conv2d(groups, 16, 3, rng)
        self.conv2 = Conv2d(16, 1, 3, rng)

    def logits(self, s: Tensor) -> Tensor:
        # s: [G, D, H, W]; run the depth axis as the conv batch
        d = s.shape[1]
        x = s.transpose((1, 0, 2, 3))
        out = self.conv2(self.conv1(x).leaky_relu())
        return out.reshape((d,) + tuple(s.shape[2:]))


def view_weight(cnn: ViewWeightCNN, s: Tensor,
                valid: np.ndarray) -> tuple[Tensor, Tensor]:
    """Per-pixel view weight from one source's similarity volume.

    valid masks hypotheses whose warped sample fell outside the source
    image; their logits are forced to zero so a fully occluded pixel falls
    back to the uniform weight 1/D.  Returns (w [1,H,W], p [D,H,W]).
    """
    logits = cnn.logits(s) * valid.astype(s.dtype)
    p = logits.softmax(0)
    w = p.max(0, keepdims=True)
    return w, p


def integrate(sims: list[Tensor], weights: list[Tensor]) -> Tensor:
    """Weighted average of per-source similarities.

    Weights broadcast over group and hypothesis axes; they are strictly
    positive by construction (softmax maxima), so the denominator is safe.
    """
    if not sims or len(sims) != len(weights):
        raise ShapeError("need one weight per similarity volume")
    num = sims[0] * weights[0]
    den = weights[0]
    for s, w in zip(sims[1:], weights[1:]):
        num = num + s * w
        den = den + w
    return num / den


class AggregationUnet(Module):
    """Small 2-level U-Net mixing similarity across spatial neighbors.

    Treats (group x hypothesis) as input channels and emits one channel per
    hypothesis.  The group-averaged input similarity is added back to the
    output, so the unit refines raw matching evidence instead of having to
    rediscover it; an untrained instance already ranks hypotheses.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        if in_ch % out_ch:
            raise ShapeError(f"{in_ch} input channels do not group over "
                             f"{out_ch} hypotheses")
        self.groups = in_ch // out_ch
        self.out_ch = out_ch
        self.c0 = Conv2d(in_ch, 8, 3, rng)
        self.d1 = Conv2d(8, 16, 3, rng, stride=2)
        self.d2 = Conv2d(16, 32, 3, rng, stride=2)
        self.u1 = Conv2d(32, 16, 3, rng)
        self.u0 = Conv2d(16, 8, 3, rng)
        self.out = Conv2d(8, out_ch, 3, rng)
        # zero the correction head so the fresh unit passes the averaged
        # similarity through unchanged; training grows the refinement
        self.out.weight.data[:] = 0.0
        self.out.bias.data[:] = 0.0

    def __call__(self, x: Tensor) -> Tensor:
        h, w = x.shape[1], x.shape[2]
        s0 = self.c0(x).leaky_relu()
        s1 = self.d1(s0).leaky_relu()
        s2 = self.d2(s1).leaky_relu()
        up1 = bilinear_resize(s2, (s1.shape[1], s1.shape[2]))
        m1 = self.u1(up1).leaky_relu() + s1
        up0 = bilinear_resize(m1, (s0.shape[1], s0.shape[2]))
        m0 = self.u0(up0).leaky_relu() + s0
        skip = x.reshape((self.groups, self.out_ch, h, w)).mean(0)
        return self.out(m0) + skip


def level_coords(l: int, h4: int, w4: int,
                 h_l: int, w_l: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-l positions of the 1/4-resolution pixel grid.

    Quarter-res pixel (x, y) maps to (x/2^(l-2), y/2^(l-2)), clamped to the
    level rectangle so level-3 lookups at the bottom/right edges stay inside.
    """
    ys, xs = np.meshgrid(np.arange(h4, dtype=np.float64),
                         np.arange(w4, dtype=np.float64), indexing="ij")
    scale = 2.0 ** (2 - l)
    xl = np.clip(xs * scale, 0.0, w_l - 1.0)
    yl = np.clip(ys * scale, 0.0, h_l - 1.0)
    return xl, yl


def warp_and_correlate(f_ref_at_p: Tensor, f_src: Tensor, xl: np.ndarray,
                       yl: np.ndarray, depths: Tensor | np.ndarray,
                       k_ref_l: np.ndarray, k_src_l: np.ndarray,
                       pose: RelativePose,
                       groups: int = GROUPS) -> tuple[Tensor, np.ndarray]:
    """Similarity of one source view against reference features.

    f_ref_at_p: [C, H, W] reference features already sampled at the level
    positions.  depths: [D, H, W] hypothesis depths per pixel.  Returns the
    masked similarity [G, D, H, W] and the validity mask [D, H, W].
    """
    d, h, w = depths.shape
    flat = depths.reshape((d, h * w))
    u, v, _, valid = warp_points(xl.reshape(-1), yl.reshape(-1), flat,
                                 k_ref_l, k_src_l, pose)
    if isinstance(u, Tensor):
        u = u.reshape((d, h, w))
        v = v.reshape((d, h, w))
    else:
        u = u.reshape(d, h, w)
        v = v.reshape(d, h, w)
    valid = valid.reshape(d, h, w)
    warped, inside = bilinear_sample(f_src, u, v, mode="zero")
    valid = valid & inside
    sim = group_correlation(f_ref_at_p, warped, groups)
    return sim * valid.astype(sim.dtype), valid


def multiscale_similarity(pyramids: list, views: list[CameraView],
                          poses: list[RelativePose], hyps_by_level: list[Tensor],
                          weights_up: list[Tensor], unets: list[Module],
                          groups: int = GROUPS) -> Tensor:
    """Assemble the per-iteration similarity stack at 1/4 resolution.

    pyramids[0]/views[0] belong to the reference view; poses, weights_up
    align with pyramids[1:].  hyps_by_level holds [N_l, H/4, W/4] hypothesis
    depths for levels 1..3.  Output: [N1+N2+N3, H/4, W/4].
    """
    ref_pyr = pyramids[0]
    h4, w4 = ref_pyr.f2.shape[1], ref_pyr.f2.shape[2]
    out_levels = []
    for l, hyps in zip((1, 2, 3), hyps_by_level):
        f_ref = ref_pyr.level(l)
        h_l, w_l = f_ref.shape[1], f_ref.shape[2]
        xl, yl = level_coords(l, h4, w4, h_l, w_l)
        f_ref_p, _ = bilinear_sample(f_ref, xl, yl, mode="edge")
        k_ref_l = scale_intrinsics(views[0].k, l)
        sims = []
        for i, (pyr, pose) in enumerate(zip(pyramids[1:], poses)):
            k_src_l = scale_intrinsics(views[i + 1].k, l)
            sim, _ = warp_and_correlate(f_ref_p, pyr.level(l), xl, yl, hyps,
                                        k_ref_l, k_src_l, pose, groups)
            sims.append(sim)
        ws = [w.reshape((1, 1, h4, w4)) for w in weights_up]
        merged = integrate(sims, ws)
        n_l = hyps.shape[0]
        merged = merged.reshape((groups * n_l, h4, w4))
        out_levels.append(unets[l - 1](merged))
    return concat(out_levels, 0)
