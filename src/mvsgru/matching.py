"""Similarity computation between reference and source views.

Covers group-wise correlation of warped features, pixel-wise view weights,
weighted multi-view integration, per-level neighborhood aggregation and the
assembly of the multi-scale similarity stack consumed by the update GRU.

The S source views are stacked: features [S, C, H, W], warped by one
``bilinear_sample`` call into [C, S, D, P], and similarity volumes
[G, S*D, ...], each source's D hypotheses in turn.  The warp and the
correlation flatten the spatial axes to P = H*W because a Tensor has at
most four axes.  View weights are [S, H, W]; ``integrate`` sums S away.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .features import FeaturePyramid, stack_pyramids
from .geometry import (CameraView, RelativePose, relative_poses, scale_intrinsics,
                       warp_points)
from .nn import Conv2d, Module
from .tensor import Tensor, bilinear_resize, bilinear_sample, concat, group_dot

GROUPS = 8


def group_correlation(f0: Tensor, fi: Tensor, groups: int = GROUPS) -> Tensor:
    """Group-wise dot products, scaled by groups/C.

    That is the mean over each group's channels of the per-channel products.
    f0: [C, *spatial] reference features.
    fi: [C, D, *spatial] warped source features for D hypotheses.
    Returns [groups, D, *spatial].
    """
    c = f0.shape[0]
    if fi.shape[0] != c:
        raise ShapeError(f"channel mismatch: {c} vs {fi.shape[0]}")
    if c % groups:
        raise ShapeError(f"{c} channels not divisible into {groups} groups")
    spatial = tuple(f0.shape[1:])
    if tuple(fi.shape[2:]) != spatial:
        raise ShapeError(f"spatial mismatch: {spatial} vs {fi.shape[2:]}")
    d, p = fi.shape[1], int(np.prod(spatial))
    sim = group_dot(f0.reshape((c, p)), fi.reshape((c, d, p)), groups)
    return sim.reshape((groups, d) + spatial)


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


def integrate(sim: Tensor, weights: Tensor) -> Tensor:
    """Weighted average over the source axis of a stacked similarity volume.

    sim: [G, S*D, H, W]; weights: [S, H, W], normalized over S here and
    broadcast over the group and hypothesis axes.  The weights are strictly
    positive by construction (softmax maxima), so their sum is safe to
    divide by.  Returns [G, D, H, W].
    """
    g, sd, h, w = sim.shape
    n_src = weights.shape[0]
    if weights.ndim != 3 or tuple(weights.shape[1:]) != (h, w) or sd % n_src:
        raise ShapeError(f"weights {weights.shape} do not fit similarity {sim.shape}")
    d, p = sd // n_src, h * w
    share = (weights / weights.sum(0, keepdims=True)).reshape((1, n_src, 1, p))
    return (sim.reshape((g, n_src, d, p)) * share).sum(1).reshape((g, d, h, w))


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
    ys, xs = np.mgrid[:h4, :w4] * 2.0 ** (2 - l)
    return np.clip(xs, 0.0, w_l - 1.0), np.clip(ys, 0.0, h_l - 1.0)


def lookup_levels(pyramids: list[FeaturePyramid],
                  views: list[CameraView]) -> list[tuple]:
    """What every GRU iteration's lookup at levels 1..3 shares, per level:
    reference features [C, H/4, W/4] at the level positions (xl, yl) of the
    1/4-res grid, the sources' features stacked [S, C, H_l, W_l], xl, yl,
    level intrinsics of the reference and of the sources [S, 3, 3], and the
    poses.  pyramids and views list the reference first.
    """
    ref, src = pyramids[0], stack_pyramids(pyramids[1:])
    h4, w4 = ref.f2.shape[1], ref.f2.shape[2]
    k_src, pose = np.stack([v.k for v in views[1:]]), relative_poses(views[0], views[1:])
    levels = []
    for l in (1, 2, 3):
        f_ref = ref.level(l)
        xl, yl = level_coords(l, h4, w4, f_ref.shape[1], f_ref.shape[2])
        if l != 2:  # level 2 is the 1/4-res grid itself
            f_ref, _ = bilinear_sample(f_ref, xl, yl, mode="edge")
        levels.append((f_ref, src.level(l), xl, yl, scale_intrinsics(views[0].k, l),
                       scale_intrinsics(k_src, l), pose))
    return levels


def warp_and_correlate(f_ref_at_p: Tensor, f_src: Tensor, xl: np.ndarray,
                       yl: np.ndarray, depths: Tensor | np.ndarray,
                       k_ref_l: np.ndarray, k_src_l: np.ndarray,
                       pose: RelativePose,
                       groups: int = GROUPS) -> tuple[Tensor, np.ndarray]:
    """Similarity of S stacked source views against reference features.

    f_ref_at_p: [C, H, W] reference features at the level positions (xl,
    yl).  f_src, k_src_l, pose: S sources stacked ([S, C, H_l, W_l],
    [S, 3, 3], ``relative_poses``), or one without the S axis.  depths:
    [D, H, W] hypotheses shared by all sources.  Returns the similarity
    [G, S*D, H, W], 0 where the point left the source image or fell behind
    its camera, and that validity mask [S*D, H, W].
    """
    d, h, w = depths.shape
    u, v, _, front = warp_points(xl.reshape(-1), yl.reshape(-1),
                                 depths.reshape((d, h * w)), k_ref_l, k_src_l, pose)
    # [C, (S,) D, P]; invalid points sample 0, so their similarity is 0 too
    warped, valid = bilinear_sample(f_src, u, v, mode="zero", mask=front)
    sd = valid.size // (h * w)
    sim = group_correlation(f_ref_at_p, warped.reshape((warped.shape[0], sd, h, w)),
                            groups)
    return sim, valid.reshape(sd, h, w)


def multiscale_similarity(levels: list[tuple], hyps_by_level: list[Tensor], weights: Tensor,
                          unets: list[Module], groups: int = GROUPS) -> Tensor:
    """Assemble the per-iteration similarity stack at 1/4 resolution.

    levels: from ``lookup_levels``; hyps_by_level: [N_l, H/4, W/4] depths
    for levels 1..3; weights: [S, H/4, W/4] view weights.
    Output: [N1+N2+N3, H/4, W/4]."""
    out = []
    for (f_ref, f_src, xl, yl, k_ref, k_src, pose), hyps, unet in zip(
            levels, hyps_by_level, unets):
        sim, _ = warp_and_correlate(f_ref, f_src, xl, yl, hyps, k_ref, k_src,
                                    pose, groups)
        merged = integrate(sim, weights)
        out.append(unet(merged.reshape((-1,) + tuple(hyps.shape[1:]))))
    return concat(out, 0)
