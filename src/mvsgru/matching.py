"""Similarity computation between reference and source views.

Covers group-wise correlation of warped features, pixel-wise view weights,
weighted multi-view integration, per-level neighborhood aggregation and the
assembly of the multi-scale similarity stack consumed by the update GRU.

Volumes keep the layout the warp produces, pixels flattened to P = H*W and
last: reference features [C, P]; S stacked sources [S, C, H_l, W_l], warped
by one ``bilinear_sample`` call to [C, S, D, P] for D hypotheses; similarity
[G, S, D, P] with validity [S, D, P]; ``integrate`` sums S away with the
[S, 1, P] view shares, which ``view_shares`` normalizes and the estimator
shapes once per run and resolution, to [G, D, P].  Only the convolutions
reshape to image layout.
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


def group_correlation(f0: Tensor, fi: Tensor) -> Tensor:
    """Group-wise dot products over the GROUPS channel groups, scaled by GROUPS/C.

    That is the mean over each group's channels of the per-channel products.
    f0: [C, P] reference features.
    fi: [C, ..., P] warped source features, e.g. [C, S, D, P].
    Returns [GROUPS, ..., P].
    """
    return group_dot(f0, fi, GROUPS)


class ViewWeightCNN(Module):
    """Reduces the G similarity channels to a single visibility logit."""

    def __init__(self, rng: np.random.Generator):
        self.conv1 = Conv2d(GROUPS, 16, 3, rng, leaky=True)
        self.conv2 = Conv2d(16, 1, 3, rng)

    def logits(self, s: Tensor) -> Tensor:
        # s: [G, D, H, W]; run the depth axis as the conv batch
        d = s.shape[1]
        x = s.transpose((1, 0, 2, 3))
        out = self.conv2(self.conv1(x))
        return out.reshape((d,) + tuple(s.shape[2:]))


def view_weight(cnn: ViewWeightCNN, s: Tensor, valid: np.ndarray) -> Tensor:
    """Per-pixel view weight [1, H, W] from one source's similarity volume.

    valid masks hypotheses whose warped sample fell outside the source
    image; their logits are forced to zero so a fully occluded pixel falls
    back to the uniform weight 1/D.
    """
    logits = cnn.logits(s) * valid.astype(s.dtype)
    return logits.softmax(0).max(0, keepdims=True)


def view_shares(weights: Tensor) -> Tensor:
    """View weights [S, ...] normalized over S; as softmax maxima they are > 0."""
    return weights / weights.sum(0, keepdims=True)


def integrate(sim: Tensor, shares: Tensor) -> Tensor:
    """Share-weighted sum over the source axis of a stacked similarity volume.

    sim: [G, S, D, P]; shares: [S, 1, P] from ``view_shares``, broadcast
    over the group and hypothesis axes.  Returns [G, D, P].
    """
    if sim.ndim != 4 or shares.shape != (sim.shape[1], 1, sim.shape[3]):
        raise ShapeError(f"shares {shares.shape} do not fit similarity {sim.shape}")
    return (sim * shares).sum(1)


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
        self.c0 = Conv2d(in_ch, 8, 3, rng, leaky=True)
        self.d1 = Conv2d(8, 16, 3, rng, stride=2, leaky=True)
        self.d2 = Conv2d(16, 32, 3, rng, stride=2, leaky=True)
        self.u1 = Conv2d(32, 16, 3, rng, leaky=True)
        self.u0 = Conv2d(16, 8, 3, rng, leaky=True)
        self.out = Conv2d(8, out_ch, 3, rng)
        # zero the correction head so the fresh unit passes the averaged
        # similarity through unchanged; training grows the refinement
        self.out.weight.data[:] = 0.0
        self.out.bias.data[:] = 0.0

    def __call__(self, x: Tensor) -> Tensor:
        h, w = x.shape[1], x.shape[2]
        s0 = self.c0(x)
        s1 = self.d1(s0)
        s2 = self.d2(s1)
        up1 = bilinear_resize(s2, (s1.shape[1], s1.shape[2]))
        m1 = self.u1(up1) + s1
        up0 = bilinear_resize(m1, (s0.shape[1], s0.shape[2]))
        m0 = self.u0(up0) + s0
        skip = x.reshape((self.groups, self.out_ch, h, w)).mean(0)
        return self.out(m0) + skip


def level_coords(l: int, h4: int, w4: int,
                 h_l: int, w_l: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-l positions of the 1/4-resolution pixel grid.

    Quarter-res pixel (x, y) maps to (x/2^(l-2), y/2^(l-2)), clamped to the
    level rectangle so level-3 lookups at the bottom/right edges stay inside.
    With the pixel-centre intrinsics of ``scale_intrinsics`` these positions
    do not cast one ray per quarter-res pixel: in full-res pixels the
    level-1 ray lies 1 px before and the level-3 ray 2 px after the level-2
    ray (4x + 1.5) along each axis.
    """
    ys, xs = np.mgrid[:h4, :w4] * 2.0 ** (2 - l)
    return np.clip(xs, 0.0, w_l - 1.0), np.clip(ys, 0.0, h_l - 1.0)


def lookup_levels(pyramids: list[FeaturePyramid],
                  views: list[CameraView]) -> list[tuple]:
    """What every GRU iteration's lookup at levels 1..3 shares, per level:
    reference features [C, P] at the level positions (xl, yl) [P] of the
    P = H/4 * W/4 pixels, the sources' features stacked [S, C, H_l, W_l],
    xl, yl, level intrinsics of the reference and of the sources [S, 3, 3],
    and the poses.  pyramids and views list the reference first.
    """
    ref, src = pyramids[0], stack_pyramids(pyramids[1:])
    h4, w4 = ref.f2.shape[1], ref.f2.shape[2]
    k_src, pose = np.stack([v.k for v in views[1:]]), relative_poses(views[0], views[1:])
    levels = []
    for l in (1, 2, 3):
        f_ref = ref.level(l)
        xl, yl = (c.ravel() for c in level_coords(l, h4, w4, f_ref.shape[1], f_ref.shape[2]))
        if l == 2:  # the 1/4-res grid itself
            f_ref = f_ref.reshape((f_ref.shape[0], h4 * w4))
        else:
            f_ref, _ = bilinear_sample(f_ref, xl, yl)
        levels.append((f_ref, src.level(l), xl, yl, scale_intrinsics(views[0].k, l),
                       scale_intrinsics(k_src, l), pose))
    return levels


def warp_and_correlate(f_ref: Tensor, f_src: Tensor, x: np.ndarray, y: np.ndarray,
                       depths: Tensor | np.ndarray, k_ref_l: np.ndarray, k_src_l: np.ndarray,
                       pose: RelativePose) -> tuple[Tensor, np.ndarray]:
    """Similarity of S stacked source views against reference features.

    f_ref: [C, P] reference features at the level positions (x, y), each
    [P].  f_src, k_src_l, pose: the S sources stacked ([S, C, H_l, W_l],
    [S, 3, 3], ``relative_poses``).  depths: [D, P] hypotheses shared by
    all sources.  Returns the similarity [G, S, D, P], 0 where the point
    left the source image or fell behind its camera, and that validity mask
    [S, D, P].
    """
    if f_src.ndim != 4:
        raise ShapeError(f"sources must be stacked [S, C, H, W], got {f_src.shape}")
    u, v, _, front = warp_points(x, y, depths, k_ref_l, k_src_l, pose)
    # [C, S, D, P]; invalid points sample 0, so their similarity is 0 too
    warped, valid = bilinear_sample(f_src, u, v, mask=front)
    return group_correlation(f_ref, warped), valid


def multiscale_similarity(levels: list[tuple], hyps_by_level: list[Tensor], shares: Tensor,
                          unets: list[Module]) -> Tensor:
    """Assemble the per-iteration similarity stack at 1/4 resolution.

    levels: from ``lookup_levels``; hyps_by_level: [N_l, H/4, W/4] depths
    for levels 1..3; shares: [S, 1, H/4 * W/4] view shares (``view_shares``).
    Output: [N1+N2+N3, H/4, W/4]."""
    out = []
    for (f_ref, f_src, xl, yl, k_ref, k_src, pose), hyps, unet in zip(
            levels, hyps_by_level, unets):
        sim, _ = warp_and_correlate(f_ref, f_src, xl, yl, hyps.reshape((hyps.shape[0], -1)),
                                    k_ref, k_src, pose)
        out.append(unet(integrate(sim, shares).reshape((-1,) + hyps.shape[1:])))
    return concat(out, 0)
