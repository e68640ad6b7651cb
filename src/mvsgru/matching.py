"""Similarity computation between reference and source views.

Covers group-wise correlation of sampled source features, pixel-wise view
weights, weighted multi-view integration, per-level neighborhood aggregation
and the assembly of the multi-scale similarity stack consumed by the update
GRU.

Volumes keep pixels flattened to P = H*W and last: reference features
[C, P]; S stacked sources [S, C, H_l, W_l], which ``group_correlation``
samples at the [S, D, P] source pixels of D hypotheses in normalized
inverse depth η and correlates in one op, to similarity [G, S, D, P] with
validity [S, D, P].  No [C, S, D, P] warped-feature volume is kept: the op
works in slabs of the hypotheses that fit ``tensor.MAX_WORK_ELEMENTS``.
``integrate`` sums S away with the [S, 1, P] view shares, which
``view_shares`` normalizes and the estimator shapes once per run and
resolution, to [G, D, P].  Only the convolutions reshape to image layout.

What does not change during a run is laid out once per run, channels
last: ``stack_pyramids`` stores the stacked sources as views of
[S, H_l, W_l, C] memory, and ``lookup_levels`` samples the reference at
every level, which leaves [C, P] views of [P, C] memory, with the level's
``eta_projection``.  So no lookup copies a source map into a texel table,
transposes the reference or redoes camera algebra.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .features import FeaturePyramid
from .geometry import CameraView, eta_projection, project, relative_poses, scale_intrinsics
from .nn import Conv2d, Module
from .tensor import (Tensor, bilinear_resize, bilinear_sample, concat, sampled_group_dot,
                     weighted_sum)

GROUPS = 8


def group_correlation(f_ref: Tensor, f_src: Tensor, u: np.ndarray, v: np.ndarray,
                      front: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Group-wise correlation of reference features with stacked sources
    sampled at source pixels: the mean over each of the GROUPS channel
    groups of the per-channel products, i.e. (G/C)·<f_ref^g, f_src^g>.

    f_ref: [C, P] reference features; f_src: S stacked sources [S, C, H, W];
    u, v, front: [S, D, P] from ``project``.  Returns the similarity
    [GROUPS, S, D, P], 0 where the point left the source image or fell
    behind its camera (front False), and that validity mask [S, D, P].
    """
    return sampled_group_dot(f_ref, f_src, u, v, front, GROUPS)


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
    return weighted_sum(sim, shares, 1)


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


def lookup_levels(ref: FeaturePyramid, sources: FeaturePyramid,
                  views: list[CameraView]) -> list[tuple]:
    """What every GRU iteration's lookup at levels 1..3 shares, per level:
    reference features [C, P] at the level positions of the P = H/4 * W/4
    pixels, the sources' stacked features [S, C, H_l, W_l]
    (``stack_pyramids``) and the positions' ``eta_projection`` (a, b) into
    the sources.  views lists the reference first.

    The reference features are sampled at every level, at level 2 on its
    own texels, which ``bilinear_sample`` reads exactly, so all are
    texel-major views as the stacked sources are.
    """
    h4, w4 = ref.f2.shape[1], ref.f2.shape[2]
    k_src, pose = np.stack([v.k for v in views[1:]]), relative_poses(views[0], views[1:])
    levels = []
    for l in (1, 2, 3):
        f_ref = ref.level(l)
        xl, yl = (c.ravel() for c in level_coords(l, h4, w4, f_ref.shape[1], f_ref.shape[2]))
        f_ref, _ = bilinear_sample(f_ref, xl, yl)
        a, b = eta_projection(xl, yl, scale_intrinsics(views[0].k, l), scale_intrinsics(k_src, l),
                              pose, views[0].d_min, views[0].d_max)
        levels.append((f_ref, sources.level(l), a, b))
    return levels


def warp_and_correlate(f_ref: Tensor, f_src: Tensor, eta: np.ndarray,
                       a: np.ndarray, b: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Similarity of S stacked source views against reference features.

    f_ref: [C, P] reference features; f_src: S stacked sources [S, C, H_l,
    W_l]; eta: [D, P] hypotheses shared by all sources, or [D, 1] planes,
    which ``project`` maps with a, b to the source pixels that
    ``group_correlation`` samples.  η is a constant array, as RAFT's
    lookup coordinates are.  Returns the similarity [G, S, D, P], 0 where
    the point left the source image or fell behind its camera, and that
    validity mask [S, D, P].
    """
    if f_src.ndim != 4:
        raise ShapeError(f"sources must be stacked [S, C, H, W], got {f_src.shape}")
    return group_correlation(f_ref, f_src, *project(eta, a, b))


def multiscale_similarity(levels: list[tuple], hyps_by_level: list[np.ndarray],
                          shares: Tensor, unets: list[Module]) -> Tensor:
    """Assemble the per-iteration similarity stack at 1/4 resolution.

    levels: from ``lookup_levels``; hyps_by_level: [N_l, H/4, W/4] η arrays
    for levels 1..3; shares: [S, 1, H/4 * W/4] view shares (``view_shares``).
    Output: [N1+N2+N3, H/4, W/4]."""
    out = []
    for (f_ref, f_src, a, b), hyps, unet in zip(levels, hyps_by_level, unets):
        sim, _ = warp_and_correlate(f_ref, f_src, hyps.reshape((hyps.shape[0], -1)), a, b)
        out.append(unet(integrate(sim, shares).reshape((-1,) + hyps.shape[1:])))
    return concat(out, 0)
