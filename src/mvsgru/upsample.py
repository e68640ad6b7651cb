"""Learned 4x depth upsampling.

Each full-resolution pixel is a convex combination of the 9 nearest coarse
neighbors; the combination weights come from a small CNN over the reference
features and a softmax across the neighbor axis.  The confidence map needs
no learned weights: ``DepthEstimator.run`` resizes it bilinearly.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import Conv2d, Module
from .tensor import Tensor, gather2d, weighted_sum

FACTOR = 4
NEIGHBORS = 9


class ConvexUpsampler(Module):
    def __init__(self, feat_ch: int, rng: np.random.Generator):
        self.conv1 = Conv2d(feat_ch, 64, 3, rng, leaky=True)
        self.conv2 = Conv2d(64, NEIGHBORS * FACTOR * FACTOR, 3, rng)

    def mask(self, feat: Tensor) -> Tensor:
        """Softmax-normalized weights, [9, 16, H, W]."""
        h, w = feat.shape[1], feat.shape[2]
        logits = self.conv2(self.conv1(feat))
        logits = logits.reshape((NEIGHBORS, FACTOR * FACTOR, h, w))
        return logits.softmax(0)

    def upsample_depth(self, depth: Tensor, feat: Tensor) -> Tensor:
        if depth.ndim != 2:
            raise ShapeError(f"expected [H,W] depth, got {depth.shape}")
        if feat.shape[1:] != depth.shape:
            raise ShapeError(f"feature grid {feat.shape} does not cover "
                             f"depth grid {depth.shape}")
        h, w = depth.shape
        weights = self.mask(feat)
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        # neighbor k sits at row offset k // 3 - 1 and column offset k % 3 - 1
        dy, dx = (o[:, None, None] - 1 for o in np.divmod(np.arange(NEIGHBORS), 3))
        iy = np.clip(ys + dy, 0, h - 1)
        ix = np.clip(xs + dx, 0, w - 1)
        neighborhood = gather2d(depth, iy, ix).reshape((NEIGHBORS, 1, h, w))
        fine = weighted_sum(weights, neighborhood, 0)
        # [16, H, W] -> subpixel rows/cols interleaved into [4H, 4W]
        fine = fine.reshape((FACTOR, FACTOR, h, w))
        fine = fine.transpose((2, 0, 3, 1))
        return fine.reshape((FACTOR * h, FACTOR * w))
