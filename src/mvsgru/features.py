"""Multi-scale feature extraction.

A small feature-pyramid encoder: three stride-2 stages producing 16/32/64
channels at 1/2, 1/4 and 1/8 resolution, merged top-down with lateral 1x1
convolutions and bilinear upsampling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nn import Conv2d, Module
from .tensor import Tensor, bilinear_resize, concat

LEVEL_CHANNELS = (16, 32, 64)
NORM_GROUPS = 8
NORM_EPS = 1e-8


def group_normalize(f: Tensor) -> Tensor:
    """Scale each group of channels to unit root-mean-square.

    Grouped dot products of two normalized maps then land in [-1, 1], so
    downstream similarity volumes measure alignment instead of feature
    energy.  The inverse square root goes through exp(-log/2) since the
    tape only carries elementary transcendentals.
    """
    c, h, w = f.shape
    if c % NORM_GROUPS:
        raise ShapeError(f"{c} channels not divisible into {NORM_GROUPS} groups")
    g = f.reshape((NORM_GROUPS, c // NORM_GROUPS, h, w))
    ms = (g * g).mean(1, keepdims=True) + NORM_EPS
    inv_rms = (ms.log() * -0.5).exp()
    return (g * inv_rms).reshape((c, h, w))


@dataclass
class FeaturePyramid:
    """Per-level feature maps for one view.

    f1: [16, H/2, W/2], f2: [32, H/4, W/4], f3: [64, H/8, W/8].
    """
    f1: Tensor
    f2: Tensor
    f3: Tensor

    def level(self, l: int) -> Tensor:
        return (self.f1, self.f2, self.f3)[l - 1]


def stack_pyramids(pyramids: list[FeaturePyramid]) -> FeaturePyramid:
    """One pyramid whose levels stack the views' maps as [V, C, H, W]."""
    return FeaturePyramid(*(concat([p.level(l).reshape((1,) + p.level(l).shape)
                                    for p in pyramids], 0) for l in (1, 2, 3)))


class FeatureExtractor(Module):
    def __init__(self, rng: np.random.Generator):
        c1, c2, c3 = LEVEL_CHANNELS
        self.enc1a = Conv2d(3, c1, 3, rng, stride=2)
        self.enc1b = Conv2d(c1, c1, 3, rng)
        self.enc2a = Conv2d(c1, c2, 3, rng, stride=2)
        self.enc2b = Conv2d(c2, c2, 3, rng)
        self.enc3a = Conv2d(c2, c3, 3, rng, stride=2)
        self.enc3b = Conv2d(c3, c3, 3, rng)
        self.lat1 = Conv2d(c1, c1, 1, rng)
        self.lat2 = Conv2d(c2, c2, 1, rng)
        self.lat3 = Conv2d(c3, c3, 1, rng)
        # 1x1 channel reducers applied before upsampling into the next level
        self.drop32 = Conv2d(c3, c2, 1, rng)
        self.drop16 = Conv2d(c2, c1, 1, rng)
        self.out1 = Conv2d(c1, c1, 3, rng)
        self.out2 = Conv2d(c2, c2, 3, rng)
        self.out3 = Conv2d(c3, c3, 3, rng)

    def extract(self, image: Tensor | np.ndarray) -> FeaturePyramid:
        if not isinstance(image, Tensor):
            image = Tensor(image)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ShapeError(f"expected [3,H,W] image, got {image.shape}")
        h, w = image.shape[1], image.shape[2]
        if h % 8 or w % 8:
            raise ShapeError(f"image size {h}x{w} is not a multiple of 8")
        c1 = self.enc1b(self.enc1a(image).leaky_relu()).leaky_relu()
        c2 = self.enc2b(self.enc2a(c1).leaky_relu()).leaky_relu()
        c3 = self.enc3b(self.enc3a(c2).leaky_relu()).leaky_relu()
        m3 = self.lat3(c3)
        m2 = self.lat2(c2) + bilinear_resize(self.drop32(m3), (h // 4, w // 4))
        m1 = self.lat1(c1) + bilinear_resize(self.drop16(m2), (h // 2, w // 2))
        return FeaturePyramid(group_normalize(self.out1(m1)),
                              group_normalize(self.out2(m2)),
                              group_normalize(self.out3(m3)))

