"""Convex depth upsampling and the bilinear confidence resize."""

from dataclasses import replace

import numpy as np
import pytest

from mvsgru import tensor as T
from mvsgru.errors import ShapeError
from mvsgru.estimator import DepthEstimator
from mvsgru.scenes import SynthSpec, synth_scene
from mvsgru.tensor import Tensor
from mvsgru.training import TrainConfig
from mvsgru.upsample import FACTOR, NEIGHBORS, ConvexUpsampler


def upsample_oracle(depth, weights):
    """Loop form: every fine pixel is a weighted sum of the 9 coarse
    neighbors of its source cell, with edge replication, and the 16
    subpixels of a cell laid out row-major."""
    h, w = depth.shape
    out = np.zeros((FACTOR * h, FACTOR * w))
    for i in range(h):
        for j in range(w):
            for a in range(FACTOR):
                for b in range(FACTOR):
                    acc = 0.0
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            n = (dy + 1) * 3 + (dx + 1)
                            iy = min(max(i + dy, 0), h - 1)
                            ix = min(max(j + dx, 0), w - 1)
                            acc += weights[n, a * FACTOR + b, i, j] * depth[iy, ix]
                    out[FACTOR * i + a, FACTOR * j + b] = acc
    return out


def bilinear_probe(grid, y, x):
    """Pixel-center bilinear interpolation with edge clamping."""
    h, w = grid.shape
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    return ((1 - fy) * ((1 - fx) * grid[y0, x0] + fx * grid[y0, x1])
            + fy * ((1 - fx) * grid[y1, x0] + fx * grid[y1, x1]))


class TestMask:
    def test_weights_are_a_distribution_over_neighbors(self, rng):
        ups = ConvexUpsampler(6, rng)
        m = ups.mask(Tensor(rng.standard_normal((6, 3, 4))))
        assert m.shape == (NEIGHBORS, FACTOR * FACTOR, 3, 4)
        assert (m.data >= 0).all()
        assert np.allclose(m.data.sum(axis=0), 1.0, atol=1e-5)


class TestUpsampleDepth:
    def test_center_one_hot_replicates_blocks(self, rng):
        ups = ConvexUpsampler(6, rng)
        for p in ups.parameters().values():
            p.data[...] = 0.0
        # neighbor axis index 4 is (dy, dx) = (0, 0)
        ups.conv2.bias.data[4 * 16:5 * 16] = 50.0
        depth = rng.random((3, 5)) + 1.0
        up = ups.upsample_depth(Tensor(depth), Tensor(rng.random((6, 3, 5))))
        want = np.repeat(np.repeat(depth, 4, axis=0), 4, axis=1)
        assert np.allclose(up.data, want, atol=1e-6)

    def test_constant_depth_is_preserved(self, rng):
        ups = ConvexUpsampler(6, rng)
        depth = np.full((4, 4), 2.75)
        up = ups.upsample_depth(Tensor(depth), Tensor(rng.standard_normal((6, 4, 4))))
        assert up.shape == (16, 16)
        assert np.allclose(up.data, 2.75, atol=1e-5)

    def test_outputs_stay_in_neighborhood_hull(self, rng):
        T.set_default_dtype(np.float64)
        ups = ConvexUpsampler(6, rng)
        depth = rng.random((5, 4)) * 10
        up = ups.upsample_depth(Tensor(depth), Tensor(rng.standard_normal((6, 5, 4)))).data
        for i in range(5):
            for j in range(4):
                lo = depth[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].min()
                hi = depth[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].max()
                block = up[4 * i:4 * i + 4, 4 * j:4 * j + 4]
                assert (block >= lo - 1e-9).all()
                assert (block <= hi + 1e-9).all()

    def test_matches_loop_oracle(self, rng):
        T.set_default_dtype(np.float64)
        ups = ConvexUpsampler(6, rng)
        depth = rng.random((3, 5)) + 0.5
        feat = rng.standard_normal((6, 3, 5))
        up = ups.upsample_depth(Tensor(depth), Tensor(feat)).data
        weights = ups.mask(Tensor(feat)).data
        assert np.allclose(up, upsample_oracle(depth, weights), atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        ups = ConvexUpsampler(6, rng)
        with pytest.raises(ShapeError):
            ups.upsample_depth(Tensor(rng.random((2, 3, 3))),
                               Tensor(rng.random((6, 3, 3))))
        with pytest.raises(ShapeError):
            ups.upsample_depth(Tensor(rng.random((3, 3))),
                               Tensor(rng.random((6, 4, 3))))


class TestUpsampleConfidence:
    def test_matches_bilinear_probes(self):
        T.set_default_dtype(np.float64)
        scene = synth_scene(SynthSpec(seed=5, views=2, size=16, quads=1))
        # a 16 x 32 view gives a non-square 4 x 8 confidence map
        views = [replace(v, image=np.concatenate([v.image, v.image], 2), gt_depth=None)
                 for v in scene.views]
        res = DepthEstimator(TrainConfig(iters=1), np.random.default_rng(2)).run(views)
        conf, up = res.conf_logits[-1].sigmoid().data, res.conf_up.data
        assert conf.shape == (4, 8) and up.shape == (16, 32)
        probe_rng = np.random.default_rng(17)
        for _ in range(25):
            i = int(probe_rng.integers(0, 16))
            j = int(probe_rng.integers(0, 32))
            y = (i + 0.5) / FACTOR - 0.5
            x = (j + 0.5) / FACTOR - 0.5
            assert np.allclose(up[i, j], bilinear_probe(conf, y, x), atol=1e-12)
