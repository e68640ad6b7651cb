"""Feature pyramid: shapes, constant-image oracle, gradient flow."""

import numpy as np
import pytest

from mvsgru import tensor as T
from mvsgru.errors import ShapeError
from mvsgru.features import LEVEL_CHANNELS, FeatureExtractor, group_normalize
from mvsgru.tensor import Tape, Tensor, backward


def const_conv(conv, v):
    """Interior response of a padded conv when every input pixel equals v.

    Away from the borders the convolution collapses to a per-channel affine
    map: sum of the kernel over its spatial taps applied to the constant
    channel vector, plus the bias.
    """
    w = conv.weight.data
    return w.sum(axis=(2, 3)) @ v + conv.bias.data


def leaky(v):
    return np.where(v > 0, v, 0.01 * v)


def norm_groups(v, groups=8, eps=1e-8):
    """Reference per-group root-mean-square normalization of one vector."""
    g = v.reshape(groups, -1)
    rms = np.sqrt((g ** 2).mean(axis=1, keepdims=True) + eps)
    return (g / rms).reshape(v.shape)


def const_pyramid(fx, v):
    """Expected interior feature vectors for a constant-color image."""
    c1 = leaky(const_conv(fx.enc1b, leaky(const_conv(fx.enc1a, v))))
    c2 = leaky(const_conv(fx.enc2b, leaky(const_conv(fx.enc2a, c1))))
    c3 = leaky(const_conv(fx.enc3b, leaky(const_conv(fx.enc3a, c2))))
    m3 = const_conv(fx.lat3, c3)
    m2 = const_conv(fx.lat2, c2) + const_conv(fx.drop32, m3)
    m1 = const_conv(fx.lat1, c1) + const_conv(fx.drop16, m2)
    return (norm_groups(const_conv(fx.out1, m1)),
            norm_groups(const_conv(fx.out2, m2)),
            norm_groups(const_conv(fx.out3, m3)))


class TestShapes:
    def test_level_shapes_and_channels(self, rng):
        fx = FeatureExtractor(rng)
        pyr = fx.extract(rng.random((3, 64, 48)))
        assert pyr.f1.shape == (LEVEL_CHANNELS[0], 32, 24)
        assert pyr.f2.shape == (LEVEL_CHANNELS[1], 16, 12)
        assert pyr.f3.shape == (LEVEL_CHANNELS[2], 8, 6)
        assert pyr.level(1) is pyr.f1
        assert pyr.level(2) is pyr.f2
        assert pyr.level(3) is pyr.f3

    @pytest.mark.parametrize("hw", [(8, 8), (16, 40), (24, 8)])
    def test_small_sizes(self, rng, hw):
        fx = FeatureExtractor(rng)
        h, w = hw
        pyr = fx.extract(rng.random((3, h, w)))
        assert pyr.f3.shape == (64, h // 8, w // 8)

    def test_rejects_wrong_rank_and_channels(self, rng):
        fx = FeatureExtractor(rng)
        with pytest.raises(ShapeError):
            fx.extract(rng.random((64, 64)))
        with pytest.raises(ShapeError):
            fx.extract(rng.random((1, 64, 64)))

    def test_rejects_non_multiple_of_8(self, rng):
        fx = FeatureExtractor(rng)
        with pytest.raises(ShapeError):
            fx.extract(rng.random((3, 60, 64)))
        with pytest.raises(ShapeError):
            fx.extract(rng.random((3, 64, 63)))


class TestGroupNormalize:
    def test_unit_rms_per_group(self, rng):
        T.set_default_dtype(np.float64)
        f = group_normalize(Tensor(rng.normal(0, 3.0, (32, 5, 7))))
        sq = (f.data ** 2).reshape(8, 4, 5, 7).mean(axis=1)
        assert np.allclose(sq, 1.0, atol=1e-6)

    def test_grouped_dots_bounded(self, rng):
        T.set_default_dtype(np.float64)
        a = group_normalize(Tensor(rng.normal(0, 1, (32, 4, 4))))
        b = group_normalize(Tensor(rng.normal(0, 1, (32, 4, 4))))
        dots = (a.data * b.data).reshape(8, 4, 4, 4).sum(axis=1) / 4
        assert np.abs(dots).max() <= 1.0 + 1e-9

    def test_zero_group_stays_zero(self):
        f = np.zeros((16, 3, 3))
        f[8:] = 1.0
        out = group_normalize(Tensor(f))
        assert np.allclose(out.data[:8], 0.0)
        assert np.allclose(out.data[8:], 1.0, atol=1e-6)

    def test_rejects_indivisible_channels(self, rng):
        with pytest.raises(ShapeError):
            group_normalize(Tensor(rng.normal(0, 1, (12, 2, 2))))

    def test_gradient_matches_finite_differences(self, rng):
        T.set_default_dtype(np.float64)
        x = Tensor(rng.normal(0, 1, (16, 2, 2)), requires_grad=True)
        w = rng.normal(0, 1, (16, 2, 2))
        with Tape() as tape:
            loss = (group_normalize(x) * w).sum()
        backward(tape, loss)
        h = 1e-6
        for idx in [(0, 0, 0), (1, 1, 1), (3, 0, 1), (15, 1, 0)]:
            xp = x.data.copy(); xp[idx] += h
            xm = x.data.copy(); xm[idx] -= h
            fd = (((group_normalize(Tensor(xp)) * w).data.sum()
                   - (group_normalize(Tensor(xm)) * w).data.sum())
                  / (2 * h))
            assert abs(x.grad[idx] - fd) < 1e-7 * max(1.0, abs(fd))


class TestConstantImage:
    def test_interior_matches_affine_formula(self, rng):
        T.set_default_dtype(np.float64)
        fx = FeatureExtractor(rng)
        v = np.array([0.37, 0.62, 0.11])
        pyr = fx.extract(np.broadcast_to(v[:, None, None], (3, 64, 64)).copy())
        e1, e2, e3 = const_pyramid(fx, v)
        # centers are far enough from every border for all receptive fields
        assert np.allclose(pyr.f1.data[:, 16, 16], e1, atol=1e-10)
        assert np.allclose(pyr.f2.data[:, 8, 8], e2, atol=1e-10)
        assert np.allclose(pyr.f3.data[:, 4, 4], e3, atol=1e-10)

    def test_interior_is_translation_invariant(self, rng):
        # border effects (zero padding, upsample clamping) reach ~7 cells
        # into each 1/4-level map, so check a block around the center of a
        # generously sized image
        T.set_default_dtype(np.float64)
        fx = FeatureExtractor(rng)
        img = np.full((3, 128, 128), 0.5)
        pyr = fx.extract(img)
        center = pyr.f2.data[:, 12:20, 12:20]
        assert np.allclose(center, center[:, :1, :1], atol=1e-10)


class TestGradients:
    def test_gradient_reaches_image(self, rng):
        img = Tensor(rng.random((3, 16, 16)), requires_grad=True)
        fx = FeatureExtractor(rng)
        with Tape() as tape:
            pyr = fx.extract(img)
            loss = pyr.f1.sum() + pyr.f2.sum() + pyr.f3.sum()
        backward(tape, loss)
        assert img.grad is not None
        assert np.abs(img.grad).max() > 0

    def test_gradient_reaches_every_parameter(self, rng):
        img = rng.random((3, 16, 16))
        fx = FeatureExtractor(rng)
        with Tape() as tape:
            pyr = fx.extract(img)
            loss = pyr.f1.sum() + pyr.f2.sum() + pyr.f3.sum()
        backward(tape, loss)
        for name, p in fx.parameters().items():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name


class TestDeterminism:
    def test_same_seed_same_features(self, rng):
        img = rng.random((3, 32, 32))
        a = FeatureExtractor(np.random.default_rng(7)).extract(img)
        b = FeatureExtractor(np.random.default_rng(7)).extract(img)
        assert a.f1.data.tobytes() == b.f1.data.tobytes()
        assert a.f2.data.tobytes() == b.f2.data.tobytes()
        assert a.f3.data.tobytes() == b.f3.data.tobytes()

