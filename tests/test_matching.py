"""Similarity pipeline: correlation oracle, view weights, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru import tensor as T
from mvsgru.errors import ShapeError
from mvsgru.features import FeaturePyramid, stack_pyramids
from mvsgru.geometry import (denormalize_inv, eta_projection, relative_pose, relative_poses,
                             scale_intrinsics, warp_points)
from mvsgru.matching import (AggregationUnet, ViewWeightCNN, group_correlation,
                             integrate, level_coords, lookup_levels,
                             multiscale_similarity, view_shares, view_weight,
                             warp_and_correlate)
from mvsgru.tensor import Tensor


def group_correlation_oracle(f0, fi, groups):
    """Definition written out as loops: mean over each channel group of the
    per-channel products, i.e. (G/C) * <f0^g, fi^g>."""
    c = f0.shape[0]
    d = fi.shape[1]
    cg = c // groups
    out = np.zeros((groups,) + fi.shape[1:])
    for g in range(groups):
        for j in range(d):
            acc = np.zeros(f0.shape[1:])
            for ci in range(g * cg, (g + 1) * cg):
                acc += f0[ci] * fi[ci, j]
            out[g, j] = acc * groups / c
    return out


def make_view(size, f, center, target):
    """Camera at `center` looking at `target`, world y pointing down."""
    from mvsgru.geometry import CameraView
    fwd = np.asarray(target, dtype=float) - np.asarray(center, dtype=float)
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(np.array([0.0, 1.0, 0.0]), fwd)
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd])
    t = -r @ np.asarray(center, dtype=float)
    k = np.array([[f, 0.0, (size - 1) / 2], [0.0, f, (size - 1) / 2],
                  [0.0, 0.0, 1.0]])
    img = np.zeros((3, size, size), dtype=np.float32)
    return CameraView(k=k, r=r, t=t, d_min=1.0, d_max=10.0, image=img)


def stacked_lookup(rng, c=16, s=2, d=3, p=12, h=6, w=7):
    """Reference features [C, P], S stacked sources [S, C, H, W] and [S, D, P]
    source pixels inside them, every point in front."""
    f0 = rng.standard_normal((c, p))
    f_src = rng.standard_normal((s, c, h, w))
    u, v = rng.uniform(0, w - 1, (s, d, p)), rng.uniform(0, h - 1, (s, d, p))
    return f0, f_src, u, v, np.ones((s, d, p), dtype=bool)


class TestGroupCorrelation:
    def test_all_ones_gives_unit_similarity(self, rng):
        _, _, u, v, front = stacked_lookup(rng, d=4, p=15)
        s, valid = group_correlation(Tensor(np.ones((16, 15))), Tensor(np.ones((2, 16, 6, 7))),
                                     u, v, front)
        assert s.shape == (8, 2, 4, 15) and valid.all()
        assert np.allclose(s.data, 1.0, atol=1e-6)

    def test_zero_source_gives_zero(self, rng):
        f0, _, u, v, front = stacked_lookup(rng)
        s, _ = group_correlation(Tensor(f0), Tensor(np.zeros((2, 16, 6, 7))), u, v, front)
        assert np.allclose(s.data, 0.0)

    def test_matches_loop_oracle_on_the_sampled_sources(self, rng):
        # two sources of three hypotheses each, checked as 6 hypotheses
        T.set_default_dtype(np.float64)
        f0, f_src, u, v, front = stacked_lookup(rng)
        s, _ = group_correlation(Tensor(f0), Tensor(f_src), u, v, front)
        warped, _ = T.bilinear_sample(Tensor(f_src), u, v)
        assert s.shape == (8, 2, 3, 12)
        assert np.allclose(s.data.reshape(8, 6, 12),
                           group_correlation_oracle(f0, warped.data.reshape(16, 6, 12), 8),
                           atol=1e-12)

    def test_bilinear_in_each_argument(self, rng):
        T.set_default_dtype(np.float64)
        f0a, f_src, u, v, front = stacked_lookup(rng)
        f0b, f_srcb = rng.standard_normal(f0a.shape), rng.standard_normal(f_src.shape)

        def corr(f0, fs):
            return group_correlation(Tensor(f0), Tensor(fs), u, v, front)[0].data

        assert np.allclose(corr(f0a + 2.0 * f0b, f_src),
                           corr(f0a, f_src) + 2.0 * corr(f0b, f_src), atol=1e-12)
        assert np.allclose(corr(f0a, f_src + 2.0 * f_srcb),
                           corr(f0a, f_src) + 2.0 * corr(f0a, f_srcb), atol=1e-12)

    def test_layout_of_the_sources_does_not_matter(self, rng):
        # stack_pyramids stores the sources texel-major: a [S, C, H, W]
        # view of [S, H, W, C] memory, which the lookup reads without a copy
        f0, f_src, u, v, front = stacked_lookup(rng)
        texel_major = Tensor(np.ascontiguousarray(f_src.transpose(0, 2, 3, 1))).transpose(
            (0, 3, 1, 2))
        assert not texel_major.data.flags.c_contiguous
        got, _ = group_correlation(Tensor(f0), texel_major, u, v, front)
        want, _ = group_correlation(Tensor(f0), Tensor(f_src), u, v, front)
        assert got.data.tobytes() == want.data.tobytes()

    def test_points_behind_or_outside_are_invalid_and_zero(self, rng):
        f0, f_src, u, v, front = stacked_lookup(rng)
        front[0, 1] = False
        u[1, 2, :4] = 7.5  # past the last column
        s, valid = group_correlation(Tensor(f0), Tensor(f_src), u, v, front)
        assert not valid[0, 1].any() and not valid[1, 2, :4].any()
        assert valid.sum() == valid.size - 12 - 4
        assert np.array_equal(s.data[:, ~valid], np.zeros((8, 16)))

    def test_rejects_channel_mismatch_and_bad_groups(self, rng):
        f0, f_src, u, v, front = stacked_lookup(rng)
        with pytest.raises(ShapeError):  # 16 reference channels, 8 source ones
            group_correlation(Tensor(f0), Tensor(f_src[:, :8]), u, v, front)
        with pytest.raises(ShapeError):  # 12 channels in 8 groups
            group_correlation(Tensor(f0[:12]), Tensor(f_src[:, :12]), u, v, front)
        with pytest.raises(ShapeError):  # pixel counts differ
            group_correlation(Tensor(f0[:, :5]), Tensor(f_src), u, v, front)


class TestViewWeight:
    def test_weight_bounds(self, rng):
        cnn = ViewWeightCNN(rng)
        s = Tensor(rng.standard_normal((8, 16, 4, 4)))
        valid = np.ones((16, 4, 4), dtype=bool)
        w = view_weight(cnn, s, valid)
        assert w.shape == (1, 4, 4)
        # a softmax maximum over D entries lies in [1/D, 1]
        assert (w.data >= 1.0 / 16 - 1e-6).all()
        assert (w.data <= 1.0 + 1e-6).all()

    def test_fully_invalid_pixel_falls_back_to_uniform(self, rng):
        cnn = ViewWeightCNN(rng)
        s = Tensor(rng.standard_normal((8, 16, 4, 4)))
        valid = np.ones((16, 4, 4), dtype=bool)
        valid[:, 1, 2] = False
        w = view_weight(cnn, s, valid)
        assert np.allclose(w.data[0, 1, 2], 1.0 / 16, atol=1e-6)


class TestIntegrate:
    def test_single_source_passthrough(self, rng):
        s = Tensor(rng.standard_normal((8, 1, 4, 9)))
        out = integrate(s, view_shares(Tensor(rng.random((1, 1, 9)) + 0.1)))
        assert out.shape == (8, 4, 9)
        assert np.allclose(out.data, s.data[:, 0], atol=1e-6)

    def test_weight_scale_invariance(self, rng):
        T.set_default_dtype(np.float64)
        sims = Tensor(rng.standard_normal((8, 3, 4, 9)))
        ws = Tensor(rng.random((3, 1, 9)) + 0.1)
        base = integrate(sims, view_shares(ws)).data
        scaled = integrate(sims, view_shares(ws * 7.5)).data
        assert np.allclose(base, scaled, atol=1e-12)

    def test_matches_weighted_mean(self, rng):
        T.set_default_dtype(np.float64)
        sims = [rng.standard_normal((2, 3, 4)) for _ in range(2)]
        ws = [rng.random((1, 4)) + 0.1 for _ in range(2)]
        got = integrate(Tensor(np.stack(sims, 1)), view_shares(Tensor(np.stack(ws, 0)))).data
        want = (sims[0] * ws[0] + sims[1] * ws[1]) / (ws[0] + ws[1])
        assert np.allclose(got, want, atol=1e-12)

    def test_rejects_mismatched_lists(self, rng):
        # weights for 3 sources against 2; weights over 3 pixels against 4
        with pytest.raises(ShapeError):
            integrate(Tensor(rng.random((2, 2, 3, 4))),
                      Tensor(rng.random((3, 1, 4))))
        with pytest.raises(ShapeError):
            integrate(Tensor(rng.random((2, 2, 3, 4))),
                      Tensor(rng.random((2, 1, 3))))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2, 2)], ids=["S,P", "S,H,W"])
    def test_takes_only_shares_shaped_s_1_p(self, rng, shape):
        # the right number of shares in another layout: the estimator shapes
        # them [S, 1, P] once, so integrate reshapes nothing
        with pytest.raises(ShapeError):
            integrate(Tensor(rng.random((2, 2, 3, 4))), Tensor(rng.random(shape)))


class TestLevelCoords:
    def test_level_two_is_identity(self):
        xl, yl = level_coords(2, 4, 6, 4, 6)
        ys, xs = np.meshgrid(np.arange(4.0), np.arange(6.0), indexing="ij")
        assert np.array_equal(xl, xs)
        assert np.array_equal(yl, ys)

    def test_level_one_doubles(self):
        xl, yl = level_coords(1, 3, 3, 6, 6)
        assert xl[0, 2] == 4.0
        assert yl[2, 0] == 4.0

    def test_level_three_halves_and_clamps(self):
        xl, yl = level_coords(3, 4, 4, 2, 2)
        assert xl[0, 1] == 0.5
        # pixel x=3 maps to 1.5, past the last column of a 2-wide map
        assert xl[0, 3] == 1.0
        assert yl[3, 0] == 1.0

    @given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_coords_stay_in_level_rect(self, l, h4, w4):
        h_l = max(1, h4 * 4 // (2 ** l))
        w_l = max(1, w4 * 4 // (2 ** l))
        xl, yl = level_coords(l, h4, w4, h_l, w_l)
        assert (xl >= 0).all() and (xl <= w_l - 1).all()
        assert (yl >= 0).all() and (yl <= h_l - 1).all()


class TestWarpAndCorrelate:
    def test_identity_pose_recovers_self_correlation(self, rng):
        T.set_default_dtype(np.float64)
        view = make_view(8, 10.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        feats = Tensor(rng.standard_normal((16, 8, 8)))
        xl, yl = level_coords(2, 8, 8, 8, 8)
        a, b = eta_projection(xl.ravel(), yl.ravel(), view.k, view.k[None],
                              relative_poses(view, [view]), view.d_min, view.d_max)
        sim, valid = warp_and_correlate(feats.reshape((16, 64)), feats.reshape((1, 16, 8, 8)),
                                        np.full((3, 64), 0.7), a, b)
        assert sim.shape == (8, 1, 3, 64) and valid.shape == (1, 3, 64)
        sim, valid = Tensor(sim.data.reshape(8, 3, 8, 8)), valid.reshape(3, 8, 8)
        # border pixels may round a hair outside and get masked; the
        # interior must all survive and match the direct self-correlation
        assert valid[:, 1:-1, 1:-1].all()
        want = group_correlation_oracle(feats.data,
                                        np.repeat(feats.data[:, None], 3, 1), 8)
        assert np.allclose(sim.data[:, valid], want[:, valid], atol=1e-9)
        assert np.allclose(sim.data[:, ~valid], 0.0)

    def test_out_of_view_hypotheses_masked_to_zero(self, rng):
        # source looks the other way, every warp lands outside
        ref = make_view(8, 10.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        src = make_view(8, 10.0, (100.0, 0.0, 0.0), (200.0, 0.0, 0.0))
        feats = Tensor(rng.standard_normal((16, 8, 8)))
        xl, yl = level_coords(2, 8, 8, 8, 8)
        a, b = eta_projection(xl.ravel(), yl.ravel(), ref.k, src.k[None],
                              relative_poses(ref, [src]), ref.d_min, ref.d_max)
        sim, valid = warp_and_correlate(feats.reshape((16, 64)), feats.reshape((1, 16, 8, 8)),
                                        np.full((2, 64), 0.7), a, b)
        assert sim.shape == (8, 1, 2, 64) and valid.shape == (1, 2, 64)
        assert not valid.any()
        assert np.allclose(sim.data, 0.0)

    def test_rejects_unstacked_sources(self, rng):
        view = make_view(8, 10.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        feats = Tensor(rng.standard_normal((16, 8, 8)))
        xl, yl = level_coords(2, 8, 8, 8, 8)
        a, b = eta_projection(xl.ravel(), yl.ravel(), view.k, view.k[None],
                              relative_poses(view, [view]), view.d_min, view.d_max)
        with pytest.raises(ShapeError):
            warp_and_correlate(feats.reshape((16, 64)), feats, np.full((2, 64), 0.7), a, b)


class TestLookupLevels:
    def test_features_are_texel_major_views(self, rng):
        # the stacked sources and the sampled reference are views of
        # channels-last memory, so the lookups copy no map
        views = [make_view(32, 30.0, (x, 0.0, 0.0), (0.0, 0.0, 5.0)) for x in (0.0, 0.4, -0.3)]
        pyramids = [FeaturePyramid(*(Tensor(rng.standard_normal((c, 32 >> l, 32 >> l)))
                                     for l, c in zip((1, 2, 3), (16, 32, 64))))
                    for _ in views]
        sources = stack_pyramids(pyramids[1:])
        levels = lookup_levels(pyramids[0], sources, views)
        for l, (f_ref, f_src, a, b) in zip((1, 2, 3), levels):
            assert a.shape == (2, 3, 64) and b.shape == (2, 3, 1)
            c = f_ref.shape[0]
            assert f_ref.shape == (c, 64) and f_ref.data.T.flags.c_contiguous
            assert f_src.shape == (2, c, 32 >> l, 32 >> l)
            assert np.moveaxis(f_src.data, 1, -1).flags.c_contiguous
            for i in range(2):
                assert np.array_equal(f_src.data[i], pyramids[i + 1].level(l).data)
        # level 2 samples its own texels, which reads them exactly
        assert np.array_equal(levels[1][0].data, pyramids[0].f2.data.reshape(32, 64))


class TestMultiscaleSimilarity:
    def test_matches_per_source_loop(self, rng):
        T.set_default_dtype(np.float64)
        size, counts = 32, (4, 4, 2)
        ref = make_view(size, 30.0, (0.0, 0.0, 0.0), (0.0, 0.0, 5.0))
        srcs = [make_view(size, 30.0, (0.4, 0.0, 0.0), (0.0, 0.0, 5.0)),
                make_view(size, 30.0, (-0.3, 0.2, 0.1), (0.0, 0.0, 5.0))]

        def pyramid():
            return FeaturePyramid(*(Tensor(rng.standard_normal((c, size >> l, size >> l)))
                                    for l, c in zip((1, 2, 3), (16, 32, 64))))

        ref_pyr, src_pyrs = pyramid(), [pyramid() for _ in srcs]
        h4 = size // 4
        hyps = [rng.uniform(0.0, 1.0, (n, h4, h4)) for n in counts]  # η
        weights = Tensor(rng.random((len(srcs), h4, h4)) + 0.1)
        unets = [AggregationUnet(8 * n, n, np.random.default_rng(n))
                 for n in counts]
        for u in unets:  # a non-zero head, so the unit's output mixes pixels
            u.out.weight.data[:] = rng.standard_normal(u.out.weight.shape) * 0.1

        levels = lookup_levels(ref_pyr, stack_pyramids(src_pyrs), [ref] + srcs)
        shares = view_shares(weights).reshape((len(srcs), 1, h4 * h4))
        got = multiscale_similarity(levels, hyps, shares, unets).data

        want = []
        for l, hyp, unet in zip((1, 2, 3), hyps, unets):
            n = hyp.shape[0]
            f_ref = ref_pyr.level(l)
            xl, yl = level_coords(l, h4, h4, f_ref.shape[1], f_ref.shape[2])
            f_ref_p, _ = T.bilinear_sample(f_ref, xl, yl)
            num = np.zeros((8, n, h4, h4))
            for i, (src, pyr) in enumerate(zip(srcs, src_pyrs)):
                depth = denormalize_inv(hyp.reshape(n, -1), ref.d_min, ref.d_max)
                u, v, _, front = warp_points(
                    xl.ravel(), yl.ravel(), depth, scale_intrinsics(ref.k, l),
                    scale_intrinsics(src.k, l), relative_pose(ref, src))
                warped, inside = T.bilinear_sample(pyr.level(l), u, v)
                mask = (front & inside).reshape(n, h4, h4)
                sim = group_correlation_oracle(
                    f_ref_p.data, warped.data.reshape(-1, n, h4, h4), 8) * mask
                num += sim * weights.data[i]
            merged = num / weights.data.sum(0)
            want.append(unet(Tensor(merged.reshape(8 * n, h4, h4))).data)
        want = np.concatenate(want)
        assert got.shape == (sum(counts), h4, h4)
        assert np.abs(got - want).max() < 1e-5


class TestAggregationUnet:
    def test_shape_and_determinism(self, rng):
        x = rng.standard_normal((32, 8, 8))
        a = AggregationUnet(32, 4, np.random.default_rng(3))(Tensor(x))
        b = AggregationUnet(32, 4, np.random.default_rng(3))(Tensor(x))
        assert a.shape == (4, 8, 8)
        assert a.data.tobytes() == b.data.tobytes()

    def test_handles_tiny_grids(self, rng):
        unet = AggregationUnet(16, 2, rng)
        out = unet(Tensor(rng.standard_normal((16, 2, 2))))
        assert out.shape == (2, 2, 2)
