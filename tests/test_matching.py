"""Similarity pipeline: correlation oracle, view weights, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru import tensor as T
from mvsgru.errors import ShapeError
from mvsgru.features import FeaturePyramid
from mvsgru.geometry import (relative_pose, relative_poses, scale_intrinsics,
                             warp_points)
from mvsgru.matching import (AggregationUnet, ViewWeightCNN, group_correlation,
                             integrate, level_coords, lookup_levels,
                             multiscale_similarity, view_weight,
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


class TestGroupCorrelation:
    def test_all_ones_gives_unit_similarity(self):
        f0 = Tensor(np.ones((16, 3, 5)))
        fi = Tensor(np.ones((16, 4, 3, 5)))
        s = group_correlation(f0, fi, 8)
        assert s.shape == (8, 4, 3, 5)
        assert np.allclose(s.data, 1.0, atol=1e-6)

    def test_zero_source_gives_zero(self, rng):
        f0 = Tensor(rng.standard_normal((16, 3, 5)))
        fi = Tensor(np.zeros((16, 4, 3, 5)))
        s = group_correlation(f0, fi, 8)
        assert np.allclose(s.data, 0.0)

    def test_matches_loop_oracle(self, rng):
        T.set_default_dtype(np.float64)
        f0 = rng.standard_normal((8, 4, 3))
        fi = rng.standard_normal((8, 5, 4, 3))
        s = group_correlation(Tensor(f0), Tensor(fi), 4)
        assert np.allclose(s.data, group_correlation_oracle(f0, fi, 4),
                           atol=1e-12)

    def test_bilinear_in_each_argument(self, rng):
        T.set_default_dtype(np.float64)
        f0a = rng.standard_normal((8, 2, 2))
        f0b = rng.standard_normal((8, 2, 2))
        fi = rng.standard_normal((8, 3, 2, 2))
        left = group_correlation(Tensor(f0a + 2.0 * f0b), Tensor(fi), 4).data
        right = (group_correlation(Tensor(f0a), Tensor(fi), 4).data
                 + 2.0 * group_correlation(Tensor(f0b), Tensor(fi), 4).data)
        assert np.allclose(left, right, atol=1e-12)

    def test_layout_of_the_warped_features_does_not_matter(self, rng):
        # bilinear_sample leaves its samples texel-major: a [C, D, H, W]
        # view of a [D*H*W, C] product
        grid = Tensor(rng.standard_normal((16, 6, 7)))
        xs, ys = rng.uniform(0, 6, (3, 4, 5)), rng.uniform(0, 5, (3, 4, 5))
        warped, _ = T.bilinear_sample(grid, xs, ys)
        assert not warped.data.flags.c_contiguous
        f0 = Tensor(rng.standard_normal((16, 4, 5)))
        got = group_correlation(f0, warped, 8).data
        want = group_correlation(f0, Tensor(np.ascontiguousarray(warped.data)), 8).data
        assert np.abs(got - want).max() < 1e-6

    def test_rejects_channel_mismatch_and_bad_groups(self, rng):
        with pytest.raises(ShapeError):
            group_correlation(Tensor(rng.random((8, 2, 2))),
                              Tensor(rng.random((6, 3, 2, 2))), 4)
        with pytest.raises(ShapeError):
            group_correlation(Tensor(rng.random((6, 2, 2))),
                              Tensor(rng.random((6, 3, 2, 2))), 4)


class TestViewWeight:
    def test_weight_bounds(self, rng):
        cnn = ViewWeightCNN(8, rng)
        s = Tensor(rng.standard_normal((8, 16, 4, 4)))
        valid = np.ones((16, 4, 4), dtype=bool)
        w, p = view_weight(cnn, s, valid)
        assert w.shape == (1, 4, 4)
        assert p.shape == (16, 4, 4)
        # a softmax maximum over D entries lies in [1/D, 1]
        assert (w.data >= 1.0 / 16 - 1e-6).all()
        assert (w.data <= 1.0 + 1e-6).all()
        assert np.allclose(p.data.sum(axis=0), 1.0, atol=1e-5)

    def test_fully_invalid_pixel_falls_back_to_uniform(self, rng):
        cnn = ViewWeightCNN(8, rng)
        s = Tensor(rng.standard_normal((8, 16, 4, 4)))
        valid = np.ones((16, 4, 4), dtype=bool)
        valid[:, 1, 2] = False
        w, p = view_weight(cnn, s, valid)
        assert np.allclose(p.data[:, 1, 2], 1.0 / 16, atol=1e-6)
        assert np.allclose(w.data[0, 1, 2], 1.0 / 16, atol=1e-6)


class TestIntegrate:
    def test_single_source_passthrough(self, rng):
        s = Tensor(rng.standard_normal((8, 4, 3, 3)))
        w = Tensor(rng.random((1, 3, 3)) + 0.1)
        out = integrate(s, w)
        assert np.allclose(out.data, s.data, atol=1e-6)

    def test_weight_scale_invariance(self, rng):
        T.set_default_dtype(np.float64)
        sims = Tensor(rng.standard_normal((8, 3 * 4, 3, 3)))
        ws = Tensor(rng.random((3, 3, 3)) + 0.1)
        base = integrate(sims, ws).data
        scaled = integrate(sims, ws * 7.5).data
        assert np.allclose(base, scaled, atol=1e-12)

    def test_matches_weighted_mean(self, rng):
        T.set_default_dtype(np.float64)
        sims = [rng.standard_normal((2, 3, 2, 2)) for _ in range(2)]
        ws = [rng.random((1, 2, 2)) + 0.1 for _ in range(2)]
        got = integrate(Tensor(np.concatenate(sims, 1)),
                        Tensor(np.concatenate(ws, 0))).data
        want = (sims[0] * ws[0] + sims[1] * ws[1]) / (ws[0] + ws[1])
        assert np.allclose(got, want, atol=1e-12)

    def test_rejects_mismatched_lists(self, rng):
        # 3 hypotheses do not split over 2 sources; weights of the wrong size
        with pytest.raises(ShapeError):
            integrate(Tensor(rng.random((2, 3, 2, 2))),
                      Tensor(rng.random((2, 2, 2))))
        with pytest.raises(ShapeError):
            integrate(Tensor(rng.random((2, 4, 2, 2))),
                      Tensor(rng.random((2, 3, 2))))


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
        feats = Tensor(rng.standard_normal((8, 8, 8)))
        xl, yl = level_coords(2, 8, 8, 8, 8)
        depths = np.full((3, 8, 8), 4.0)
        sim, valid = warp_and_correlate(feats, feats.reshape((1, 8, 8, 8)), xl,
                                        yl, depths, view.k, view.k[None],
                                        relative_poses(view, [view]), groups=4)
        # border pixels may round a hair outside and get masked; the
        # interior must all survive and match the direct self-correlation
        assert valid[:, 1:-1, 1:-1].all()
        want = group_correlation_oracle(feats.data,
                                        np.repeat(feats.data[:, None], 3, 1), 4)
        assert np.allclose(sim.data[:, valid], want[:, valid], atol=1e-9)
        assert np.allclose(sim.data[:, ~valid], 0.0)

    def test_out_of_view_hypotheses_masked_to_zero(self, rng):
        # source looks the other way, every warp lands outside
        ref = make_view(8, 10.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        src = make_view(8, 10.0, (100.0, 0.0, 0.0), (200.0, 0.0, 0.0))
        feats = Tensor(rng.standard_normal((8, 8, 8)))
        xl, yl = level_coords(2, 8, 8, 8, 8)
        depths = np.full((2, 8, 8), 4.0)
        sim, valid = warp_and_correlate(feats, feats.reshape((1, 8, 8, 8)), xl,
                                        yl, depths, ref.k, src.k[None],
                                        relative_poses(ref, [src]), groups=4)
        assert not valid.any()
        assert np.allclose(sim.data, 0.0)


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
        hyps = [Tensor(rng.uniform(2.0, 8.0, (n, h4, h4))) for n in counts]
        weights = Tensor(rng.random((len(srcs), h4, h4)) + 0.1)
        unets = [AggregationUnet(8 * n, n, np.random.default_rng(n))
                 for n in counts]
        for u in unets:  # a non-zero head, so the unit's output mixes pixels
            u.out.weight.data[:] = rng.standard_normal(u.out.weight.shape) * 0.1

        levels = lookup_levels([ref_pyr] + src_pyrs, [ref] + srcs)
        got = multiscale_similarity(levels, hyps, weights, unets).data

        want = []
        for l, hyp, unet in zip((1, 2, 3), hyps, unets):
            n = hyp.shape[0]
            f_ref = ref_pyr.level(l)
            xl, yl = level_coords(l, h4, h4, f_ref.shape[1], f_ref.shape[2])
            f_ref_p, _ = T.bilinear_sample(f_ref, xl, yl, mode="edge")
            num = np.zeros((8, n, h4, h4))
            for i, (src, pyr) in enumerate(zip(srcs, src_pyrs)):
                u, v, _, front = warp_points(
                    xl.ravel(), yl.ravel(), hyp.data.reshape(n, -1),
                    scale_intrinsics(ref.k, l), scale_intrinsics(src.k, l),
                    relative_pose(ref, src))
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
