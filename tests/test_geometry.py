"""Cameras, warping, inverse-depth parameterization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru import tensor as T
from mvsgru.errors import ConfigError
from mvsgru.geometry import (CameraView, denormalize_inv, eta_projection, inverse_grid,
                             load_cam_text, normalize_inv, project, relative_pose,
                             relative_poses, save_cam_text, scale_intrinsics,
                             warp_points)
from mvsgru.tensor import Tensor


def warp_oracle(p, d, k_ref, k_src, r, t):
    """Reference warp via explicit 4x4 homogeneous transforms."""
    x_cam = np.linalg.inv(k_ref) @ np.array([p[0], p[1], 1.0]) * d
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    x_src = (m @ np.append(x_cam, 1.0))[:3]
    proj = k_src @ x_src
    return proj[0] / proj[2], proj[1] / proj[2], proj[2]


def rot_y(a):
    return np.array([[np.cos(a), 0, np.sin(a)], [0, 1, 0], [-np.sin(a), 0, np.cos(a)]])


def make_view(r=None, t=None, f=50.0, size=16, d_min=2.0, d_max=6.0):
    k = np.array([[f, 0.0, (size - 1) / 2], [0.0, f, (size - 1) / 2], [0.0, 0.0, 1.0]])
    img = np.zeros((3, size, size), dtype=np.float32)
    return CameraView(k, np.eye(3) if r is None else r,
                      np.zeros(3) if t is None else t, d_min, d_max, img)


class TestPose:
    def test_translated_source(self):
        ref = make_view()
        # source camera sits at world (1, 0, 0): t = -R c = -(1,0,0)
        src = make_view(t=np.array([-1.0, 0.0, 0.0]))
        pose = relative_pose(ref, src)
        assert np.allclose(pose.r, np.eye(3))
        assert np.allclose(pose.t, [-1.0, 0.0, 0.0])

    def test_identity_pair(self):
        v = make_view(r=rot_y(0.3), t=np.array([0.2, -0.1, 0.4]))
        pose = relative_pose(v, v)
        assert np.allclose(pose.r, np.eye(3), atol=1e-12)
        assert np.allclose(pose.t, 0.0, atol=1e-12)

    def test_composition_consistency(self, rng):
        # warping ref->src must equal going through world coordinates
        r1, r2 = rot_y(0.2), rot_y(-0.35)
        t1, t2 = rng.standard_normal(3) * 0.3, rng.standard_normal(3) * 0.3
        ref = make_view(r=r1, t=t1)
        src = make_view(r=r2, t=t2)
        pose = relative_pose(ref, src)
        x_world = rng.standard_normal(3) + np.array([0, 0, 4.0])
        x_ref = r1 @ x_world + t1
        assert np.allclose(pose.r @ x_ref + pose.t, r2 @ x_world + t2, atol=1e-10)

    @pytest.mark.parametrize("image_shape, gt_shape", [
        ((16, 16), None), ((1, 16, 16), None), ((16, 16, 3), None),
        ((3, 32, 32), (16, 16)), ((3, 16, 16), (16, 15)), ((3, 16, 16), (1, 16, 16))])
    def test_image_and_depth_shapes_checked(self, image_shape, gt_shape):
        v = make_view()
        gt = None if gt_shape is None else np.ones(gt_shape, np.float32)
        with pytest.raises(ConfigError, match="image|gt_depth"):
            dataclasses.replace(v, image=np.zeros(image_shape, np.float32), gt_depth=gt)
        ok = dataclasses.replace(v, image=np.zeros((3, 8, 24), np.float32),
                                 gt_depth=np.ones((8, 24), np.float32))
        assert ok.gt_depth.shape == (8, 24)

    def test_bad_rotation_rejected(self):
        with pytest.raises(ConfigError):
            make_view(r=np.eye(3) * 1.1)
        with pytest.raises(ConfigError):
            make_view(d_min=5.0, d_max=2.0)  # type: ignore[arg-type]

    @pytest.mark.parametrize("field, index, value", [
        ("k", (0, 0), np.nan), ("k", (0, 2), np.inf), ("r", (1, 1), np.nan),
        ("t", 0, np.inf), ("t", 2, np.nan), ("d_min", None, np.nan),
        ("d_max", None, np.inf), ("d_max", None, np.nan)])
    def test_non_finite_camera_rejected(self, field, index, value):
        v = make_view()
        bad = value
        if index is not None:
            bad = getattr(v, field).copy()
            bad[index] = value
        with pytest.raises(ConfigError, match="finite"):
            dataclasses.replace(v, **{field: bad})


class TestWarp:
    def test_matches_homogeneous_oracle(self, rng):
        ref = make_view()
        src = make_view(r=rot_y(0.12), t=np.array([0.4, 0.05, -0.02]))
        pose = relative_pose(ref, src)
        for _ in range(100):
            p = rng.uniform(0, 15, 2)
            d = rng.uniform(2.0, 6.0)
            u, v, z, valid = warp_points(p[:1], p[1:], np.array([d]), ref.k, src.k, pose)
            uo, vo, zo = warp_oracle(p, d, ref.k, src.k, pose.r, pose.t)
            assert valid.shape == (1,) and valid[0]
            assert abs(u[0] - uo) < 1e-9 and abs(v[0] - vo) < 1e-9 and abs(z[0] - zo) < 1e-9

    def test_identity_warp_fixes_pixels(self, rng):
        v = make_view(r=rot_y(0.3), t=np.array([0.2, -0.1, 0.4]))
        pose = relative_pose(v, v)
        x = rng.uniform(0, 15, 20)
        y = rng.uniform(0, 15, 20)
        d = rng.uniform(2, 6, (3, 20))
        u, vv, z, valid = warp_points(x, y, d, v.k, v.k, pose)
        assert valid.all()
        assert np.abs(u - x).max() < 1e-9
        assert np.abs(vv - y).max() < 1e-9
        assert np.abs(z - d).max() < 1e-9

    def test_behind_camera_flagged(self):
        ref = make_view(d_min=0.1, d_max=100.0)
        # source looking the opposite way: points end up behind it
        src = make_view(r=rot_y(np.pi), t=np.array([0.0, 0.0, 1.0]), d_min=0.1, d_max=100.0)
        pose = relative_pose(ref, src)
        # the source sits at z = 1 facing -z: depth 0.5 is in front of it, 5 behind
        x = np.array([7.5, 2.0, 13.0])
        u, v, z, valid = warp_points(x, x[::-1], np.array([0.5, 5.0, 5.0]),
                                     ref.k, src.k, pose)
        assert list(valid) == [True, False, False]
        assert z[0] > 0 and (z[1:] < 0).all()
        assert np.isfinite(u).all() and np.isfinite(v).all()

class TestProject:
    """``project`` of ``eta_projection`` against ``warp_points`` at the depth
    each η denormalizes to, one source at a time, in float64."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_warp_points(self, seed):
        rng = np.random.default_rng(seed)
        ref = make_view(r=rot_y(rng.uniform(-0.1, 0.1)), t=rng.normal(0.0, 0.3, 3),
                        d_min=0.5, d_max=8.0)
        srcs = [make_view(r=rot_y(a), t=rng.normal(0.0, 0.2, 3), f=rng.uniform(20, 60),
                          d_min=0.5, d_max=8.0)
                for a in rng.uniform(-0.3, 0.3, 2)]
        # one more at the reference's centre, looking sideways across its
        # rays, so that some points fall behind it
        turn = rot_y(np.pi / 2)
        srcs.append(make_view(r=turn, t=turn @ ref.r.T @ ref.t, d_min=0.5, d_max=8.0))
        x, y = rng.uniform(0, 15, 40), rng.uniform(0, 15, 40)
        eta = rng.uniform(0.0, 1.0, (3, 40))
        with T.using_dtype(np.float64):
            a, b = eta_projection(x, y, ref.k, np.stack([s.k for s in srcs]),
                                  relative_poses(ref, srcs), ref.d_min, ref.d_max)
            u, v, front = project(eta, a, b)
        assert u.shape == v.shape == front.shape == (3, 3, 40)
        depth = denormalize_inv(eta, ref.d_min, ref.d_max)
        for i, src in enumerate(srcs):
            uw, vw, z, valid = warp_points(x, y, depth, ref.k, src.k, relative_pose(ref, src))
            assert np.array_equal(front[i], valid)
            # near the source's focal plane both blow up; compare where
            # a point lands within 1000 px of the image
            near = valid & (np.abs(uw) < 1e3) & (np.abs(vw) < 1e3)
            assert np.abs(u[i] - uw)[near].max() < 1e-9
            assert np.abs(v[i] - vw)[near].max() < 1e-9
        assert front[2].any() and not front[2].all()

    def test_constant_planes_broadcast_over_pixels(self, rng):
        ref, src = make_view(), make_view(r=rot_y(0.1), t=np.array([-0.5, 0.0, 0.1]))
        x, y = rng.uniform(0, 15, 6), rng.uniform(0, 15, 6)
        planes = np.linspace(0.0, 1.0, 4)
        with T.using_dtype(np.float64):
            a, b = eta_projection(x, y, ref.k, src.k[None], relative_poses(ref, [src]), 2.0, 6.0)
            u, v, front = project(planes[:, None], a, b)
            u_full, v_full, _ = project(np.repeat(planes[:, None], 6, 1), a, b)
        assert u.shape == (1, 4, 6) and front.all()
        assert u.tobytes() == u_full.tobytes()
        assert v.tobytes() == v_full.tobytes()


class TestInverseDepth:
    def test_two_sample_endpoints(self):
        inv = inverse_grid(1.0, 1e6, 2)
        assert inv[0] == 1e-6 and inv[1] == 1.0

    def test_ordering_and_spacing(self):
        inv = inverse_grid(2.0, 8.0, 33)
        steps = np.diff(inv)
        assert np.all(steps > 0)
        assert np.abs(steps - steps[0]).max() < 1e-12

    @given(st.floats(0.5, 10.0), st.floats(1.2, 8.0), st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_spacing_property(self, d_min, ratio, count):
        d_max = d_min * ratio
        inv = inverse_grid(d_min, d_max, count)
        steps = np.diff(inv)
        assert np.abs(steps - steps[0]).max() < 1e-12

    def test_normalize_endpoints(self):
        assert normalize_inv(np.array(4.0), 2.0, 4.0) == 0.0
        assert normalize_inv(np.array(2.0), 2.0, 4.0) == 1.0

    @given(st.floats(0.3, 20.0), st.floats(1.1, 10.0), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, d_min, ratio, seed):
        d_max = d_min * ratio
        d = np.random.default_rng(seed).uniform(d_min, d_max, 32)
        back = denormalize_inv(normalize_inv(d, d_min, d_max), d_min, d_max)
        assert np.abs(back - d).max() < 1e-9 * d_max

    def test_monotone_decreasing_in_depth(self, rng):
        d = np.sort(rng.uniform(2.0, 6.0, 50))
        eta = normalize_inv(d, 2.0, 6.0)
        assert np.all(np.diff(eta) < 0)

    def test_out_of_range_clamped_and_flagged(self):
        d = np.array([1.0, 3.0, 9.0, np.nan, -2.0])
        eta = normalize_inv(d, 2.0, 6.0)
        assert eta[0] == 1.0 and eta[2] == 0.0

    def test_tensor_path_no_clamp(self):
        with T.using_dtype(np.float64):
            eta = normalize_inv(Tensor(np.array([3.0])), 2.0, 6.0)
            back = denormalize_inv(eta, 2.0, 6.0)
        assert abs(back.data[0] - 3.0) < 1e-12


class TestScaleIntrinsics:
    def test_half_resolution_example(self):
        k = np.array([[100.0, 0, 50.0], [0, 100.0, 50.0], [0, 0, 1.0]])
        k1 = scale_intrinsics(k, 1)
        assert k1[0, 0] == 50.0
        assert k1[0, 2] == pytest.approx(24.75)

    def test_level_zero_unchanged(self):
        k = np.array([[80.0, 0, 31.5], [0, 80.0, 31.5], [0, 0, 1.0]])
        assert np.array_equal(scale_intrinsics(k, 0), k)

    def test_projection_consistency_across_levels(self, rng):
        k = np.array([[64.0, 0, 31.5], [0, 64.0, 31.5], [0, 0, 1.0]])
        for level in (1, 2, 3):
            s = 1.0 / (1 << level)
            kl = scale_intrinsics(k, level)
            x = rng.standard_normal(3) + np.array([0, 0, 5.0])
            p_full = (k @ x)[:2] / (k @ x)[2]
            p_lvl = (kl @ x)[:2] / (kl @ x)[2]
            assert np.allclose(p_lvl, (p_full + 0.5) * s - 0.5, atol=1e-10)


class TestCamFiles:
    def test_roundtrip(self, tmp_path, rng):
        v = make_view(r=rot_y(0.2), t=rng.standard_normal(3))
        path = tmp_path / "0000_cam.txt"
        save_cam_text(path, v)
        k, r, t, d_min, d_max = load_cam_text(path)
        assert np.abs(k - v.k).max() < 1e-9
        assert np.abs(r - v.r).max() < 1e-9
        assert np.abs(t - v.t).max() < 1e-9
        assert d_min == v.d_min and d_max == v.d_max

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad_cam.txt"
        path.write_text("intrinsic first? nope\n")
        from mvsgru.errors import FileFormatError
        with pytest.raises(FileFormatError):
            load_cam_text(path)
