"""Consistency filtering, point-cloud fusion, and PLY/PGM files."""

import numpy as np
import pytest

from mvsgru.errors import FileFormatError
from mvsgru.fusion import (FuseConfig, PointCloud, backproject,
                           confidence_filter, fuse, geometric_filter,
                           read_ply, write_pgm, write_ply)
from mvsgru.geometry import CameraView
from mvsgru.scenes import SynthSpec, synth_scene


def plain_view(size, f, center_x=0.0, depth_value=1.0, name="v"):
    """Camera at (center_x, 0, 0) looking down +z at a flat depth map."""
    cc = (size - 1) / 2.0
    k = np.array([[f, 0.0, cc], [0.0, f, cc], [0.0, 0.0, 1.0]])
    r = np.eye(3)
    t = -r @ np.array([center_x, 0.0, 0.0])
    img = np.zeros((3, size, size), dtype=np.float32)
    view = CameraView(k, r, t, 0.1, 10.0, img, None, name)
    return view, np.full((size, size), depth_value)


class TestConfidenceFilter:
    def test_threshold_is_inclusive(self):
        conf = np.array([[0.3, 0.2999, 0.95, 0.0]])
        got = confidence_filter(conf, tau=0.3)
        assert got.tolist() == [[True, False, True, False]]


class TestGeometricFilter:
    def test_identical_views_agree_everywhere(self):
        view, depth = plain_view(16, 24.0)
        mask, votes = geometric_filter(view, depth, [view] * 3, [depth] * 3,
                                       n_geo=3)
        assert (votes == 3).all()
        assert mask.all()

    def test_two_percent_depth_error_loses_every_vote(self):
        view, depth = plain_view(16, 24.0)
        mask, votes = geometric_filter(view, depth * 1.02, [view] * 3,
                                       [depth] * 3, eps=0.01, n_geo=1)
        assert (votes == 0).all()
        assert not mask.any()

    def test_relative_depth_margin(self):
        # 2^-7 = 0.78% passes the 1% test, 2^-6 = 1.56% does not; both
        # factors are exact in binary so no boundary rounding is involved
        view, depth = plain_view(16, 24.0)
        _, near = geometric_filter(view, depth, [view],
                                   [depth * (1 + 2.0 ** -7)], n_geo=1)
        _, far = geometric_filter(view, depth, [view],
                                  [depth * (1 + 2.0 ** -6)], n_geo=1)
        assert (near == 1).all()
        assert (far == 0).all()

    def test_reprojection_pixel_margin(self):
        # source camera 150 px of baseline away; a 0.5% source depth error
        # turns into a s*e/(1+e) pixel reprojection shift: 0.746 px at
        # s=150 (accepted), 1.244 px at s=250 (rejected), while the depth
        # test keeps passing at 0.5%
        size, f, d = 64, 200.0, 1.0
        err = 1.005
        for shift, want in ((150, 1), (250, 0)):
            ref, depth = plain_view(size, f)
            src, _ = plain_view(size, f, center_x=-shift * d / f, name="s")
            srcd = np.full((size, size + shift), d * err)
            _, votes = geometric_filter(ref, depth, [src], [srcd],
                                        delta=1.0, eps=0.01, n_geo=1)
            assert (votes == want).all(), shift

    def test_votes_monotone_in_n_geo(self):
        scene = synth_scene(SynthSpec(seed=31, views=4, size=32, quads=2))
        depths = [v.gt_depth for v in scene.views]
        prev = None
        for n in (1, 2, 3):
            mask, votes = geometric_filter(scene.views[0], depths[0],
                                           scene.views[1:], depths[1:],
                                           n_geo=n)
            assert np.array_equal(mask, votes >= n)
            if prev is not None:
                assert not mask[~prev].any()
            prev = mask

    def test_ground_truth_is_mostly_self_consistent(self):
        scene = synth_scene(SynthSpec(seed=31, views=4, size=32, quads=2))
        depths = [v.gt_depth for v in scene.views]
        mask, _ = geometric_filter(scene.views[0], depths[0],
                                   scene.views[1:], depths[1:], n_geo=1)
        # pixels leaving every source frustum and occlusion boundaries lose
        # votes; the bulk of the image must keep at least one, and away from
        # the frustum edges only occluded discontinuity pixels may fail
        assert mask.mean() > 0.7
        assert mask[8:24, 8:24].mean() > 0.9

    def test_matches_per_pixel_loop_oracle(self):
        # noisy depths and NaN holes in one source map; the oracle goes
        # through world coordinates pixel by pixel
        scene = synth_scene(SynthSpec(seed=7, views=4, size=32, quads=2))
        rng = np.random.default_rng(3)
        depths = [v.gt_depth * (1 + 0.004 * rng.standard_normal(v.gt_depth.shape))
                  for v in scene.views]
        depths[2] = np.where(rng.random((32, 32)) < 0.05, np.nan, depths[2])
        ref, srcs = scene.views[0], scene.views[1:]
        delta, eps = 1.0, 0.01
        _, votes = geometric_filter(ref, depths[0], srcs, depths[1:], delta, eps)

        def project(view, world):
            cam = view.r @ world + view.t
            return (view.k @ cam)[:2] / cam[2], cam[2]

        def unproject(view, x, y, d):
            cam = np.linalg.inv(view.k) @ np.array([x, y, 1.0]) * d
            return view.r.T @ (cam - view.t)

        want = np.zeros((32, 32), dtype=np.int64)
        for y in range(32):
            for x in range(32):
                d0 = depths[0][y, x]
                if not (np.isfinite(d0) and d0 > 0):
                    continue
                for src, sd in zip(srcs, depths[1:]):
                    (u, v), z = project(src, unproject(ref, x, y, d0))
                    ui, vi = int(np.rint(u)), int(np.rint(v))
                    if z <= 0 or not (0 <= ui < 32 and 0 <= vi < 32):
                        continue
                    d_src = sd[vi, ui]
                    if not (np.isfinite(d_src) and d_src > 0):
                        continue
                    (ub, vb), zb = project(ref, unproject(src, u, v, d_src))
                    if (zb > 0 and np.hypot(ub - x, vb - y) < delta
                            and abs(zb - d0) / d0 < eps):
                        want[y, x] += 1
        assert set(np.unique(want)) == {0, 1, 2, 3}
        assert np.array_equal(votes, want)


class TestBackproject:
    def test_matches_pinhole_formula(self):
        view, depth = plain_view(4, 2.0, depth_value=2.0)
        view.image = np.linspace(0, 1, 48, dtype=np.float32).reshape(3, 4, 4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        mask[3, 0] = True
        pts, rgb = backproject(view, depth, mask)
        k_inv = np.linalg.inv(view.k)
        want = [2.0 * k_inv @ np.array([2.0, 1.0, 1.0]),
                2.0 * k_inv @ np.array([0.0, 3.0, 1.0])]
        assert np.allclose(pts, np.stack(want), atol=1e-6)
        assert np.array_equal(
            rgb[0], np.rint(view.image[:, 1, 2] * 255).astype(np.uint8))

    def test_skips_invalid_depth(self):
        view, depth = plain_view(4, 2.0)
        depth[0, 0] = np.nan
        depth[1, 1] = 0.0
        pts, _ = backproject(view, depth, np.ones((4, 4), dtype=bool))
        assert pts.shape == (14, 3)


class TestFuse:
    def make_identical(self, n, size=16):
        view, depth = plain_view(size, 24.0)
        views, depths = [], []
        for i in range(n):
            v = CameraView(view.k, view.r, view.t, view.d_min, view.d_max,
                           view.image, None, f"{i}")
            views.append(v)
            depths.append(depth.copy())
        return views, depths

    def test_identical_views_keep_everything(self):
        views, depths = self.make_identical(4)
        pc, masks = fuse(views, depths, None, FuseConfig(n_geo=3))
        assert all(m.all() for m in masks)
        assert len(pc) == 4 * 16 * 16

    def test_inconsistent_view_is_dropped(self):
        views, depths = self.make_identical(4)
        depths[2] *= 1.02
        pc, masks = fuse(views, depths, None, FuseConfig(eps=0.01, n_geo=2))
        assert masks[0].all() and masks[1].all() and masks[3].all()
        assert not masks[2].any()
        assert len(pc) == 3 * 16 * 16

    def test_confidence_gates_per_view(self):
        views, depths = self.make_identical(3)
        confs = [np.ones((16, 16)), np.ones((16, 16)) * 0.1,
                 np.ones((16, 16))]
        pc, masks = fuse(views, depths, confs, FuseConfig(tau=0.3, n_geo=2))
        assert masks[0].all() and masks[2].all()
        assert not masks[1].any()
        assert len(pc) == 2 * 16 * 16

    def test_everything_filtered_gives_empty_cloud(self):
        views, depths = self.make_identical(2)
        confs = [np.zeros((16, 16))] * 2
        pc, _ = fuse(views, depths, confs, FuseConfig(tau=0.3, n_geo=1))
        assert len(pc) == 0
        assert pc.xyz.shape == (0, 3)


def random_cloud(rng, n):
    xyz = (rng.standard_normal((n, 3)) * 5).astype(np.float32)
    rgb = rng.integers(0, 256, (n, 3), dtype=np.uint8)
    return PointCloud(xyz, rgb)


class TestPlyFiles:
    def test_roundtrip_is_exact(self, rng, tmp_path):
        pc = random_cloud(rng, 257)
        path = tmp_path / "c.ply"
        write_ply(pc, path)
        got = read_ply(path)
        assert np.array_equal(got.xyz, pc.xyz)
        assert np.array_equal(got.rgb, pc.rgb)

    def test_writes_are_bitwise_stable(self, rng, tmp_path):
        pc = random_cloud(rng, 64)
        write_ply(pc, tmp_path / "a.ply")
        write_ply(read_ply(tmp_path / "a.ply"), tmp_path / "b.ply")
        assert (tmp_path / "a.ply").read_bytes() == \
            (tmp_path / "b.ply").read_bytes()

    def test_header_layout(self, rng, tmp_path):
        write_ply(random_cloud(rng, 3), tmp_path / "c.ply")
        lines = (tmp_path / "c.ply").read_bytes().split(b"\n")
        assert lines[0] == b"ply"
        assert lines[1] == b"format binary_little_endian 1.0"
        assert lines[2] == b"element vertex 3"

    def test_empty_cloud_roundtrip(self, tmp_path):
        pc = PointCloud(np.zeros((0, 3), np.float32), np.zeros((0, 3), np.uint8))
        write_ply(pc, tmp_path / "e.ply")
        assert len(read_ply(tmp_path / "e.ply")) == 0

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"obj\n")
        with pytest.raises(FileFormatError) as e:
            read_ply(path)
        assert e.value.offset == 0

    def test_unterminated_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\n")
        with pytest.raises(FileFormatError, match="unterminated"):
            read_ply(path)

    def test_wrong_format_line(self, rng, tmp_path):
        write_ply(random_cloud(rng, 2), tmp_path / "c.ply")
        raw = (tmp_path / "c.ply").read_bytes()
        bad = raw.replace(b"binary_little_endian", b"ascii", 1)
        (tmp_path / "bad.ply").write_bytes(bad)
        with pytest.raises(FileFormatError, match="unsupported format"):
            read_ply(tmp_path / "bad.ply")

    def test_truncated_payload_reports_offset(self, rng, tmp_path):
        write_ply(random_cloud(rng, 5), tmp_path / "c.ply")
        raw = (tmp_path / "c.ply").read_bytes()
        (tmp_path / "bad.ply").write_bytes(raw[:-3])
        with pytest.raises(FileFormatError) as e:
            read_ply(tmp_path / "bad.ply")
        assert e.value.offset == raw.index(b"end_header\n") + 11

    def test_unexpected_property_layout(self, rng, tmp_path):
        write_ply(random_cloud(rng, 2), tmp_path / "c.ply")
        raw = (tmp_path / "c.ply").read_bytes()
        bad = raw.replace(b"property uchar red", b"property uchar alpha", 1)
        (tmp_path / "bad.ply").write_bytes(bad)
        with pytest.raises(FileFormatError, match="layout"):
            read_ply(tmp_path / "bad.ply")


class TestPgm:
    def test_boolean_mask_becomes_binary_image(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        write_pgm(tmp_path / "m.pgm", mask)
        raw = (tmp_path / "m.pgm").read_bytes()
        assert raw == b"P5\n2 2\n255\n" + bytes([255, 0, 0, 255])

    def test_grayscale_is_clipped(self, tmp_path):
        write_pgm(tmp_path / "g.pgm", np.array([[300.0, -5.0, 17.0]]))
        raw = (tmp_path / "g.pgm").read_bytes()
        assert raw.endswith(bytes([255, 0, 17]))
