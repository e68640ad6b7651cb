"""Scene files (PFM/PPM/cam text/pair lists), synthesis, and metrics."""

import numpy as np
import pytest

from mvsgru.errors import (ContractError, FileFormatError,
                           SceneGenerationError)
from mvsgru.fusion import PointCloud, backproject
from mvsgru.geometry import load_cam_text, save_cam_text
from mvsgru.scenes import (Scene, SynthSpec, build_gt_cloud, evaluate,
                           load_pfm, load_ppm, load_scene, save_pfm,
                           save_ppm, save_scene, synth_scene)


class TestPfm:
    def test_roundtrip_with_nan(self, rng, tmp_path):
        depth = rng.random((5, 7)).astype(np.float32) * 4 + 0.5
        depth[2, 3] = np.nan
        path = tmp_path / "d.pfm"
        save_pfm(path, depth)
        got = load_pfm(path)
        assert got.dtype == np.float32
        assert np.array_equal(got, depth, equal_nan=True)

    def test_rows_are_stored_bottom_up(self, tmp_path):
        depth = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "d.pfm"
        save_pfm(path, depth)
        raw = path.read_bytes()
        payload = np.frombuffer(raw, dtype="<f4", offset=len(raw) - 24)
        assert payload.tolist() == [3, 4, 5, 0, 1, 2]

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\0" * 48)
        with pytest.raises(FileFormatError) as e:
            load_pfm(path)
        assert e.value.offset == 0

    def test_rejects_big_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n1 1\n1.0\n" + b"\0" * 4)
        with pytest.raises(FileFormatError, match="big-endian"):
            load_pfm(path)

    def test_rejects_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "d.pfm"
        save_pfm(path, rng.random((3, 3)).astype(np.float32))
        (tmp_path / "bad.pfm").write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FileFormatError, match="payload"):
            load_pfm(tmp_path / "bad.pfm")

    def test_rejects_bad_dimension_line(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2 9\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FileFormatError, match="dimension"):
            load_pfm(path)


class TestPpm:
    def test_roundtrip_is_quantization(self, rng, tmp_path):
        img = rng.random((3, 4, 6)).astype(np.float32)
        path = tmp_path / "i.ppm"
        save_ppm(path, img)
        got = load_ppm(path)
        want = np.clip(np.rint(img * 255), 0, 255) / 255.0
        assert np.allclose(got, want, atol=1e-7)
        save_ppm(tmp_path / "j.ppm", got)
        assert path.read_bytes() == (tmp_path / "j.ppm").read_bytes()

    def test_header_comments_are_skipped(self, tmp_path):
        payload = bytes(range(12))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # magic\n# a comment line\n2 2\n255\n" + payload)
        img = load_ppm(path)
        assert img.shape == (3, 2, 2)
        assert np.allclose(img[:, 0, 0], np.array([0, 1, 2]) / 255.0)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\0\0\0\0\0\0")
        with pytest.raises(FileFormatError, match="maxval"):
            load_ppm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\0\0\0")
        with pytest.raises(FileFormatError, match="payload"):
            load_ppm(path)


class TestCamText:
    def test_roundtrip(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=6, views=2, size=16, quads=1))
        v = scene.views[0]
        path = tmp_path / "cam.txt"
        save_cam_text(path, v)
        k, r, t, d_min, d_max = load_cam_text(path)
        assert np.allclose(k, v.k, rtol=1e-11)
        assert np.allclose(r, v.r, rtol=1e-11)
        assert np.allclose(t, v.t, rtol=1e-11, atol=1e-13)
        assert d_min == pytest.approx(v.d_min, rel=1e-11)
        assert d_max == pytest.approx(v.d_max, rel=1e-11)

    def test_resave_reaches_a_fixed_point(self, tmp_path):
        # the first 12-digit print can wobble in the last digit when the
        # parsed value sits on a decimal tie; after one roundtrip the
        # string representation must stop changing
        scene = synth_scene(SynthSpec(seed=6, views=2, size=16, quads=1))
        v = scene.views[0]
        save_cam_text(tmp_path / "a.txt", v)
        for step in ("b", "c"):
            v.k, v.r, v.t, v.d_min, v.d_max = \
                load_cam_text(tmp_path / f"{chr(ord(step) - 1)}.txt")
            save_cam_text(tmp_path / f"{step}.txt", v)
        assert (tmp_path / "b.txt").read_bytes() == \
            (tmp_path / "c.txt").read_bytes()


class TestSceneRoundtrip:
    def test_save_load_preserves_everything_observable(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=9, views=3, size=16, quads=1))
        save_scene(scene, tmp_path / "s")
        got = load_scene(tmp_path / "s")
        assert got.pairs == scene.pairs
        for a, b in zip(got.views, scene.views):
            assert np.allclose(a.k, b.k, rtol=1e-11)
            assert np.allclose(a.r, b.r, rtol=1e-11)
            assert np.array_equal(
                a.image, np.clip(np.rint(b.image * 255), 0, 255) / 255.0)
            assert np.allclose(a.gt_depth, b.gt_depth, rtol=1e-7)

    def test_missing_camera_file_is_reported(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=9, views=2, size=16, quads=1))
        save_scene(scene, tmp_path / "s")
        (tmp_path / "s" / "cams" / "0001_cam.txt").unlink()
        with pytest.raises(FileFormatError, match="missing camera"):
            load_scene(tmp_path / "s")

    def test_bad_pair_line_is_reported(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=9, views=2, size=16, quads=1))
        save_scene(scene, tmp_path / "s")
        (tmp_path / "s" / "pair.txt").write_text("2\n0 2 1\n1 1 0\n")
        with pytest.raises(FileFormatError, match="pair line"):
            load_scene(tmp_path / "s")

    def test_depth_of_the_wrong_size_names_its_file(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=9, views=2, size=16, quads=1))
        save_scene(scene, tmp_path / "s")
        save_pfm(tmp_path / "s" / "depths_gt" / "0000.pfm", np.ones((8, 8), np.float32))
        with pytest.raises(FileFormatError, match="depths_gt/0000.pfm") as err:
            load_scene(tmp_path / "s")
        assert "(8, 8)" in str(err.value)

    def test_non_finite_camera_names_its_file(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=9, views=2, size=16, quads=1))
        save_scene(scene, tmp_path / "s")
        cam = tmp_path / "s" / "cams" / "0001_cam.txt"
        words = cam.read_text().split()
        words[1] = "nan"  # first extrinsic entry: R[0, 0]
        cam.write_text(" ".join(words) + "\n")
        with pytest.raises(FileFormatError, match="cams/0001_cam.txt") as err:
            load_scene(tmp_path / "s")
        assert "finite" in str(err.value)


_PIX = bytes(12)  # payload of a 2x2 PPM (and 3 of the 4 floats of a 2x2 PFM)


@pytest.mark.parametrize("kind, content", [
    ("pfm", b"Pf\nx 2\n-1.0\n" + bytes(16)),
    ("pfm", b"Pf\n2\n-1.0\n" + bytes(16)),
    ("pfm", b"Pf\n2 -2\n-1.0\n" + bytes(16)),
    ("pfm", b"Pf\n2 2\nabc\n" + bytes(16)),
    ("pfm", b"Pf\n2 2\nnan\n" + bytes(16)),
    ("ppm", b"P6\nx 2\n255\n" + _PIX),
    ("ppm", b"P6\n2 y\n255\n" + _PIX),
    ("ppm", b"P6\n2 2\nmax\n" + _PIX),
    ("ppm", b"P6\n0 2\n255\n" + _PIX),
    ("ppm", b"P6\n# comment that never ends"),
    ("pair", b"3\n0 x 1 2\n"),
    ("pair", b"3\n0\n"),
    ("pair", b"3\n7 0\n"),
    ("pair", b"3\n-1 0\n"),
    ("pair", b"three\n"),
    ("pair", b"3\n0 2 0 1\n"),
    ("pair", b"3\n0 2 1 1\n"),
], ids=["pfm-dims-word", "pfm-dims-one", "pfm-dims-negative", "pfm-scale-word",
        "pfm-scale-nan", "ppm-width", "ppm-height", "ppm-maxval", "ppm-zero-width",
        "ppm-open-comment", "pair-word-count", "pair-no-count", "pair-ref-range",
        "pair-ref-negative", "pair-header", "pair-self-source", "pair-repeated-source"])
def test_malformed_header_raises_file_format_error(tmp_path, kind, content):
    if kind == "pair":
        save_scene(synth_scene(SynthSpec(seed=9, views=3, size=16, quads=1)),
                   tmp_path / "s")
        (tmp_path / "s" / "pair.txt").write_bytes(content)
        with pytest.raises(FileFormatError):
            load_scene(tmp_path / "s")
        return
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(content)
    with pytest.raises(FileFormatError):
        (load_pfm if kind == "pfm" else load_ppm)(path)


class TestSynth:
    def test_same_seed_is_bitwise_identical(self):
        spec = SynthSpec(seed=17, views=3, size=16, quads=2)
        a, b = synth_scene(spec), synth_scene(spec)
        for va, vb in zip(a.views, b.views):
            assert va.image.tobytes() == vb.image.tobytes()
            assert va.gt_depth.tobytes() == vb.gt_depth.tobytes()
            assert np.array_equal(va.r, vb.r)
            assert np.array_equal(va.t, vb.t)

    def test_different_seeds_differ(self):
        a = synth_scene(SynthSpec(seed=1, views=2, size=16, quads=1))
        b = synth_scene(SynthSpec(seed=2, views=2, size=16, quads=1))
        assert a.views[0].image.tobytes() != b.views[0].image.tobytes()

    def test_pairs_are_sorted_by_camera_distance(self):
        scene = synth_scene(SynthSpec(seed=17, views=5, size=16, quads=1))
        centers = [-v.r.T @ v.t for v in scene.views]
        for i, srcs in enumerate(scene.pairs):
            assert sorted(srcs) == [j for j in range(5) if j != i]
            dists = [np.linalg.norm(centers[i] - centers[j]) for j in srcs]
            assert dists == sorted(dists)

    def test_sources_truncates(self):
        scene = synth_scene(SynthSpec(seed=17, views=5, size=16, quads=1))
        assert scene.sources(0, 2) == scene.pairs[0][:2]
        assert len(scene.sources(0, 99)) == 4

    def test_depth_range_brackets_ground_truth(self):
        scene = synth_scene(SynthSpec(seed=17, views=3, size=16, quads=2))
        for v in scene.views:
            assert v.d_min < v.gt_depth.min()
            assert v.d_max > v.gt_depth.max()

    def test_degenerate_specs_are_rejected(self):
        with pytest.raises(SceneGenerationError, match="multiple of 8"):
            synth_scene(SynthSpec(seed=1, size=12))
        with pytest.raises(SceneGenerationError, match="at least 2"):
            synth_scene(SynthSpec(seed=1, views=1))
        with pytest.raises(SceneGenerationError, match="empty space"):
            synth_scene(SynthSpec(seed=1, views=2, size=16, quads=0,
                                  background=False))


class TestMetrics:
    def grid_cloud(self, n=5, spacing=1.0):
        g = np.arange(n, dtype=np.float32) * spacing
        xyz = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
        return PointCloud(xyz, np.zeros((len(xyz), 3), np.uint8))

    def test_identical_clouds_score_zero(self):
        pc = self.grid_cloud()
        assert evaluate(pc, pc, threshold=0.5) == (0.0, 0.0, 0.0)

    def test_uniform_shift_scores_its_norm(self):
        pc = self.grid_cloud(spacing=2.0)
        moved = PointCloud(pc.xyz + np.float32(0.1), pc.rgb)
        acc, comp, overall = evaluate(moved, pc, threshold=0.5)
        want = float(np.linalg.norm([0.1, 0.1, 0.1]))
        assert acc == pytest.approx(want, rel=1e-5)
        assert comp == pytest.approx(want, rel=1e-5)
        assert overall == pytest.approx(want, rel=1e-5)

    def test_accuracy_ignores_far_outliers(self):
        gt = self.grid_cloud()
        xyz = np.concatenate([gt.xyz, [[500.0, 0, 0]]]).astype(np.float32)
        pc = PointCloud(xyz, np.zeros((len(xyz), 3), np.uint8))
        acc, comp, _ = evaluate(pc, gt, threshold=0.5)
        assert acc == 0.0              # the outlier sits beyond 10x threshold
        assert comp == 0.0             # gt->pc distances are unaffected

    @staticmethod
    def cloud(xyz) -> PointCloud:
        xyz = np.asarray(xyz, np.float32).reshape(-1, 3)
        return PointCloud(xyz, np.zeros((len(xyz), 3), np.uint8))

    @staticmethod
    def oracle(pc, gt, threshold):
        """evaluate by brute force: float64 distances over all pairs."""
        a, b = pc.xyz.astype(np.float64), gt.xyz.astype(np.float64)
        dist = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        d_acc, d_comp = dist.min(1), dist.min(0)
        kept = d_acc[d_acc <= 10.0 * threshold]
        acc = float(kept.mean()) if kept.size else float("inf")
        comp = float(d_comp.mean())
        return acc, comp, (acc + comp) / 2.0

    def assert_matches_oracle(self, pc, gt, threshold):
        got = evaluate(pc, gt, threshold)
        assert got == pytest.approx(self.oracle(pc, gt, threshold), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clouds_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 400, size=2)
        gt = self.cloud(rng.normal(size=(n, 3)))
        # a shifted, wider cloud, so some points fall beyond the cap
        pc = self.cloud(rng.normal(size=(m, 3)) * 2.0 + 0.5)
        self.assert_matches_oracle(pc, gt, threshold=0.1)
        self.assert_matches_oracle(gt, pc, threshold=0.1)

    def test_duplicate_points_match_brute_force(self, rng):
        base = rng.random((30, 3))
        gt = self.cloud(np.concatenate([base, base, base[:5]]))
        pc = self.cloud(np.concatenate([base[::2] + 0.01, base[:3], base[:3]]))
        self.assert_matches_oracle(pc, gt, threshold=0.05)
        self.assert_matches_oracle(gt, pc, threshold=0.05)

    def test_planar_cloud_matches_brute_force(self, rng):
        # zero extent on z: every tree split must come from x or y
        flat = rng.random((200, 3))
        flat[:, 2] = 0.25
        pc = self.cloud(rng.random((150, 3)))
        self.assert_matches_oracle(pc, self.cloud(flat), threshold=0.05)
        self.assert_matches_oracle(self.cloud(flat), pc, threshold=0.05)

    def test_one_point_cloud_matches_brute_force(self, rng):
        one = self.cloud([[0.3, -0.2, 0.7]])
        many = self.cloud(rng.random((100, 3)))
        self.assert_matches_oracle(one, many, threshold=0.5)
        self.assert_matches_oracle(many, one, threshold=0.5)
        self.assert_matches_oracle(one, one, threshold=0.5)

    def test_distance_of_exactly_ten_thresholds_is_kept(self):
        gt = self.cloud([[0.0, 0.0, 0.0]])
        at_cap = self.cloud([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        acc, _, _ = evaluate(at_cap, gt, threshold=0.5)
        assert acc == 2.5
        beyond = np.nextafter(np.float32(5.0), np.float32(6.0))
        past_cap = self.cloud([[0.0, 0.0, 0.0], [beyond, 0.0, 0.0]])
        acc, _, _ = evaluate(past_cap, gt, threshold=0.5)
        assert acc == 0.0

    def test_empty_cloud_rejected(self):
        empty = PointCloud(np.zeros((0, 3), np.float32),
                           np.zeros((0, 3), np.uint8))
        with pytest.raises(ContractError):
            evaluate(empty, self.grid_cloud(), 0.5)

    def test_gt_cloud_matches_backprojection(self):
        scene = synth_scene(SynthSpec(seed=4, views=2, size=16, quads=1))
        pc = build_gt_cloud(Scene(scene.views[:1], [[]]))
        v = scene.views[0]
        pts, rgb = backproject(v, v.gt_depth, np.ones((16, 16), dtype=bool))
        assert np.allclose(pc.xyz, pts, atol=1e-5)
        assert np.array_equal(pc.rgb, rgb)

    def test_gt_cloud_stride(self):
        scene = synth_scene(SynthSpec(seed=4, views=2, size=16, quads=1))
        assert len(build_gt_cloud(scene, stride=2)) == 2 * 8 * 8

    def test_gt_cloud_requires_depth(self):
        scene = synth_scene(SynthSpec(seed=4, views=2, size=16, quads=1))
        for v in scene.views:
            v.gt_depth = None
        with pytest.raises(ContractError):
            build_gt_cloud(scene)
