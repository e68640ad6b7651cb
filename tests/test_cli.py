"""End-to-end CLI behavior: exit codes, artifacts, and format contracts."""

import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from mvsgru.cli import _write_prob_csv, main
from mvsgru.estimator import DepthEstimator
from mvsgru.features import FeatureExtractor
from mvsgru.fusion import PointCloud, read_ply, write_ply
from mvsgru.nn import load_checkpoint, save_checkpoint
from mvsgru.scenes import (Scene, SynthSpec, load_pfm, load_scene, save_pfm, save_scene,
                           synth_scene)
from mvsgru.tensor import no_grad
from mvsgru.training import (TrainConfig, load_train_config,
                             save_train_config)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    code = main(["synth", "--out", str(root), "--scenes", "2",
                 "--seed", "77", "--views", "3", "--size", "16",
                 "--quads", "1"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, scene_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = TrainConfig(iters=1, views=2, epochs=1, seed=3)
    cfg_path = out / "tiny.cfg"
    save_train_config(cfg, cfg_path)
    code = main(["train", "--scenes", str(scene_dir), "--out", str(out),
                 "--config", str(cfg_path)])
    assert code == 0
    return out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_unknown_command_is_validation_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_validation_error(self, capsys):
        assert main(["synth"]) == 1

    def test_bad_config_file_is_validation_error(self, scene_dir, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        code = main(["train", "--scenes", str(scene_dir), "--out",
                     str(tmp_path / "o"), "--config", str(bad)])
        assert code == 1
        assert "bad.cfg:1: expected key=value" in capsys.readouterr().err

    def test_bad_config_value_is_validation_error(self, scene_dir, tmp_path,
                                                  capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("iters=1\nepochs=abc\n")
        code = main(["train", "--scenes", str(scene_dir), "--out",
                     str(tmp_path / "o"), "--config", str(bad)])
        assert code == 1
        assert "bad.cfg:2: " in capsys.readouterr().err

    def test_zero_batch_is_validation_error(self, scene_dir, tmp_path,
                                            capsys):
        out = tmp_path / "o"
        code = main(["train", "--scenes", str(scene_dir), "--out", str(out),
                     "--batch", "0", "--epochs", "1", "--iters", "1"])
        assert code == 1
        assert "batch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("d1", "1"), ("d2", "1"), ("readout_radius", "-1"), ("source_pool", "0"),
        ("counts", "0,4,2"), ("scale_lo", "2"), ("seed", "-2"), ("alpha", "nan"),
        ("alpha", "0"), ("gamma", "nan"), ("gamma", "inf"), ("radii", "-0.5,0.1,0.2")])
    def test_bad_config_field_fails_before_writing(self, scene_dir, tmp_path,
                                                   capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"iters=1\nepochs=1\n{key}={value}\n")
        out = tmp_path / "o"
        code = main(["train", "--scenes", str(scene_dir), "--out", str(out),
                     "--config", str(cfg)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value,names", [
        ("infer", "--iters", "-1", "iteration count"),
        ("infer", "--views", "0", "source count"),
        ("train", "--views", "0", "views"),
        ("train", "--views", "1", "views"),
        ("train", "--epochs", "0", "epochs"),
        ("train", "--lr", "0", "lr"),
        ("train", "--lr", "-1", "lr"),
        ("train", "--lr", "nan", "lr"),
        ("train", "--iters", "-1", "iters"),
        ("train", "--seed", "-1", "seed"),
        ("synth", "--seed", "-1", "seed"),
        ("synth", "--scenes", "0", "--scenes"),
        ("synth", "--scenes", "-2", "--scenes"),
        ("synth", "--quads", "-1", "quads"),
        ("gradcheck", "--seed", "-1", "seed"),
        ("eval", "--stride", "0", "stride"),
        ("eval", "--stride", "-1", "stride"),
        ("eval", "--threshold", "0", "threshold"),
        ("eval", "--threshold", "-1", "threshold"),
        ("gradcheck", "--instances", "0", "instance"),
        ("fuse", "--delta", "-1", "delta"),
        ("fuse", "--delta", "0", "delta"),
        ("fuse", "--eps", "-1", "eps"),
        ("fuse", "--ngeo", "-1", "n_geo"),
        ("fuse", "--tau", "1.5", "tau"),
        ("fuse", "--tau", "-0.1", "tau"),
    ])
    def test_bad_numeric_argument_is_validation_error(
            self, command, flag, value, names, scene_dir, tmp_path, request, capsys):
        out = tmp_path / "o"
        scene = str(scene_dir / "scene_0000")
        if command == "fuse":
            # ground-truth depth maps and no confidence filter: with a valid
            # flag this fuse succeeds
            depths = tmp_path / "depths"
            depths.mkdir()
            for i, view in enumerate(load_scene(scene).views):
                save_pfm(depths / f"depth_{i:04d}.pfm", view.gt_depth)
            args = ["--scene", scene, "--depths", str(depths), "--out", str(out),
                    "--no-conf"]
        elif command == "infer":
            ckpt = request.getfixturevalue("trained") / "model.ckpt"
            args = ["--scene", scene, "--checkpoint", str(ckpt), "--out", str(out)]
        elif command == "train":
            args = ["--scenes", str(scene_dir), "--out", str(out), "--epochs", "1",
                    "--iters", "1"]
        elif command == "eval":
            cloud = tmp_path / "cloud.ply"
            write_ply(PointCloud(np.zeros((1, 3), np.float32),
                                 np.zeros((1, 3), np.uint8)), cloud)
            args = ["--cloud", str(cloud), "--scene", scene]
        elif command == "synth":
            args = ["--out", str(out)]
        else:
            args = []
        assert main([command, *args, flag, value]) == 1
        assert names in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["12", "4", "0", "-8"])
    def test_degenerate_scene_spec_is_validation_error(self, size, tmp_path,
                                                       capsys):
        code = main(["synth", "--out", str(tmp_path), "--size", size])
        assert code == 1

    @pytest.mark.parametrize("command,flag,missing", [
        ("infer", "--checkpoint", "nope.ckpt"),
        ("infer", "--config", "nope.cfg"),
        ("train", "--config", "nope.cfg"),
        ("train", "--scenes", "nope"),
        ("fuse", "--scene", "nope"),
        ("eval", "--cloud", "nope.ply"),
    ], ids=["infer-checkpoint", "infer-config", "train-config", "train-scenes",
            "fuse-scene", "eval-cloud"])
    def test_missing_input_path_is_validation_error(
            self, command, flag, missing, scene_dir, trained, tmp_path, capsys):
        scene = str(scene_dir / "scene_0000")
        args = {
            "infer": {"--scene": scene, "--checkpoint": str(trained / "model.ckpt"),
                      "--out": str(tmp_path / "o")},
            "train": {"--scenes": scene, "--out": str(tmp_path / "o"),
                      "--epochs": "1", "--iters": "1"},
            "fuse": {"--scene": scene, "--depths": str(tmp_path),
                     "--out": str(tmp_path / "o")},
            "eval": {"--cloud": str(tmp_path / "cloud.ply"), "--scene": scene},
        }[command]
        path = str(tmp_path / missing)
        args[flag] = path
        code = main([command, *(x for kv in args.items() for x in kv)])
        assert code == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["infer", "fuse", "train"])
    def test_output_directory_that_is_a_file_is_validation_error(
            self, command, scene_dir, trained, tmp_path, monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        scene = str(scene_dir / "scene_0000")
        for i, v in enumerate(load_scene(scene).views):
            save_pfm(tmp_path / f"depth_{i:04d}.pfm", v.gt_depth)
        extracts = count_extracts(monkeypatch)
        args = {
            "infer": ["--scene", scene, "--checkpoint", str(trained / "model.ckpt"),
                      "--out", str(taken)],
            "fuse": ["--scene", scene, "--depths", str(tmp_path), "--no-conf",
                     "--ngeo", "1", "--out", str(tmp_path / "cloud.ply"),
                     "--masks", str(taken)],
            "train": ["--scenes", scene, "--out", str(taken), "--epochs", "1",
                      "--iters", "1"],
        }[command]
        assert main([command, *args]) == 1
        assert f"file exists: {taken}" in capsys.readouterr().err
        if command == "infer":  # before the first forward pass
            assert extracts == []
        if command == "fuse":  # before the cloud is written
            assert not (tmp_path / "cloud.ply").exists()


class TestSynth:
    def test_writes_scene_directories(self, scene_dir):
        for i in range(2):
            root = scene_dir / f"scene_{i:04d}"
            assert (root / "pair.txt").exists()
            assert (root / "images" / "0000.ppm").exists()
            assert (root / "cams" / "0002_cam.txt").exists()
            assert (root / "depths_gt" / "0001.pfm").exists()
        scene = load_scene(scene_dir / "scene_0000")
        assert len(scene.views) == 3
        assert scene.views[0].image.shape == (3, 16, 16)

    def test_same_seed_reproduces_bitwise(self, scene_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--scenes", "1",
                     "--seed", "77", "--views", "3", "--size", "16",
                     "--quads", "1"]) == 0
        for rel in ("images/0001.ppm", "depths_gt/0001.pfm",
                    "cams/0001_cam.txt", "pair.txt"):
            a = (scene_dir / "scene_0000" / rel).read_bytes()
            b = (tmp_path / "scene_0000" / rel).read_bytes()
            assert a == b, rel


class TestTrainCommand:
    def test_writes_model_and_metrics(self, trained):
        assert (trained / "model.ckpt").exists()
        assert (trained / "model.cfg").exists()
        header = (trained / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("step,epoch,lr")


class TestInferCommand:
    def test_writes_full_resolution_maps(self, scene_dir, trained,
                                         tmp_path, capsys):
        out = tmp_path / "maps"
        code = main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(out)])
        assert code == 0
        for i in range(3):
            depth = load_pfm(out / f"depth_{i:04d}.pfm")
            conf = load_pfm(out / f"conf_{i:04d}.pfm")
            assert depth.shape == (16, 16)
            assert conf.shape == (16, 16)
            assert np.isfinite(depth).all()
            assert (conf > 0).all() and (conf < 1).all()

    def test_zero_iterations_still_produces_depth(self, scene_dir, trained,
                                                  tmp_path, capsys):
        out = tmp_path / "maps0"
        code = main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(out), "--iters", "0", "--ref", "1"])
        assert code == 0
        assert (out / "depth_0001.pfm").exists()
        assert not (out / "depth_0000.pfm").exists()

    def test_probability_csv(self, scene_dir, trained, tmp_path, capsys):
        out = tmp_path / "maps_csv"
        code = main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(out), "--ref", "0", "--prob-csv"])
        assert code == 0
        lines = (out / "prob_0000.csv").read_text().splitlines()
        assert lines[0] == "x,y,j,inverse_depth_j,probability"
        assert len(lines) == 1 + 4 * 4 * 256
        x, y, j, inv_j, p = lines[1].split(",")
        assert (x, y, j) == ("0", "0", "0")
        scene = load_scene(scene_dir / "scene_0000")
        assert float(inv_j) == pytest.approx(1.0 / scene.views[0].d_max,
                                             rel=1e-6)
        # probabilities of one pixel sum to one
        total = sum(float(ln.split(",")[4]) for ln in lines[1:257])
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_probability_csv_is_pinned(self, tmp_path, capsys):
        # re-recorded when the readout moved to logits: against the CSV of
        # the normalized-volume readout, every pixel kept its argmax and no
        # probability moved by more than 1.6e-8.  Re-recorded again when the
        # loop came to carry η end to end: every argmax and the inverse-depth
        # column the same, no probability moved by more than 2.4e-8.  Like
        # the synthetic scene digests it depends on the BLAS build
        # (scipy-openblas 0.3.31, x86_64)
        cfg = TrainConfig(iters=2)
        model = DepthEstimator(cfg, np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.ckpt", model.parameters())
        save_train_config(cfg, tmp_path / "model.cfg")
        save_scene(synth_scene(SynthSpec(seed=8, views=3, size=32)), tmp_path / "scene")
        code = main(["infer", "--scene", str(tmp_path / "scene"),
                     "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--out", str(tmp_path / "maps"), "--ref", "1", "--prob-csv"])
        assert code == 0
        # the depth and confidence maps of the same call are pinned with it
        digests = {name: hashlib.sha256((tmp_path / "maps" / name).read_bytes()).hexdigest()
                   for name in ("prob_0001.csv", "depth_0001.pfm", "conf_0001.pfm")}
        assert digests == {
            "prob_0001.csv": "a818c1c275cd25c9e0ad657596f5f664268891f63b1209045d28fcdf9384a541",
            "depth_0001.pfm": "eccd218f25a3a9ef4ba798dba65b85a11c809b838bc5b006af88d7d9c6936326",
            "conf_0001.pfm": "dbeb94d5a1e5be613bb9934219fc5765bcdfd89b2024c81c2921ffe8f346d64f",
        }

    def test_probability_csv_bytes_match_row_loop(self, tmp_path):
        # the rows csv.writer wrote one (pixel, j) at a time
        rng = np.random.default_rng(5)
        prob = (rng.random((5, 3, 4)) ** 3).astype(np.float32)
        prob[0, 0, :4] = [0.0, 1e-30, 1.0, 0.1]
        prob[1, 2, 3] = -0.0
        inv_grid = np.linspace(0.1, 1.0, 5) / 3.0
        want = io.StringIO(newline="")
        rows = csv.writer(want)
        rows.writerow(["x", "y", "j", "inverse_depth_j", "probability"])
        for y in range(3):
            for x in range(4):
                for j in range(5):
                    rows.writerow([x, y, j, f"{inv_grid[j]:.8g}",
                                   f"{prob[j, y, x]:.8g}"])
        path = tmp_path / "prob.csv"
        _write_prob_csv(path, prob, inv_grid)
        assert path.read_bytes() == want.getvalue().encode()

    def test_checkpoint_without_config_is_validation_error(self, scene_dir, trained,
                                                           tmp_path, capsys):
        # a checkpoint copied alone: no --config and no model.cfg beside it
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((trained / "model.ckpt").read_bytes())
        out = tmp_path / "maps"
        code = main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 1
        assert str(tmp_path / "model.cfg") in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_checkpoint_is_validation_error(self, scene_dir, trained,
                                                       tmp_path, capsys):
        params = load_checkpoint(trained / "model.ckpt")
        params["fpn.enc1a.weight"][0, 0, 1, 1] = np.nan
        save_checkpoint(tmp_path / "model.ckpt", params)
        shutil.copy(trained / "model.cfg", tmp_path / "model.cfg")
        out = tmp_path / "maps"
        code = main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(out)])
        assert code == 1
        assert "non-finite value in fpn.enc1a.weight" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_forward_pass_is_runtime_error(self, scene_dir, trained,
                                                       tmp_path, capsys):
        # every weight finite, so the loader accepts it, but the probability
        # head overflows float32 in view 0's forward pass
        params = load_checkpoint(trained / "model.ckpt")
        params["prob_head.weight"] *= np.float32(1e38)
        save_checkpoint(tmp_path / "model.ckpt", params)
        shutil.copy(trained / "model.cfg", tmp_path / "model.cfg")
        out = tmp_path / "maps"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would exit 2 as well
            code = main(["infer", "--scene", str(scene_dir / "scene_0000"),
                         "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "view 0000: overflow encountered" in err
        assert "Warning" not in err
        # --out is made before the first forward pass, and holds no map
        assert list(out.iterdir()) == []

    def infer_refs(self, scene_dir, trained, out, refs) -> int:
        return main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(out)]
                    + [arg for ref in refs for arg in ("--ref", ref)])

    def test_out_of_range_ref_is_validation_error(self, scene_dir, trained,
                                                  tmp_path, capsys):
        out = tmp_path / "x"
        assert self.infer_refs(scene_dir, trained, out, ["0", "9"]) == 1
        assert "reference index 9" in capsys.readouterr().err
        # every reference is checked before the first map is written
        assert not out.exists()

    @pytest.mark.parametrize("refs", [["9"], ["1", "-1"]])
    def test_any_bad_ref_fails_before_writing(self, scene_dir, trained,
                                              tmp_path, capsys, refs):
        out = tmp_path / "x"
        assert self.infer_refs(scene_dir, trained, out, refs) == 1
        assert "reference index" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_without_sources_fails_before_writing(
            self, scene_dir, trained, tmp_path, capsys):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir / "scene_0000", scene)
        pairs = (scene / "pair.txt").read_text().splitlines()
        pairs[2] = "1 0"              # view 1 lists no source view
        (scene / "pair.txt").write_text("\n".join(pairs) + "\n")
        out = tmp_path / "x"
        code = main(["infer", "--scene", str(scene), "--checkpoint",
                     str(trained / "model.ckpt"), "--out", str(out)])
        assert code == 1
        assert "view 1: need a reference" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["0 2 0 1", "0 2 1 1"], ids=["self-source", "repeated"])
    def test_pair_line_that_matches_a_view_twice_is_a_format_error(
            self, scene_dir, trained, tmp_path, capsys, line):
        # the reference among its own sources would be a zero-baseline match
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir / "scene_0000", scene)
        pairs = (scene / "pair.txt").read_text().splitlines()
        pairs[1] = line
        (scene / "pair.txt").write_text("\n".join(pairs) + "\n")
        out = tmp_path / "x"
        code = main(["infer", "--scene", str(scene), "--checkpoint",
                     str(trained / "model.ckpt"), "--out", str(out), "--ref", "0"])
        assert code == 1
        assert "bad pair line for view 0" in capsys.readouterr().err
        assert not out.exists()


class TestMixedImageSizes:
    """A scene whose views differ in size is bad input: exit 1, with the
    view and both sizes named, from infer and from train."""

    @pytest.fixture
    def scenes_dir(self, tmp_path):
        small = synth_scene(SynthSpec(seed=12, views=3, size=32, quads=1))
        large = synth_scene(SynthSpec(seed=12, views=3, size=40, quads=1))
        views = list(small.views)
        views[1] = large.views[1]
        save_scene(Scene(views, small.pairs), tmp_path / "scenes" / "mixed")
        return tmp_path / "scenes"

    def test_infer_exits_one(self, scenes_dir, trained, tmp_path, capsys):
        code = main(["infer", "--scene", str(scenes_dir / "mixed"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(tmp_path / "maps"), "--ref", "0", "--views", "3"])
        assert code == 1
        assert "views[1] is 40x40 px but the reference views[0] is 32x32 px" in capsys.readouterr().err

    def test_train_exits_one(self, scenes_dir, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        save_train_config(TrainConfig(iters=1, views=3, epochs=1, seed=3), cfg_path)
        code = main(["train", "--scenes", str(scenes_dir), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "40x40 px" in err and "32x32 px" in err


def count_extracts(monkeypatch) -> list:
    """Each FeatureExtractor.extract call's (image, weakref to its pyramid)."""
    calls = []
    inner = FeatureExtractor.extract

    def extract(self, image):
        pyramid = inner(self, image)
        calls.append((image, weakref.ref(pyramid)))
        return pyramid

    monkeypatch.setattr(FeatureExtractor, "extract", extract)
    return calls


class TestInferExtractsEachViewOnce:
    """Each view's features are extracted once per infer, and released after
    the last reference that reads them."""

    VIEWS = 3   # views per run, with the reference

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("five")
        assert main(["synth", "--out", str(root), "--views", "5",
                     "--size", "16", "--quads", "1", "--seed", "12"]) == 0
        return root / "scene_0000"

    def infer(self, scene, trained, out, *extra):
        return main(["infer", "--scene", str(scene),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(out), "--views", str(self.VIEWS), *extra])

    def test_all_references_extract_each_view_once(self, scene, trained,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        calls = count_extracts(monkeypatch)
        assert self.infer(scene, trained, tmp_path / "maps") == 0
        views = load_scene(scene).views
        assert [sum(np.array_equal(image, v.image) for image, _ in calls)
                for v in views] == [1] * 5

    def test_one_reference_extracts_only_its_views(self, scene, trained,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        calls = count_extracts(monkeypatch)
        assert self.infer(scene, trained, tmp_path / "maps", "--ref", "0") == 0
        assert len(calls) == self.VIEWS

    def test_maps_match_one_run_per_reference(self, scene, trained, tmp_path,
                                              capsys):
        out = tmp_path / "maps"
        assert self.infer(scene, trained, out) == 0
        sc = load_scene(scene)
        cfg = load_train_config(trained / "model.cfg")
        model = DepthEstimator(cfg, np.random.default_rng(0))
        model.load_state(load_checkpoint(trained / "model.ckpt"))
        for ref in range(len(sc.views)):
            ordered = [sc.views[ref]] + [sc.views[j] for j in
                                         sc.sources(ref, self.VIEWS - 1)]
            with no_grad():
                run = model.run(ordered, iters=cfg.iters)
            for name, t in (("depth", run.d_up), ("conf", run.conf_up)):
                want = tmp_path / f"want_{name}.pfm"
                save_pfm(want, t.data.astype(np.float32))
                got = out / f"{name}_{ref:04d}.pfm"
                assert got.read_bytes() == want.read_bytes(), (name, ref)

    def test_pyramids_are_released_after_their_last_reader(
            self, scene, trained, tmp_path, monkeypatch, capsys):
        calls = count_extracts(monkeypatch)
        sc = load_scene(scene)
        reads = [[ref] + sc.sources(ref, self.VIEWS - 1)
                 for ref in range(len(sc.views))]
        inner = DepthEstimator.run
        alive_at_run = []

        def view_index(image):
            return next(j for j, v in enumerate(sc.views)
                        if np.array_equal(v.image, image))

        def run(self, views, *args, **kwargs):
            alive_at_run.append({view_index(image) for image, ref in calls
                                 if ref() is not None})
            return inner(self, views, *args, **kwargs)

        monkeypatch.setattr(DepthEstimator, "run", run)
        assert self.infer(scene, trained, tmp_path / "maps") == 0
        assert len(alive_at_run) == len(reads)
        for pos, alive in enumerate(alive_at_run):
            # held: what this run reads, and what a later run extracted
            # earlier and still needs; nothing whose last reader has run
            still_read = set().union(*reads[pos:])
            assert set(reads[pos]) <= alive <= still_read, pos
        assert all(ref() is None for _, ref in calls)

    def test_each_result_is_released_before_the_next_run(
            self, scene, trained, tmp_path, monkeypatch, capsys):
        # a result holds every readout's hidden state and the full-size
        # maps; the loop variable would keep it alive through the next run
        inner = DepthEstimator.run
        results, alive_at_run = [], []

        def run(self, views, *args, **kwargs):
            alive_at_run.append([k for k, res in enumerate(results) if res() is not None])
            res = inner(self, views, *args, **kwargs)
            results.append(weakref.ref(res))
            return res

        monkeypatch.setattr(DepthEstimator, "run", run)
        assert self.infer(scene, trained, tmp_path / "maps", "--prob-csv") == 0
        assert alive_at_run == [[]] * 5


class TestFuseAndEval:
    def test_pipeline_to_ply_and_score(self, scene_dir, trained, tmp_path,
                                       capsys):
        maps = tmp_path / "maps"
        assert main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(maps)]) == 0
        # an untrained-quality model yields junk depth, so fuse the ground
        # truth maps instead: copy them over the predictions
        scene = load_scene(scene_dir / "scene_0000")
        from mvsgru.scenes import save_pfm
        for i, v in enumerate(scene.views):
            save_pfm(maps / f"depth_{i:04d}.pfm", v.gt_depth)
        cloud = tmp_path / "cloud.ply"
        code = main(["fuse", "--scene", str(scene_dir / "scene_0000"),
                     "--depths", str(maps), "--out", str(cloud),
                     "--ngeo", "1", "--no-conf",
                     "--masks", str(tmp_path / "masks")])
        assert code == 0
        pc = read_ply(cloud)
        assert len(pc) > 100
        assert (tmp_path / "masks" / "mask_0000.pgm").exists()
        code = main(["eval", "--cloud", str(cloud),
                     "--scene", str(scene_dir / "scene_0000"),
                     "--threshold", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        acc = float(out.strip().splitlines()[-3].split()[-1])
        comp = float(out.strip().splitlines()[-2].split()[-1])
        # fused GT points are a subset of the GT cloud, so accuracy is
        # exact; completeness only pays for filtered pixels, bounded by
        # the ~0.12 unit point spacing of a 16x16 image
        assert acc < 1e-6
        assert comp < 0.15

    def test_missing_depth_map_is_validation_error(self, scene_dir, tmp_path,
                                                  capsys):
        cloud = tmp_path / "cloud.ply"
        code = main(["fuse", "--scene", str(scene_dir / "scene_0000"),
                     "--depths", str(tmp_path), "--out", str(cloud)])
        assert code == 1
        assert "depth_0000.pfm" in capsys.readouterr().err
        assert not cloud.exists()

    def test_mis_sized_depth_map_is_validation_error(self, scene_dir, tmp_path,
                                                     capsys):
        # 8x8 depth maps for a 16 px scene
        for i in range(3):
            save_pfm(tmp_path / f"depth_{i:04d}.pfm", np.full((8, 8), 3.0, np.float32))
        cloud = tmp_path / "cloud.ply"
        code = main(["fuse", "--scene", str(scene_dir / "scene_0000"),
                     "--depths", str(tmp_path), "--out", str(cloud), "--no-conf"])
        assert code == 1
        assert "view 0: depth map is (8, 8)" in capsys.readouterr().err
        assert not cloud.exists()

    def test_missing_confidence_map_is_validation_error(self, scene_dir, tmp_path,
                                                        capsys):
        # every depth map, but no confidence map for view 1
        scene = load_scene(scene_dir / "scene_0000")
        for i, view in enumerate(scene.views):
            save_pfm(tmp_path / f"depth_{i:04d}.pfm", view.gt_depth)
            if i != 1:
                save_pfm(tmp_path / f"conf_{i:04d}.pfm", np.ones_like(view.gt_depth))
        cloud = tmp_path / "cloud.ply"
        args = ["fuse", "--scene", str(scene_dir / "scene_0000"),
                "--depths", str(tmp_path), "--out", str(cloud), "--ngeo", "1"]
        assert main(args) == 1
        assert "conf_0001.pfm" in capsys.readouterr().err
        assert not cloud.exists()
        # without the confidence filter no confidence map is read
        assert main(args + ["--no-conf"]) == 0
        assert len(read_ply(cloud)) > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cloud_eval_is_validation_error(self, scene_dir, tmp_path, capsys,
                                                       value):
        xyz = np.ones((3, 3), np.float32)
        xyz[1, 2] = value
        cloud = tmp_path / "cloud.ply"
        write_ply(PointCloud(xyz, np.zeros((3, 3), np.uint8)), cloud)
        code = main(["eval", "--cloud", str(cloud), "--scene", str(scene_dir / "scene_0000")])
        assert code == 1
        assert "vertex 1 has a non-finite coordinate" in capsys.readouterr().err

    def test_empty_cloud_eval_is_runtime_error(self, scene_dir, trained,
                                               tmp_path, capsys):
        maps = tmp_path / "maps"
        assert main(["infer", "--scene", str(scene_dir / "scene_0000"),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--out", str(maps)]) == 0
        cloud = tmp_path / "cloud.ply"
        # 3 votes cannot be reached from 2 source views, every pixel is dropped
        assert main(["fuse", "--scene", str(scene_dir / "scene_0000"),
                     "--depths", str(maps), "--out", str(cloud),
                     "--ngeo", "3"]) == 0
        assert len(read_ply(cloud)) == 0
        code = main(["eval", "--cloud", str(cloud),
                     "--scene", str(scene_dir / "scene_0000")])
        assert code == 1


class TestGradcheckCommand:
    def test_reports_and_passes(self, capsys):
        assert main(["gradcheck", "--instances", "1", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "FAIL" not in out
        for name in ("group_norm", "conv2d.leaky", "conv2d.leaky.narrow",
                     "conv2d.leaky.s2.wide"):
            assert f"{name} " in out
        assert "leaky_relu" not in out

    def test_runs_as_python_module(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "mvsgru", "gradcheck",
                               "--instances", "1"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "FAIL" not in done.stdout
