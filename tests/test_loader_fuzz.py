"""Mutated bytes given to any loader raise FileFormatError or nothing.

Each loader reads a small valid file with a few random byte edits
(replace, insert, delete).  The files are small, so most edits land in a
header, where the parsing happens.  ``load_scene`` gets a valid scene whose
``pair.txt`` is mutated.  A FileFormatError's offset must be a byte of the
file it names, or that file's length.  The training config is text the user
edits, not a file format, so ``load_train_config`` raises ConfigError instead.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru.errors import ConfigError, FileFormatError
from mvsgru.fusion import PointCloud, read_ply, write_ply
from mvsgru.geometry import load_cam_text, save_cam_text
from mvsgru.nn import load_checkpoint, save_checkpoint
from mvsgru.scenes import (SynthSpec, load_pfm, load_ppm, load_scene, save_pfm,
                           save_ppm, save_scene, synth_scene)
from mvsgru.training import TrainConfig, load_train_config, save_train_config

EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                           st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=6)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, pos, byte in edits:
        if kind == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and kind == "replace":
            buf[pos % len(buf)] = byte
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> (loader, path to overwrite, valid bytes)."""
    root = tmp_path_factory.mktemp("fuzz")
    scene = synth_scene(SynthSpec(seed=9, views=3, size=16, quads=1))
    save_scene(scene, root / "scene")
    rng = np.random.default_rng(0)
    save_pfm(root / "d.pfm", rng.random((4, 3)).astype(np.float32))
    save_ppm(root / "i.ppm", rng.random((3, 4, 3)))
    save_cam_text(root / "c.txt", scene.views[0])
    write_ply(PointCloud(rng.random((3, 3)).astype(np.float32),
                         rng.integers(0, 256, (3, 3)).astype(np.uint8)), root / "p.ply")
    save_checkpoint(root / "m.ckpt", {"conv.weight": rng.random((2, 1, 1, 1)),
                                      "gain": np.float32(8.0)})
    save_train_config(TrainConfig(), root / "model.cfg")
    out = {name: (loader, root / fname) for name, loader, fname in [
        ("pfm", load_pfm, "d.pfm"), ("ppm", load_ppm, "i.ppm"),
        ("cam", load_cam_text, "c.txt"), ("ply", read_ply, "p.ply"),
        ("ckpt", load_checkpoint, "m.ckpt"), ("cfg", load_train_config, "model.cfg")]}
    out["pair"] = (lambda _: load_scene(root / "scene"), root / "scene" / "pair.txt")
    return {name: (loader, path, path.read_bytes()) for name, (loader, path) in out.items()}


@pytest.mark.parametrize("name", ["pfm", "ppm", "cam", "ply", "ckpt", "pair", "cfg"])
def test_mutated_bytes_raise_only_file_format_error(files, name):
    loader, path, valid = files[name]
    loader(path)  # the unmutated file is valid
    expected = ConfigError if name == "cfg" else FileFormatError

    @FUZZ
    @given(edits=EDITS)
    def check(edits):
        path.write_bytes(mutate(valid, edits))
        try:
            loader(path)
        except expected as e:
            if isinstance(e, FileFormatError):
                # a missing file (a camera pair.txt names) counts as empty
                size = os.path.getsize(e.path) if os.path.exists(e.path) else 0
                assert 0 <= e.offset <= size, str(e)

    try:
        check()
    finally:
        path.write_bytes(valid)


@pytest.mark.parametrize("name, old, new", [
    ("pair", b"3\n", b"3\n\xff\xfe\n"),
    ("ply", b"element vertex 3", b"element vertex x"),
    ("ckpt", b"gain", b"g\xffin"),
    ("ckpt", b"gain\x00\x00\x00\x00A", b"gain\x03" + bytes(4) + b"\xff" * 8)],
    ids=["pair-not-utf8", "ply-vertex-word", "ckpt-name-not-utf8", "ckpt-zero-by-huge"])
def test_edits_that_once_escaped(files, name, old, new):
    loader, path, valid = files[name]
    assert valid.count(old) == 1
    path.write_bytes(valid.replace(old, new))
    try:
        with pytest.raises(FileFormatError):
            loader(path)
    finally:
        path.write_bytes(valid)
