"""The synthetic renderer's output, pinned byte for byte.

Every training run, fixture and benchmark input in this repository comes
from ``synth_scene``, so a change to how it renders must not move a single
value.  The digests in ``data/synth_digests.json`` were recorded from the
single-pass renderer that the two-pass one replaced; re-record them only
for a change that means to alter the scenes.  They also depend on numpy's
SIMD dispatch for ``sin`` and on the BLAS build (recorded with numpy 2.4
and scipy-openblas 0.3.31 on an AVX-512 x86_64 host): on a new platform,
check whether the recording commit fails the same way before blaming the
renderer.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from mvsgru.errors import SceneGenerationError
from mvsgru.scenes import SynthSpec, synth_scene

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "synth_digests.json")
FIELDS = ("image", "gt_depth", "k", "r", "t", "d_min", "d_max")


def _grid() -> list[SynthSpec]:
    """Every size sees views 2-5 and quads 0-3."""
    return [SynthSpec(seed=10 * si + j, views=2 + j, size=size, quads=(j + si) % 4)
            for si, size in enumerate((8, 16, 64, 256)) for j in range(4)]


def _key(spec: SynthSpec) -> str:
    return f"seed={spec.seed} views={spec.views} size={spec.size} quads={spec.quads}"


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def scene_digests(spec: SynthSpec) -> dict[str, str]:
    """One SHA-256 per field over all views, plus one of the pair lists;
    a spec that raises records its message instead."""
    try:
        scene = synth_scene(spec)
    except SceneGenerationError as e:
        return {"error": str(e)}
    out = {name: _sha(*(np.asarray(getattr(v, name)) for v in scene.views))
           for name in FIELDS}
    out["pairs"] = hashlib.sha256(json.dumps(scene.pairs).encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict[str, str]]:
    """``{_key(spec): scene_digests(spec)}`` for every spec of the grid."""
    with open(DIGESTS) as f:
        return json.load(f)


def test_grid_matches_the_recording(recorded):
    assert sorted(recorded) == sorted(_key(s) for s in _grid())


@pytest.mark.parametrize("spec", _grid(), ids=_key)
def test_scene_is_bit_identical_to_the_recording(spec, recorded):
    assert scene_digests(spec) == recorded[_key(spec)]
