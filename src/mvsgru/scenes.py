"""Scene generation, on-disk scene layout and point-cloud metrics.

Synthetic scenes are rendered analytically: textured slanted quads floating
in front of a large background plane, viewed by cameras on an arc.  Ground
truth depth comes from exact ray-plane intersection, so every rendered
scene doubles as a verification fixture.

Scene directory layout:
    images/0000.ppm ...      (binary P6)
    cams/0000_cam.txt ...
    depths_gt/0000.pfm ...   (little-endian, NaN marks invalid)
    pair.txt                 (per line: ref_index count src_1 src_2 ..., the
                              sources distinct and other than the reference)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, ContractError, FileFormatError, SceneGenerationError
from .fusion import PointCloud, backproject
from .geometry import CameraView, load_cam_text, save_cam_text

# ---------------------------------------------------------------------------
# image / depth file formats


def _header_ints(path, offset: int, fields, count: int, what: str,
                 lo: int = 1) -> list[int]:
    """Parse ``count`` integer header fields, each >= lo, or raise FileFormatError."""
    try:
        vals = [int(v) for v in fields]
    except ValueError:
        vals = []
    if len(vals) != count or min(vals) < lo:
        raise FileFormatError(path, offset, f"bad {what}")
    return vals


def save_pfm(path, depth: np.ndarray) -> None:
    """Single-channel little-endian PFM; rows stored bottom-up."""
    h, w = depth.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.ascontiguousarray(depth[::-1]).astype("<f4").tobytes())


def load_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"Pf\n"):
        raise FileFormatError(path, 0, "not a single-channel PFM")
    try:
        dims_end = raw.index(b"\n", 3)
        scale_end = raw.index(b"\n", dims_end + 1)
    except ValueError:
        raise FileFormatError(path, len(raw), "truncated PFM header") from None
    w, h = _header_ints(path, 3, raw[3:dims_end].split(), 2, "PFM dimension line")
    try:
        scale = float(raw[dims_end + 1:scale_end])
    except ValueError:
        raise FileFormatError(path, dims_end + 1, "bad PFM scale line") from None
    if not np.isfinite(scale):
        raise FileFormatError(path, dims_end + 1, f"bad PFM scale {scale}")
    if scale >= 0:
        raise FileFormatError(path, dims_end + 1,
                              "big-endian PFM not supported")
    start = scale_end + 1
    need = w * h * 4
    if len(raw) - start != need:
        raise FileFormatError(path, start,
                              f"expected {need} payload bytes, "
                              f"have {len(raw) - start}")
    data = np.frombuffer(raw, dtype="<f4", count=w * h, offset=start)
    return data.reshape(h, w)[::-1].copy()


def save_ppm(path, image: np.ndarray) -> None:
    """image: [3,H,W] floats in [0,1], quantized to 8 bits."""
    h, w = image.shape[1], image.shape[2]
    pix = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pix.transpose(1, 2, 0).tobytes())


def load_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P6"):
        raise FileFormatError(path, 0, "not a binary PPM")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            pos = raw.find(b"\n", pos) + 1
            if pos == 0:
                raise FileFormatError(path, len(raw), "truncated PPM header")
            continue
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        if end == pos:
            raise FileFormatError(path, pos, "truncated PPM header")
        fields.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    w, h, maxval = _header_ints(path, 2, fields, 3, "PPM header")
    if maxval != 255:
        raise FileFormatError(path, 2, f"unsupported maxval {maxval}")
    need = w * h * 3
    if len(raw) - pos < need:
        raise FileFormatError(path, pos, "truncated PPM payload")
    pix = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    return pix.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float32) / 255.0


# ---------------------------------------------------------------------------
# scene container


@dataclass
class Scene:
    views: list[CameraView]
    pairs: list[list[int]] = field(default_factory=list)

    def sources(self, ref: int, count: int) -> list[int]:
        if count < 0:
            raise ConfigError(f"source count must be >= 0, got {count}")
        return self.pairs[ref][:count]


def save_scene(scene: Scene, root) -> None:
    root = str(root)
    for sub in ("images", "cams", "depths_gt"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    for i, v in enumerate(scene.views):
        save_ppm(os.path.join(root, "images", f"{i:04d}.ppm"), v.image)
        save_cam_text(os.path.join(root, "cams", f"{i:04d}_cam.txt"), v)
        if v.gt_depth is not None:
            save_pfm(os.path.join(root, "depths_gt", f"{i:04d}.pfm"),
                     v.gt_depth)
    with open(os.path.join(root, "pair.txt"), "w") as f:
        f.write(f"{len(scene.views)}\n")
        for i, srcs in enumerate(scene.pairs):
            f.write(f"{i} {len(srcs)} " + " ".join(map(str, srcs)) + "\n")


def load_scene(root) -> Scene:
    root = str(root)
    pair_path = os.path.join(root, "pair.txt")
    with open(pair_path, "rb") as f:  # bytes: _header_ints parses them, no decoding
        lines = [ln.split() for ln in f if ln.strip()]
    (count,) = _header_ints(pair_path, 0, lines[0] if lines else [], 1, "pair.txt header")
    # a dict until the views load: a corrupt count fails at the first
    # missing camera instead of allocating a list that long
    pairs: dict[int, list[int]] = {}
    for ln in lines[1:]:
        if len(ln) < 2:
            raise FileFormatError(pair_path, 0, "short pair line")
        ref, n, *srcs = _header_ints(pair_path, 0, ln, len(ln), "pair line", lo=0)
        # a source equal to the reference would be a zero-baseline match
        if (not 0 <= ref < count or len(srcs) != n
                or not all(0 <= s < count for s in srcs)
                or len(set(srcs + [ref])) != n + 1):
            raise FileFormatError(pair_path, 0,
                                  f"bad pair line for view {ref}")
        pairs[ref] = srcs
    views = []
    for i in range(count):
        cam_path = os.path.join(root, "cams", f"{i:04d}_cam.txt")
        if not os.path.exists(cam_path):
            raise FileFormatError(cam_path, 0, f"missing camera for view {i}")
        k, r, t, d_min, d_max = load_cam_text(cam_path)
        image_path = os.path.join(root, "images", f"{i:04d}.ppm")
        image = load_ppm(image_path)
        depth_path = os.path.join(root, "depths_gt", f"{i:04d}.pfm")
        gt = load_pfm(depth_path) if os.path.exists(depth_path) else None
        try:
            views.append(CameraView(k, r, t, d_min, d_max, image, gt))
        except ConfigError as e:
            # blame the file the rejected value came from; load_ppm always
            # returns [3, H, W], so that is the ground truth or the camera
            bad = depth_path if gt is not None and gt.shape != image.shape[1:] else cam_path
            raise FileFormatError(bad, 0, f"view {i}: {e}") from None
    return Scene(views, [pairs.get(i, []) for i in range(count)])


# ---------------------------------------------------------------------------
# synthetic rendering


@dataclass
class SynthSpec:
    seed: int
    views: int = 5
    size: int = 64
    quads: int = 3
    background: bool = True


ARC = 0.64                # total angular camera spread, radians
CAM_RADIUS = 3.8          # camera distance from the scene center
Y_JITTER = 0.2
# focal length and the texture band are paired so that the coarsest
# octaves stay resolvable after 8x downsampling while the finest give
# the sub-pixel gradients the refinement steps need
FOCAL_PER_PX = 1.9        # focal length = FOCAL_PER_PX * size
FREQ_BAND = (2.0, 24.0)
IMAGE_NOISE = 0.01
DEPTH_MARGIN = 0.05       # depth-range margin around the true extent
N_WAVES = 24


@dataclass
class _Surface:
    p0: np.ndarray
    n: np.ndarray
    e1: np.ndarray              # in-plane axes; quads test |coord| <= 1
    e2: np.ndarray
    bounded: bool
    base: np.ndarray            # [3] per-channel base color
    amps: np.ndarray            # [3,M] channel x wave amplitudes
    waves: np.ndarray           # [M,3] per wave: (wx, wy, phase)

    def colors(self, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
        raw = np.sin(self.waves[:, 0, None] * uu[None]
                     + self.waves[:, 1, None] * vv[None]
                     + self.waves[:, 2, None])          # [M, P]
        return self.base[:, None] + self.amps @ raw      # [3, P]


def _make_surface(rng: np.random.Generator, p0, n, e1, e2, bounded) -> _Surface:
    """Paint the plane with a broadband sum of random directional waves.

    A single low-frequency wave matches many depths almost equally along an
    epipolar line, so the texture mixes N_WAVES waves with frequencies drawn
    log-uniformly across FREQ_BAND and amplitudes falling off as 1/sqrt(f);
    the result is locally unique at every scale the matcher looks at.
    """
    base = rng.uniform(0.35, 0.65, 3)
    omega = np.exp(rng.uniform(np.log(FREQ_BAND[0]), np.log(FREQ_BAND[1]), N_WAVES))
    theta = rng.uniform(0.0, 2 * np.pi, N_WAVES)
    phase = rng.uniform(0.0, 2 * np.pi, N_WAVES)
    waves = np.stack([omega * np.cos(theta), omega * np.sin(theta), phase],
                     axis=1)
    amps = rng.uniform(-1.0, 1.0, (3, N_WAVES)) / np.sqrt(omega / FREQ_BAND[0])
    # bound the 2.5-sigma excursion rather than the worst case; rare
    # overshoots saturate in the final clip and read as glossy highlights
    room = np.minimum(base - 0.05, 0.95 - base)
    sigma = np.sqrt((amps ** 2).sum(axis=1) / 2.0)
    amps *= (room / np.maximum(2.5 * sigma, 1e-9))[:, None]
    return _Surface(p0, n, e1, e2, bounded, base, amps, waves)


def _plane_axes(rng: np.random.Generator, n: np.ndarray):
    probe = np.array([1.0, 0.0, 0.0])
    if abs(n @ probe) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, probe)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def _look_at(center: np.ndarray, target: np.ndarray):
    fwd = target - center
    fwd = fwd / np.linalg.norm(fwd)
    down = np.array([0.0, 1.0, 0.0])
    right = np.cross(down, fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd])


def synth_scene(spec: SynthSpec) -> Scene:
    if spec.size < 8 or spec.size % 8:
        raise SceneGenerationError(f"size {spec.size} not a positive multiple of 8")
    if spec.views < 2:
        raise SceneGenerationError("need at least 2 views")
    rng = np.random.default_rng(spec.seed)
    surfaces: list[_Surface] = []
    if spec.background:
        n = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15),
                      -1.0])
        n /= np.linalg.norm(n)
        p0 = np.array([0.0, 0.0, rng.uniform(1.0, 1.5)])
        e1, e2 = _plane_axes(rng, n)
        surfaces.append(_make_surface(rng, p0, n, e1, e2, False))
    for _ in range(spec.quads):
        alpha = rng.uniform(0.0, 0.5)
        beta = rng.uniform(0.0, 2 * np.pi)
        n = np.array([np.sin(alpha) * np.cos(beta),
                      np.sin(alpha) * np.sin(beta), -np.cos(alpha)])
        p0 = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                       rng.uniform(-1.0, 0.3)])
        e1, e2 = _plane_axes(rng, n)
        e1 = e1 * rng.uniform(0.5, 0.9)
        e2 = e2 * rng.uniform(0.5, 0.9)
        surfaces.append(_make_surface(rng, p0, n, e1, e2, True))

    size = spec.size
    f = FOCAL_PER_PX * size
    cc = (size - 1) / 2.0
    k = np.array([[f, 0.0, cc], [0.0, f, cc], [0.0, 0.0, 1.0]])
    k_inv = np.linalg.inv(k)
    ys, xs = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    rays_cam = np.stack([xs.ravel(), ys.ravel(), np.ones(size * size)])
    rays_cam = k_inv @ rays_cam                          # z component == 1

    angles = (np.linspace(-0.5, 0.5, spec.views) * ARC
              if spec.views > 1 else np.zeros(1))
    views: list[CameraView] = []
    centers = []
    for i in range(spec.views):
        center = CAM_RADIUS * np.array([np.sin(angles[i]),
                                         0.0, -np.cos(angles[i])])
        center[1] += rng.uniform(-Y_JITTER, Y_JITTER)
        target = rng.uniform(-0.1, 0.1, 3)
        r = _look_at(center, target)
        t = -r @ center
        dirs_w = r.T @ rays_cam                          # [3, P]
        depth = np.full(size * size, np.inf)
        color = np.zeros((3, size * size))
        for surf in surfaces:
            denom = surf.n @ dirs_w
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (surf.n @ (surf.p0 - center)) / denom
            s = np.where(np.abs(denom) < 1e-9, np.inf, s)
            s = np.where(s > 0.05, s, np.inf)
            hits = center[:, None] + s * dirs_w
            rel = hits - surf.p0[:, None]
            uu = rel.T @ surf.e1 / (surf.e1 @ surf.e1)
            vv = rel.T @ surf.e2 / (surf.e2 @ surf.e2)
            if surf.bounded:
                inside = (np.abs(uu) <= 1.0) & (np.abs(vv) <= 1.0)
                s = np.where(inside, s, np.inf)
            closer = s < depth
            if closer.any():
                depth = np.where(closer, s, depth)
                color[:, closer] = surf.colors(uu[closer], vv[closer])
        if not np.isfinite(depth).all():
            raise SceneGenerationError(
                f"view {i} of seed {spec.seed} sees empty space")
        img = color + rng.normal(0.0, IMAGE_NOISE, color.shape)
        img = np.clip(img, 0.0, 1.0).astype(np.float32)
        gt = depth.reshape(size, size).astype(np.float32)
        d_lo = float(gt.min()) * (1.0 - DEPTH_MARGIN)
        d_hi = float(gt.max()) * (1.0 + DEPTH_MARGIN)
        views.append(CameraView(k, r, t, d_lo, d_hi,
                                img.reshape(3, size, size), gt))
        centers.append(center)

    pairs = []
    for i in range(spec.views):
        dist = [np.linalg.norm(centers[i] - centers[j])
                for j in range(spec.views)]
        order = [j for j in np.argsort(dist, kind="stable") if j != i]
        pairs.append([int(j) for j in order])
    return Scene(views, pairs)


# ---------------------------------------------------------------------------
# metrics


def build_gt_cloud(scene: Scene, stride: int = 1) -> PointCloud:
    """Back-project every valid GT pixel into a world-space point cloud."""
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    parts = []
    for v in scene.views:
        if v.gt_depth is None:
            continue
        mask = np.zeros(v.gt_depth.shape, dtype=bool)
        mask[::stride, ::stride] = True
        parts.append(backproject(v, v.gt_depth, mask))
    if not parts:
        raise ContractError("scene has no ground-truth depth")
    return PointCloud(np.concatenate([xyz for xyz, _ in parts]),
                      np.concatenate([rgb for _, rgb in parts]))


def _tree(xyz: np.ndarray) -> cKDTree:
    return cKDTree(xyz, balanced_tree=False, compact_nodes=False)


def evaluate(pc: PointCloud, gt_pc: PointCloud,
             threshold: float) -> tuple[float, float, float]:
    """Accuracy / completeness / overall between two point clouds.

    Accuracy averages reconstruction-to-GT nearest distances, excluding
    outliers beyond 10x the threshold (a distance of exactly 10x is kept);
    completeness averages GT-to-reconstruction distances with no cap.

    The nearest-neighbour search is exact (``eps=0``).  The trees are built
    with ``balanced_tree=False, compact_nodes=False``: the build flags only
    shape the tree, so the distances are the same as the default build's;
    the shape can change which of two equidistant neighbours is found, and
    no index is used here.  A reconstruction far from its ground truth
    makes every query visit many leaves (an untrained model's median
    nearest distance is 0.21-0.41 against a GT spacing of 0.008), so the
    queries dominate.  On six 128 px scenes (5k-21k fused points against
    20,480 GT points, median of 5 runs of both builds and queries) the
    default build took 1119 ms, ``compact_nodes=False`` 685 ms, both flags
    550 ms and ``balanced_tree=False`` alone 1681 ms, on a 2-core x86_64 VM
    with scipy 1.17.  A rerun that timed them apart put the saving in the
    queries (1015 → 515 ms) more than the builds (60 → 30 ms).
    """
    if not threshold > 0:
        raise ConfigError(f"threshold must be > 0, got {threshold}")
    if pc.xyz.shape[0] == 0 or gt_pc.xyz.shape[0] == 0:
        raise ContractError("cannot evaluate an empty point cloud")
    d_acc, _ = _tree(gt_pc.xyz).query(pc.xyz)
    d_comp, _ = _tree(pc.xyz).query(gt_pc.xyz)
    cap = 10.0 * threshold
    kept = d_acc[d_acc <= cap]
    acc = float(kept.mean()) if kept.size else float("inf")
    comp = float(d_comp.mean())
    return acc, comp, (acc + comp) / 2.0
