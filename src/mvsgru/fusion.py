"""Depth-map filtering and fusion into colored point clouds.

Pure numpy: runs on finished depth/confidence maps, no gradients involved.
Every pinhole projection goes through the ndarray path of
``geometry.warp_points``, the same projection the matching volume uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError
from .geometry import CameraView, relative_pose, warp_points

PLY_DTYPE = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                      ("red", "u1"), ("green", "u1"), ("blue", "u1")])


@dataclass
class PointCloud:
    xyz: np.ndarray   # [N,3] float32, scene units
    rgb: np.ndarray   # [N,3] uint8

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass
class FuseConfig:
    tau: float = 0.3
    delta: float = 1.0
    eps: float = 0.01
    n_geo: int = 3


def confidence_filter(conf: np.ndarray, tau: float = 0.3) -> np.ndarray:
    return conf >= tau


def _lookup_nn(depth: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-pixel depth lookup; returns (depth, in-bounds-and-valid)."""
    h, w = depth.shape
    ui = np.rint(u).astype(np.int64)
    vi = np.rint(v).astype(np.int64)
    ok = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    uc = np.clip(ui, 0, w - 1)
    vc = np.clip(vi, 0, h - 1)
    d = depth[vc, uc]
    ok &= np.isfinite(d) & (d > 0)
    return d, ok


def geometric_filter(ref: CameraView, ref_depth: np.ndarray,
                     srcs: list[CameraView], src_depths: list[np.ndarray],
                     delta: float = 1.0, eps: float = 0.01,
                     n_geo: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Cross-view consistency votes for every reference pixel.

    A pixel is consistent with a source view when projecting it there,
    reading the source depth (nearest neighbor) and projecting that point
    back lands within ``delta`` pixels and ``eps`` relative depth of the
    original estimate.  Both projections are ``geometry.warp_points``.
    Returns (mask of pixels with >= n_geo votes, votes).
    """
    h, w = ref_depth.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    d0 = ref_depth.astype(np.float64).ravel()
    base_ok = np.isfinite(d0) & (d0 > 0)
    d0_safe = np.where(base_ok, d0, 1.0)
    votes = np.zeros(h * w, dtype=np.int64)
    for src, sd in zip(srcs, src_depths):
        u, v, _, front = warp_points(xs, ys, d0_safe, ref.k, src.k, relative_pose(ref, src))
        d_src, ok = _lookup_nn(sd, u, v)
        # back-project the continuous source pixel with the looked-up depth
        ub, vb, zb, back_ok = warp_points(u, v, d_src, src.k, ref.k, relative_pose(src, ref))
        pix_err = np.hypot(ub - xs, vb - ys)
        depth_err = np.abs(zb - d0) / d0_safe
        votes += (base_ok & front & ok & back_ok
                  & (pix_err < delta) & (depth_err < eps))
    votes = votes.reshape(h, w)
    return votes >= n_geo, votes


def backproject(view: CameraView, depth: np.ndarray,
                mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World-space points and colors for the masked pixels of one view."""
    h, w = depth.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sel = mask & np.isfinite(depth) & (depth > 0)
    pix = np.stack([xs[sel], ys[sel], np.ones(int(sel.sum()))])
    cam = np.linalg.inv(view.k) @ pix * depth[sel]
    world = view.r.T @ (cam - view.t[:, None])
    rgb = np.clip(np.rint(view.image[:, sel] * 255.0), 0, 255)
    return world.T.astype(np.float32), rgb.T.astype(np.uint8)


def fuse(views: list[CameraView], depths: list[np.ndarray],
         confs: list[np.ndarray] | None,
         cfg: FuseConfig) -> tuple[PointCloud, list[np.ndarray]]:
    """Filter every view's depth map and merge the survivors.

    Returns the fused cloud and the per-view acceptance masks.  Duplicate
    surface points across reference views are kept.
    """
    xyz_parts, rgb_parts, masks = [], [], []
    for i, view in enumerate(views):
        others = [j for j in range(len(views)) if j != i]
        geo, _ = geometric_filter(view, depths[i],
                                  [views[j] for j in others],
                                  [depths[j] for j in others],
                                  cfg.delta, cfg.eps, cfg.n_geo)
        mask = geo
        if confs is not None:
            mask = mask & confidence_filter(confs[i], cfg.tau)
        masks.append(mask)
        pts, rgb = backproject(view, depths[i], mask)
        xyz_parts.append(pts)
        rgb_parts.append(rgb)
    xyz = (np.concatenate(xyz_parts) if xyz_parts
           else np.zeros((0, 3), np.float32))
    rgb = (np.concatenate(rgb_parts) if rgb_parts
           else np.zeros((0, 3), np.uint8))
    return PointCloud(xyz, rgb), masks


# ---------------------------------------------------------------------------
# PLY / PGM plumbing

_PLY_PROPS = [b"property float x", b"property float y", b"property float z",
              b"property uchar red", b"property uchar green",
              b"property uchar blue"]


def write_ply(pc: PointCloud, path) -> None:
    n = len(pc)
    rows = np.empty(n, dtype=PLY_DTYPE)
    rows["x"], rows["y"], rows["z"] = pc.xyz.T.astype(np.float32)
    rows["red"], rows["green"], rows["blue"] = pc.rgb.T
    header = (b"ply\nformat binary_little_endian 1.0\n"
              + f"element vertex {n}\n".encode("ascii")
              + b"\n".join(_PLY_PROPS) + b"\nend_header\n")
    with open(path, "wb") as f:
        f.write(header)
        f.write(rows.tobytes())


def read_ply(path) -> PointCloud:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"ply\n"):
        raise FileFormatError(path, 0, "missing ply magic")
    try:
        header_end = raw.index(b"end_header\n") + len(b"end_header\n")
    except ValueError:
        raise FileFormatError(path, len(raw), "unterminated header") from None
    lines = raw[:header_end].split(b"\n")
    if lines[1] != b"format binary_little_endian 1.0":
        raise FileFormatError(path, 4, f"unsupported format {lines[1]!r}")
    count = None
    props = []
    for ln in lines[2:]:
        if ln.startswith(b"element vertex "):
            try:
                count = int(ln.split()[-1])
            except ValueError:
                raise FileFormatError(path, raw.index(ln), f"bad vertex count {ln!r}") from None
        elif ln.startswith(b"element "):
            raise FileFormatError(path, raw.index(ln),
                                  f"unsupported element {ln!r}")
        elif ln.startswith(b"property "):
            props.append(ln)
    if count is None:
        raise FileFormatError(path, header_end, "no vertex element")
    if props != _PLY_PROPS:
        raise FileFormatError(path, header_end, "unexpected vertex layout")
    need = count * PLY_DTYPE.itemsize
    if len(raw) - header_end != need:
        raise FileFormatError(path, header_end,
                              f"expected {need} payload bytes, "
                              f"have {len(raw) - header_end}")
    rows = np.frombuffer(raw, dtype=PLY_DTYPE, count=count,
                         offset=header_end)
    xyz = np.stack([rows["x"], rows["y"], rows["z"]], axis=1)
    rgb = np.stack([rows["red"], rows["green"], rows["blue"]], axis=1)
    return PointCloud(xyz.astype(np.float32), rgb.astype(np.uint8))


def write_pgm(path, gray: np.ndarray) -> None:
    """8-bit binary PGM; boolean input maps to {0, 255}."""
    if gray.dtype == np.bool_:
        gray = gray.astype(np.uint8) * 255
    gray = np.clip(gray, 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())
