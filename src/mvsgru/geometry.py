"""Pinhole cameras, relative poses, projection, inverse-depth maps.

Conventions: x_cam = R @ x_world + t, z is the viewing axis, pixel (0, 0) is
the center of the top-left pixel.  Intrinsics are upper-triangular with
K[2, 2] = 1.  ``warp_points`` projects depths for fusion; the estimator
``project``s normalized inverse depth η, in which a pixel is a ratio of
two functions linear in η whose coefficients a run computes once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FileFormatError, header_number, header_tokens
from .tensor import Tensor, default_dtype

_ZEYE = 1e-8  # warp_points counts points with camera-frame z below this as behind the camera


@dataclass
class CameraView:
    """One input view: intrinsics, pose, usable depth range, and the image.

    The image is [3, H, W] float32 in [0, 1].  ``gt_depth`` is [H, W] with
    NaN marking pixels that have no ground truth (synthetic misses, padding).
    """

    k: np.ndarray
    r: np.ndarray
    t: np.ndarray
    d_min: float
    d_max: float
    image: np.ndarray
    gt_depth: np.ndarray | None = None

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if self.k.shape != (3, 3) or self.r.shape != (3, 3):
            raise ConfigError("K and R must be 3x3")
        # NaN fails no comparison below, so test finiteness first
        if not all(np.isfinite(v).all() for v in (self.k, self.r, self.t, self.d_min, self.d_max)):
            raise ConfigError("camera K, R, t and depth range must be finite")
        if not (0 < self.d_min < self.d_max):
            raise ConfigError(f"need 0 < d_min < d_max, got [{self.d_min}, {self.d_max}]")
        if abs(self.k[1, 0]) > 1e-9 or abs(self.k[2, 0]) > 1e-9 or abs(self.k[2, 1]) > 1e-9:
            raise ConfigError("K must be upper triangular")
        if self.k[0, 0] <= 0 or self.k[1, 1] <= 0 or abs(self.k[2, 2] - 1) > 1e-9:
            raise ConfigError("K needs positive focal lengths and K[2,2] == 1")
        if np.abs(self.r @ self.r.T - np.eye(3)).max() > 1e-6 or np.linalg.det(self.r) < 0:
            raise ConfigError("R must be a rotation (orthonormal, det +1)")
        shape = np.shape(self.image)
        if len(shape) != 3 or shape[0] != 3:
            raise ConfigError(f"image must be [3, H, W], got shape {shape}")
        if self.gt_depth is not None and np.shape(self.gt_depth) != shape[1:]:
            raise ConfigError(f"gt_depth shape {np.shape(self.gt_depth)} does not "
                              f"match the {shape[1]}x{shape[2]} image")


@dataclass
class RelativePose:
    """Rigid transform taking reference-camera coordinates to a source camera."""

    r: np.ndarray
    t: np.ndarray


def relative_pose(ref: CameraView, src: CameraView) -> RelativePose:
    r = src.r @ ref.r.T
    return RelativePose(r=r, t=src.t - r @ ref.t)


def relative_poses(ref: CameraView, srcs: list[CameraView]) -> RelativePose:
    """Poses from ref to each source, stacked: r [S, 3, 3], t [S, 3]."""
    r = np.stack([s.r for s in srcs]) @ ref.r.T
    return RelativePose(r=r, t=np.stack([s.t for s in srcs]) - r @ ref.t)


def scale_intrinsics(k: np.ndarray, level: int) -> np.ndarray:
    """Intrinsics for a 2^level downsampled image, pixel-center convention.

    Focal lengths scale by s = 1/2^level; principal point maps through
    c' = (c + 0.5) * s - 0.5 so pixel centers stay aligned.  level 0 returns
    K unchanged.  k may be one [3, 3] matrix or a stack [..., 3, 3].
    """
    if level == 0:
        return np.array(k, dtype=np.float64)
    s = 1.0 / (1 << level)
    out = np.array(k, dtype=np.float64)
    out[..., 0, 0] *= s
    out[..., 1, 1] *= s
    out[..., 0, 1] *= s
    out[..., 0, 2] = (out[..., 0, 2] + 0.5) * s - 0.5
    out[..., 1, 2] = (out[..., 1, 2] + 0.5) * s - 0.5
    return out


def _rays(x, y, k_ref, k_src, pose) -> tuple[np.ndarray, np.ndarray]:
    """K_s R K_r⁻¹ (x, y, 1) [(S,) 3, P] and K_s t [(S,) 3, 1], in float64."""
    m = k_src @ pose.r @ np.linalg.inv(k_ref)
    return m @ np.stack([x, y, np.ones_like(x)]).astype(np.float64), k_src @ pose.t[..., None]


def warp_points(x: np.ndarray, y: np.ndarray, depth: np.ndarray, k_ref: np.ndarray,
                k_src: np.ndarray, pose: RelativePose):
    """Warp reference pixels x, y [P] into one source at depths whose last
    axis is P (leading axes broadcast), in float64: fusion's projection and
    ``project``'s test oracle.  Returns the source pixels u, v, the
    camera-frame depth z and ``valid``, z > 1e-8."""
    base, kt = _rays(x, y, k_ref, k_src, pose)
    d = np.asarray(depth, dtype=np.float64)
    hx, hy, hz = (d * base[i] + kt[i] for i in range(3))
    valid = hz > _ZEYE
    z_safe = np.where(valid, hz, 1.0)
    return hx / z_safe, hy / z_safe, hz, valid


def eta_projection(x: np.ndarray, y: np.ndarray, k_ref: np.ndarray, k_src: np.ndarray,
                   pose: RelativePose, d_min: float, d_max: float):
    """The run-constant (a, b) with which ``project`` maps reference pixels
    x, y [P] at normalized inverse depth η into S stacked sources (k_src
    [S, 3, 3], pose from ``relative_poses``).  With ρ = 1/d = 1/d_max +
    η (1/d_min − 1/d_max), K_s (d R K_r⁻¹ p + t) = d (a + b η) for
    a = K_s R K_r⁻¹ p + K_s t / d_max [S, 3, P], b = K_s t (1/d_min − 1/d_max)
    [S, 3, 1], computed in float64 and cast to the default dtype."""
    base, kt = _rays(x, y, k_ref, k_src, pose)
    return ((base + kt / d_max).astype(default_dtype()),
            (kt * (1.0 / d_min - 1.0 / d_max)).astype(default_dtype()))


def project(eta: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Source pixels u = h_x / h_z, v = h_y / h_z of h = a + b η, [S, D, P]
    per row, for an array η [D, P] or [D, 1] planes, cast to a's dtype:
    lookups take η as a constant, as RAFT's do.  ``front`` is h_z > 0, which
    is camera-frame z > 0 as h_z = z ρ: in the estimator it replaces
    ``warp_points``' z > 1e-8.  Behind the camera u and v are h_x and h_y,
    which only fill masked samples."""
    eta = np.asarray(eta, dtype=a.dtype)
    hx, hy, hz = (eta * b[:, i, None] + a[:, i, None] for i in range(3))
    front = hz > 0
    z = np.where(front, hz, 1.0)
    return hx / z, hy / z, front


# ---------------------------------------------------------------------------
# inverse-depth parameterization
# ---------------------------------------------------------------------------


def inverse_grid(d_min: float, d_max: float, count: int) -> np.ndarray:
    """count equidistant inverse-depth values from 1/d_max to 1/d_min inclusive."""
    if not (0 < d_min < d_max) or count < 2:
        raise ConfigError(f"bad sampling range [{d_min}, {d_max}] x {count}")
    return np.linspace(1.0 / d_max, 1.0 / d_min, count)


def normalize_inv(d, d_min: float, d_max: float):
    """Map depth to [0, 1] linearly in inverse depth (0 at d_max, 1 at d_min).

    Works on Tensors (differentiable, no clamping: model predictions stay in
    range by construction) and on ndarrays/floats (promoted to float64 and
    clamped to [0, 1]).
    """
    span = 1.0 / d_min - 1.0 / d_max
    if isinstance(d, Tensor):
        return (1.0 / d - 1.0 / d_max) * (1.0 / span)
    eta = (1.0 / np.asarray(d, dtype=np.float64) - 1.0 / d_max) / span
    return np.clip(eta, 0.0, 1.0)


def denormalize_inv(eta, d_min: float, d_max: float):
    """Inverse of normalize_inv; one expression for Tensors, ndarrays and floats."""
    return 1.0 / (eta * (1.0 / d_min - 1.0 / d_max) + 1.0 / d_max)


# ---------------------------------------------------------------------------
# camera text files
# ---------------------------------------------------------------------------
#
# Text layout, 31 tokens separated by ASCII whitespace:
#   extrinsic
#   <4 x 4 row-major world-to-camera matrix>
#   intrinsic
#   <3 x 3 K>
#   d_min d_interval d_count d_max
#
# Every value must be a finite float.  d_interval and d_count are carried for
# compatibility and ignored on read; tokens after the 31st are ignored.  Any
# other byte (a UTF-8 no-break space, say) is part of a token.  A
# FileFormatError gives the offset of the first token at fault.

CAM_D_COUNT = 256
_CAM_WORDS = {0: b"extrinsic", 17: b"intrinsic"}  # token index -> the word there


def save_cam_text(path, view: CameraView) -> None:
    ext = np.eye(4)
    ext[:3, :3] = view.r
    ext[:3, 3] = view.t
    interval = (view.d_max - view.d_min) / (CAM_D_COUNT - 1)
    lines = ["extrinsic"]
    lines += [" ".join(f"{v:.12g}" for v in row) for row in ext]
    lines.append("")
    lines.append("intrinsic")
    lines += [" ".join(f"{v:.12g}" for v in row) for row in view.k]
    lines.append("")
    lines.append(f"{view.d_min:.12g} {interval:.12g} {CAM_D_COUNT} {view.d_max:.12g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_cam_text(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Parse a camera file; returns (K, R, t, d_min, d_max)."""
    with open(path, "rb") as f:
        raw = f.read()
    toks, _ = header_tokens(raw, 1 + 16 + 1 + 9 + 4)
    vals = []
    for i, tok in enumerate(toks):  # in file order, so the first fault is reported
        if i in _CAM_WORDS:
            if tok[1] != _CAM_WORDS[i]:
                raise FileFormatError(path, tok[0], f"expected {_CAM_WORDS[i].decode()!r}")
        else:
            vals.append(header_number(path, tok, float, "camera value"))
            if not np.isfinite(vals[-1]):
                raise FileFormatError(path, tok[0], "non-finite camera value")
    ext = np.reshape(vals[:16], (4, 4))
    d_min, _, _, d_max = vals[25:]
    return np.reshape(vals[16:25], (3, 3)), ext[:3, :3], ext[:3, 3], d_min, d_max
