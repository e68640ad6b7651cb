"""Show that warping with ground-truth depth aligns two rendered views.

Renders a synthetic scene, warps the nearest source image into the
reference frame using the true depth map, and reports the photometric
error inside the valid region against the unwarped baseline.
"""

import numpy as np

from mvsgru.geometry import relative_pose, warp_points
from mvsgru.scenes import SynthSpec, synth_scene
from mvsgru.tensor import Tensor, bilinear_sample

scene = synth_scene(SynthSpec(seed=12, views=3, size=64, quads=2))
ref = scene.views[0]
src_idx = scene.sources(0, 1)[0]
src = scene.views[src_idx]
print(f"reference view 0, source view {src_idx}, "
      f"depth range [{ref.d_min:.2f}, {ref.d_max:.2f}]")

h, w = ref.gt_depth.shape
ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                     np.arange(w, dtype=np.float64), indexing="ij")
pose = relative_pose(ref, src)
u, v, z, in_front = warp_points(xs.ravel(), ys.ravel(),
                                ref.gt_depth.astype(np.float64).ravel(),
                                ref.k, src.k, pose)
warped, in_bounds = bilinear_sample(Tensor(src.image), u, v)
valid = (in_front & in_bounds).reshape(h, w)

diff_warped = np.abs(warped.data.reshape(3, h, w) - ref.image)
diff_plain = np.abs(src.image - ref.image)
m = valid & np.isfinite(ref.gt_depth)
print(f"valid after warp: {valid.mean():.1%} of pixels")
print(f"mean |I_src - I_ref| unwarped : {diff_plain[:, m].mean():.4f}")
print(f"mean |I_src - I_ref| warped   : {diff_warped[:, m].mean():.4f}")
print("(residual comes from image noise and occlusion, not geometry)")

# an intentionally wrong depth should break the alignment again
u2, v2, z2, ok2 = warp_points(xs.ravel(), ys.ravel(),
                              ref.gt_depth.astype(np.float64).ravel() * 1.15,
                              ref.k, src.k, pose)
warped_bad, ok_b = bilinear_sample(Tensor(src.image), u2, v2)
m2 = m & ok2.reshape(h, w) & ok_b.reshape(h, w)
bad = np.abs(warped_bad.data.reshape(3, h, w) - ref.image)
print(f"mean |I_src - I_ref| warped with 15% depth error: "
      f"{bad[:, m2].mean():.4f}")
