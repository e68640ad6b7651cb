"""Finite-difference verification of every differentiable operation.

The numeric side is an independent oracle: central differences with step
h = 1e-5 evaluated in the float64 mode, compared against taped gradients at
relative tolerance 1e-4.  A check returns its margin: the worst
|analytic − numeric| over the tolerance that coordinate had to meet, so it
passes below 1 and shows how close it came.  ``run_suite`` drives one
named check over many random instances; the ``gradcheck`` CLI command and
the tier-1 sweep ``tests/test_tensor.py::TestOpGradcheckSweep`` both call
it.  ``check_full_loss`` runs the whole training loss through the same
``check_gradients``, with the model's parameters as its inputs, at
relative tolerance 1e-3.

Two practical policies keep the oracle honest but usable:

* A coordinate whose first comparison fails is re-measured with the step
  shrunk 16x and 256x, keeping the best agreement.  A wrong analytic
  gradient stays wrong at every step size, while an interval that happened
  to straddle a non-smooth point (leaky-relu corner, argmax tie) almost
  surely stops straddling it, so this filters kink artifacts without
  masking real defects.
* Composite-module checks sample a fixed-size random subset of coordinates
  for large parameter tensors (the per-op checks below stay exhaustive);
  full coverage of, say, a 144-channel conv would cost minutes per
  instance for no extra signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .nn import Module
from .tensor import Tape, Tensor, backward, using_dtype

H_STEP = 1e-5
REL_TOL = 1e-4
FULL_LOSS_REL_TOL = 1e-3
ABS_TOL = 1e-8  # per unit of |f|; central differences cannot resolve below this
_FLOOR = 1e-6  # treat gradients this small as zero when forming relative error


def _coord_fd(f, work: list[np.ndarray], i: int, j: int, h: float) -> float:
    flat = work[i].reshape(-1)
    orig = flat[j]
    flat[j] = orig + h
    hi = f(work)
    flat[j] = orig - h
    lo = f(work)
    flat[j] = orig
    return (hi - lo) / (2 * h)


def check_gradients(forward: Callable[..., Tensor], arrays: list[np.ndarray],
                    max_coords: int | None = None, rel_tol: float = REL_TOL) -> float:
    """The margin of taped against central-difference gradients: the worst
    coordinate's |analytic − numeric| over its tolerance.  Below 1 passes.

    ``forward`` maps input Tensors to a scalar Tensor.  Evaluation happens in
    float64 regardless of the ambient mode.  With ``max_coords`` set, tensors
    larger than that check a deterministic random coordinate subset.

    A coordinate's tolerance is the larger of ``rel_tol`` times the larger
    gradient magnitude (at least ``_FLOOR``) and ``ABS_TOL * max(1, |f|)``:
    the difference quotient carries rounding noise of about
    ``eps * |f| / (2 H_STEP)``, so gradients near zero cannot be resolved any
    tighter than that no matter the step.  A coordinate whose first
    measurement misses it is re-measured at smaller steps, keeping the best:
    a real gradient bug stays wrong at every step, while a difference
    interval that straddles a kink (leaky-relu corner, argmax tie) stops
    straddling.
    """
    with using_dtype(np.float64):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = forward(*ts)
        backward(tape, out)
        analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                    for t in ts]

        def f(arrs):
            return forward(*[Tensor(a) for a in arrs]).item()

        work = [t.data.copy() for t in ts]
        abs_tol = ABS_TOL * max(1.0, abs(out.item()))
        worst = 0.0
        for i, grad in enumerate(analytic):
            gflat = grad.reshape(-1)
            if max_coords is not None and gflat.size > max_coords:
                picker = np.random.default_rng(7919 * (i + 1) + gflat.size)
                coords = picker.choice(gflat.size, size=max_coords,
                                       replace=False)
            else:
                coords = range(gflat.size)
            for j in coords:
                margin = np.inf
                for step in (H_STEP, H_STEP / 16, H_STEP / 256):
                    num = _coord_fd(f, work, i, j, step)
                    tol = max(abs_tol, rel_tol * max(abs(gflat[j]), abs(num), _FLOOR))
                    margin = min(margin, abs(gflat[j] - num) / tol)
                    if margin < 1.0:
                        break
                worst = max(worst, margin)
    return float(worst)


def _wsum(t: Tensor, const: np.ndarray) -> Tensor:
    """Reduce to a scalar with fixed random weights so gradients are generic."""
    return (t * const).sum()


@dataclass
class OpReport:
    name: str
    margin: float  # the worst over the instances; below 1 passes
    passed: bool


# ---------------------------------------------------------------------------
# checks on core operations
# ---------------------------------------------------------------------------


def _away_from(x: np.ndarray, points, margin: float) -> np.ndarray:
    """Nudge values that sit within margin of any kink point."""
    for p in points:
        close = np.abs(x - p) < margin
        x = np.where(close, p + np.sign(x - p + 0.5 * margin) * margin, x)
    return x


def base_op_checks(rng: np.random.Generator) -> dict[str, Callable[[], float]]:
    """One closure per core op; each returns its ``check_gradients`` margin."""

    def rnd(*shape):
        return rng.standard_normal(shape)

    checks: dict[str, Callable[[], float]] = {}

    def simple(name, make):
        checks[name] = make

    w1 = rnd(3, 4)
    simple("add", lambda: check_gradients(lambda a, b: _wsum(a + b, w1), [rnd(3, 4), rnd(4)]))
    simple("sub", lambda: check_gradients(lambda a, b: _wsum(a - b, w1), [rnd(3, 4), rnd(3, 1)]))
    simple("mul", lambda: check_gradients(lambda a, b: _wsum(a * b, w1), [rnd(3, 4), rnd(4)]))
    simple("div", lambda: check_gradients(
        lambda a, b: _wsum(a / b, w1), [rnd(3, 4), rnd(4) + np.sign(rnd(4)) * 0.5 + 1.5]))
    simple("neg", lambda: check_gradients(lambda a: _wsum(-a, w1), [rnd(3, 4)]))
    simple("exp", lambda: check_gradients(lambda a: _wsum(a.exp(), w1), [rnd(3, 4) * 0.5]))
    simple("log", lambda: check_gradients(lambda a: _wsum(a.log(), w1), [np.abs(rnd(3, 4)) + 0.5]))
    simple("abs", lambda: check_gradients(
        lambda a: _wsum(a.abs(), w1), [_away_from(rnd(3, 4), [0.0], 0.05)]))
    simple("sigmoid", lambda: check_gradients(lambda a: _wsum(a.sigmoid(), w1), [rnd(3, 4)]))
    simple("tanh", lambda: check_gradients(lambda a: _wsum(a.tanh(), w1), [rnd(3, 4)]))
    simple("clip", lambda: check_gradients(
        lambda a: _wsum(a.clip(-0.8, 0.8), w1), [_away_from(rnd(3, 4), [-0.8, 0.8], 0.05)]))

    # eps far above its default, so a backward that dropped it would show
    wgn = rnd(8, 3, 4)
    simple("group_norm", lambda: check_gradients(
        lambda a: _wsum(T.group_norm(a, 2, 0.5), wgn), [rnd(8, 3, 4)]))

    wsm = rnd(4, 5)
    simple("softmax.ax0", lambda: check_gradients(
        lambda a: _wsum(a.softmax(0), wsm), [rnd(4, 5)]))
    simple("softmax.ax1", lambda: check_gradients(
        lambda a: _wsum(a.softmax(1), wsm), [rnd(4, 5)]))

    simple("sum.all", lambda: check_gradients(lambda a: a.sum(), [rnd(3, 4, 2)]))
    w2 = rnd(3, 2)
    simple("sum.axis", lambda: check_gradients(lambda a: _wsum(a.sum(1), w2), [rnd(3, 4, 2)]))
    simple("mean", lambda: check_gradients(lambda a: _wsum(a.mean(1), w2), [rnd(3, 4, 2)]))

    def max_input():
        a = rnd(3, 4, 2)
        # keep a clear margin between the top two values along axis 1
        a[:, 0, :] += 3.0
        return a
    simple("max", lambda: check_gradients(lambda a: _wsum(a.max(1), w2), [max_input()]))

    mask = rng.random((3, 4)) > 0.5
    simple("where", lambda: check_gradients(
        lambda a, b: _wsum(T.where(mask, a, b), w1), [rnd(3, 4), rnd(3, 4)]))
    w3 = rnd(3, 7)
    simple("concat", lambda: check_gradients(
        lambda a, b: _wsum(T.concat([a, b], 1), w3), [rnd(3, 4), rnd(3, 3)]))
    w4 = rnd(12, 2)
    simple("reshape", lambda: check_gradients(
        lambda a: _wsum(a.reshape((12, 2)), w4), [rnd(3, 4, 2)]))
    w5 = rnd(2, 4, 3)
    simple("transpose", lambda: check_gradients(
        lambda a: _wsum(a.transpose((2, 1, 0)), w5), [rnd(3, 4, 2)]))
    w6 = rnd(2, 3)
    simple("getitem", lambda: check_gradients(
        lambda a: _wsum(T.getitem(a, np.s_[1:3, ::2, 1]), w6), [rnd(4, 5, 2)]))

    didx = rng.integers(0, 5, size=(3, 4, 2))
    w7 = rnd(3, 4, 2)
    simple("take_depth", lambda: check_gradients(
        lambda a: _wsum(T.take_depth(a, didx), w7), [rnd(5, 4, 2)]))
    giy = rng.integers(0, 4, size=(3, 3))
    gix = rng.integers(0, 5, size=(3, 3))
    w8 = rnd(3, 3)
    simple("gather2d", lambda: check_gradients(
        lambda a: _wsum(T.gather2d(a, giy, gix), w8), [rnd(4, 5)]))

    # sampling: fractional coords away from texel boundaries; a couple OOB
    n_pts = 9
    sx = rng.uniform(0.2, 5.8, n_pts)
    sy = rng.uniform(0.2, 4.8, n_pts)
    sx[0], sy[0] = -3.0, 2.0  # invalid on purpose: gradient must be zero there
    frac = lambda v: np.clip(v - np.floor(v), 0.2, 0.8) + np.floor(v)
    sx, sy = frac(sx), frac(sy)
    w9 = rnd(3, n_pts)

    def samp(grid, xs, ys):
        out, _ = T.bilinear_sample(grid, xs, ys)
        return _wsum(out, w9)

    simple("bilinear_sample", lambda: check_gradients(samp, [rnd(3, 6, 7), sx, sy]))

    # two stacked grids, coordinates [2, n]: the second grid's samples sit
    # right next to the first grid's block of the interpolation matrix; one
    # point per grid is masked out
    bx = np.stack([sx, sx[::-1]])
    by = np.stack([sy, sy[::-1]])
    by[0, 1] = 5.0 + 0.5  # half a row below grid 0's last row
    bmask = np.ones(bx.shape, dtype=bool)
    bmask[:, 2] = False
    w12 = rnd(3, 2, n_pts)

    def samp_batch(grid, xs, ys):
        out, _ = T.bilinear_sample(grid, xs, ys, mask=bmask)
        return _wsum(out, w12)

    simple("bilinear_sample.batched", lambda: check_gradients(
        samp_batch, [rnd(2, 3, 6, 7), bx, by]))

    w10 = rnd(2, 6, 8)
    simple("bilinear_resize.up", lambda: check_gradients(
        lambda a: _wsum(T.bilinear_resize(a, (6, 8)), w10), [rnd(2, 3, 4)]))
    w11 = rnd(2, 2, 3)
    simple("bilinear_resize.down", lambda: check_gradients(
        lambda a: _wsum(T.bilinear_resize(a, (2, 3)), w11), [rnd(2, 5, 6)]))

    wc1 = rnd(4, 5, 5)
    simple("conv2d.s1", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 1), wc1),
        [rnd(3, 5, 5), rnd(4, 3, 3, 3) * 0.5, rnd(4) * 0.1]))
    wc2 = rnd(4, 3, 3)
    simple("conv2d.s2", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 1), wc2),
        [rnd(3, 6, 6), rnd(4, 3, 3, 3) * 0.5, rnd(4) * 0.1]))
    wc3 = rnd(4, 5, 5)
    simple("conv2d.k1", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 0), wc3),
        [rnd(3, 5, 5), rnd(4, 3, 1, 1) * 0.5, rnd(4) * 0.1]))
    wc4 = rnd(2, 3, 4, 4)
    simple("conv2d.batched", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 1), wc4),
        [rnd(2, 5, 4, 4), rnd(3, 5, 3, 3) * 0.4, rnd(3) * 0.1]))
    # odd, non-square input at stride 2: the last row and column of taps
    # fall off the image with padding and are dropped without it
    wc5 = rnd(4, 4, 3)
    simple("conv2d.s2.odd", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 1), wc5),
        [rnd(3, 7, 5), rnd(4, 3, 3, 3) * 0.5, rnd(4) * 0.1]))
    wc6 = rnd(4, 3, 2)
    simple("conv2d.s2.nopad", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 0), wc6),
        [rnd(3, 7, 5), rnd(4, 3, 3, 3) * 0.5, rnd(4) * 0.1]))
    # widening at stride 2 on a larger plane, as the FPN's encoders:
    # conv2d's backward takes its input side here and only here
    wc12 = rnd(32, 8, 8)
    simple("conv2d.s2.wide", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 1), wc12),
        [rnd(2, 16, 16), rnd(32, 2, 3, 3) * 0.5, rnd(32) * 0.1]))
    wc11 = rnd(2, 4, 3, 3)
    simple("conv2d.s2.batched", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 1), wc11),
        [rnd(2, 3, 6, 6), rnd(4, 3, 3, 3) * 0.5, rnd(4) * 0.1]))
    # the entries above take conv2d's im2col path forward; these narrow ones pass
    # 2·C_out·H·W <= C_in·H'·W' and take the output side
    wc7 = rnd(1, 5, 6)
    simple("conv2d.narrow", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 1), wc7),
        [rnd(8, 5, 6), rnd(1, 8, 3, 3) * 0.5, rnd(1) * 0.1]))
    wc8 = rnd(2, 2, 4, 4)
    simple("conv2d.narrow.batched", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 1), wc8),
        [rnd(2, 8, 4, 4), rnd(2, 8, 3, 3) * 0.4, rnd(2) * 0.1]))
    wc9 = rnd(2, 4, 3)
    simple("conv2d.narrow.s2", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 1), wc9),
        [rnd(16, 7, 5), rnd(2, 16, 3, 3) * 0.3, rnd(2) * 0.1]))
    # the leaky-ReLU epilogue on each forward path (im2col, output side)
    # and backward side (output, input)
    simple("conv2d.leaky", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 1, leaky=True), wc1),
        [rnd(3, 5, 5), rnd(4, 3, 3, 3) * 0.5, rnd(4) * 0.1]))
    simple("conv2d.leaky.narrow", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 1, leaky=True), wc7),
        [rnd(8, 5, 6), rnd(1, 8, 3, 3) * 0.5, rnd(1) * 0.1]))
    simple("conv2d.leaky.s2.wide", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 2, 1, leaky=True), wc12),
        [rnd(2, 16, 16), rnd(32, 2, 3, 3) * 0.5, rnd(32) * 0.1]))
    wc10 = rnd(3, 5, 5)
    simple("conv2d.narrow.k1", lambda: check_gradients(
        lambda x, w, b: _wsum(T.conv2d(x, w, b, 1, 0), wc10),
        [rnd(8, 5, 5), rnd(3, 8, 1, 1) * 0.5, rnd(3) * 0.1]))

    wgd = rnd(2, 2, 3, 5)
    simple("group_dot", lambda: check_gradients(
        lambda f0, fi: _wsum(T.group_dot(f0, fi, 2), wgd), [rnd(4, 5), rnd(4, 2, 3, 5)]))
    # fi as bilinear_sample leaves it: a [C, S, D, P] view of an [S, D, P, C] array
    simple("group_dot.texel_major", lambda: check_gradients(
        lambda f0, fi: _wsum(T.group_dot(f0, fi, 2), wgd),
        [rnd(4, 5), np.moveaxis(rnd(2, 3, 5, 4), -1, 0)]))

    # geometry: warping differentiable in depth
    from .geometry import (CameraView, denormalize_inv, normalize_inv, relative_pose,
                           relative_poses, warp_points)

    k = np.array([[20.0, 0.0, 7.5], [0.0, 20.0, 7.5], [0.0, 0.0, 1.0]])
    ang = 0.15
    r_src = np.array([[np.cos(ang), 0, np.sin(ang)], [0, 1, 0], [-np.sin(ang), 0, np.cos(ang)]])
    img = np.zeros((3, 16, 16), dtype=np.float32)
    ref = CameraView(k, np.eye(3), np.zeros(3), 2.0, 6.0, img)
    src = CameraView(k, r_src, np.array([0.3, 0.05, 0.02]), 2.0, 6.0, img)
    pose = relative_pose(ref, src)
    px = rng.uniform(2, 13, 6)
    py = rng.uniform(2, 13, 6)
    wwa = rnd(2, 6)
    wwb = rnd(2, 6)
    wwc = rnd(2, 6)

    def warp_fwd(d):
        u, v, z, _ = warp_points(px, py, d, ref.k, src.k, pose)
        return _wsum(u, wwa) + _wsum(v, wwb) + _wsum(z, wwc)

    simple("warp_points.depth", lambda: check_gradients(
        warp_fwd, [rng.uniform(2.5, 5.5, (2, 6))]))

    # two sources stacked: outputs [2, D, P]
    src2 = CameraView(k, r_src.T, np.array([-0.2, 0.1, 0.05]), 2.0, 6.0, img)
    poses = relative_poses(ref, [src, src2])
    wws = rnd(3, 2, 2, 6)

    def warp_stacked(d):
        u, v, z, _ = warp_points(px, py, d, ref.k, np.stack([k, k]), poses)
        return _wsum(u, wws[0]) + _wsum(v, wws[1]) + _wsum(z, wws[2])

    simple("warp_points.stacked", lambda: check_gradients(
        warp_stacked, [rng.uniform(2.5, 5.5, (2, 6))]))

    weta = rnd(4, 3)
    simple("normalize_inv", lambda: check_gradients(
        lambda d: _wsum(normalize_inv(d, 2.0, 6.0), weta), [rng.uniform(2.2, 5.8, (4, 3))]))
    simple("denormalize_inv", lambda: check_gradients(
        lambda e: _wsum(denormalize_inv(e, 2.0, 6.0), weta), [rng.uniform(0.05, 0.95, (4, 3))]))

    return checks


def _param_forward(build: Callable[[], Module], forward: Callable[..., Tensor]):
    """A float64 module from ``build()`` with ``forward(module, *inputs)``
    made a function of ``(*inputs, *parameters)`` for ``check_gradients``.

    Returns that function and the module's initial parameter values, which
    follow the inputs in the checked arrays.  Each call sets the parameter
    tensors it is given on the module tree before running ``forward``.
    """
    with using_dtype(np.float64):
        module = build()
    params = module.parameters()
    names = list(params)

    def wrapped(*tensors):
        inputs, values = tensors[:-len(names)], tensors[-len(names):]
        for name, t in zip(names, values):
            obj = module
            *path, last = name.split(".")
            for part in path:
                obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
            setattr(obj, last, t)
        return forward(module, *inputs)

    return wrapped, [p.data.copy() for p in params.values()]


_MODEL_COORDS = 48


def model_op_checks(rng: np.random.Generator) -> dict[str, Callable[[], float]]:
    """Gradient checks for the composite network operations."""
    from .estimator import GruCell, gru_update, predict_depth
    from .geometry import inverse_grid, normalize_inv
    from .matching import GROUPS, AggregationUnet, group_correlation, integrate, view_shares
    from .training import loss_class, loss_conf, loss_regress
    from .upsample import ConvexUpsampler

    def rnd(*shape):
        return rng.standard_normal(shape)

    checks: dict[str, Callable[[], float]] = {}

    wgc = rnd(GROUPS, 3, 6)
    checks["group_correlation"] = lambda: check_gradients(
        lambda f0, fi: _wsum(group_correlation(f0, fi), wgc),
        [rnd(16, 6), rnd(16, 3, 6)], max_coords=_MODEL_COORDS)

    wint = rnd(4, 3, 10)

    def integ(sim, wv):
        return _wsum(integrate(sim, view_shares(wv.sigmoid())), wint)

    checks["integrate"] = lambda: check_gradients(
        integ, [rnd(4, 2, 3, 10), rnd(2, 1, 10)], max_coords=_MODEL_COORDS)

    wun = rnd(3, 8, 8)
    unet_fwd, unet_init = _param_forward(lambda: AggregationUnet(6, 3, np.random.default_rng(7)),
                                         lambda unet, x: _wsum(unet(x), wun))
    checks["aggregate_unet"] = lambda: check_gradients(
        unet_fwd, [rnd(6, 8, 8)] + unet_init, max_coords=_MODEL_COORDS)

    wgru = rnd(4, 5, 5)
    gru_fwd, gru_init = _param_forward(lambda: GruCell(4, 3, np.random.default_rng(8)),
                                       lambda gru, h, x: _wsum(gru_update(gru, h, x), wgru))
    checks["gru_update"] = lambda: check_gradients(
        gru_fwd, [np.tanh(rnd(4, 5, 5)), rnd(3, 5, 5)] + gru_init,
        max_coords=_MODEL_COORDS)

    inv = inverse_grid(2.0, 8.0, 16)
    rnd_read = rnd(4, 4)
    peaked = rnd(16, 4, 4)
    peaked[5] += 4.0  # keep the argmax stable under the FD perturbation

    def readout(logits):
        p = logits.softmax(0)
        depth, _ = predict_depth(p, inv, radius=2)
        return (depth * rnd_read).sum()

    checks["predict_depth"] = lambda: check_gradients(readout, [peaked], max_coords=_MODEL_COORDS)

    wup = rnd(16, 16)
    ups_fwd, ups_init = _param_forward(
        lambda: ConvexUpsampler(6, np.random.default_rng(9)),
        lambda ups, depth, feat: _wsum(ups.upsample_depth(depth, feat), wup))
    checks["convex_upsample"] = lambda: check_gradients(
        ups_fwd, [rng.uniform(2, 5, (4, 4)), rnd(6, 4, 4)] + ups_init,
        max_coords=_MODEL_COORDS)

    d2 = 16
    x_gt = rng.integers(2, d2 - 2, size=(4, 4))
    valid = rng.random((4, 4)) > 0.2
    eta_gt = rng.uniform(0.1, 0.9, (4, 4))

    def lcls(logits):
        return loss_class(logits.softmax(0), x_gt, valid)

    checks["loss_class"] = lambda: check_gradients(
        lcls, [rnd(d2, 4, 4)], max_coords=_MODEL_COORDS)

    def lreg(logits):
        p = logits.softmax(0)
        depth, x_k = predict_depth(p, inv, radius=2)
        eta = normalize_inv(depth, 2.0, 8.0)
        return loss_regress(eta, x_k, eta_gt, x_gt, valid, radius=2, beta=float(d2))

    checks["loss_regress"] = lambda: check_gradients(
        lreg, [peaked.copy()], max_coords=_MODEL_COORDS)

    conf_gt = rng.random((4, 4)) > 0.5

    def lconf(raw):
        return loss_conf(raw.sigmoid(), conf_gt, valid)

    checks["loss_conf"] = lambda: check_gradients(
        lconf, [rnd(4, 4)], max_coords=_MODEL_COORDS)

    return checks


def run_suite(instances: int = 20, seed: int = 0,
              include_model_ops: bool = True) -> list[OpReport]:
    """Run every op check ``instances`` times with fresh random draws."""
    if instances < 1:
        raise ConfigError(f"need at least one instance, got {instances}")
    reports: list[OpReport] = []
    names: list[str] | None = None
    worst: dict[str, float] = {}
    for i in range(instances):
        rng = np.random.default_rng(seed * 1000 + i)
        checks = base_op_checks(rng)
        if include_model_ops:
            checks.update(model_op_checks(rng))
        if names is None:
            names = list(checks)
        for name in names:
            worst[name] = max(worst.get(name, 0.0), checks[name]())
    for name in names or []:
        reports.append(OpReport(name, worst[name], worst[name] < 1.0))
    return reports


FULL_LOSS_SIZE = 16
FULL_LOSS_ITERS = 1
FULL_LOSS_SEED = 3
FULL_LOSS_COORDS = 4


def check_full_loss() -> float:
    """Central-difference check of the complete training loss.

    Builds a 2-view synthetic sample at ``FULL_LOSS_SIZE`` px with
    ``FULL_LOSS_ITERS`` GRU updates and runs one ``check_gradients`` over
    every parameter tensor of the model, substituted through
    ``_param_forward`` as the module checks do: each tensor with more
    than ``FULL_LOSS_COORDS`` entries checks that many sampled coordinates,
    the smaller ones all of theirs.  Returns the margin at relative
    tolerance ``FULL_LOSS_REL_TOL``; below 1 passes.
    """
    from .estimator import DepthEstimator
    from .scenes import SynthSpec, synth_scene
    from .training import TrainConfig, sample_loss

    with using_dtype(np.float64):
        scene = synth_scene(SynthSpec(seed=FULL_LOSS_SEED, views=2, size=FULL_LOSS_SIZE,
                                      quads=1))
    cfg = TrainConfig(iters=FULL_LOSS_ITERS, views=2)
    loss, init = _param_forward(
        lambda: DepthEstimator(cfg, np.random.default_rng(FULL_LOSS_SEED + 1)),
        lambda model: sample_loss(model, scene.views, 0, [1], cfg, warmup=False).total)
    return check_gradients(loss, init, max_coords=FULL_LOSS_COORDS,
                           rel_tol=FULL_LOSS_REL_TOL)
