"""Finite-difference verification of every differentiable operation.

The numeric side is an independent oracle: central differences with step
h = 1e-5 evaluated in the float64 mode, compared against taped gradients at
relative tolerance 1e-4.  A check returns its margin: the worst
|analytic − numeric| over the tolerance that coordinate had to meet, so it
passes below 1 and shows how close it came.

A check is one line, ``add(name, op, *inputs)``, in ``base_op_checks`` (core
ops) or ``model_op_checks`` (network modules): ``op`` maps one Tensor per
input array to a Tensor or a tuple, and ``op_check`` sums every returned
Tensor against fixed random weights of its own shape, so each output and
each input is checked.  ``run_suite`` drives every check over many random
instances.  ``check_full_loss`` runs the whole training loss through the
same ``check_gradients``, with the model's parameters as its inputs, at
relative tolerance 1e-3; its finite-difference passes replay the η that the
taped pass looked up at, since the lookups take η as a constant.

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
    tighter than that no matter the step.  A coordinate that misses it is
    re-measured at smaller steps, as the module notes say.
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


@dataclass
class OpReport:
    name: str
    margin: float  # the worst over the instances; below 1 passes

    @property
    def passed(self) -> bool:
        return self.margin < 1.0


def _tensors(outs) -> list[Tensor]:
    """The Tensors among an op's outputs, one or a tuple, in order."""
    return [o for o in (outs if isinstance(outs, tuple) else (outs,)) if isinstance(o, Tensor)]


def op_check(op: Callable, inputs, rng: np.random.Generator,
             max_coords: int | None = None) -> Callable[[], float]:
    """The gradient check of ``op`` at ``inputs``, as a closure that returns
    its ``check_gradients`` margin.

    ``op`` maps one Tensor per input array to a Tensor or a tuple; its
    non-Tensor outputs (validity masks, indices) are ignored.  It runs once
    here in float64, and one fixed weight array per returned Tensor is drawn
    from ``rng`` in that Tensor's shape, so the checked scalar
    ``Σ_k sum(w_k · out_k)`` reaches every output and every input.
    """
    with using_dtype(np.float64):
        outs = _tensors(op(*[Tensor(a) for a in inputs]))
    weights = [rng.standard_normal(t.shape) for t in outs]

    def weighted(*ts):
        return sum((t * w).sum() for t, w in zip(_tensors(op(*ts)), weights))

    return lambda: check_gradients(weighted, list(inputs), max_coords)


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

    def add(name, op, *inputs):
        checks[name] = op_check(op, inputs, rng)

    add("add", lambda a, b: a + b, rnd(3, 4), rnd(4))
    add("sub", lambda a, b: a - b, rnd(3, 4), rnd(3, 1))
    add("mul", lambda a, b: a * b, rnd(3, 4), rnd(4))
    add("div", lambda a, b: a / b,
        rnd(3, 4), rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 2.0, 4))
    add("neg", lambda a: -a, rnd(3, 4))
    add("abs", Tensor.abs, _away_from(rnd(3, 4), [0.0], 0.05))
    add("sigmoid", Tensor.sigmoid, rnd(3, 4))
    add("tanh", Tensor.tanh, rnd(3, 4))
    add("softplus", T.softplus, rnd(3, 4))
    # the saturated tails: a gradient near 1 around +30, near 1e-13 around −30
    add("softplus.tails", T.softplus, rng.choice([-1.0, 1.0], (3, 4)) * rng.uniform(28, 32, (3, 4)))

    # eps far above its default, so a backward that dropped it would show
    add("group_norm", lambda a: T.group_norm(a, 2, 0.5), rnd(8, 3, 4))
    add("softmax.ax0", lambda a: a.softmax(0), rnd(4, 5))
    add("softmax.ax1", lambda a: a.softmax(1), rnd(4, 5))
    add("logsumexp.ax0", lambda a: T.logsumexp(a, 0), rnd(4, 5))
    add("logsumexp.ax1", lambda a: T.logsumexp(a, 1), rnd(4, 5))

    add("sum.all", Tensor.sum, rnd(3, 4, 2))
    add("sum.axis", lambda a: a.sum(1), rnd(3, 4, 2))
    add("mean", lambda a: a.mean(1), rnd(3, 4, 2))
    peaked = rnd(3, 4, 2)
    peaked[:, 0, :] += 3.0  # a clear margin between the top two values along axis 1
    add("max", lambda a: a.max(1), peaked)

    add("weighted_sum", lambda a, w: T.weighted_sum(a, w, 1), rnd(3, 2, 4, 5), rnd(2, 1, 5))
    # neither input spans the product [3, 4]
    add("weighted_sum.broadcast", lambda a, w: T.weighted_sum(a, w, 0), rnd(3, 1), rnd(1, 4))
    add("weighted_sum.all", lambda a, w: T.weighted_sum(a, w, None), rnd(1, 3, 4), rnd(3, 4))

    add("concat", lambda a, b: T.concat([a, b], 1), rnd(3, 4), rnd(3, 3))
    add("reshape", lambda a: a.reshape((12, 2)), rnd(3, 4, 2))
    add("transpose", lambda a: a.transpose((2, 1, 0)), rnd(3, 4, 2))
    add("getitem", lambda a: T.getitem(a, np.s_[1:3, ::2, 1]), rnd(4, 5, 2))

    didx = rng.integers(0, 5, size=(3, 4, 2))
    add("take_depth", lambda a: T.take_depth(a, didx), rnd(5, 4, 2))
    giy, gix = rng.integers(0, 4, size=(3, 3)), rng.integers(0, 5, size=(3, 3))
    add("gather2d", lambda a: T.gather2d(a, giy, gix), rnd(4, 5))

    # sampling, differentiable in the grid only, at fractional coordinates
    # away from texel boundaries; one point is out of range on purpose
    sx, sy = rng.uniform(0.2, 5.8, 9), rng.uniform(0.2, 4.8, 9)
    sx[0], sy[0] = -3.0, 2.0
    frac = lambda v: np.clip(v - np.floor(v), 0.2, 0.8) + np.floor(v)
    sx, sy = frac(sx), frac(sy)
    add("bilinear_sample", lambda g: T.bilinear_sample(g, sx, sy), rnd(3, 6, 7))

    # two stacked grids, coordinates [2, n]: the second grid's samples sit
    # right next to the first grid's block of the interpolation matrix; one
    # point per grid is masked out
    bx = np.stack([sx, sx[::-1]])
    by = np.stack([sy, sy[::-1]])
    by[0, 1] = 5.0 + 0.5  # half a row below grid 0's last row
    bmask = np.ones(bx.shape, dtype=bool)
    bmask[:, 2] = False
    add("bilinear_sample.batched", lambda g: T.bilinear_sample(g, bx, by, mask=bmask),
        rnd(2, 3, 6, 7))

    # the grids texel-major, as ``stack_pyramids`` stores the sources: a
    # [B, C, H, W] view of the C-order [B, H, W, C] array concat writes
    def texel_major(g):
        return T.concat([g.transpose((0, 2, 3, 1))], 0).transpose((0, 3, 1, 2))

    add("bilinear_sample.texel_major",
        lambda g: T.bilinear_sample(texel_major(g), bx, by, mask=bmask), rnd(2, 3, 6, 7))

    # the lookup: f0 [C, P] against two stacked grids, sampled at [S, D, P]
    # points, in two channel groups; one point per grid is masked out and
    # one lies out of range
    lx, ly = frac(rng.uniform(0.2, 5.8, (2, 3, 4))), frac(rng.uniform(0.2, 4.8, (2, 3, 4)))
    lx[0, 1, 2] = -3.0
    lmask = np.ones(lx.shape, dtype=bool)
    lmask[:, 2, 1] = False
    add("sampled_group_dot", lambda f0, g: T.sampled_group_dot(f0, g, lx, ly, lmask, 2),
        rnd(4, 4), rnd(2, 4, 6, 7))
    add("sampled_group_dot.texel_major",
        lambda f0, g: T.sampled_group_dot(f0, texel_major(g), lx, ly, lmask, 2),
        rnd(4, 4), rnd(2, 4, 6, 7))

    add("bilinear_resize.up", lambda a: T.bilinear_resize(a, (6, 8)), rnd(2, 3, 4))
    add("bilinear_resize.down", lambda a: T.bilinear_resize(a, (2, 3)), rnd(2, 5, 6))

    def conv(name, x, c_out, k, stride, padding, scale, leaky=False):
        add(name, lambda x, w, b: T.conv2d(x, w, b, stride, padding, leaky=leaky),
            x, rnd(c_out, x.shape[-3], k, k) * scale, rnd(c_out) * 0.1)

    conv("conv2d.s1", rnd(3, 5, 5), 4, 3, 1, 1, 0.5)
    conv("conv2d.s2", rnd(3, 6, 6), 4, 3, 2, 1, 0.5)
    conv("conv2d.k1", rnd(3, 5, 5), 4, 1, 1, 0, 0.5)
    conv("conv2d.batched", rnd(2, 5, 4, 4), 3, 3, 1, 1, 0.4)
    # odd, non-square input at stride 2: the last row and column of taps
    # fall off the image with padding and are dropped without it
    conv("conv2d.s2.odd", rnd(3, 7, 5), 4, 3, 2, 1, 0.5)
    conv("conv2d.s2.nopad", rnd(3, 7, 5), 4, 3, 2, 0, 0.5)
    # widening at stride 2 on a larger plane, as the FPN's encoders:
    # conv2d's backward takes its input side here and only here
    conv("conv2d.s2.wide", rnd(2, 16, 16), 32, 3, 2, 1, 0.5)
    conv("conv2d.s2.batched", rnd(2, 3, 6, 6), 4, 3, 2, 1, 0.5)
    # the entries above take conv2d's im2col path forward; these narrow ones pass
    # 2·C_out·H·W <= C_in·H'·W' and take the output side
    conv("conv2d.narrow", rnd(8, 5, 6), 1, 3, 1, 1, 0.5)
    conv("conv2d.narrow.batched", rnd(2, 8, 4, 4), 2, 3, 1, 1, 0.4)
    conv("conv2d.narrow.s2", rnd(16, 7, 5), 2, 3, 2, 1, 0.3)
    # the leaky-ReLU epilogue on each forward path (im2col, output side)
    # and backward side (output, input)
    conv("conv2d.leaky", rnd(3, 5, 5), 4, 3, 1, 1, 0.5, leaky=True)
    conv("conv2d.leaky.narrow", rnd(8, 5, 6), 1, 3, 1, 1, 0.5, leaky=True)
    conv("conv2d.leaky.s2.wide", rnd(2, 16, 16), 32, 3, 2, 1, 0.5, leaky=True)
    conv("conv2d.narrow.k1", rnd(8, 5, 5), 3, 1, 1, 0, 0.5)

    from .geometry import denormalize_inv, normalize_inv

    add("normalize_inv", lambda d: normalize_inv(d, 2.0, 6.0), rng.uniform(2.2, 5.8, (4, 3)))
    add("denormalize_inv", lambda e: denormalize_inv(e, 2.0, 6.0), rng.uniform(0.05, 0.95, (4, 3)))

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
    from .matching import (GROUPS, AggregationUnet, ViewWeightCNN, group_correlation,
                           integrate, view_shares, view_weight)
    from .training import loss_class, loss_conf, loss_regress
    from .upsample import ConvexUpsampler

    def rnd(*shape):
        return rng.standard_normal(shape)

    checks: dict[str, Callable[[], float]] = {}

    def add(name, op, *inputs):
        checks[name] = op_check(op, inputs, rng, max_coords=_MODEL_COORDS)

    # two stacked sources, three hypotheses each; one is behind the camera
    cu, cv = rng.uniform(0.2, 3.8, (2, 3, 6)), rng.uniform(0.2, 4.8, (2, 3, 6))
    front = np.ones(cu.shape, dtype=bool)
    front[1, 0] = False
    add("group_correlation", lambda f_ref, f_src: group_correlation(f_ref, f_src, cu, cv, front),
        rnd(16, 6), rnd(2, 16, 6, 5))
    add("integrate", lambda sim, wv: integrate(sim, view_shares(wv.sigmoid())),
        rnd(4, 2, 3, 10), rnd(2, 1, 10))

    # one pixel's hypotheses all invalid: its logits are zero, its weight 1/D
    vw_valid = rng.random((4, 3, 3)) > 0.3
    vw_valid[:, 1, 2] = False
    vw, vw_init = _param_forward(lambda: ViewWeightCNN(np.random.default_rng(10)),
                                 lambda cnn, s: view_weight(cnn, s, vw_valid))
    add("view_weight", vw, rnd(GROUPS, 4, 3, 3), *vw_init)

    unet, unet_init = _param_forward(lambda: AggregationUnet(6, 3, np.random.default_rng(7)),
                                     lambda unet, x: unet(x))
    add("aggregate_unet", unet, rnd(6, 8, 8), *unet_init)
    gru, gru_init = _param_forward(lambda: GruCell(4, 3, np.random.default_rng(8)), gru_update)
    add("gru_update", gru, np.tanh(rnd(4, 5, 5)), rnd(3, 5, 5), *gru_init)

    peaked = rnd(16, 4, 4)
    peaked[5] += 4.0  # keep the argmax stable under the FD perturbation
    add("predict_depth", lambda logits: predict_depth(logits, radius=2), peaked)
    # the argmax at the last bin: the window's two entries past it weigh 0
    edge = rnd(16, 4, 4)
    edge[15] += 4.0
    add("predict_depth.edge", lambda logits: predict_depth(logits, radius=2), edge)

    ups, ups_init = _param_forward(lambda: ConvexUpsampler(6, np.random.default_rng(9)),
                                   ConvexUpsampler.upsample_depth)
    add("convex_upsample", ups, rng.uniform(2, 5, (4, 4)), rnd(6, 4, 4), *ups_init)

    d2 = 16
    x_gt = rng.integers(2, d2 - 2, size=(4, 4))
    valid = rng.random((4, 4)) > 0.2
    eta_gt = rng.uniform(0.1, 0.9, (4, 4))
    add("loss_class", lambda logits: loss_class(logits, x_gt, valid), rnd(d2, 4, 4))

    def lreg(logits):
        eta, x_k = predict_depth(logits, radius=2)
        return loss_regress(eta, x_k, eta_gt, x_gt, valid, radius=2, beta=float(d2))

    add("loss_regress", lreg, peaked)

    conf_gt = rng.random((4, 4)) > 0.5
    add("loss_conf", lambda z: loss_conf(z, conf_gt, valid), rnd(4, 4))

    return checks


def run_suite(instances: int = 20, seed: int = 0) -> list[OpReport]:
    """Run every op check ``instances`` times with fresh random draws."""
    if instances < 1:
        raise ConfigError(f"need at least one instance, got {instances}")
    if not seed >= 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    worst: dict[str, float] = {}
    for i in range(instances):
        rng = np.random.default_rng(seed * 1000 + i)
        checks = base_op_checks(rng) | model_op_checks(rng)
        for name, check in checks.items():
            worst[name] = max(worst.get(name, 0.0), check())
    return [OpReport(name, margin) for name, margin in worst.items()]


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

    The lookups take η as a constant: every finite-difference pass replays
    each η that the taped pass, which runs first, gave ``generate_hypotheses``.
    """
    from .estimator import DepthEstimator
    from .scenes import SynthSpec, synth_scene
    from .training import TrainConfig, sample_loss

    with using_dtype(np.float64):
        scene = synth_scene(SynthSpec(seed=FULL_LOSS_SEED, views=2, size=FULL_LOSS_SIZE,
                                      quads=1))
    cfg = TrainConfig(iters=FULL_LOSS_ITERS, views=2)
    looked_up: list[np.ndarray] = []

    def total(model):
        replay = iter(list(looked_up))  # empty on the taped pass

        def generate_hypotheses(eta):
            if (fixed := next(replay, None)) is None:
                looked_up.append(fixed := eta.copy())
            return DepthEstimator.generate_hypotheses(model, fixed)

        model.generate_hypotheses = generate_hypotheses
        return sample_loss(model, scene.views, 0, [1], cfg, warmup=False).total

    loss, init = _param_forward(
        lambda: DepthEstimator(cfg, np.random.default_rng(FULL_LOSS_SEED + 1)), total)
    return check_gradients(loss, init, max_coords=FULL_LOSS_COORDS,
                           rel_tol=FULL_LOSS_REL_TOL)
