"""Dense tensors with taped reverse-mode differentiation on numpy.

Design notes
------------
* A ``Tape`` records operations in execution order (which is automatically a
  topological order); ``backward(tape, loss)`` replays it in reverse.  Ops
  record themselves on the innermost active tape iff any input requires
  gradients.  With no tape active, ops are forward-only, which is what
  inference wants.
* Numeric precision is a process-global mode: float32 for speed, float64 for
  finite-difference verification.  Tensors created while a mode is active are
  cast to it; see :func:`set_default_dtype` / :class:`using_dtype`.
* Everything is single-threaded numpy, so identical inputs and seeds give
  bitwise-identical results.
* Every resampling op (``take_depth``, ``gather2d``, ``bilinear_sample``,
  ``bilinear_resize``) is a linear map given by an interpolation matrix S
  built from constant indices: forward applies S, backward applies S.T.
  Point gathers and bilinear sampling build a ``scipy.sparse`` CSR matrix
  with ``_interp_matrix`` (1 or 4 entries per row); its products sum
  repeated indices, so no backward needs a scatter-add.  The separable
  resize uses two small dense per-axis matrices.
* Kernels compute in the layout their input already has.
  ``bilinear_sample`` returns its samples texel-major: a [C, ...] view of a
  [N, C] product.  ``group_dot`` moves C last, which is free on such a view,
  multiplies in [D, P, C] order and reduces each channel group with one
  matmul.  The result is the same for a contiguous [C, D, P] input.
  ``conv2d`` builds its im2col matrix straight from the unpadded input.  For
  each kernel tap, a pair of (output slice, input slice) per axis covers just
  the outputs that read inside the image; only the border rows and columns
  that would read padding are zeroed.  Backward scatters into a channel-major
  [C_in, B, H, W] buffer, the layout the im2col gradient already has.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import ContractError, ShapeError

_DEFAULT_DTYPE = np.float32
_TAPES: list["Tape"] = []
_GRAD_ENABLED = [True]

_FLOAT_TYPES = (np.float32, np.float64)


def set_default_dtype(dtype) -> None:
    """Set the global numeric mode. Only float32 and float64 are legal."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype).type
    if dt not in _FLOAT_TYPES:
        raise ContractError(f"default dtype must be float32 or float64, got {dtype}")
    _DEFAULT_DTYPE = dt


def default_dtype():
    return _DEFAULT_DTYPE


class using_dtype:
    """Context manager that temporarily switches the global numeric mode."""

    def __init__(self, dtype):
        self.dtype = dtype
        self._saved = None

    def __enter__(self):
        self._saved = _DEFAULT_DTYPE
        set_default_dtype(self.dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self._saved)
        return False


class no_grad:
    """Disable tape recording inside the block (forward-only)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


class Tape:
    """Ordered record of differentiable operations.

    Each entry is ``(out, parents, backward_fn)`` where ``backward_fn(g)``
    accumulates gradients into the parents.  Entries are appended in
    execution order, so every op appears after all of its parents.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple["Tensor", tuple["Tensor", ...], Callable]] = []

    def record(self, out: "Tensor", parents: tuple["Tensor", ...], fn: Callable) -> None:
        self.entries.append((out, parents, fn))

    def __len__(self) -> int:
        return len(self.entries)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """A dense float array plus gradient bookkeeping.

    Data has at most 4 axes.  ``grad`` is filled by :func:`backward` and has
    the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.type is not _DEFAULT_DTYPE:
            arr = arr.astype(_DEFAULT_DTYPE)
        if arr.ndim > 4:
            raise ShapeError(f"tensors have at most 4 axes, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError("zero-size tensors are not allowed")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- elementwise -------------------------------------------------------

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def abs(self):
        return absval(self)

    def sigmoid(self):
        return sigmoid(self)

    def tanh(self):
        return tanh(self)

    def leaky_relu(self, slope: float = 0.01):
        return leaky_relu(self, slope)

    def clip(self, lo=None, hi=None):
        return clip(self, lo, hi)

    # -- reductions / shape ------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def max(self, axis, keepdims=False):
        return tmax(self, axis, keepdims)

    def softmax(self, axis):
        return softmax(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, parents: tuple[Tensor, ...], fn: Callable) -> Tensor:
    tape = active_tape()
    if tape is not None and _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, parents, fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _check_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for {ndim} axes")
    return axis % ndim


# ---------------------------------------------------------------------------
# binary / unary elementwise
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _record(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        _accum(a, g / b.data)
        _accum(b, -g * out.data / b.data)

    return _record(out, (a, b), bw)


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.exp(a.data))

    def bw(g):
        _accum(a, g * out.data)

    return _record(out, (a,), bw)


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.log(a.data))

    def bw(g):
        _accum(a, g / a.data)

    return _record(out, (a,), bw)


def absval(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.abs(a.data))

    def bw(g):
        _accum(a, g * np.sign(a.data))

    return _record(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = Tensor(expit(a.data))

    def bw(g):
        _accum(a, g * out.data * (1.0 - out.data))

    return _record(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.tanh(a.data))

    def bw(g):
        _accum(a, g * (1.0 - out.data * out.data))

    return _record(out, (a,), bw)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    a = _wrap(a)
    out = Tensor(np.where(a.data > 0, a.data, slope * a.data))

    def bw(g):
        _accum(a, g * np.where(a.data > 0, 1.0, slope))

    return _record(out, (a,), bw)


def clip(a: Tensor, lo=None, hi=None) -> Tensor:
    """Clamp values; gradient is passed through only inside [lo, hi]."""
    a = _wrap(a)
    out = Tensor(np.clip(a.data, lo, hi))
    mask = np.ones_like(a.data)
    if lo is not None:
        mask *= a.data >= lo
    if hi is not None:
        mask *= a.data <= hi

    def bw(g):
        _accum(a, g * mask)

    return _record(out, (a,), bw)


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select elementwise by a constant boolean mask (not differentiable in cond)."""
    cond = np.asarray(cond, dtype=bool)
    a, b = _wrap(a), _wrap(b)
    out = Tensor(np.where(cond, a.data, b.data))

    def bw(g):
        _accum(a, g * cond)
        _accum(b, g * ~cond)

    return _record(out, (a, b), bw)


# ---------------------------------------------------------------------------
# reductions, softmax, shape ops
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is not None:
        axis = _check_axis(axis, a.ndim)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape))

    return _record(out, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is not None:
        axis = _check_axis(axis, a.ndim)
    scale = 1.0 / (a.size if axis is None else a.shape[axis])
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims) * scale)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g * scale, a.data.shape))

    return _record(out, (a,), bw)


def tmax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis. Gradient routes to the lowest-index maximum."""
    a = _wrap(a)
    axis = _check_axis(axis, a.ndim)
    idx = np.argmax(a.data, axis=axis)
    idx_e = np.expand_dims(idx, axis)
    vals = np.take_along_axis(a.data, idx_e, axis=axis)
    out = Tensor(vals if keepdims else np.squeeze(vals, axis))

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        gz = np.zeros_like(a.data)
        np.put_along_axis(gz, idx_e, g, axis=axis)
        _accum(a, gz)

    return _record(out, (a,), bw)


def softmax(a: Tensor, axis: int) -> Tensor:
    a = _wrap(a)
    axis = _check_axis(axis, a.ndim)
    # one buffer: shift, exponentiate and normalize in place
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _record(out, (a,), bw)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inv = np.argsort(axes)
    out = Tensor(a.data.transpose(axes))

    def bw(g):
        _accum(a, g.transpose(inv))

    return _record(out, (a,), bw)


def getitem(a: Tensor, idx) -> Tensor:
    """Basic slicing only (slices / ints); fancy indexing is not supported."""
    a = _wrap(a)
    out = Tensor(a.data[idx])

    def bw(g):
        gz = np.zeros_like(a.data)
        gz[idx] = g
        _accum(a, gz)

    return _record(out, (a,), bw)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    axis = _check_axis(axis, ts[0].ndim)
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _record(out, tuple(ts), bw)


# ---------------------------------------------------------------------------
# resampling: gathers, bilinear sampling, resizing
# ---------------------------------------------------------------------------


def _interp_matrix(cols: np.ndarray, weights: np.ndarray, n_src: int) -> sp.csr_matrix:
    """Sparse interpolation matrix S [N, n_src] with K entries per row.

    Row i holds ``weights[i, k]`` at column ``cols[i, k]`` (both [N, K]).
    Products sum repeated columns, so ``S @ F.T`` gathers from a [C, n_src]
    source and ``S.T @ G.T`` scatter-adds a [C, N] gradient back onto it.
    """
    n, k = cols.shape
    if cols.size and (cols.min() < 0 or cols.max() >= n_src):
        raise ContractError(f"interpolation index outside [0, {n_src})")
    # scipy checks and narrows int64 indices on every build; hand it int32
    itype = np.int32 if max(n_src, n * k) < 2**31 else np.int64
    return sp.csr_matrix((weights.ravel(), cols.ravel().astype(itype),
                          np.arange(0, n * k + 1, k, dtype=itype)), shape=(n, n_src))


def take_depth(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along axis 0 of a [D, H, W] tensor with integer idx [M, H, W]."""
    a = _wrap(a)
    if a.ndim != 3 or idx.ndim != 3 or idx.shape[1:] != a.shape[1:]:
        raise ShapeError(f"take_depth: bad shapes {a.shape} / {idx.shape}")
    plane = a.shape[1] * a.shape[2]
    cols = idx.astype(np.int64).reshape(-1, plane) * plane + np.arange(plane)
    s = _interp_matrix(cols.reshape(-1, 1), np.ones(cols.size, a.dtype), a.size)
    out = Tensor((s @ a.data.reshape(-1)).reshape(idx.shape))

    def bw(g):
        _accum(a, (s.T @ g.reshape(-1)).reshape(a.shape))

    return _record(out, (a,), bw)


def gather2d(a: Tensor, iy: np.ndarray, ix: np.ndarray) -> Tensor:
    """out[...] = a[iy[...], ix[...]] for a 2-D tensor; indices are constants."""
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"gather2d needs a 2-D tensor, got {a.shape}")
    h, w = a.shape
    iy = iy.astype(np.int64)
    ix = ix.astype(np.int64)
    if iy.size and (iy.min() < 0 or iy.max() >= h or ix.min() < 0 or ix.max() >= w):
        raise ContractError(f"gather2d index outside {h}x{w}")
    cols = (iy * w + ix).reshape(-1, 1)
    s = _interp_matrix(cols, np.ones(cols.size, a.dtype), a.size)
    out = Tensor((s @ a.data.reshape(-1)).reshape(iy.shape))

    def bw(g):
        _accum(a, (s.T @ g.reshape(-1)).reshape(a.shape))

    return _record(out, (a,), bw)


def bilinear_sample(grid: Tensor, x, y, mode: str = "zero",
                    mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Sample a [C, H, W] grid, or a batch [B, C, H, W] of grids, at
    fractional coordinates.

    Args:
        grid: feature map, [C, H, W], or B maps stacked as [B, C, H, W].
        x, y: coordinates in pixel units, Tensor or ndarray of equal shape;
            with a batched grid their leading axis is B and entry b samples
            map b.  Differentiable in both the grid and (if Tensors) the
            coordinates.
        mode: "zero" returns 0 outside [0, W-1] x [0, H-1] and flags those
            points invalid; "edge" clamps to the border and everything is
            valid.
        mask: optional bool array of the coordinates' shape; a point where
            it is False is invalid in either mode: it samples 0 and passes
            no gradient.

    Returns:
        (samples [C, *coord_shape], valid bool mask [*coord_shape]).
    """
    grid = _wrap(grid)
    if grid.ndim not in (3, 4):
        raise ShapeError(f"bilinear_sample needs [C, H, W] or [B, C, H, W], got {grid.shape}")
    if mode not in ("zero", "edge"):
        raise ContractError(f"unknown sampling mode {mode!r}")
    b, c, h, w = grid.shape if grid.ndim == 4 else (1,) + grid.shape
    xt = x if isinstance(x, Tensor) else None
    yt = y if isinstance(y, Tensor) else None
    xd = np.asarray(x.data if xt is not None else x, dtype=grid.dtype)
    yd = np.asarray(y.data if yt is not None else y, dtype=grid.dtype)
    if xd.shape != yd.shape:
        raise ShapeError(f"coordinate shapes differ: {xd.shape} vs {yd.shape}")
    if grid.ndim == 4 and xd.shape[:1] != (b,):
        raise ShapeError(f"{b} grids but coordinates of shape {xd.shape}")
    cshape = xd.shape
    xf = xd.ravel()
    yf = yd.ravel()

    inside = (xf >= 0) & (xf <= w - 1) & (yf >= 0) & (yf <= h - 1)
    valid = np.ones_like(inside) if mode == "edge" else inside
    if mask is not None:
        valid = valid & np.asarray(mask).ravel()
    # an invalid point has all its interpolation weights zeroed
    keep = valid.astype(grid.dtype)[:, None]

    xc = np.clip(xf, 0, w - 1)
    yc = np.clip(yf, 0, h - 1)
    x0 = np.floor(xc)
    y0 = np.floor(yc)
    fx = (xc - x0)[:, None]
    fy = (yc - y0)[:, None]
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # corners in the order (y0, x0), (y0, x1), (y1, x0), (y1, x1); grid b's
    # texels are columns b*H*W .. (b+1)*H*W - 1 of one interpolation matrix
    cols = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1], axis=1)
    if b > 1:
        cols += np.repeat(np.arange(b) * (h * w), xf.size // b)[:, None]
    ex, ey = 1 - fx, 1 - fy
    s = _interp_matrix(cols, np.hstack([ey * ex, ey * fx, fy * ex, fy * fx]) * keep, b * h * w)

    def texels():  # the source texel-major, [B*H*W, C]; not kept for backward
        return np.moveaxis(grid.data.reshape(b, c, h * w), 1, 2).reshape(b * h * w, c)

    out = Tensor((s @ texels()).T.reshape((c,) + cshape))

    def bw(g):
        g2 = g.reshape(c, -1)
        if grid.requires_grad:
            gs = (s.T @ g2.T).reshape(b, h * w, c)
            _accum(grid, np.moveaxis(gs, 2, 1).reshape(grid.shape))
        # d/dx and d/dy of the blend share S's indices; a clamped coordinate
        # gets no gradient
        flat = texels() if any(t is not None and t.requires_grad for t in (xt, yt)) else None
        for ct, cf, cc, dw in ((xt, xf, xc, (-ey, ey, -fy, fy)),
                               (yt, yf, yc, (-ex, -fx, ex, fx))):
            if ct is not None and ct.requires_grad:
                dw = np.hstack(dw) * keep * (cf == cc)[:, None]
                sd = sp.csr_matrix((dw.ravel(), s.indices, s.indptr), shape=s.shape)
                _accum(ct, ((sd @ flat) * g2.T).sum(axis=1).reshape(cshape))

    parents = tuple(p for p in (grid, xt, yt) if p is not None)
    return _record(out, parents, bw), valid.reshape(cshape)


def _axis_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Dense [n_out, n_in] 1-D bilinear resize matrix (pixel centers, edge clamp)."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    i0f = np.floor(src)
    frac = src - i0f
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[rows, np.clip(i0f, 0, n_in - 1).astype(np.int64)] = 1 - frac
    m[rows, np.clip(i0f + 1, 0, n_in - 1).astype(np.int64)] += frac
    return m


def bilinear_resize(a: Tensor, size: tuple[int, int]) -> Tensor:
    """Resize the trailing two axes of a [C, H, W] or [H, W] tensor.

    Uses the pixel-center convention (output pixel i samples input
    coordinate (i + 0.5) * H_in / H_out - 0.5) with edge clamping, so values
    stay inside the input's convex hull.  Separable: out = Ry @ a @ Rx.T.
    """
    a = _wrap(a)
    if a.ndim not in (2, 3):
        raise ShapeError(f"bilinear_resize needs [H, W] or [C, H, W], got {a.shape}")
    h_in, w_in = a.shape[-2:]
    h_out, w_out = int(size[0]), int(size[1])
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"bad target size {size}")
    ry = _axis_matrix(h_in, h_out, a.dtype)
    rx = _axis_matrix(w_in, w_out, a.dtype)
    out = Tensor(ry @ (a.data @ rx.T))

    def bw(g):
        _accum(a, ry.T @ (g @ rx))

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _tap_slices(n_in: int, n_out: int, tap: int, stride: int,
                padding: int) -> tuple[slice, slice]:
    """(output slice, input slice) of one kernel tap along one axis.

    Output o reads input o*stride + tap - padding.  The slices cover just
    the outputs whose input lies in [0, n_in); the others read padding.
    """
    off = tap - padding
    lo = max(0, -(off // stride))
    hi = min(n_out - 1, (n_in - 1 - off) // stride)
    if hi < lo:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi + 1), slice(lo * stride + off, hi * stride + off + 1, stride)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding.

    Args:
        x: input, [C, H, W] or [B, C, H, W].
        weight: [C_out, C_in, k, k] with odd k.
        bias: optional [C_out].
        stride: 1 or 2.
        padding: symmetric zero padding; (k-1)//2 gives same-size output at
            stride 1.

    Returns:
        [C_out, H', W'] or [B, C_out, H', W'] matching the input rank, with
        H' = (H + 2*padding - k) // stride + 1.
    """
    x = _wrap(x)
    weight = _wrap(weight)
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ShapeError(f"weight must be [C_out, C_in, k, k], got {weight.shape}")
    k = weight.shape[2]
    if k % 2 != 1:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if stride not in (1, 2):
        raise ContractError(f"stride must be 1 or 2, got {stride}")
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise ShapeError(f"input must be [C, H, W] or [B, C, H, W], got {x.shape}")
    b_n, c_in, h, w = xd.shape
    c_out = weight.shape[0]
    if weight.shape[1] != c_in:
        raise ShapeError(f"input has {c_in} channels but weight expects {weight.shape[1]}")
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {k} does not fit input {h}x{w} with padding {padding}")

    # im2col straight from the input, channel-major: tap (i, j) copies the
    # outputs whose input texel lies inside the image
    ys = [_tap_slices(h, h_out, i, stride, padding) for i in range(k)]
    xs = [_tap_slices(w, w_out, j, stride, padding) for j in range(k)]
    xc = xd.transpose(1, 0, 2, 3)
    cols = np.empty((c_in, k, k, b_n, h_out, w_out), dtype=xd.dtype)
    for i, (oy, iy) in enumerate(ys):
        for j, (ox, ix) in enumerate(xs):
            cols[:, i, j, :, oy, ox] = xc[:, :, iy, ix]
    # the rest reads padding: the border rows of each tap row and the border
    # columns of each tap column, zeroed in at most 4k calls
    for i, (oy, _) in enumerate(ys):
        if oy.start > 0:
            cols[:, i, :, :, :oy.start] = 0
        if oy.stop < h_out:
            cols[:, i, :, :, oy.stop:] = 0
    for j, (ox, _) in enumerate(xs):
        if ox.start > 0:
            cols[:, :, j, :, :, :ox.start] = 0
        if ox.stop < w_out:
            cols[:, :, j, :, :, ox.stop:] = 0
    cols2 = cols.reshape(c_in * k * k, b_n * h_out * w_out)
    wmat = weight.data.reshape(c_out, c_in * k * k)
    res = wmat @ cols2
    if bias is not None:
        bias = _wrap(bias)
        res += bias.data[:, None]
    res = res.reshape(c_out, b_n, h_out, w_out).transpose(1, 0, 2, 3)
    out = Tensor(res[0] if squeeze else res)

    def bw(g):
        g4 = g[None] if squeeze else g
        gmat = g4.transpose(1, 0, 2, 3).reshape(c_out, b_n * h_out * w_out)
        if bias is not None and bias.requires_grad:
            _accum(bias, gmat.sum(axis=1))
        if weight.requires_grad:
            _accum(weight, (gmat @ cols2.T).reshape(weight.shape))
        if x.requires_grad:
            # col2im into a channel-major buffer, the layout dcols has
            dcols = (wmat.T @ gmat).reshape(c_in, k, k, b_n, h_out, w_out)
            gx = np.zeros((c_in, b_n, h, w), dtype=xd.dtype)
            for i, (oy, iy) in enumerate(ys):
                for j, (ox, ix) in enumerate(xs):
                    gx[:, :, iy, ix] += dcols[:, i, j, :, oy, ox]
            _accum(x, gx[:, 0] if squeeze else gx.transpose(1, 0, 2, 3))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _record(out, parents, bw)


# ---------------------------------------------------------------------------
# group correlation
# ---------------------------------------------------------------------------


def group_dot(f0: Tensor, fi: Tensor, groups: int) -> Tensor:
    """Group-wise mean of channel products: out[g, d, p] is the mean over
    group g's C/groups channels of f0[c, p] * fi[c, d, p].

    f0: [C, P]; fi: [C, D, P]; returns [groups, D, P].  Works texel-major
    ([D, P, C]), the layout ``bilinear_sample`` produces fi in, and sums each
    group's channels with one matmul against a [C, groups] averaging matrix.
    """
    f0, fi = _wrap(f0), _wrap(fi)
    if f0.ndim != 2 or fi.ndim != 3 or fi.shape[::2] != f0.shape:
        raise ShapeError(f"group_dot needs [C, P] and [C, D, P], got {f0.shape} / {fi.shape}")
    c, d, p = fi.shape
    if groups < 1 or c % groups:
        raise ShapeError(f"{c} channels not divisible into {groups} groups")
    # [C, groups]: channel c contributes groups/C to its group c // (C/groups)
    avg = np.repeat(np.eye(groups, dtype=fi.dtype), c // groups, axis=0) * (groups / c)
    f0t = np.ascontiguousarray(f0.data.T)
    a = np.moveaxis(fi.data, 0, -1)
    prod = np.multiply(a, f0t, order="C").reshape(d * p, c)
    out = Tensor((avg.T @ prod.T).reshape(groups, d, p))

    def bw(g):
        gp = (g.reshape(groups, d * p).T @ avg.T).reshape(d, p, c)
        if fi.requires_grad:
            _accum(fi, np.moveaxis(gp * f0t, -1, 0))
        if f0.requires_grad:
            _accum(f0, np.einsum("dpc,dpc->cp", gp, a))

    return _record(out, (f0, fi), bw)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-replay the tape from a scalar loss.

    Fills ``.grad`` on every tensor reached and returns the gradients of the
    requires-grad leaves (tensors that are inputs but never outputs on this
    tape).  Parameters not touched by the loss simply do not appear.
    """
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    produced = {id(out) for out, _, _ in tape.entries}
    for out, _, fn in reversed(tape.entries):
        if out.grad is not None:
            fn(out.grad)
    leaves: dict[Tensor, np.ndarray] = {}
    for _, parents, _ in tape.entries:
        for p in parents:
            if p.requires_grad and id(p) not in produced and p.grad is not None:
                leaves[p] = p.grad
    return leaves
