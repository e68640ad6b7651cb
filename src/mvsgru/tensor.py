"""Dense tensors with taped reverse-mode differentiation on numpy.

Design notes
------------
* A ``Tape`` records operations in execution order (which is automatically a
  topological order); ``backward(tape, loss)`` replays it once, in reverse,
  and consumes it: each entry is dropped once its closure has run, and its
  output's ``grad`` is reset to None, so intermediate gradients and the
  buffers their closures hold are freed as the replay goes.  Only tensors
  no entry produced (parameters, inputs) keep a ``grad``.  Ops record
  themselves on the innermost active tape iff any input requires
  gradients.  With no tape active, ops are forward-only, which is what
  inference wants.
* Ops record through ``_unary`` / ``_binary``, given ``grad(g, y)`` from
  the output gradient and array to the parents' gradients.  Only the ops
  ``bench/tracer.py`` times backward by closure owner (its
  ``BACKWARD_OPS``) call ``_record`` with their own closure.  ``no_grad``
  is an empty slot on the tape stack: the innermost slot decides whether
  ops record.
* One hand-off rule: a backward closure hands each parent an array that
  nothing else reads or writes, either a fresh array or ``g`` (or a view
  of it) for one parent only.  ``g`` is ``out.grad``, which ``backward``
  drops once the closure has run, so ``_accum`` keeps a first gradient as
  it is and adds later ones in place.  ``add`` copies ``g`` for its second
  parent when both need a gradient, and ``_scaled_sum`` hands over a
  writeable array rather than a broadcast view.
* A taped op is worth a fused body: each entry costs Python and numpy
  call overhead that does not shrink with the image.  ``conv2d`` applies
  the network's leaky ReLU as an epilogue, ``group_norm`` is the whole
  per-pixel group normalization, and ``sampled_group_dot`` the whole
  lookup from coordinates to grouped similarity.  ``weighted_sum`` is the
  model's one weighted reduction: no call site multiplies, then sums.
* Numeric precision is a process-global mode: float32 for speed, float64 for
  finite-difference verification.  Tensors created while a mode is active are
  cast to it; see :func:`set_default_dtype` / :class:`using_dtype`.
* Everything is single-threaded numpy, so identical inputs and seeds give
  bitwise-identical results.
* Every resampling op (``take_depth``, ``gather2d``, ``bilinear_sample``,
  ``bilinear_resize``) is a linear map of its grid with constant indices
  and weights, an interpolation matrix S: forward applies S, backward S.T.
  Point gathers and bilinear sampling build a ``scipy.sparse`` CSR matrix
  with ``_interp_matrix`` (1 or 4 entries per row); its products sum
  repeated indices, so no backward needs a scatter-add.  The separable
  resize uses two small dense per-axis matrices, cached per size and dtype
  and read-only.
* Kernels compute in the layout their input already has.
  ``bilinear_sample`` returns its samples texel-major: a [C, ...] view of a
  [N, C] product.  The lookup never forms its warped features [C, S, D, P]
  (S sources, D hypotheses, P pixels): ``sampled_group_dot`` gathers them
  texel-major, [n, C], a slab of rows at a time, multiplies by the
  reference's [P, C] and reduces each channel group with one matmul to
  [G, S, D, P]; its backward rebuilds them from the interpolation matrix.
  ``conv2d`` never pads its input.  For each kernel tap, a pair of (output
  slice, input slice) per axis covers just the outputs that read inside the
  image.  Its forward buffers whichever side of the convolution is cheaper:
  an im2col matrix of the input for wide outputs, or the per-tap products
  at every input texel for narrow ones.  Its one backward reads the input
  and weights when it runs, so neither forward buffer stays on the tape,
  and also takes the cheaper side: it gathers the output gradient over the
  input grid, or, for layers that widen on large planes, rebuilds the
  im2col and adds the per-tap products back (see its docstring).
* ``bilinear_sample`` and ``sampled_group_dot`` gather from the texel
  table [B·H·W, C] of their grid.  On a texel-major grid, a [B, C, H, W]
  view of C-order [B, H, W, C] memory, that table is a free reshape; a
  channel-major grid is copied to it on every call.  So a grid sampled
  more than once is stored texel-major once (``features.stack_pyramids``),
  and ``concat`` writes C order, which numpy's concatenate would not do for
  transposed inputs.  Outputs and gradients are the same bits on either
  layout.  Their interpolation matrix (``_sampling_matrix``) takes a [N, 4]
  corner table that is built in place in the matrix's index
  type (int32 unless the indices need more), and the four weights go into
  one [N, 4] buffer.  Every temporary keeps the grid's float dtype: numpy 2
  computes int32 − float32 in float64, at twice the bytes.
* A forward pass fills no work buffer above ``MAX_WORK_ELEMENTS``:
  ``conv2d`` fills and multiplies its im2col in bands, and
  ``sampled_group_dot`` gathers its warped features in slabs, both split
  with ``work_slices``, each dropped before the next is filled.  The
  readout's argmax (``estimator._lowest_argmax``) forms its bool and
  integer volumes in row bands split the same way.  A reduction whose
  terms must be formed first fills one buffer of its input's size:
  ``logsumexp`` exponentiates the shifted logits in place, in forward and
  in backward.  Backward buffers are not bounded otherwise, so the init
  sweep's view-weight CNN runs per source: over all S·D1 hypotheses, its
  backward buffer raised the peak.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import ContractError, ShapeError

_DEFAULT_DTYPE = np.float32
_TAPES: list["Tape | None"] = []  # innermost last; None is a no_grad slot

_FLOAT_TYPES = (np.float32, np.float64)
LEAKY_SLOPE = 0.01

# elements of the largest work buffer a forward pass fills at once (2 MB of
# float32); see ``conv2d`` and ``work_slices``
MAX_WORK_ELEMENTS = 1 << 19


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
    """Disable tape recording inside the block (forward-only).

    It pushes an empty slot onto the tape stack, so no tape is active until
    the block exits, even inside a ``Tape`` block.  The innermost slot
    decides: a ``Tape`` opened inside ``no_grad`` records, and a nested
    ``no_grad`` block leaves recording off when it exits.
    """

    def __enter__(self):
        _TAPES.append(None)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


class Tape:
    """Ordered record of differentiable operations.

    Each entry is ``(out, parents, backward_fn)`` where ``backward_fn(g)``
    accumulates gradients into the parents.  Entries are appended in
    execution order, so every op appears after all of its parents.  A tape
    can be replayed once: ``backward`` pops its entries and leaves it empty
    and marked ``replayed``.
    """

    __slots__ = ("entries", "replayed")

    def __init__(self):
        self.entries: list[tuple["Tensor", tuple["Tensor", ...], Callable]] = []
        self.replayed = False

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

    # -- elementwise -------------------------------------------------------

    def abs(self):
        return absval(self)

    def sigmoid(self):
        return sigmoid(self)

    def tanh(self):
        return tanh(self)

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
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, parents, fn)
    return out


def _unary(a: Tensor, data, grad: Callable) -> Tensor:
    """Record a one-parent op with output ``data``; ``grad(g, y)`` maps the
    output gradient and the output array to a's gradient."""
    out = Tensor(data)
    return _record(out, (a,), lambda g: _accum(a, grad(g, out.data)))


def _binary(a: Tensor, b: Tensor, data, grad: Callable) -> Tensor:
    """Record a two-parent op; ``grad(g, y)`` returns (a's, b's) gradient,
    which share no memory.  A parent that needs no gradient may get None."""
    out = Tensor(data)

    def bw(g):
        ga, gb = grad(g, out.data)
        _accum(a, ga)
        _accum(b, gb)

    return _record(out, (a, b), bw)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.  By the hand-off rule (module notes) g is
    t's alone, so a first gradient becomes ``t.grad`` as it is.  The full
    reduction onto a 0-d tensor, such as a scalar gain, gives a numpy
    scalar, which ``np.asarray`` makes a 0-d array."""
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
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
    both = a.requires_grad and b.requires_grad
    return _binary(a, b, a.data + b.data, lambda g, y: (g, g.copy() if both else g))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, a.data - b.data, lambda g, y: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, a.data * b.data, lambda g, y: (g * b.data, g * a.data))


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, a.data / b.data, lambda g, y: (g / b.data, -g * y / b.data))


def absval(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _unary(a, np.abs(a.data), lambda g, y: g * np.sign(a.data))


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _unary(a, expit(a.data), lambda g, y: g * y * (1.0 - y))


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _unary(a, np.tanh(a.data), lambda g, y: g * (1.0 - y * y))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^a), exact in both tails; its gradient is sigmoid(a)."""
    a = _wrap(a)
    return _unary(a, np.logaddexp(0.0, a.data), lambda g, y: g * expit(a.data))


# ---------------------------------------------------------------------------
# reductions, softmax, shape ops
# ---------------------------------------------------------------------------


def _scaled_sum(a: Tensor, axis, keepdims: bool, scale: float) -> Tensor:
    """The body of ``tsum`` (scale 1.0, and x·1.0 is exact) and ``tmean``
    (scale 1/n)."""
    if axis is not None:
        axis = _check_axis(axis, a.ndim)

    def grad(g, y):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g * scale, a.data.shape).copy()

    return _unary(a, a.data.sum(axis=axis, keepdims=keepdims) * scale, grad)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _scaled_sum(_wrap(a), axis, keepdims, 1.0)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    n = a.size if axis is None else a.shape[_check_axis(axis, a.ndim)]
    return _scaled_sum(a, axis, keepdims, 1.0 / n)


def tmax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis. Gradient routes to the lowest-index maximum."""
    a = _wrap(a)
    axis = _check_axis(axis, a.ndim)
    idx_e = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    vals = np.take_along_axis(a.data, idx_e, axis=axis)

    def grad(g, y):
        gz = np.zeros_like(a.data)
        np.put_along_axis(gz, idx_e, g if keepdims else np.expand_dims(g, axis), axis=axis)
        return gz

    return _unary(a, vals if keepdims else np.squeeze(vals, axis), grad)


def softmax(a: Tensor, axis: int) -> Tensor:
    a = _wrap(a)
    axis = _check_axis(axis, a.ndim)
    # one buffer: shift, exponentiate and normalize in place
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return _unary(a, y, lambda g, y: y * (g - (g * y).sum(axis=axis, keepdims=True)))


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """log Σ exp(a) along one axis, kept at length 1.  Its gradient, g times
    the softmax exp(a − y), is formed in backward: the tape holds no volume.
    Forward and backward exponentiate the shifted logits in place, so each
    fills one volume-sized buffer."""
    a = _wrap(a)
    axis = _check_axis(axis, a.ndim)
    m = a.data.max(axis=axis, keepdims=True)
    e = a.data - m
    y = np.log(np.exp(e, out=e).sum(axis=axis, keepdims=True)) + m

    def grad(g, y):
        e = a.data - y
        np.exp(e, out=e)
        e *= g
        return e

    return _unary(a, y, grad)


def weighted_sum(a: Tensor, w: Tensor, axis: int | None) -> Tensor:
    """Σ a·w along one axis of their broadcast product, or all with axis None.
    One taped op that keeps no product; a parent needing no gradient gets None."""
    a, w = _wrap(a), _wrap(w)
    prod = a.data * w.data
    axis = None if axis is None else _check_axis(axis, prod.ndim)
    shape = prod.shape

    def grad(g, y):
        g = np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)
        return g * w.data if a.requires_grad else None, g * a.data if w.requires_grad else None

    return _binary(a, w, prod.sum(axis), grad)


def group_norm(f: Tensor, groups: int, eps: float) -> Tensor:
    """Scale each channel group of f [C, ...] to unit root-mean-square at
    every position: with x the [groups, C/groups, ...] view,
    y = x · inv, inv = 1/sqrt(mean(x², axis 1) + eps).

    One taped op.  Its backward, with the means over the same axis, is
    dx = (g − y·mean(g·y)) · inv, a fresh array.
    """
    f = _wrap(f)
    c = f.shape[0]
    if groups < 1 or c % groups:
        raise ShapeError(f"{c} channels not divisible into {groups} groups")
    gshape = (groups, c // groups) + f.shape[1:]
    x = f.data.reshape(gshape)
    inv = 1.0 / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps)

    def grad(g, y):
        g, y = g.reshape(gshape), y.reshape(gshape)
        return ((g - y * (g * y).mean(axis=1, keepdims=True)) * inv).reshape(f.shape)

    return _unary(f, (x * inv).reshape(f.shape), grad)


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    return _unary(a, a.data.reshape(shape), lambda g, y: g.reshape(a.data.shape))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inv = np.argsort(axes)
    return _unary(a, a.data.transpose(axes), lambda g, y: g.transpose(inv))


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
    # C order whatever the inputs' layout: numpy would follow theirs
    shape = list(ts[0].shape)
    shape[axis] = sum(t.shape[axis] for t in ts)
    res = np.empty(shape, functools.reduce(np.promote_types, (t.dtype for t in ts)))
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis, out=res))
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def bw(g):
        for t, gt in zip(ts, np.split(g, splits, axis=axis)):
            _accum(t, gt)

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
    itype = _index_type(n_src, n * k)
    return sp.csr_matrix((weights.ravel(), cols.ravel().astype(itype, copy=False),
                          np.arange(0, n * k + 1, k, dtype=itype)), shape=(n, n_src))


def _index_type(n_src: int, nnz: int):
    """The index dtype of an interpolation matrix: scipy checks and narrows
    int64 indices on every build, so int32 wherever they fit."""
    return np.int32 if max(n_src, nnz) < 2**31 else np.int64


def take_depth(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along axis 0 of a [D, H, W] tensor with integer idx [M, H, W]."""
    a = _wrap(a)
    if a.ndim != 3 or idx.ndim != 3 or idx.shape[1:] != a.shape[1:]:
        raise ShapeError(f"take_depth: bad shapes {a.shape} / {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError(f"take_depth index outside [0, {a.shape[0]})")
    plane = a.shape[1] * a.shape[2]
    # the flat columns idx·plane + p, formed in place in the matrix's index type
    cols = idx.astype(_index_type(a.size, idx.size)).reshape(-1, plane)
    cols *= plane
    cols += np.arange(plane, dtype=cols.dtype)
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


def _sampling_matrix(grid: Tensor, x, y, mask) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The interpolation matrix S [N, B·H·W] of bilinear samples of a [C, H,
    W] or [B, C, H, W] grid at the N points (x, y), the grid's texel table
    [B·H·W, C] and the points' validity mask, of the coordinates' shape;
    ``bilinear_sample`` documents the arguments.  S weighs an invalid point
    0, so ``S @ texels`` is the [N, C] samples."""
    if grid.ndim not in (3, 4):
        raise ShapeError(f"bilinear_sample needs [C, H, W] or [B, C, H, W], got {grid.shape}")
    b, c, h, w = grid.shape if grid.ndim == 4 else (1,) + grid.shape
    xd = np.asarray(x, dtype=grid.dtype)
    yd = np.asarray(y, dtype=grid.dtype)
    if xd.shape != yd.shape:
        raise ShapeError(f"coordinate shapes differ: {xd.shape} vs {yd.shape}")
    if grid.ndim == 4 and xd.shape[:1] != (b,):
        raise ShapeError(f"{b} grids but coordinates of shape {xd.shape}")
    cshape = xd.shape
    if mask is not None and np.shape(mask) != cshape:
        raise ShapeError(f"mask of shape {np.shape(mask)} for coordinates of shape {cshape}")
    xf = xd.ravel()
    yf = yd.ravel()

    valid = (xf >= 0) & (xf <= w - 1) & (yf >= 0) & (yf <= h - 1)
    if mask is not None:
        valid = valid & np.asarray(mask).ravel()

    # fmax/fmin take the number over a NaN, so a NaN point (invalid, as it
    # fails every comparison above) clamps to texel 0 like any other
    xc = np.fmax(xf, 0)
    yc = np.fmax(yf, 0)
    np.fmin(xc, w - 1, out=xc)
    np.fmin(yc, h - 1, out=yc)
    x0 = np.floor(xc)
    y0 = np.floor(yc)
    fx = np.subtract(xc, x0, out=xc)
    fy = np.subtract(yc, y0, out=yc)
    # the corner table [N, 4], built in place in the index type the matrix
    # takes: (y0, x0), (y0, x1), (y1, x0), (y1, x1), with x1 = x0 + [x0 < W-1];
    # grid b's texels are columns b*H*W .. (b+1)*H*W - 1 of one matrix
    cols = np.empty((xf.size, 4), _index_type(b * h * w, 4 * xf.size))
    top, right, bottom = cols[:, 0], cols[:, 1], cols[:, 2]
    top[:] = y0
    top *= w
    right[:] = x0
    top += right
    if b > 1:
        top += np.repeat(np.arange(b, dtype=cols.dtype) * (h * w), xf.size // b)
    np.less(x0, w - 1, out=right)
    np.less(y0, h - 1, out=bottom)
    bottom *= w
    bottom += top
    np.add(bottom, right, out=cols[:, 3])
    right += top
    # the four weights in one buffer, each product as written; 0 at an invalid point
    ex, ey = 1 - fx, 1 - fy
    weights = np.empty((xf.size, 4), grid.dtype)
    for col, (a, e) in enumerate(((ey, ex), (ey, fx), (fy, ex), (fy, fx))):
        np.multiply(a, e, out=weights[:, col])
    weights *= valid[:, None]
    s = _interp_matrix(cols, weights, b * h * w)
    # the grid texel-major, [B*H*W, C]: free on a texel-major grid
    texels = np.moveaxis(grid.data.reshape(b, c, h * w), 1, 2).reshape(b * h * w, c)
    return s, texels, valid.reshape(cshape)


def _grid_grad(grid: Tensor, gs: np.ndarray) -> np.ndarray:
    """A texel-major gradient [B·H·W, C] as the grid's [(B,) C, H, W]."""
    c, h, w = grid.shape[-3:]
    return np.moveaxis(gs.reshape(grid.shape[:-3] + (h, w, c)), -1, -3)


def bilinear_sample(grid: Tensor, x: np.ndarray, y: np.ndarray,
                    mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Sample a [C, H, W] grid, or a batch [B, C, H, W] of grids, at
    fractional coordinates.

    Args:
        grid: feature map, [C, H, W], or B maps stacked as [B, C, H, W].
        x, y: coordinates in pixel units, arrays of equal shape; with a
            batched grid their leading axis is B and entry b samples map b.
            They are constants, as the lookups' η is (as in RAFT), so the
            op is differentiable in the grid only.
        mask: optional bool array of the coordinates' shape; a point where
            it is False is invalid like one outside [0, W-1] x [0, H-1] or
            with a NaN coordinate: it samples 0 and passes no gradient.

    Returns:
        (samples [C, *coord_shape], valid bool mask [*coord_shape]).
    """
    grid = _wrap(grid)
    s, texels, valid = _sampling_matrix(grid, x, y, mask)
    c = texels.shape[1]
    out = Tensor((s @ texels).T.reshape((c,) + valid.shape))

    def bw(g):
        _accum(grid, _grid_grad(grid, s.T @ g.reshape(c, -1).T))

    return _record(out, (grid,), bw), valid


@functools.lru_cache(maxsize=None)
def _axis_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Dense [n_out, n_in] 1-D bilinear resize matrix (pixel centers, edge
    clamp), cached per size and dtype and therefore read-only."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    i0f = np.floor(src)
    frac = src - i0f
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[rows, np.clip(i0f, 0, n_in - 1).astype(np.int64)] = 1 - frac
    m[rows, np.clip(i0f + 1, 0, n_in - 1).astype(np.int64)] += frac
    m.flags.writeable = False
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


def work_slices(n: int, unit: int) -> list[slice]:
    """Split range(n) into the fewest near-equal slices whose items, each
    ``unit`` work-buffer elements, fit ``MAX_WORK_ELEMENTS``; an item that
    alone exceeds the bound gets a slice of its own."""
    per = max(1, MAX_WORK_ELEMENTS // unit)
    per = -(-n // -(-n // per))
    return [slice(s, min(s + per, n)) for s in range(0, n, per)]


def _tap_slices(n_in: int, n_out: int, tap: int, stride: int, padding: int,
                first: int = 0) -> tuple[slice, slice]:
    """(output slice, input slice) of one kernel tap along one axis, over
    the outputs first .. n_out - 1; the output slice counts from first.

    Output o reads input o*stride + tap - padding.  The slices cover just
    the outputs whose input lies in [0, n_in); the others read padding.
    """
    off = tap - padding
    lo = max(first, -(off // stride))
    hi = min(n_out - 1, (n_in - 1 - off) // stride)
    if hi < lo:
        return slice(0, 0), slice(0, 0)
    return (slice(lo - first, hi + 1 - first),
            slice(lo * stride + off, hi * stride + off + 1, stride))


@functools.lru_cache(maxsize=None)
def _conv_taps(h: int, w: int, h_out: int, w_out: int, k: int, stride: int,
               padding: int, first_row: int = 0) -> tuple[tuple, tuple]:
    """``(taps, holes)``, cached per geometry, for the output rows
    first_row .. h_out - 1 (a band of ``conv2d``'s forward; the backward
    takes them all).

    taps holds ``(i, j, oy, ox, iy, ix)`` per kernel tap: tap (i, j) joins
    the outputs oy x ox with the input texels iy x ix, and every other
    output of that tap reads padding.

    The holes are the outputs the taps' slices leave uncovered, those that
    read padding, as a pair ``(rows, cols)`` of border strips: rows lists
    ``(i, s)`` for row slice s uncovered by every tap of kernel row i, cols
    ``(j, s)`` likewise per kernel column.
    """
    ys = [_tap_slices(h, h_out, i, stride, padding, first_row) for i in range(k)]
    xs = [_tap_slices(w, w_out, j, stride, padding) for j in range(k)]
    taps = tuple((i, j, oy, ox, iy, ix) for i, (oy, iy) in enumerate(ys)
                 for j, (ox, ix) in enumerate(xs))

    def holes(slices, n):
        found = []
        for t, (sl, _) in enumerate(slices):
            strips = [slice(0, n)] if sl.start == sl.stop else [slice(0, sl.start),
                                                                  slice(sl.stop, n)]
            found += [(t, s) for s in strips if s.start < s.stop]
        return tuple(found)

    return taps, (holes(ys, h_out - first_row), holes(xs, w_out))


# elements from which an im2col buffer is np.empty with only its holes
# zeroed; below it, one memset costs less than the slice assignments (about
# 1.5 µs each)
_EMPTY_MIN_SIZE = 1 << 17


def _im2col(xd: np.ndarray, taps, holes, k: int, h_out: int, w_out: int) -> np.ndarray:
    """The [C_in·k², B·H'·W'] im2col matrix of a [B, C_in, H, W] input,
    channel-major.  Tap (i, j) copies the outputs whose input texel lies
    inside the image; the rest, the ``holes`` of ``_conv_taps``, are zero."""
    b_n, c_in = xd.shape[:2]
    shape = (c_in, k, k, b_n, h_out, w_out)
    if math.prod(shape) < _EMPTY_MIN_SIZE:
        cols = np.zeros(shape, xd.dtype)
    else:
        cols = np.empty(shape, xd.dtype)
        rows, columns = holes
        for i, s in rows:
            cols[:, i, ..., s, :] = 0
        for j, s in columns:
            cols[:, :, j, ..., s] = 0
    xc = xd.transpose(1, 0, 2, 3)
    for i, j, oy, ox, iy, ix in taps:
        cols[:, i, j, :, oy, ox] = xc[:, :, iy, ix]
    return cols.reshape(c_in * k * k, b_n * h_out * w_out)


def _im2col_product(wmat: np.ndarray, xd: np.ndarray, h_out: int, w_out: int, k: int,
                    stride: int, padding: int) -> np.ndarray:
    """``wmat @ im2col(xd)``, [C_out, B·H'·W'], with the im2col filled and
    multiplied band by band: whole batch items while one fits
    ``MAX_WORK_ELEMENTS``, else output rows of one item.  An im2col that
    fits whole is one band."""
    b_n, c_in, h, w = xd.shape
    row = c_in * k * k * w_out
    if row * h_out <= MAX_WORK_ELEMENTS:
        bands = [(items, slice(0, h_out)) for items in work_slices(b_n, row * h_out)]
    else:
        row_slices = work_slices(h_out, row)
        bands = [(slice(b, b + 1), rows) for b in range(b_n) for rows in row_slices]
    res = np.empty((wmat.shape[0], b_n * h_out * w_out), np.result_type(wmat, xd))
    for items, rows in bands:
        band_taps, band_holes = _conv_taps(h, w, rows.stop, w_out, k, stride, padding,
                                           rows.start)
        cols = _im2col(xd[items], band_taps, band_holes, k, rows.stop - rows.start, w_out)
        start = (items.start * h_out + rows.start) * w_out
        np.matmul(wmat, cols, out=res[:, start:start + cols.shape[1]])
        del cols  # before the next band is filled
    return res


# buffer elements conv2d's backward must save to take its input side
_INPUT_SIDE_MIN_SAVING = 1 << 16


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0, leaky: bool = False) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding, optionally
    followed by a leaky ReLU.

    Args:
        x: input, [C, H, W] or [B, C, H, W].
        weight: [C_out, C_in, k, k] with odd k.
        bias: [C_out].
        stride: 1 or 2.
        padding: symmetric zero padding; (k-1)//2 gives same-size output at
            stride 1.
        leaky: apply ``max(z, LEAKY_SLOPE·z)`` to the result z (after the
            bias) in place, as an epilogue of the same taped op.

    Returns:
        [C_out, H', W'] or [B, C_out, H', W'] matching the input rank, with
        H' = (H + 2*padding - k) // stride + 1.

    A 1x1 convolution of one image at stride 1 without padding is one
    GEMM ``[C_out, C_in] @ [C_in, H·W]`` on the input as it is: the GEMM
    the im2col path runs, without its copy; without it, reconstruct-128's
    ``op_rel_p50`` read 2.4 % higher in 9 of 10 ``bench/run.py`` pairs.
    Otherwise two forward paths compute the same sums; each buffers one
    side of the layer, and neither buffer outlives the forward.

    * Input side (im2col): copy the k² shifted input windows into a
      [k²·C_in, N] matrix and run a GEMM with the [C_out, k²·C_in]
      weights, for N output positions at a time.
    * Output side: run one GEMM ``[k²·C_out, C_in] @ [C_in, H·W]`` per
      batch item on the input as it is, giving every tap's products at
      every input texel, then add the k² shifted slices into the output.

    The output side runs when ``2·C_out·H·W <= C_in·H'·W'``, so that its
    [k²·C_out, B·H·W] buffer is at most half the im2col one, and one batch
    item's k²·C_out·H·W products fit ``MAX_WORK_ELEMENTS``.  The factor 2
    pays for the output side's read-modify-write adds of k² slices, which
    cost more per element than im2col's plain copies: with equal buffers
    (C_out = C_in at stride 1) its forward is 1.2-1.3x slower.  Comparing
    the input grid with the output grid accounts for the stride.  With the
    im2col alone, an infer-256 operation ran 1.4 % slower, slower in 19 of
    24 rounds (in-process A/B, 2-core x86, one BLAS thread).

    No forward buffer exceeds ``MAX_WORK_ELEMENTS`` (2 MB of float32) while
    one batch item's products, or one output row's im2col, fits it: the
    output side runs over as many batch items at a time as fit, and the
    im2col is filled and multiplied in bands of whole batch items, or of
    output rows of one item (``_im2col_product``), each band with the tap
    slices and border strips of its own rows.  Every output column is
    still the dot product of the same weight row and im2col column; with
    OpenBLAS, bands a few hundred columns wide or more give the same bits
    as one GEMM over all columns (every layer of a 64-256 px run does),
    while BLAS kernels for a handful of columns may sum in another order.
    The bound keeps a 256 px forward pass from handing glibc 8-9 MB
    blocks: freeing one raises the dynamic mmap threshold to its size,
    after which later multi-MB arrays come from the heap, which fragments
    and raises the peak resident memory.  At 64 px every layer fits one
    band, so training runs exactly as it did unbanded.

    One backward closure serves both paths.  It captures no forward buffer
    (it reads ``x.data`` and ``weight.data`` when it runs) and takes one of
    two sides:

    * Output side: gather the k² slices of the output gradient G at the
      texels each tap read into a zero-filled dZ [k²·C_out, B·H·W], then
      ``dW = dZ @ xᵀ`` and ``dx = W_tapᵀ @ dZ``, one GEMM each.
    * Input side: ``dW = G @ colsᵀ``, with G as [C_out, B·H'·W'] and the
      im2col rebuilt from the input, and ``dx`` from the per-tap products
      ``W_tapᵀ @ G`` (one [k²·C_in, C_out] GEMM), each added back at the
      texels its tap read.  It fills two buffers of k²·C_in·B·H'·W' where
      the output side fills one of k²·C_out·B·H·W, and at stride 2 it
      does a quarter of the output side's FLOPs.

    The input side runs when it saves more than ``_INPUT_SIDE_MIN_SAVING``
    buffer elements, ``k²·B·(C_out·H·W − 2·C_in·H'·W') > 2^16``; below
    that, its k² extra strided adds cost more than the smaller buffers
    save.  Widening layers on large planes take it, such as the
    probability head (32 → 256 at 16²) and the FPN's stride-2 encoders.
    It pays in memory: the head's output-side dZ alone would be 2.36 MB
    (``test_widening_conv_backward_skips_the_output_side_buffer``).

    ``dW`` is skipped when the weights need no gradient, and ``dx`` when
    the input needs none.

    With ``leaky``, the backward first maps the output gradient through
    ``where(y > 0, g, LEAKY_SLOPE·g)`` with y the op's output.  The slope
    is positive, so y has the sign of the pre-activation z and no copy of z
    is kept.

    From ``_EMPTY_MIN_SIZE`` elements the im2col buffer is ``np.empty``
    with only the border strips that read padding zeroed: zero-filled, an
    infer-256 operation ran 1.0 % slower, slower in 17 of 24 rounds.
    """
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
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
    taps, holes = _conv_taps(h, w, h_out, w_out, k, stride, padding)

    def tap_weights():  # [k²·C_out, C_in], tap-major rows
        return weight.data.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)

    if k == 1 and stride == 1 and padding == 0 and b_n == 1:
        res = (weight.data.reshape(c_out, c_in) @ xd.reshape(c_in, h * w)).reshape(
            1, c_out, h_out, w_out)
    elif (2 * c_out * h * w <= c_in * h_out * w_out
          and k * k * c_out * h * w <= MAX_WORK_ELEMENTS):
        # output side: every tap of every output channel at every input texel
        # in one GEMM per batch item, z[b, i, j] = W[:, :, i, j] @ x[b], then
        # the k² shifted slices of z summed into the output
        wt = tap_weights()
        res = np.zeros((b_n, c_out, h_out, w_out), dtype=np.result_type(wt, xd))
        for items in work_slices(b_n, k * k * c_out * h * w):
            xs = xd[items]
            z = (wt @ xs.reshape(len(xs), c_in, h * w)).reshape(len(xs), k, k, c_out, h, w)
            for i, j, oy, ox, iy, ix in taps:
                res[items, :, oy, ox] += z[:, i, j, :, iy, ix]
            del z  # before the next items' products
    else:
        res = _im2col_product(weight.data.reshape(c_out, c_in * k * k), xd, h_out, w_out, k,
                              stride, padding)
        res = res.reshape(c_out, b_n, h_out, w_out).transpose(1, 0, 2, 3)
    res += bias.data[:, None, None]
    if leaky:
        np.maximum(res, LEAKY_SLOPE * res, out=res)
    out = Tensor(res[0] if squeeze else res)

    def bw(g):
        if leaky:
            g = np.where(out.data > 0, g, LEAKY_SLOPE * g)
        g4 = g[None] if squeeze else g
        if bias.requires_grad:
            _accum(bias, g4.sum(axis=(0, 2, 3)))
        xb = x.data[None] if squeeze else x.data
        gt = g4.transpose(1, 0, 2, 3)  # [C_out, B, H', W']
        dx = None
        if k * k * b_n * (c_out * h * w - 2 * c_in * h_out * w_out) > _INPUT_SIDE_MIN_SAVING:
            # input side: G [C_out, B·H'·W'] against the rebuilt im2col, and
            # the per-tap products W_tapᵀ G added back at the texels read
            gmat = gt.reshape(c_out, b_n * h_out * w_out)
            if weight.requires_grad:
                dw = gmat @ _im2col(xb, taps, holes, k, h_out, w_out).T
                _accum(weight, dw.reshape(weight.shape))
            if x.requires_grad:
                wt = weight.data.transpose(2, 3, 1, 0).reshape(k * k * c_in, c_out)
                dcols = (wt @ gmat).reshape(k, k, c_in, b_n, h_out, w_out)
                dx = np.zeros((c_in, b_n, h, w), dtype=dcols.dtype)
                for i, j, oy, ox, iy, ix in taps:
                    dx[:, :, iy, ix] += dcols[i, j, :, :, oy, ox]
        elif weight.requires_grad or x.requires_grad:
            # output side: dz gathers g at the texels each tap read; the
            # texels it never reads stay 0
            dz = np.zeros((k, k, c_out, b_n, h, w), g.dtype)
            for i, j, oy, ox, iy, ix in taps:
                dz[i, j, :, :, iy, ix] = gt[:, :, oy, ox]
            dz = dz.reshape(k * k * c_out, b_n * h * w)
            if weight.requires_grad:
                dw = dz @ xb.transpose(1, 0, 2, 3).reshape(c_in, b_n * h * w).T
                _accum(weight, dw.reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1))
            if x.requires_grad:
                dx = (tap_weights().T @ dz).reshape(c_in, b_n, h, w)
        if dx is not None:
            _accum(x, dx.transpose(1, 0, 2, 3).reshape(x.shape))

    return _record(out, (x, weight, bias), bw)


# ---------------------------------------------------------------------------
# sampled group correlation
# ---------------------------------------------------------------------------


def sampled_group_dot(f0: Tensor, grid: Tensor, x: np.ndarray, y: np.ndarray,
                      mask: np.ndarray | None, groups: int) -> tuple[Tensor, np.ndarray]:
    """Group-wise mean of channel products between f0 [C, P] and the grid
    sampled at (x, y): out[g, ..., p] is the mean over group g's C/groups
    channels of f0[c, p] · bilinear_sample(grid, x, y, mask)[c, ..., p].

    grid, x, y and mask are as ``bilinear_sample`` takes them, with the P
    points last in the coordinates, e.g. [S, D, P] for D hypotheses on S
    stacked grids.  Returns (similarity [groups, *coord_shape], valid).

    One taped op that keeps no warped features.  Forward runs over slabs of
    rows of P points whose warped features fit ``MAX_WORK_ELEMENTS``: each
    slab gathers ``S[rows] @ texels`` [n, C], multiplies it by f0ᵀ in place
    and sums each channel group with one matmul against a [C, groups]
    averaging matrix.  Backward keeps S, f0 and the grid: it rebuilds the
    warped features ``S @ texels`` once, whole, for f0's gradient, and gives
    the grid ``S.T @ (gp·f0ᵀ)``, with gp the output gradient spread back over
    the channels.  With P > 1 the slabs give the bits of one product over
    all points; numpy hands a one-column product to BLAS's matrix-vector
    kernel, which sums in another order.
    """
    f0, grid = _wrap(f0), _wrap(grid)
    if f0.ndim != 2 or grid.ndim not in (3, 4) or (grid.shape[-3],) + np.shape(x)[-1:] != f0.shape:
        raise ShapeError(f"sampled_group_dot needs f0 [C, P], a grid of C channels and "
                         f"coordinates [..., P], got {f0.shape} / {grid.shape} / {np.shape(x)}")
    c, p = f0.shape
    if groups < 1 or c % groups:
        raise ShapeError(f"{c} channels not divisible into {groups} groups")
    s, texels, valid = _sampling_matrix(grid, x, y, mask)
    # [C, groups]: channel c contributes groups/C to its group c // (C/groups)
    avg = np.repeat(np.eye(groups, dtype=texels.dtype), c // groups, axis=0) * (groups / c)
    f0t = np.ascontiguousarray(f0.data.T)
    res = np.empty((groups, valid.size), texels.dtype)
    for rows in work_slices(valid.size // p, p * c):
        pts = slice(rows.start * p, rows.stop * p)
        warped = (s[pts] @ texels).reshape(-1, p, c)
        np.multiply(warped, f0t, out=warped)
        np.matmul(avg.T, warped.reshape(-1, c).T, out=res[:, pts])
        del warped  # before the next slab is gathered

    def grad(g, y):
        gp = (g.reshape(groups, -1).T @ avg.T).reshape(-1, p, c)
        g0 = (np.einsum("dpc,dpc->cp", gp, (s @ texels).reshape(-1, p, c))
              if f0.requires_grad else None)
        gg = _grid_grad(grid, s.T @ (gp * f0t).reshape(-1, c)) if grid.requires_grad else None
        return g0, gg

    return _binary(f0, grid, res.reshape((groups,) + valid.shape), grad), valid


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse-replay the tape from a scalar loss, consuming it.

    Accumulates ``.grad`` into every tensor reached that no entry produced
    (parameters and inputs); tensors the loss does not depend on keep
    ``grad`` as it was.  Each entry is popped as it runs and its output ends
    with ``grad = None``, so the tape is left empty and a second replay
    raises ``ContractError``.
    """
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if tape.replayed:
        raise ContractError("tape was already replayed; record a new one")
    tape.replayed = True
    loss.grad = np.ones_like(loss.data)
    entries = tape.entries
    while entries:
        out, _, fn = entries.pop()
        if out.grad is not None:
            fn(out.grad)
            out.grad = None
