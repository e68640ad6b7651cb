"""Tensor engine: forward oracles, tape mechanics, Adam, checkpoints."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru import tensor as T
from mvsgru.errors import ContractError, FileFormatError, ShapeError, TrainStepError
from mvsgru.gradcheck import base_op_checks, check_full_loss, check_gradients, run_suite
from mvsgru.nn import Conv2d, Module, load_checkpoint, save_checkpoint
from mvsgru.optim import Adam
from mvsgru.tensor import Tape, Tensor, backward


# ---------------------------------------------------------------------------
# oracles, written from the definitions rather than the implementation
# ---------------------------------------------------------------------------


def conv2d_oracle(x, w, b, stride, padding):
    """Direct nested-loop convolution (cross-correlation)."""
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wd + 2 * padding - k) // stride + 1
    xp = np.zeros((c_in, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((c_out, h_out, w_out), dtype=x.dtype)
    for co in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for ci in range(c_in):
                    for ki in range(k):
                        for kj in range(k):
                            acc += xp[ci, i * stride + ki, j * stride + kj] * w[co, ci, ki, kj]
                out[co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_grad_oracle(x, w, gy, stride, padding):
    """Nested-loop gradients (dx, dW, db) of ``sum(conv2d(x, w, b) * gy)``
    for one [C_in, H, W] input: each output pixel and tap adds gy times the
    texel it read to dW, and gy times the weights to that texel's dx."""
    c_in, h, wd = x.shape
    k = w.shape[2]
    xp = np.zeros((c_in, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(gy.shape[1]):
        for j in range(gy.shape[2]):
            for ki in range(k):
                for kj in range(k):
                    y, xx = i * stride + ki, j * stride + kj
                    dw[:, :, ki, kj] += np.outer(gy[:, i, j], xp[:, y, xx])
                    dxp[:, y, xx] += w[:, :, ki, kj].T @ gy[:, i, j]
    return dxp[:, padding:padding + h, padding:padding + wd], dw, gy.sum(axis=(1, 2))


def conv2d_padded_reference(x, w, b, gy, stride, padding):
    """``(out, dx, dW, db)`` of ``sum(conv2d(x, w, b) * gy)`` for a [B, C_in,
    H, W] input, one kernel tap at a time on an explicitly zero-padded copy
    of the input."""
    k = w.shape[2]
    h, wd = x.shape[2:]
    h_out, w_out = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((x.shape[0], w.shape[0], h_out, w_out))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            win = np.s_[:, :, i:i + stride * (h_out - 1) + 1:stride,
                        j:j + stride * (w_out - 1) + 1:stride]
            out += np.einsum("oc,bchw->bohw", w[:, :, i, j], xp[win])
            dw[:, :, i, j] = np.einsum("bohw,bchw->oc", gy, xp[win])
            dxp[win] += np.einsum("oc,bohw->bchw", w[:, :, i, j], gy)
    dx = dxp[:, :, padding:padding + h, padding:padding + wd]
    return out + b[:, None, None], dx, dw, gy.sum(axis=(0, 2, 3))


def softmax_oracle(x, axis):
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def bilinear_oracle(grid, x, y):
    """Scalar bilinear interpolation at one in-bounds point."""
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, grid.shape[2] - 1), min(y0 + 1, grid.shape[1] - 1)
    fx, fy = x - x0, y - y0
    return ((1 - fy) * ((1 - fx) * grid[:, y0, x0] + fx * grid[:, y0, x1])
            + fy * ((1 - fx) * grid[:, y1, x0] + fx * grid[:, y1, x1]))


def adam_per_parameter(p0s, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as one loop over the parameters, each in its own dtype, in the
    order of operations the optimizer uses; a None gradient is zero.
    Returns the parameters and the two moments, per parameter."""
    ps = [p.copy() for p in p0s]
    ms = [np.zeros_like(p) for p in ps]
    vs = [np.zeros_like(p) for p in ps]
    for t, grads in enumerate(grad_steps, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, m, v, g in zip(ps, ms, vs, grads):
            g = np.zeros_like(p) if g is None else g
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + eps)).astype(p.dtype)
    return ps, ms, vs


def adam_oracle(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam applied to one parameter over a gradient sequence."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return p


# ---------------------------------------------------------------------------


class TestElementwise:
    def test_add_mul_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        assert np.allclose((Tensor(a) + Tensor(b)).data, a + b, atol=1e-6)
        assert np.allclose((Tensor(a) * 2.0).data, a * 2.0, atol=1e-6)
        assert np.allclose((1.0 - Tensor(a)).data, 1.0 - a, atol=1e-6)

    def test_softmax_matches_oracle(self, rng):
        T.set_default_dtype(np.float64)
        x = rng.standard_normal((5, 7))
        got = Tensor(x).softmax(0).data
        assert np.allclose(got, softmax_oracle(x, 0), atol=1e-12)
        got = Tensor(x).softmax(1).data
        assert np.allclose(got, softmax_oracle(x, 1), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_softmax_sums_to_one(self, seed):
        x = np.random.default_rng(seed).standard_normal((6, 3)) * 10
        s = Tensor(x).softmax(0).data.sum(axis=0)
        assert np.abs(s - 1.0).max() < 1e-5

    def test_sigmoid_extremes_are_finite(self):
        x = Tensor(np.array([-200.0, -1.0, 0.0, 1.0, 200.0]))
        y = x.sigmoid().data
        assert np.all(np.isfinite(y))
        assert y[0] >= 0 and y[-1] <= 1
        assert abs(y[2] - 0.5) < 1e-7

    def test_invalid_axis_raises(self, rng):
        t = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(ShapeError):
            t.softmax(2)
        with pytest.raises(ShapeError):
            t.sum(-3)
        with pytest.raises(ShapeError):
            t.max(5)


class TestReductions:
    def test_max_ties_route_to_lowest_index(self):
        a = Tensor(np.array([[1.0, 1.0, 0.5]]), requires_grad=True)
        with Tape() as tape:
            out = a.max(1).sum()
        backward(tape, out)
        assert np.array_equal(a.grad, [[1.0, 0.0, 0.0]])

    def test_sum_axis_keepdims(self, rng):
        x = rng.standard_normal((2, 3, 4))
        assert np.allclose(Tensor(x).sum(1, keepdims=True).data,
                           x.sum(1, keepdims=True), atol=1e-6)
        assert np.allclose(Tensor(x).mean().data, x.mean(), atol=1e-6)


# square inputs with "same" padding (k-1)//2: (c_in, c_out, size, k, stride)
# conv2d takes the output side when 2·C_out·H·W <= C_in·H'·W', else im2col;
# of these, only 4-2-7-5-1 takes the output side
_SAME_PAD_CONVS = [(1, 1, 5, 3, 1), (3, 4, 6, 3, 1), (8, 8, 8, 3, 2),
                   (4, 2, 7, 5, 1), (2, 3, 8, 1, 1), (3, 5, 8, 3, 2)]


class TestConv:
    @pytest.mark.parametrize("c_in,c_out,hw,k,stride,pad", [
        pytest.param(ci, co, (n, n), k, st, (k - 1) // 2, id=f"{ci}-{co}-{n}-{k}-{st}")
        for ci, co, n, k, st in _SAME_PAD_CONVS] + [
        # non-square and odd: at stride 2 the last tap row/column reads
        # padding (all three im2col)
        pytest.param(3, 4, (7, 5), 3, 2, 1, id="3-4-7x5-3-2"),
        pytest.param(2, 3, (9, 6), 3, 1, 1, id="2-3-9x6-3-1"),
        pytest.param(2, 2, (6, 9), 5, 2, 2, id="2-2-6x9-5-2"),
        # no padding: every tap stays inside the image (both im2col)
        pytest.param(3, 2, (7, 5), 3, 2, 0, id="3-2-7x5-3-2-pad0"),
        pytest.param(2, 3, (6, 9), 5, 1, 0, id="2-3-6x9-5-1-pad0"),
        # one row: the top and bottom taps fall entirely on padding (im2col)
        pytest.param(2, 2, (1, 4), 3, 1, 1, id="2-2-1x4-3-1"),
        # narrow outputs; the comment names the path each case takes
        pytest.param(8, 1, (6, 7), 3, 1, 1, id="8-1-6x7-3-1"),  # output side
        pytest.param(12, 3, (7, 5), 3, 2, 0, id="12-3-7x5-3-2-pad0"),  # im2col: 210 > 72
        pytest.param(12, 1, (7, 5), 3, 2, 0, id="12-1-7x5-3-2-pad0"),  # output side: 70 <= 72
        pytest.param(9, 1, (6, 9), 5, 1, 0, id="9-1-6x9-5-1-pad0"),  # im2col: 108 > 90
        pytest.param(12, 1, (6, 9), 5, 1, 0, id="12-1-6x9-5-1-pad0"),  # output side: 108 <= 120
        pytest.param(6, 2, (1, 4), 3, 1, 1, id="6-2-1x4-3-1"),  # output side
    ])
    def test_matches_nested_loop_oracle(self, rng, c_in, c_out, hw, k, stride, pad):
        T.set_default_dtype(np.float64)
        x = rng.standard_normal((c_in,) + hw)
        w = rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal(c_out)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        want = conv2d_oracle(x, w, b, stride, pad)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("pad", [0, 1])
    def test_batched_stride_two_matches_oracle(self, rng, pad):
        T.set_default_dtype(np.float64)
        x = rng.standard_normal((3, 2, 7, 5))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), 2, pad).data
        for i in range(3):
            assert np.abs(got[i] - conv2d_oracle(x[i], w, b, 2, pad)).max() < 1e-6

    def test_batched_matches_per_item(self, rng):
        T.set_default_dtype(np.float64)
        x = rng.standard_normal((3, 2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        full = T.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        for i in range(3):
            one = T.conv2d(Tensor(x[i]), Tensor(w), Tensor(b), 1, 1).data
            assert np.allclose(full[i], one, atol=1e-12)

    def test_narrow_conv_buffers_its_output_side(self, rng, step_peaks):
        # the view-weight CNN's 16 -> 1 conv over 32 hypotheses: an im2col
        # buffer would hold 16·9·32·32·32 floats, 18.9 MB
        x = Tensor(rng.standard_normal((32, 16, 32, 32)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 16, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(1), requires_grad=True)
        assert x.dtype == np.float32
        forward_peak, total_peak = step_peaks(lambda: T.conv2d(x, w, b, 1, 1).sum())
        assert forward_peak < 6e6
        assert total_peak < 12e6

    def test_both_paths_record_one_backward(self, rng):
        # forward: 4 -> 4 and 2 -> 64 take im2col, 8 -> 1 the output side;
        # backward: 2 -> 64 at 12² takes the input side, the others the
        # output side.  No closure keeps a forward buffer: the input side
        # rebuilds its im2col when it runs
        with Tape() as tape:
            for c_in, c_out, n in ((4, 4, 6), (8, 1, 6), (2, 64, 12)):
                x = Tensor(rng.standard_normal((c_in, n, n)), requires_grad=True)
                w = Tensor(rng.standard_normal((c_out, c_in, 3, 3)), requires_grad=True)
                T.conv2d(x, w, Tensor(rng.standard_normal(c_out)), 1, 1)
        wide, narrow, widening = (fn for _, _, fn in tape.entries)
        assert wide.__code__ is narrow.__code__ is widening.__code__
        assert not {"cols", "z", "xd"} & set(wide.__code__.co_freevars)

    # (x shape, c_out, stride, padding, backward side): the input side runs
    # when k²·B·(C_out·H·W − 2·C_in·H'·W') > 2^16, the output side otherwise
    @pytest.mark.parametrize("shape,c_out,stride,pad,side", [
        pytest.param((2, 12, 12), 64, 1, 1, "input", id="2-64-s1-input"),
        pytest.param((3, 5, 6), 2, 1, 1, "output", id="3-2-s1-output"),
        pytest.param((2, 5, 6), 3, 1, 1, "output", id="2-3-s1-small-output"),
        pytest.param((3, 17, 15), 32, 2, 1, "input", id="3-32-17x15-s2-input"),
        pytest.param((3, 16, 16), 32, 2, 0, "input", id="3-32-s2-pad0-input"),
        pytest.param((16, 7, 5), 2, 2, 1, "output", id="16-2-s2-output"),
        pytest.param((12, 7, 5), 1, 2, 0, "output", id="12-1-s2-pad0-output"),
        pytest.param((2, 2, 12, 12), 40, 1, 1, "input", id="batched-2-40-s1-input"),
        pytest.param((2, 3, 6, 6), 2, 1, 1, "output", id="batched-3-2-s1-output"),
        pytest.param((2, 3, 16, 16), 32, 2, 1, "input", id="batched-3-32-s2-input"),
        pytest.param((2, 16, 7, 5), 2, 2, 1, "output", id="batched-16-2-s2-output"),
    ])
    def test_backward_matches_nested_loop_oracle(self, rng, shape, c_out, stride, pad, side):
        T.set_default_dtype(np.float64)
        c_in, h, w_ = shape[-3:]
        h_out, w_out = (h + 2 * pad - 3) // stride + 1, (w_ + 2 * pad - 3) // stride + 1
        saving = 9 * (shape[0] if len(shape) == 4 else 1) * (c_out * h * w_ - 2 * c_in * h_out * w_out)
        assert (saving > 2**16) == (side == "input")
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((c_out, c_in, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(c_out), requires_grad=True)
        gy = rng.standard_normal(shape[:-3] + (c_out, h_out, w_out))
        with Tape() as tape:
            loss = (T.conv2d(x, w, b, stride, pad) * gy).sum()
        backward(tape, loss)
        items = [(x.data, gy)] if len(shape) == 3 else zip(x.data, gy)
        want = [conv2d_grad_oracle(xi, w.data, gi, stride, pad) for xi, gi in items]
        want_dx = np.stack([dx for dx, _, _ in want]).reshape(shape)
        assert np.abs(x.grad - want_dx).max() < 1e-12
        assert np.abs(w.grad - sum(dw for _, dw, _ in want)).max() < 1e-12
        assert np.abs(b.grad - sum(db for _, _, db in want)).max() < 1e-12

    def test_input_that_needs_no_gradient_gets_none(self, rng):
        # the FPN's first layer, 3 -> 16 at stride 2 on the image: the input
        # side, and only dW and db are wanted
        T.set_default_dtype(np.float64)
        x = Tensor(rng.standard_normal((3, 32, 32)))
        w = Tensor(rng.standard_normal((16, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(16), requires_grad=True)
        gy = rng.standard_normal((16, 16, 16))
        with Tape() as tape:
            loss = (T.conv2d(x, w, b, 2, 1) * gy).sum()
        backward(tape, loss)
        assert x.grad is None
        _, want_dw, want_db = conv2d_grad_oracle(x.data, w.data, gy, 2, 1)
        assert np.abs(w.grad - want_dw).max() < 1e-12
        assert np.abs(b.grad - want_db).max() < 1e-12

    def test_widening_conv_backward_skips_the_output_side_buffer(self, rng, step_peaks):
        # the probability head, 32 -> 256 at 16², takes the input side: its
        # output-side dz would be 9·256·256 floats, 2.36 MB, on its own
        x = Tensor(rng.standard_normal((32, 16, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((256, 32, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(256), requires_grad=True)
        assert x.dtype == np.float32
        _, step_peak = step_peaks(lambda: T.conv2d(x, w, b, 1, 1).sum())
        assert step_peak < 9 * 256 * 256 * 4
        assert x.grad is not None and w.grad is not None

    # (x shape, c_out, stride): the forward path and backward side each
    # takes, by the rules above
    @pytest.mark.parametrize("shape,c_out,stride", [
        pytest.param((4, 6, 6), 4, 1, id="im2col-then-output-side"),
        pytest.param((8, 6, 7), 1, 1, id="output-side-then-output-side"),
        pytest.param((2, 12, 12), 64, 1, id="im2col-then-input-side"),
        pytest.param((2, 16, 7, 5), 2, 2, id="batched-s2-output-side-then-output-side"),
    ])
    def test_leaky_epilogue_is_numpy_leaky_of_the_plain_conv(self, rng, shape, c_out, stride):
        # float32, compared bit for bit: the epilogue is max(z, slope·z) of
        # the plain conv's z, and its gradient maps g through the sign of z
        x0 = rng.standard_normal(shape).astype(np.float32)
        w0 = rng.standard_normal((c_out, shape[-3], 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(c_out).astype(np.float32)

        def run(leaky, upstream):
            x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
            with Tape() as tape:
                y = T.conv2d(x, w, b, stride, 1, leaky=leaky)
                loss = (y * upstream(y.data)).sum()
            backward(tape, loss)
            return y.data, x.grad, w.grad, b.grad

        z = run(False, np.ones_like)[0]
        gy = rng.standard_normal(z.shape).astype(np.float32)
        plain = run(False, lambda _: np.where(z > 0, gy, T.LEAKY_SLOPE * gy))
        fused = run(True, lambda _: gy)
        assert (z <= 0).any() and (z > 0).any()
        assert np.array_equal(fused[0], np.maximum(z, T.LEAKY_SLOPE * z))
        for want, got in zip(plain[1:], fused[1:]):
            assert got.dtype == np.float32
            assert np.array_equal(want, got)

    # n_empty: the buffers taken from np.empty (im2col forward, dZ or the
    # input side's rebuilt im2col backward); dZ at stride 2 stays np.zeros
    @pytest.mark.parametrize("shape,c_out,k,stride,pad,min_size,n_empty", [
        pytest.param((1, 3, 7, 5), 4, 3, 2, 1, 0, 1, id="im2col-s2-odd"),
        pytest.param((1, 2, 9, 6), 3, 3, 1, 1, 0, 2, id="im2col-s1"),
        pytest.param((1, 2, 6, 9), 2, 5, 2, 2, 0, 1, id="im2col-k5-s2"),
        pytest.param((1, 2, 1, 4), 2, 3, 1, 1, 0, 2, id="one-row"),
        pytest.param((1, 8, 6, 7), 1, 3, 1, 1, 0, 1, id="output-side"),
        pytest.param((2, 16, 7, 5), 2, 3, 2, 1, 0, 0, id="output-side-s2"),
        pytest.param((2, 2, 12, 12), 40, 3, 1, 1, 0, 2, id="input-side-backward"),
        pytest.param((1, 16, 40, 40), 16, 3, 1, 1, None, 2, id="default-size-floor"),
    ])
    def test_uninitialized_buffers_hold_only_what_the_taps_write(
            self, rng, monkeypatch, shape, c_out, k, stride, pad, min_size, n_empty):
        # np.empty hands out NaN: a cell of the im2col buffer or of dZ that
        # no tap writes and no hole zeroes would poison the result
        T.set_default_dtype(np.float64)
        x0 = rng.standard_normal(shape)
        w0 = rng.standard_normal((c_out, shape[1], k, k))
        b0 = rng.standard_normal(c_out)
        h_out = (shape[2] + 2 * pad - k) // stride + 1
        w_out = (shape[3] + 2 * pad - k) // stride + 1
        gy = rng.standard_normal((shape[0], c_out, h_out, w_out))
        want = conv2d_padded_reference(x0, w0, b0, gy, stride, pad)
        if min_size is not None:
            monkeypatch.setattr(T, "_EMPTY_MIN_SIZE", min_size)
        empty, calls = np.empty, []

        def nan_empty(*args, **kwargs):
            calls.append(args[0])
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        with Tape() as tape:
            y = T.conv2d(x, w, b, stride, pad)
            loss = (y * gy).sum()
        backward(tape, loss)
        monkeypatch.undo()
        assert len(calls) == n_empty
        for ref, got in zip(want, (y.data, x.grad, w.grad, b.grad)):
            assert np.abs(got - ref).max() < 1e-10

    def test_shape_errors(self, rng):
        x = Tensor(rng.standard_normal((3, 5, 5)))
        b = Tensor(rng.standard_normal(4))
        w_even = Tensor(rng.standard_normal((4, 3, 2, 2)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w_even, b)
        w_badc = Tensor(rng.standard_normal((4, 2, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w_badc, b)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        with pytest.raises(ContractError):
            T.conv2d(x, w, b, stride=3)


class TestBilinear:
    def test_resize_matrices_are_cached_read_only(self):
        m = T._axis_matrix(4, 8, np.dtype(np.float32))
        assert m is T._axis_matrix(4, 8, np.dtype(np.float32))
        assert m.dtype == np.float32 and not m.flags.writeable
        assert np.allclose(m.sum(axis=1), 1.0)
        with pytest.raises(ValueError):
            m[0, 0] = 2.0

    def test_integer_coordinates_hit_texels(self, rng):
        grid = rng.standard_normal((2, 4, 5)).astype(np.float32)
        out, valid = T.bilinear_sample(Tensor(grid), np.array([3.0]), np.array([2.0]))
        assert valid.all()
        assert np.allclose(out.data[:, 0], grid[:, 2, 3], atol=1e-6)

    def test_fractional_matches_oracle(self, rng):
        T.set_default_dtype(np.float64)
        grid = rng.standard_normal((3, 6, 7))
        xs = rng.uniform(0.0, 6.0, 25)
        ys = rng.uniform(0.0, 5.0, 25)
        out, valid = T.bilinear_sample(Tensor(grid), xs, ys)
        assert valid.all()
        for i in range(25):
            assert np.allclose(out.data[:, i], bilinear_oracle(grid, xs[i], ys[i]), atol=1e-12)

    def test_out_of_bounds_is_zero_and_flagged(self, rng):
        grid = rng.standard_normal((2, 4, 4)) + 5.0
        xs = np.array([-0.5, 3.5, 1.0])
        ys = np.array([1.0, 1.0, 1.0])
        out, valid = T.bilinear_sample(Tensor(grid), xs, ys)
        assert list(valid) == [False, False, True]
        assert np.all(out.data[:, :2] == 0.0)

    def test_resize_matches_pointwise_sampling(self, rng):
        T.set_default_dtype(np.float64)
        grid = rng.standard_normal((2, 6, 8))
        out = T.bilinear_resize(Tensor(grid), (12, 16)).data
        # probe interior output pixels against the sampling oracle
        hits = 0
        for i in range(2, 10):
            for j in range(4, 12):
                sy = (i + 0.5) * 6 / 12 - 0.5
                sx = (j + 0.5) * 8 / 16 - 0.5
                if 0 <= sx <= 7 and 0 <= sy <= 5:
                    assert np.allclose(out[:, i, j], bilinear_oracle(grid, sx, sy), atol=1e-12)
                    hits += 1
        assert hits >= 25

    def test_resize_keeps_constant_maps_constant(self):
        grid = np.full((1, 4, 4), 3.25, dtype=np.float32)
        out = T.bilinear_resize(Tensor(grid), (16, 16)).data
        assert np.allclose(out, 3.25, atol=1e-6)



def sample_ref(grid, x, y):
    """One bilinear sample and its corner weights, straight from the definition.

    Returns (value [C], [(row, col, weight), ...], dvalue/dx [C], dvalue/dy [C]).
    """
    c, h, w = grid.shape
    if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
        return np.zeros(c), [], np.zeros(c), np.zeros(c)
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    corners = [(y0, x0, (1 - fy) * (1 - fx)), (y0, x1, (1 - fy) * fx),
               (y1, x0, fy * (1 - fx)), (y1, x1, fy * fx)]
    value = sum(wt * grid[:, r, q] for r, q, wt in corners)
    dx = (1 - fy) * (grid[:, y0, x1] - grid[:, y0, x0]) + fy * (grid[:, y1, x1] - grid[:, y1, x0])
    dy = (1 - fx) * (grid[:, y1, x0] - grid[:, y0, x0]) + fx * (grid[:, y1, x1] - grid[:, y0, x1])
    return value, corners, dx, dy


class TestResamplingAgainstLoops:
    """Forward and backward of the resampling ops against per-sample loops.

    Covers what random gradchecks rarely hit: many samples on one texel,
    samples exactly on the right/bottom border (x1 == x0, y1 == y0) and
    out-of-range samples.
    """

    C, H, W = 3, 5, 6

    def coords(self, rng):
        same = rng.uniform(0.0, 1.0, (2, 12)) + np.array([[2.0], [1.0]])  # one texel
        pts = [(2.5, 1.5)] * 4 + list(zip(*same))                            # exact repeats too
        pts += [(self.W - 1.0, 2.3), (1.7, self.H - 1.0), (self.W - 1.0, self.H - 1.0),
                (0.0, 0.0), (self.W - 1.0, 0.0)]                             # borders
        pts += [(-0.5, 2.0), (self.W - 0.75, 1.0), (1.0, -1e-3), (3.0, self.H + 2.0),
                (-4.0, -4.0)]                                                # out of range
        xs, ys = (np.array(v, dtype=np.float64) for v in zip(*pts))
        return xs, ys

    @pytest.mark.parametrize("mode", ["zero"])
    def test_sample_and_gradients_match_loops(self, rng, mode):
        T.set_default_dtype(np.float64)
        grid = rng.standard_normal((self.C, self.H, self.W))
        xs, ys = self.coords(rng)
        wts = rng.standard_normal((self.C, xs.size))
        g, x, y = Tensor(grid, requires_grad=True), Tensor(xs, requires_grad=True), \
            Tensor(ys, requires_grad=True)
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, x, y)
            loss = (out * wts).sum()
        backward(tape, loss)

        ggrid = np.zeros_like(grid)
        for n in range(xs.size):
            value, corners, dx, dy = sample_ref(grid, xs[n], ys[n])
            assert np.allclose(out.data[:, n], value, atol=1e-12)
            assert np.isclose(x.grad[n], wts[:, n] @ dx, atol=1e-12)
            assert np.isclose(y.grad[n], wts[:, n] @ dy, atol=1e-12)
            for r, q, wt in corners:
                ggrid[:, r, q] += wt * wts[:, n]
            assert valid[n] == bool(corners)
        assert np.allclose(g.grad, ggrid, atol=1e-12)

    def test_out_of_range_gives_zero_output_and_gradient(self, rng):
        grid = rng.standard_normal((self.C, self.H, self.W)) + 3.0
        xs = np.array([-0.5, self.W - 0.9, 2.0, 2.0])
        ys = np.array([1.0, 1.0, -0.01, self.H - 0.99])
        g, x, y = (Tensor(v, requires_grad=True) for v in (grid, xs, ys))
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, x, y)
            loss = out.sum()
        backward(tape, loss)
        assert not valid.any()
        assert np.all(out.data == 0.0)
        assert np.all(g.grad == 0.0)
        assert np.all(x.grad == 0.0) and np.all(y.grad == 0.0)

    @pytest.mark.parametrize("mode", ["zero"])
    def test_batched_grid_matches_separate_calls(self, rng, mode):
        T.set_default_dtype(np.float64)
        b = 3
        grids = rng.standard_normal((b, self.C, self.H, self.W))
        xs, ys = self.coords(rng)
        # every grid sees the same edge cases, in a different order
        bx = np.stack([np.roll(xs, k) for k in range(b)])
        by = np.stack([np.roll(ys, k) for k in range(b)])
        wts = rng.standard_normal((self.C, b, xs.size))
        g, x, y = (Tensor(v, requires_grad=True) for v in (grids, bx, by))
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, x, y)
            loss = (out * wts).sum()
        backward(tape, loss)
        assert out.shape == (self.C, b, xs.size)
        for k in range(b):
            gk, xk, yk = (Tensor(v, requires_grad=True)
                          for v in (grids[k], bx[k], by[k]))
            with Tape() as tape:
                outk, validk = T.bilinear_sample(gk, xk, yk)
                lossk = (outk * wts[:, k]).sum()
            backward(tape, lossk)
            assert np.allclose(out.data[:, k], outk.data, atol=1e-12)
            assert np.array_equal(valid[k], validk)
            assert np.allclose(g.grad[k], gk.grad, atol=1e-12)
            assert np.allclose(x.grad[k], xk.grad, atol=1e-12)
            assert np.allclose(y.grad[k], yk.grad, atol=1e-12)

    def test_batched_zero_mode_does_not_read_the_next_grid(self, rng):
        # grid 0's texels end where grid 1's first row begins in the
        # interpolation matrix; samples just below grid 0's last row must
        # read 0 and pass no gradient to either grid
        grids = rng.standard_normal((2, self.C, self.H, self.W)) + 3.0
        xs = np.array([[2.0, 2.5, 0.0], [1.0, 1.5, 4.0]])
        ys = np.array([[self.H - 1 + 1e-3, self.H - 0.5, self.H - 1.0],
                       [0.0, 0.5, 0.25]])
        g, x, y = (Tensor(v, requires_grad=True) for v in (grids, xs, ys))
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, x, y)
            loss = out.sum()
        backward(tape, loss)
        assert valid.tolist() == [[False, False, True], [True, True, True]]
        assert np.all(out.data[:, 0, :2] == 0.0)
        assert np.allclose(out.data[:, 0, 2], grids[0, :, -1, 0])
        assert np.all(x.grad[0, :2] == 0.0) and np.all(y.grad[0, :2] == 0.0)
        # grid 0 gets gradient only at the one valid sample's texel
        want = np.zeros_like(grids[0])
        want[:, -1, 0] = 1.0
        assert np.array_equal(g.grad[0], want)
        with pytest.raises(ShapeError):
            T.bilinear_sample(g, xs[:1], ys[:1])

    @pytest.mark.parametrize("mode", ["zero"])
    def test_masked_points_are_invalid(self, rng, mode):
        T.set_default_dtype(np.float64)
        grid = rng.standard_normal((self.C, self.H, self.W)) + 3.0
        xs, ys = self.coords(rng)
        mask = rng.random(xs.shape) > 0.4
        wts = rng.standard_normal((self.C, xs.size))

        def run(m, loss_wts):
            g, x, y = (Tensor(v, requires_grad=True) for v in (grid, xs, ys))
            with Tape() as tape:
                out, valid = T.bilinear_sample(g, x, y, mask=m)
                loss = (out * loss_wts).sum()
            backward(tape, loss)
            return out.data, valid, [g.grad, x.grad, y.grad]

        out, valid, grads = run(mask, wts)
        # unmasked, with a loss that leaves the masked points out
        out_all, valid_all, grads_all = run(None, wts * mask)
        assert np.array_equal(valid, valid_all & mask)
        assert np.all(out[:, ~mask] == 0.0)
        assert np.array_equal(out[:, mask], out_all[:, mask])
        assert np.all(grads[1][~mask] == 0.0) and np.all(grads[2][~mask] == 0.0)
        for got, want in zip(grads, grads_all):
            assert np.allclose(got, want, atol=1e-12)

    def test_take_depth_clipped_repeats_match_loops(self, rng):
        # predict_depth's window at the ends of the depth range: the argmax
        # sits on sample 0 or D-1 and the clipped window repeats it
        T.set_default_dtype(np.float64)
        d, h, w, radius = 6, 3, 4, 2
        prob = rng.random((d, h, w))
        best = rng.choice([0, 1, d - 2, d - 1], size=(h, w))
        idx = np.clip(best[None] + np.arange(-radius, radius + 1)[:, None, None], 0, d - 1)
        wts = rng.standard_normal(idx.shape)
        a = Tensor(prob, requires_grad=True)
        with Tape() as tape:
            out = T.take_depth(a, idx)
            loss = (out * wts).sum()
        backward(tape, loss)
        ga = np.zeros_like(prob)
        for m, i, j in np.ndindex(*idx.shape):
            assert out.data[m, i, j] == prob[idx[m, i, j], i, j]
            ga[idx[m, i, j], i, j] += wts[m, i, j]
        assert np.allclose(a.grad, ga, atol=1e-12)

    def test_gather2d_clipped_repeats_match_loops(self, rng):
        T.set_default_dtype(np.float64)
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        ys, xs = np.meshgrid(np.arange(4), np.arange(5), indexing="ij")
        iy, ix = np.clip(ys + 1, 0, 3), np.clip(xs - 1, 0, 4)
        wts = rng.standard_normal(iy.shape)
        with Tape() as tape:
            out = T.gather2d(a, iy, ix)
            loss = (out * wts).sum()
        backward(tape, loss)
        ga = np.zeros((4, 5))
        for i, j in np.ndindex(*iy.shape):
            assert out.data[i, j] == a.data[iy[i, j], ix[i, j]]
            ga[iy[i, j], ix[i, j]] += wts[i, j]
        assert np.allclose(a.grad, ga, atol=1e-12)

    def test_gather_indices_out_of_range_rejected(self, rng):
        a = Tensor(rng.random((3, 2, 2)))
        with pytest.raises(ContractError):
            T.take_depth(a, np.full((1, 2, 2), 3))
        with pytest.raises(ContractError):
            T.gather2d(Tensor(rng.random((2, 2))), np.array([0, -1]), np.array([0, 0]))


class TestTape:
    def test_chain_rule_by_hand(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = Tensor(np.array([4.0, 5.0]), requires_grad=True)
        with Tape() as tape:
            out = (x * y + x).sum()
        backward(tape, out)
        assert np.allclose(x.grad, [5.0, 6.0])
        assert np.allclose(y.grad, [2.0, 3.0])

    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            out = (x * x).sum()
        backward(tape, out)
        assert np.allclose(x.grad, [6.0])

    def test_owned_first_gradients_share_no_memory(self):
        # every op below hands _accum a fresh gradient, which becomes the
        # parent's grad without a copy: no two grads may share a buffer
        leaves = [Tensor(np.linspace(0.5, 2.0, 6).reshape(2, 3) + i, requires_grad=True)
                  for i in range(4)]
        a, b, c, d = leaves
        mask = np.array([[True, False, True], [False, True, False]])
        with Tape() as tape:
            e = T.where(mask, a * b, a / c) + (d.exp() + c.log() + b.abs()).sigmoid()
            f = e.tanh().clip(-0.9, 0.9).softmax(0) + d.max(1, keepdims=True)
            loss = f.sum()
        backward(tape, loss)
        grads = [t.grad for t in leaves]
        assert all(isinstance(g, np.ndarray) and g.shape == (2, 3) for g in grads)
        assert not any(np.shares_memory(g, h) for i, g in enumerate(grads)
                       for h in grads[i + 1:])

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ((x * w).transpose((1, 0)).reshape(6).exp() + 1.0).mean()
        outs = [out for out, _, _ in tape.entries]
        backward(tape, loss)
        assert len(tape) == 0
        assert all(out.grad is None for out in outs)
        assert x.grad is not None and w.grad is not None

    def test_first_gradients_are_private_copies(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        with Tape() as tape:
            loss = (a + b).sum()
        backward(tape, loss)
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        assert np.array_equal(a.grad, [1.0, 1.0])
        x = Tensor(np.array([5.0]), requires_grad=True)
        with Tape() as tape:
            loss = (x + x).sum()
        backward(tape, loss)
        assert np.array_equal(x.grad, [2.0])

    def test_second_replay_is_rejected(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            out = (x * x).sum()
        backward(tape, out)
        with pytest.raises(ContractError):
            backward(tape, out)
        assert np.array_equal(x.grad, [6.0])

    def test_recording_needs_requires_grad(self):
        x = Tensor(np.array([1.0]))
        with Tape() as tape:
            _ = (x * 2.0).sum()
        assert len(tape) == 0

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2.0
        assert y.requires_grad is False

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with Tape() as tape:
            with T.no_grad():
                _ = x * 2.0
        assert len(tape) == 0

    def test_no_grad_is_an_empty_slot_on_the_tape_stack(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with Tape() as tape:
            with T.no_grad():
                _ = x * 2.0
                with T.no_grad():
                    _ = x * 3.0
                _ = x * 4.0  # the inner block's exit leaves recording off
                assert len(tape) == 0 and T.active_tape() is None
                with Tape() as inner:  # the innermost slot decides
                    _ = x * 5.0
                assert len(inner) == 1
            y = x * 6.0  # recording resumes after the block
        assert len(tape) == 1 and y.requires_grad
        assert T._TAPES == []

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_entries_follow_parents(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with Tape() as tape:
            a = x * 2.0
            b = a + 1.0
            _ = (b * a).sum()
        # every parent that is itself an output must have appeared earlier
        produced = set()
        for out, parents, _ in tape.entries:
            for p in parents:
                if any(id(p) == id(o) for o, _, _ in tape.entries):
                    assert id(p) in produced
            produced.add(id(out))


class TestDtypeModes:
    def test_mode_switch_changes_creation(self):
        T.set_default_dtype(np.float64)
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float64
        T.set_default_dtype(np.float32)
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float32

    def test_context_manager_restores(self):
        with T.using_dtype(np.float64):
            assert T.default_dtype() is np.float64
        assert T.default_dtype() is np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ContractError):
            T.set_default_dtype(np.int32)


class TestAdam:
    def test_first_step_is_signed_lr(self, rng):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-3)
        g = np.array([0.5, -2.0, 1e-3, -1e-4], dtype=np.float32)
        p.grad = g.copy()
        opt.step()
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        assert np.allclose(p.data, -1e-3 * np.sign(g), atol=1e-5)

    def test_matches_textbook_sequence(self, rng):
        T.set_default_dtype(np.float64)
        p0 = rng.standard_normal(5)
        grads = [rng.standard_normal(5) for _ in range(4)]
        p = Tensor(p0.copy(), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        assert np.allclose(p.data, adam_oracle(p0, grads, 0.01), atol=1e-12)

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"good": p, "bad": q}, lr=1e-3)
        p.grad = np.zeros(2, dtype=np.float32)
        q.grad = np.array([0.0, np.nan], dtype=np.float32)
        with pytest.raises(TrainStepError, match="bad"):
            opt.step()
        assert np.all(p.data == 0.0)  # nothing was applied

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_is_bit_identical_per_parameter(self, rng, dtype):
        T.set_default_dtype(dtype)
        shapes = [(4, 3, 3, 3), (4,), (2, 5), (7,)]
        # parameters on the scale of the updates, so that a rounding
        # difference in an update shows in the parameter
        params = {f"p{i}": Tensor(rng.standard_normal(s) * 1e-3, requires_grad=True)
                  for i, s in enumerate(shapes)}
        p0s = [p.data.copy() for p in params.values()]
        opt = Adam(params, lr=1e-3)
        steps = []
        for _ in range(3):
            # p2 never has a gradient; the others span eight decades
            grads = [None if i == 2 else
                     (rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 2)).astype(dtype)
                     for i, s in enumerate(shapes)]
            for p, g in zip(params.values(), grads):
                p.grad = None if g is None else g.copy()
            opt.step()
            steps.append(grads)
        want, ms, vs = adam_per_parameter(p0s, steps, 1e-3)
        for p, wp in zip(params.values(), want):
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, wp)
        assert np.array_equal(opt.state.m, np.concatenate([m.ravel() for m in ms]))
        assert np.array_equal(opt.state.v, np.concatenate([v.ravel() for v in vs]))

    def test_nan_gradient_changes_no_parameter(self, rng):
        params = {name: Tensor(rng.standard_normal(3), requires_grad=True)
                  for name in ("first", "middle", "last")}
        opt = Adam(params, lr=1e-3)
        for p in params.values():
            p.grad = np.ones(3, dtype=np.float32)
        opt.step()
        before = {name: p.data.copy() for name, p in params.items()}
        params["middle"].grad = np.array([0.0, np.nan, 0.0], dtype=np.float32)
        with pytest.raises(TrainStepError, match="middle"):
            opt.step()
        assert opt.state.step == 1
        for name, p in params.items():
            assert np.array_equal(p.data, before[name])

    def test_missing_grad_is_zero_update(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-3)
        opt.step()
        assert np.allclose(p.data, 1.0)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        params = {
            "a.weight": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
            "a.bias": rng.standard_normal(2).astype(np.float32),
            "scalarish": np.array([1.5], dtype=np.float32),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(params)
        for k in params:
            assert loaded[k].tobytes() == params[k].tobytes()

    def test_rank_zero_parameter_keeps_shape(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"gain": np.array(7.25, dtype=np.float32)})
        loaded = load_checkpoint(path)
        assert loaded["gain"].shape == ()
        assert float(loaded["gain"]) == 7.25

    def test_header_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        assert path.read_bytes()[:4] == b"IMVS"

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError) as ei:
            load_checkpoint(path)
        assert ei.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FileFormatError) as ei:
            load_checkpoint(path)
        assert ei.value.offset > 0

    def test_float64_params_stored_as_float32(self, tmp_path):
        T.set_default_dtype(np.float64)
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"p": p})
        assert load_checkpoint(path)["p"].dtype == np.float32


class TestModule:
    def test_parameter_names_are_paths(self, rng):
        class Net(Module):
            def __init__(self):
                self.conv = Conv2d(2, 3, 3, rng)
                self.blocks = [Conv2d(3, 3, 3, rng), Conv2d(3, 1, 1, rng)]

        net = Net()
        names = set(net.parameters())
        assert "conv.weight" in names and "blocks.1.bias" in names
        assert len(names) == 6

    def test_load_state_shape_mismatch(self, rng):
        net = Conv2d(2, 3, 3, rng)
        state = {name: p.data for name, p in net.parameters().items()}
        state["weight"] = np.zeros((1, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            net.load_state(state)

    def test_kaiming_scale(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(32, 64, 3, rng)
        std = conv.weight.data.std()
        expect = np.sqrt(2.0 / (32 * 9))
        assert abs(std - expect) / expect < 0.1


class TestGradientSpotChecks:
    """Cheap per-op smoke checks; the exhaustive sweep is TestOpGradcheckSweep."""

    def test_conv_gradients(self, rng):
        w = rng.standard_normal((2, 4, 4))
        margin = check_gradients(
            lambda x, k, b: (T.conv2d(x, k, b, 1, 1) * w).sum(),
            [rng.standard_normal((3, 4, 4)),
             rng.standard_normal((2, 3, 3, 3)) * 0.5,
             rng.standard_normal(2) * 0.1])
        assert margin < 1.0

    def test_softmax_gradients(self, rng):
        w = rng.standard_normal((4, 5))
        margin = check_gradients(lambda a: (a.softmax(0) * w).sum(),
                                 [rng.standard_normal((4, 5))])
        assert margin < 1.0

    def test_bilinear_sample_coord_gradients(self, rng):
        w = rng.standard_normal((2, 6))
        xs = rng.uniform(0.3, 4.5, 6)
        ys = rng.uniform(0.3, 3.5, 6)

        def f(grid, x, y):
            out, _ = T.bilinear_sample(grid, x, y)
            return (out * w).sum()

        margin = check_gradients(f, [rng.standard_normal((2, 5, 6)), xs, ys])
        assert margin < 1.0


class TestOpGradcheckSweep:
    def test_every_core_op_passes_ten_instances(self):
        """The exhaustive finite-difference sweep over every core op."""
        reports = run_suite(instances=10, include_model_ops=False)
        assert reports
        failed = [(r.name, r.margin) for r in reports if not r.passed]
        assert not failed, failed


# gradcheck names that differ from the name of the op they check
CHECK_ALIASES = {"absval": "abs", "tsum": "sum", "tmean": "mean", "tmax": "max"}


def taped_ops(source: str) -> list[str]:
    """The public top-level functions of ``source`` that record on the tape:
    they call ``_record``, ``_unary`` or ``_binary``, directly or through a
    private top-level helper that does."""
    calls = {node.name: {c.func.id for c in ast.walk(node)
                         if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
             for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    recorders = {"_record", "_unary", "_binary"}
    while more := {f for f, called in calls.items()
                   if f.startswith("_") and called & recorders} - recorders:
        recorders |= more
    return sorted(f for f, called in calls.items()
                  if not f.startswith("_") and called & recorders)


def unchecked_ops(ops: list[str], check_names) -> list[str]:
    """The ``ops`` that no check name starts with, as ``op`` or ``op.case``."""
    prefixes = {name.split(".")[0] for name in check_names}
    return [op for op in ops if CHECK_ALIASES.get(op, op) not in prefixes]


class TestGradcheckCoverage:
    def test_the_check_sees_an_unchecked_op(self):
        source = ("def _helper(a): return _unary(a, a, None)\n"
                  "def tsum(a): return _helper(a)\n"
                  "def direct(a, b): return _binary(a, b, a, None)\n"
                  "def forward_only(a): return a\n"
                  "def _private(a): return _record(a, (a,), None)\n")
        ops = taped_ops(source)
        assert ops == ["direct", "tsum"]
        assert unchecked_ops(ops, ["sum.all", "directly"]) == ["direct"]

    def test_every_taped_op_has_a_gradcheck_entry(self):
        ops = taped_ops(Path(T.__file__).read_text())
        assert {"add", "tsum", "tmean", "concat", "conv2d", "group_dot"} <= set(ops)
        assert unchecked_ops(ops, base_op_checks(np.random.default_rng(0))) == []


class TestFullLossGradcheck:
    """The whole training loss against central differences on its parameters."""

    def test_passes(self):
        assert check_full_loss() < 1.0

    def test_catches_a_wrong_tanh_backward(self, monkeypatch):
        def tanh_missing_square(a):
            return T._unary(a, np.tanh(a.data), lambda g, y: g * (1.0 - y))

        monkeypatch.setattr(T, "tanh", tanh_missing_square)
        assert check_full_loss() > 1.0
