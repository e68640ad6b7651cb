"""Tensor engine: forward oracles, tape mechanics, Adam, checkpoints."""

import ast
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru import matching
from mvsgru import tensor as T
from mvsgru.errors import ContractError, FileFormatError, ShapeError, TrainStepError
from mvsgru.estimator import DepthEstimator
from mvsgru.gradcheck import base_op_checks, check_full_loss, check_gradients, op_check
from mvsgru.nn import Conv2d, Module, load_checkpoint, save_checkpoint
from mvsgru.optim import Adam
from mvsgru.tensor import Tape, Tensor, backward
from mvsgru.training import TrainConfig, sample_loss


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

    def test_logsumexp_fills_one_volume_in_forward_and_backward(self, rng, traced):
        # the class loss over a 256 px run's [D2, H/4, W/4] logits: the
        # shifted logits are exponentiated in place, where exp(a − m) and
        # its argument held two volumes
        x = Tensor(rng.standard_normal((256, 64, 64)), requires_grad=True)
        volume = x.data.nbytes
        with T.no_grad():
            _, _, peak = traced(lambda: T.logsumexp(x, 0))
        assert peak < 1.1 * volume
        with Tape() as tape:
            loss = T.logsumexp(x, 0).sum()
        _, held, peak = traced(lambda: backward(tape, loss))
        assert held >= volume  # x.grad
        assert peak < 1.1 * volume

    # integrate's [G, S, D, P] similarity against [S, 1, P] shares, and a
    # masked loss mean's [1, H, W] values against an [H, W] mask
    @pytest.mark.parametrize("a_shape,w_shape,axis", [((4, 2, 3, 5), (2, 1, 5), 1),
                                                      ((1, 3, 5), (3, 5), None)],
                             ids=["integrate", "masked-mean"])
    @pytest.mark.parametrize("w_grad", [True, False], ids=["w-taped", "w-constant"])
    def test_weighted_sum_is_mul_then_sum_bit_for_bit(self, rng, a_shape, w_shape, axis,
                                                      w_grad):
        a0, w0 = rng.standard_normal(a_shape), rng.random(w_shape)
        loss_wts = rng.standard_normal(np.broadcast_shapes(a_shape, w_shape)).sum(axis)

        def run(op):
            a, w = Tensor(a0, requires_grad=True), Tensor(w0, requires_grad=w_grad)
            with Tape() as tape:
                out = op(a, w)
                loss = (out * loss_wts).sum()
            backward(tape, loss)
            return out.data, a.grad, w.grad

        want = run(lambda a, w: (a * w).sum(axis))
        got = run(lambda a, w: T.weighted_sum(a, w, axis))
        for x, y in zip(want, got):
            assert x is y is None or (x.shape == y.shape and x.tobytes() == y.tobytes())

    def test_weighted_sum_forms_no_gradient_for_a_constant(self, monkeypatch):
        # a mask, bin values or a depth grid: backward hands that parent None
        a, w = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)))
        handed = []
        accum = T._accum
        monkeypatch.setattr(T, "_accum", lambda t, g: handed.append((t, g)) or accum(t, g))
        with Tape() as tape:
            loss = T.weighted_sum(a, w, 0).sum()
        backward(tape, loss)
        assert [g is None for t, g in handed if t is w] == [True]


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

    @pytest.mark.parametrize("bound", [1, 40, 150])
    @pytest.mark.parametrize("shape,c_out,k,stride,pad", [
        pytest.param((1, 3, 7, 5), 4, 3, 2, 1, id="s2-odd"),
        pytest.param((1, 2, 9, 6), 3, 3, 1, 1, id="s1"),
        pytest.param((1, 2, 6, 9), 2, 5, 2, 2, id="k5-s2"),
        pytest.param((1, 3, 7, 5), 2, 3, 2, 0, id="s2-pad0"),
        pytest.param((3, 2, 7, 5), 4, 3, 2, 1, id="batched-s2"),
        pytest.param((4, 8, 6, 7), 1, 3, 1, 1, id="batched-output-side"),
        pytest.param((2, 3, 7, 7), 5, 1, 2, 0, id="batched-1x1-s2"),
    ])
    def test_bands_of_any_size_match_the_oracle(self, rng, monkeypatch, shape, c_out, k,
                                                stride, pad, bound):
        # a tiny bound cuts bands of one row or one item, and bands that
        # start and end inside the padded border rows
        T.set_default_dtype(np.float64)
        monkeypatch.setattr(T, "MAX_WORK_ELEMENTS", bound)
        x = rng.standard_normal(shape)
        w = rng.standard_normal((c_out, shape[1], k, k))
        b = rng.standard_normal(c_out)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        for xi, gi in zip(x, got):
            assert np.abs(gi - conv2d_oracle(xi, w, b, stride, pad)).max() < 1e-10

    # (B, C_in, C_out, k, stride, sizes): the first size's buffer
    # (im2col, or for the output side k²·C_out·B·H·W products) fits
    # MAX_WORK_ELEMENTS, the second's does not
    @pytest.mark.parametrize("leaky", [False, True])
    @pytest.mark.parametrize("b_n,c_in,c_out,k,stride,sizes", [
        pytest.param(1, 16, 16, 3, 1, (60, 64), id="b1-k3-s1"),
        pytest.param(1, 16, 16, 3, 2, (120, 128), id="b1-k3-s2"),
        pytest.param(1, 128, 32, 1, 2, (126, 130), id="b1-k1-s2"),
        # two items fit whole at 40 px; at 64 px one item's rows are banded
        pytest.param(2, 16, 16, 3, 1, (40, 64), id="b2-k3-s1"),
        pytest.param(32, 8, 16, 3, 1, (15, 16), id="b32-k3-s1"),
        pytest.param(32, 8, 16, 3, 2, (30, 32), id="b32-k3-s2"),
        pytest.param(32, 16, 16, 1, 2, (62, 66), id="b32-k1-s2"),
        pytest.param(32, 16, 2, 3, 1, (30, 32), id="b32-output-side"),
    ])
    def test_banded_forward_is_bit_identical_to_unbanded(self, rng, monkeypatch, b_n, c_in,
                                                         c_out, k, stride, sizes, leaky):
        slices = T.work_slices
        for size, over in zip(sizes, (False, True)):
            x = Tensor(rng.standard_normal((b_n, c_in, size, size)), requires_grad=True)
            w = Tensor(rng.standard_normal((c_out, c_in, k, k)), requires_grad=True)
            b = Tensor(rng.standard_normal(c_out), requires_grad=True)
            bands = []

            def spy(n, unit):  # (slices, elements of the largest)
                out = slices(n, unit)
                bands.append((len(out), unit * max(s.stop - s.start for s in out)))
                return out

            def run():
                bands.clear()
                x.grad = w.grad = b.grad = None
                with Tape() as tape:
                    y = T.conv2d(x, w, b, stride, (k - 1) // 2, leaky)
                    loss = (y * y).sum()
                backward(tape, loss)
                return y.data, x.grad, w.grad, b.grad

            monkeypatch.setattr(T, "work_slices", spy)
            banded = run()
            # an im2col that fits whole is one band
            n_bands, largest = map(max, zip(*bands)) if bands else (1, 0)
            monkeypatch.setattr(T, "MAX_WORK_ELEMENTS", 1 << 40)
            whole = run()
            monkeypatch.undo()
            assert (n_bands > 1) == over
            assert largest <= T.MAX_WORK_ELEMENTS
            for want, got in zip(whole, banded):
                assert want.dtype == got.dtype == np.float32
                assert want.tobytes() == got.tobytes()

    def test_1x1_conv_is_one_gemm_on_its_input(self, rng, monkeypatch):
        # lat1-3 and drop32/drop16 of the FPN: no im2col, and the same
        # bits as the im2col GEMM they would run
        x = rng.standard_normal((1, 32, 24, 24)).astype(np.float32)
        w = rng.standard_normal((16, 32, 1, 1)).astype(np.float32)
        b = rng.standard_normal(16).astype(np.float32)
        im2col, calls = T._im2col, []
        monkeypatch.setattr(T, "_im2col", lambda *a: calls.append(a) or im2col(*a))
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert calls == []
        cols = T._im2col_product(w.reshape(16, 32), x, 24, 24, 1, 1, 0)
        assert len(calls) == 1
        want = cols.reshape(1, 16, 24, 24) + b[:, None, None]
        assert got.tobytes() == want.tobytes()

    # (x shape, c_out): a 16 -> 16 conv at 128² fills its im2col in bands of
    # output rows; a 16 -> 1 conv over 128 items runs its output side over
    # items a slab at a time
    @pytest.mark.parametrize("shape,c_out", [((1, 16, 128, 128), 16), ((128, 16, 32, 32), 1)],
                             ids=["im2col-bands", "output-side-items"])
    def test_banded_forward_holds_one_band_at_a_time(self, rng, traced, shape, c_out):
        b_n, c_in, h, w = shape
        x = Tensor(rng.standard_normal(shape))
        wt = Tensor(rng.standard_normal((c_out, c_in, 3, 3)))
        b = Tensor(rng.standard_normal(c_out))
        # the output side buffers k²·C_out·H·W products per item, the
        # im2col k²·C_in·W' elements per output row
        n, unit = (b_n, 9 * c_out * h * w) if c_out == 1 else (h, 9 * c_in * w)
        bands = T.work_slices(n, unit)
        band = (bands[0].stop - bands[0].start) * unit * 4
        assert len(bands) > 2
        T.conv2d(x, wt, b, 1, 1)  # warm: tap geometry caches and BLAS buffers
        out, _, peak = traced(lambda: T.conv2d(x, wt, b, 1, 1))
        assert band < peak - out.data.nbytes < 1.5 * band

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

    # n_empty: the buffers taken from np.empty: the im2col forward's
    # product and its im2col, and the input side's rebuilt im2col backward;
    # the output side's buffers and dZ are np.zeros
    @pytest.mark.parametrize("shape,c_out,k,stride,pad,min_size,n_empty", [
        pytest.param((1, 3, 7, 5), 4, 3, 2, 1, 0, 2, id="im2col-s2-odd"),
        pytest.param((1, 2, 9, 6), 3, 3, 1, 1, 0, 2, id="im2col-s1"),
        pytest.param((1, 2, 6, 9), 2, 5, 2, 2, 0, 2, id="im2col-k5-s2"),
        pytest.param((1, 2, 1, 4), 2, 3, 1, 1, 0, 2, id="one-row"),
        pytest.param((1, 8, 6, 7), 1, 3, 1, 1, 0, 0, id="output-side"),
        pytest.param((2, 16, 7, 5), 2, 3, 2, 1, 0, 0, id="output-side-s2"),
        pytest.param((2, 2, 12, 12), 40, 3, 1, 1, 0, 3, id="input-side-backward"),
        pytest.param((1, 16, 40, 40), 16, 3, 1, 1, None, 2, id="default-size-floor"),
    ])
    def test_uninitialized_buffers_hold_only_what_the_taps_write(
            self, rng, monkeypatch, shape, c_out, k, stride, pad, min_size, n_empty):
        # np.empty hands out NaN: a cell of the im2col buffer that no tap
        # writes and no hole zeroes would poison the result
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_texel_major_grid_gives_the_same_bits(self, rng, dtype, batched):
        # a [.., C, H, W] view of C-order [.., H, W, C] memory, as
        # stack_pyramids stores the sources: outputs and the grid's gradient
        # keep every bit of the contiguous grid's
        T.set_default_dtype(dtype)
        grid = rng.standard_normal((2, 5, 9, 11) if batched else (5, 9, 11)).astype(dtype)
        texel_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(grid, -3, -1)), -1, -3)
        assert not texel_major.flags.c_contiguous and np.array_equal(texel_major, grid)
        cshape = (2, 3, 17) if batched else (3, 17)
        x = rng.uniform(-1.0, 11.0, cshape)
        y = rng.uniform(-1.0, 9.0, cshape)
        x.flat[:4] = [0.0, 10.0, 10.0, np.nan]  # left and right border, a NaN
        y.flat[:4] = [8.0, 0.0, 8.0, 4.0]
        mask = rng.random(cshape) > 0.2
        weights = rng.standard_normal((5,) + cshape)

        def run(g):
            gt = Tensor(g, requires_grad=True)
            with Tape() as tape:
                out, valid = T.bilinear_sample(gt, x, y, mask=mask)
                loss = (out * weights).sum()
            backward(tape, loss)
            return out.data, valid, gt.grad

        for want, got in zip(run(grid), run(texel_major)):
            assert want.tobytes() == got.tobytes()

    def test_texel_major_grid_is_sampled_without_a_copy(self, rng, traced):
        # a 2 MB grid and 16 points: the contiguous grid's texel table is
        # a 2 MB copy, the texel-major one's a reshape
        grid = rng.standard_normal((2, 16, 128, 128)).astype(np.float32)
        texel_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(grid, 1, -1)), -1, 1)
        x, y = rng.uniform(0.0, 127.0, (2, 2, 8)), rng.uniform(0.0, 127.0, (2, 2, 8))

        def peak(g):
            return traced(lambda: T.bilinear_sample(Tensor(g), x, y))[2]

        assert peak(grid) > grid.nbytes > 100 * peak(texel_major)

    def test_concat_writes_c_order(self, rng):
        # numpy's concatenate follows its inputs' layout; concat does not
        maps = [Tensor(rng.standard_normal((4, 3, 5))) for _ in range(2)]
        out = T.concat([m.transpose((1, 2, 0)) for m in maps], 0)
        assert out.data.flags.c_contiguous
        assert np.array_equal(out.data, np.concatenate([m.data.transpose(1, 2, 0) for m in maps]))

    def test_resize_keeps_constant_maps_constant(self):
        grid = np.full((1, 4, 4), 3.25, dtype=np.float32)
        out = T.bilinear_resize(Tensor(grid), (16, 16)).data
        assert np.allclose(out, 3.25, atol=1e-6)



def sample_ref(grid, x, y):
    """One bilinear sample and its corner weights, straight from the definition.

    Returns (value [C], [(row, col, weight), ...]).
    """
    c, h, w = grid.shape
    if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
        return np.zeros(c), []
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    corners = [(y0, x0, (1 - fy) * (1 - fx)), (y0, x1, (1 - fy) * fx),
               (y1, x0, fy * (1 - fx)), (y1, x1, fy * fx)]
    value = sum(wt * grid[:, r, q] for r, q, wt in corners)
    return value, corners


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
        g = Tensor(grid, requires_grad=True)
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, xs, ys)
            loss = (out * wts).sum()
        backward(tape, loss)

        ggrid = np.zeros_like(grid)
        for n in range(xs.size):
            value, corners = sample_ref(grid, xs[n], ys[n])
            assert np.allclose(out.data[:, n], value, atol=1e-12)
            for r, q, wt in corners:
                ggrid[:, r, q] += wt * wts[:, n]
            assert valid[n] == bool(corners)
        assert np.allclose(g.grad, ggrid, atol=1e-12)

    def test_out_of_range_gives_zero_output_and_gradient(self, rng):
        grid = rng.standard_normal((self.C, self.H, self.W)) + 3.0
        xs = np.array([-0.5, self.W - 0.9, 2.0, 2.0])
        ys = np.array([1.0, 1.0, -0.01, self.H - 0.99])
        g = Tensor(grid, requires_grad=True)
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, xs, ys)
            loss = out.sum()
        backward(tape, loss)
        assert not valid.any()
        assert np.all(out.data == 0.0)
        assert np.all(g.grad == 0.0)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_an_invalid_point(self, rng, batched, dtype, axis, value):
        # a diverged depth warps to NaN or inf: that point samples 0 and
        # passes no gradient, without a warning, exactly as if it were masked;
        # float32 is the dtype the lookups run in
        T.set_default_dtype(dtype)
        lead = (2,) if batched else ()
        grid = (rng.standard_normal(lead + (self.C, self.H, self.W)) + 3.0).astype(dtype)
        coords = [rng.uniform(0.5, 3.5, lead + (4,)).astype(dtype) for _ in range(2)]
        wts = rng.standard_normal((self.C,) + lead + (4,)).astype(dtype)
        mask = np.ones(lead + (4,), dtype=bool)
        mask[..., 1] = False

        def run(xs, ys, mask=None):
            g = Tensor(grid, requires_grad=True)
            with Tape() as tape:
                out, valid = T.bilinear_sample(g, xs, ys, mask=mask)
                loss = (out * wts).sum()
            backward(tape, loss)
            return [out.data, valid, g.grad]

        masked = run(*coords, mask=mask)
        coords[axis][..., 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(*coords)
        assert np.all(got[0][..., 1] == 0.0) and not got[1][..., 1].any()
        for g, m in zip(got, masked):
            assert np.array_equal(g, m)

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
        g = Tensor(grids, requires_grad=True)
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, bx, by)
            loss = (out * wts).sum()
        backward(tape, loss)
        assert out.shape == (self.C, b, xs.size)
        for k in range(b):
            gk = Tensor(grids[k], requires_grad=True)
            with Tape() as tape:
                outk, validk = T.bilinear_sample(gk, bx[k], by[k])
                lossk = (outk * wts[:, k]).sum()
            backward(tape, lossk)
            assert np.allclose(out.data[:, k], outk.data, atol=1e-12)
            assert np.array_equal(valid[k], validk)
            assert np.allclose(g.grad[k], gk.grad, atol=1e-12)

    def test_batched_zero_mode_does_not_read_the_next_grid(self, rng):
        # grid 0's texels end where grid 1's first row begins in the
        # interpolation matrix; samples just below grid 0's last row must
        # read 0 and pass no gradient to either grid
        grids = rng.standard_normal((2, self.C, self.H, self.W)) + 3.0
        xs = np.array([[2.0, 2.5, 0.0], [1.0, 1.5, 4.0]])
        ys = np.array([[self.H - 1 + 1e-3, self.H - 0.5, self.H - 1.0],
                       [0.0, 0.5, 0.25]])
        g = Tensor(grids, requires_grad=True)
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, xs, ys)
            loss = out.sum()
        backward(tape, loss)
        assert valid.tolist() == [[False, False, True], [True, True, True]]
        assert np.all(out.data[:, 0, :2] == 0.0)
        assert np.allclose(out.data[:, 0, 2], grids[0, :, -1, 0])
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
            g = Tensor(grid, requires_grad=True)
            with Tape() as tape:
                out, valid = T.bilinear_sample(g, xs, ys, mask=m)
                loss = (out * loss_wts).sum()
            backward(tape, loss)
            return out.data, valid, g.grad

        out, valid, grad = run(mask, wts)
        # unmasked, with a loss that leaves the masked points out
        out_all, valid_all, grad_all = run(None, wts * mask)
        assert np.array_equal(valid, valid_all & mask)
        assert np.all(out[:, ~mask] == 0.0)
        assert np.array_equal(out[:, mask], out_all[:, mask])
        assert np.allclose(grad, grad_all, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (1, 2)])
    @pytest.mark.parametrize("op", ["bilinear_sample", "sampled_group_dot"])
    def test_mask_of_another_shape_is_rejected(self, rng, op, shape):
        # for [1, 3] coordinates a (1,) mask would broadcast over every
        # point, a (3, 1) one has their size and a (1, 2) one has neither
        grid = Tensor(rng.standard_normal((self.C, self.H, self.W)))
        xs, ys = np.full((1, 3), 1.5), np.full((1, 3), 2.5)
        mask = np.ones(shape, dtype=bool)
        with pytest.raises(ShapeError, match="mask"):
            if op == "bilinear_sample":
                T.bilinear_sample(grid, xs, ys, mask=mask)
            else:
                T.sampled_group_dot(Tensor(rng.standard_normal((self.C, 3))), grid, xs, ys,
                                    mask, 1)

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
        with pytest.raises(ContractError):  # would wrap to index 1 in int32
            T.take_depth(a, np.full((1, 2, 2), 2**32 + 1))
        with pytest.raises(ContractError):
            T.gather2d(Tensor(rng.random((2, 2))), np.array([0, -1]), np.array([0, 0]))


def sampling_then_group_means(f0, grid, x, y, mask, groups):
    """``sampled_group_dot`` composed of other ops: ``bilinear_sample``, the
    per-channel products and the mean over each group's channels."""
    warped, valid = T.bilinear_sample(grid, x, y, mask=mask)
    c, p = f0.shape
    prod = warped.reshape((c, -1, p)) * f0.reshape((c, 1, p))
    return prod.reshape((groups, c // groups, -1)).mean(1).reshape((groups,) + valid.shape), valid


def texel_major_tensor(a: np.ndarray) -> Tensor:
    """A [B, C, H, W] tensor viewing [B, H, W, C] memory, as the stacked sources do."""
    return Tensor(np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, -1)), -1, 1))


class TestSampledGroupDot:
    """The lookup as one op: sampling and group correlation without a warped volume."""

    def lookup(self, rng, c=16, s=2, d=5, p=24, h=9, w=11):
        f0 = rng.standard_normal((c, p))
        grid = rng.standard_normal((s, c, h, w))
        x, y = rng.uniform(-1.0, w, (s, d, p)), rng.uniform(-1.0, h, (s, d, p))
        return f0, grid, x, y, rng.random((s, d, p)) > 0.2

    def test_matches_sampling_then_group_means(self, rng):
        T.set_default_dtype(np.float64)
        f0_0, grid_0, x, y, mask = self.lookup(rng)
        loss_wts = rng.standard_normal((4,) + x.shape)

        def run(op):
            f0, grid = Tensor(f0_0, requires_grad=True), Tensor(grid_0, requires_grad=True)
            with Tape() as tape:
                out, valid = op(f0, grid, x, y, mask, 4)
                loss = (out * loss_wts).sum()
            backward(tape, loss)
            return [out.data, valid, f0.grad, grid.grad]

        got, want = run(T.sampled_group_dot), run(sampling_then_group_means)
        valid = got.pop(1)
        assert np.array_equal(valid, want.pop(1)) and 0 < valid.sum() < valid.size
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.allclose(g, w, atol=1e-12)

    @pytest.mark.parametrize("bound", [3 * 24 * 16, 1])
    def test_slabs_give_the_bits_of_one_product(self, rng, monkeypatch, bound):
        # 10 rows of 24 points: slabs of 3, 3, 3 and 1 rows, or one row each
        f0_0, grid_0, x, y, mask = self.lookup(rng)
        loss_wts = rng.standard_normal((4,) + x.shape)
        slabs = []

        def run():
            f0, grid = Tensor(f0_0, requires_grad=True), texel_major_tensor(grid_0)
            grid.requires_grad = True
            with Tape() as tape:
                out, valid = T.sampled_group_dot(f0, grid, x, y, mask, 4)
                loss = (out * loss_wts).sum()
            backward(tape, loss)
            return out.data, valid, f0.grad, grid.grad

        whole = run()
        slices = T.work_slices

        def spy(n, unit):
            slabs.append(slices(n, unit))
            return slabs[-1]

        monkeypatch.setattr(T, "work_slices", spy)
        monkeypatch.setattr(T, "MAX_WORK_ELEMENTS", bound)
        sliced = run()
        assert len(slabs[0]) == (4 if bound > 1 else 10)
        for want, got in zip(whole, sliced):
            assert want.tobytes() == got.tobytes()

    @pytest.mark.parametrize("taped", [False, True])
    def test_keeps_no_warped_volume(self, rng, traced, taped):
        # a level-3 lookup at 256 px: 64 channels, 2 sources, 8 hypotheses,
        # 4096 points; its warped features are 16.8 MB, 8x MAX_WORK_ELEMENTS
        c, s, d, p = 64, 2, 8, 4096
        f0 = Tensor(np.ascontiguousarray(rng.standard_normal((p, c))).T, requires_grad=taped)
        grid = texel_major_tensor(rng.standard_normal((s, c, 64, 64)))
        grid.requires_grad = taped
        x, y = (rng.uniform(0.0, 63.0, (s, d, p)).astype(np.float32) for _ in range(2))
        volume = c * s * d * p * 4
        assert volume >= 8 * T.MAX_WORK_ELEMENTS * 4
        ctx = Tape() if taped else T.no_grad()

        def lookup():
            with ctx:  # a tape stays referenced, so its entries are held
                return T.sampled_group_dot(f0, grid, x, y, None, 8)

        _, held, peak = traced(lookup)
        # no_grad: one 2 MB slab at a time; under a tape, the interpolation
        # matrix and the output stay, not the samples
        assert (held if taped else peak) < volume / 2


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

    def test_first_gradients_share_no_memory(self):
        # a first gradient becomes the parent's grad as handed over, often g
        # itself or a view of it, so every grad must be writeable, no two may
        # share a buffer, and later in-place additions must not leak
        rng = np.random.default_rng(7)
        names = "abxcdrtpqsumn"
        leaves = {n: Tensor(rng.standard_normal((2, 3)), requires_grad=True) for n in names}
        a, b, x, c, d, r, t, p, q, s, u, m, n = leaves.values()
        k = Tensor(np.array(1.5), requires_grad=True)
        e = rng.standard_normal((2, 3))
        shapes = [(2, 3)] * 4 + [(3, 2), (3, 2), (4, 3), (2, 2), (2,), (3,), (), (2, 3)]
        w = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        fresh = [Tensor(np.linspace(0.5, 2.0, 6).reshape(2, 3) + i, requires_grad=True)
                 for i in range(4)]
        f0, f1, f2, f3 = fresh
        with Tape() as tape:
            # a * 3.0 is recorded first, so it adds into a's gradient from
            # the add, which b's must not share
            terms = [a * 3.0, a + b, x + x, c - d, r.reshape((3, 2)), t.transpose((1, 0)),
                     T.concat([p, q], 0), T.getitem(s, (slice(None), slice(1, None))),
                     u.sum(axis=1), m.mean(axis=0), n.sum(), k * e]
            loss = sum((term * wi).sum() for term, wi in zip(terms, w))
            # ops whose gradients are fresh arrays
            g = T.softplus(f0 * f1) + f0 / f2 + (f3.tanh() + T.logsumexp(f2, 0) + f1.abs()).sigmoid()
            h = g.tanh().softmax(0) + f3.max(1, keepdims=True)
            loss = loss + h.sum()
        backward(tape, loss)
        grads = [v.grad for v in leaves.values()] + [k.grad] + [v.grad for v in fresh]
        assert all(isinstance(v, np.ndarray) and v.flags.writeable for v in grads)
        assert [v.shape for v in grads] == [(2, 3)] * len(names) + [()] + [(2, 3)] * 4
        assert not any(np.shares_memory(v, z) for i, v in enumerate(grads)
                       for z in grads[i + 1:])
        w = [wi.astype(np.float64) for wi in w]
        gs = np.zeros((2, 3))
        gs[:, 1:] = w[7]
        oracle = {"a": 3.0 * w[0] + w[1], "b": w[1], "x": 2.0 * w[2], "c": w[3], "d": -w[3],
                  "r": w[4].reshape(2, 3), "t": w[5].T, "p": w[6][:2], "q": w[6][2:],
                  "s": gs, "u": np.repeat(w[8][:, None], 3, axis=1),
                  "m": np.repeat(w[9][None, :] / 2.0, 2, axis=0), "n": np.full((2, 3), w[10])}
        for name, want in oracle.items():
            assert np.allclose(leaves[name].grad, want, rtol=1e-5, atol=1e-6), name
        assert np.isclose(k.grad, (e.astype(np.float32) * w[11]).sum(), rtol=1e-5)

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ((x * w).transpose((1, 0)).reshape(6).sigmoid() + 1.0).mean()
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

    def test_non_finite_value_names_the_parameter(self, tmp_path):
        path = tmp_path / "model.ckpt"
        bad = np.zeros((2, 3), dtype=np.float32)
        bad[1, 0] = np.nan
        save_checkpoint(path, {"a": np.ones(4, dtype=np.float32), "b.weight": bad})
        with pytest.raises(FileFormatError, match="non-finite value in b.weight") as ei:
            load_checkpoint(path)
        # header 12 bytes, "a" 2+1+1+4+16, "b.weight" 2+8+1+8, then 3 values
        assert ei.value.offset == 12 + 24 + 19 + 3 * 4

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


class TestOpGradcheckSweep:
    def test_every_core_op_passes_ten_instances(self):
        """The exhaustive finite-difference sweep over every core op."""
        worst: dict[str, float] = {}
        for i in range(10):
            for name, check in base_op_checks(np.random.default_rng(i)).items():
                worst[name] = max(worst.get(name, 0.0), check())
        failed = {name: margin for name, margin in worst.items() if margin >= 1.0}
        assert worst and not failed, failed


def tanh_missing_square(a):
    """tanh with a wrong backward: the derivative lacks its square."""
    return T._unary(a, np.tanh(a.data), lambda g, y: g * (1.0 - y))


class TestOpCheck:
    """``op_check`` weighs every output and differentiates every input, so a
    wrong gradient anywhere in an op fails its check."""

    def test_a_wrong_backward_of_the_second_output_fails(self, rng):
        a = rng.standard_normal((3, 4))
        assert op_check(lambda t: (t.sigmoid(), t.tanh()), [a], rng)() < 1.0
        assert op_check(lambda t: (t.sigmoid(), tanh_missing_square(t)), [a], rng)() > 1.0

    def test_a_wrong_gradient_of_the_last_input_fails(self, rng):
        def mul_doubling_b(a, b):
            return T._binary(a, b, a.data * b.data, lambda g, y: (g * b.data, 2.0 * g * a.data))

        inputs = [rng.standard_normal((3, 4)), rng.standard_normal(4), rng.standard_normal(4)]
        assert op_check(lambda a, b, c: (a * b) * c, inputs, rng)() < 1.0
        assert op_check(lambda a, b, c: mul_doubling_b(a * b, c), inputs, rng)() > 1.0

    def test_div_with_a_flipped_denominator_gradient_fails(self, monkeypatch):
        def div_flipped(a, b):
            a, b = T._wrap(a), T._wrap(b)
            return T._binary(a, b, a.data / b.data, lambda g, y: (g / b.data, g * y / b.data))

        assert base_op_checks(np.random.default_rng(0))["div"]() < 1.0
        monkeypatch.setattr(T, "div", div_flipped)
        assert base_op_checks(np.random.default_rng(0))["div"]() > 1.0


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
        assert {"add", "tsum", "tmean", "concat", "conv2d", "sampled_group_dot",
                "weighted_sum"} <= set(ops)
        assert unchecked_ops(ops, base_op_checks(np.random.default_rng(0))) == []


def uncalled_ops(monkeypatch, ops: list[str], run) -> list[str]:
    """The ``ops`` of ``tensor`` that ``run()`` never calls, whether through
    ``tensor`` or under a name a module of the package imported."""
    called = set()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mvsgru"]
    for op in ops:
        fn = getattr(T, op)

        def counted(*args, _op=op, _fn=fn, **kwargs):
            called.add(_op)
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, op, None) is fn:
                monkeypatch.setattr(module, op, counted)
    run()
    return [op for op in ops if op not in called]


class TestOpsInUse:
    def test_the_check_sees_an_uncalled_op(self, monkeypatch):
        def run():
            a = Tensor(np.ones(2))
            matching.concat([a + 1.0, a], 0)  # through the name matching imported

        assert uncalled_ops(monkeypatch, ["add", "concat", "softplus"], run) == ["softplus"]

    def test_a_training_step_calls_every_taped_op(self, fixed_sample, monkeypatch):
        # an op that no step calls is dead code, however well its gradcheck passes
        def step():
            cfg = TrainConfig()
            model = DepthEstimator(cfg, np.random.default_rng(3))
            with Tape() as tape:
                loss = sample_loss(model, fixed_sample.views, 0, [1, 2], cfg).total
            backward(tape, loss)

        ops = taped_ops(Path(T.__file__).read_text())
        assert uncalled_ops(monkeypatch, ops, step) == []


class TestFullLossGradcheck:
    """The whole training loss against central differences on its parameters."""

    def test_passes(self):
        assert check_full_loss() < 1.0

    def test_catches_a_wrong_tanh_backward(self, monkeypatch):
        monkeypatch.setattr(T, "tanh", tanh_missing_square)
        assert check_full_loss() > 1.0
