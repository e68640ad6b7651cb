"""Tensor engine: forward oracles, tape mechanics, Adam, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgru import tensor as T
from mvsgru.errors import ContractError, FileFormatError, ShapeError, TrainStepError
from mvsgru.gradcheck import check_full_loss, check_gradients, run_suite
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
_SAME_PAD_CONVS = [(1, 1, 5, 3, 1), (3, 4, 6, 3, 1), (8, 8, 8, 3, 2),
                   (4, 2, 7, 5, 1), (2, 3, 8, 1, 1), (3, 5, 8, 3, 2)]


class TestConv:
    @pytest.mark.parametrize("c_in,c_out,hw,k,stride,pad", [
        pytest.param(ci, co, (n, n), k, st, (k - 1) // 2, id=f"{ci}-{co}-{n}-{k}-{st}")
        for ci, co, n, k, st in _SAME_PAD_CONVS] + [
        # non-square and odd: at stride 2 the last tap row/column reads padding
        pytest.param(3, 4, (7, 5), 3, 2, 1, id="3-4-7x5-3-2"),
        pytest.param(2, 3, (9, 6), 3, 1, 1, id="2-3-9x6-3-1"),
        pytest.param(2, 2, (6, 9), 5, 2, 2, id="2-2-6x9-5-2"),
        # no padding: every tap stays inside the image
        pytest.param(3, 2, (7, 5), 3, 2, 0, id="3-2-7x5-3-2-pad0"),
        pytest.param(2, 3, (6, 9), 5, 1, 0, id="2-3-6x9-5-1-pad0"),
        # one row: the top and bottom taps fall entirely on padding
        pytest.param(2, 2, (1, 4), 3, 1, 1, id="2-2-1x4-3-1"),
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

    def test_shape_errors(self, rng):
        x = Tensor(rng.standard_normal((3, 5, 5)))
        w_even = Tensor(rng.standard_normal((4, 3, 2, 2)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w_even)
        w_badc = Tensor(rng.standard_normal((4, 2, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w_badc)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        with pytest.raises(ContractError):
            T.conv2d(x, w, stride=3)


class TestBilinear:
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

    def test_edge_mode_clamps(self, rng):
        grid = rng.standard_normal((1, 4, 4))
        out, valid = T.bilinear_sample(Tensor(grid), np.array([-2.0]), np.array([1.0]),
                                       mode="edge")
        assert valid.all()
        assert np.allclose(out.data[0, 0], grid[0, 1, 0], atol=1e-6)

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



def sample_ref(grid, x, y, mode):
    """One bilinear sample and its corner weights, straight from the definition.

    Returns (value [C], [(row, col, weight), ...], dvalue/dx [C], dvalue/dy [C]).
    """
    c, h, w = grid.shape
    if mode == "zero" and not (0 <= x <= w - 1 and 0 <= y <= h - 1):
        return np.zeros(c), [], np.zeros(c), np.zeros(c)
    xc, yc = min(max(x, 0.0), w - 1.0), min(max(y, 0.0), h - 1.0)
    x0, y0 = int(np.floor(xc)), int(np.floor(yc))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = xc - x0, yc - y0
    corners = [(y0, x0, (1 - fy) * (1 - fx)), (y0, x1, (1 - fy) * fx),
               (y1, x0, fy * (1 - fx)), (y1, x1, fy * fx)]
    value = sum(wt * grid[:, r, q] for r, q, wt in corners)
    dx = (1 - fy) * (grid[:, y0, x1] - grid[:, y0, x0]) + fy * (grid[:, y1, x1] - grid[:, y1, x0])
    dy = (1 - fx) * (grid[:, y1, x0] - grid[:, y0, x0]) + fx * (grid[:, y1, x1] - grid[:, y0, x1])
    # a clamped coordinate does not move the sample
    return value, corners, dx * (x == xc), dy * (y == yc)


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

    @pytest.mark.parametrize("mode", ["zero", "edge"])
    def test_sample_and_gradients_match_loops(self, rng, mode):
        T.set_default_dtype(np.float64)
        grid = rng.standard_normal((self.C, self.H, self.W))
        xs, ys = self.coords(rng)
        wts = rng.standard_normal((self.C, xs.size))
        g, x, y = Tensor(grid, requires_grad=True), Tensor(xs, requires_grad=True), \
            Tensor(ys, requires_grad=True)
        with Tape() as tape:
            out, valid = T.bilinear_sample(g, x, y, mode=mode)
            loss = (out * wts).sum()
        backward(tape, loss)

        ggrid = np.zeros_like(grid)
        for n in range(xs.size):
            value, corners, dx, dy = sample_ref(grid, xs[n], ys[n], mode)
            assert np.allclose(out.data[:, n], value, atol=1e-12)
            assert np.isclose(x.grad[n], wts[:, n] @ dx, atol=1e-12)
            assert np.isclose(y.grad[n], wts[:, n] @ dy, atol=1e-12)
            for r, q, wt in corners:
                ggrid[:, r, q] += wt * wts[:, n]
            assert valid[n] == (mode == "edge" or bool(corners))
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

    @pytest.mark.parametrize("mode", ["zero", "edge"])
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
            out, valid = T.bilinear_sample(g, x, y, mode=mode)
            loss = (out * wts).sum()
        backward(tape, loss)
        assert out.shape == (self.C, b, xs.size)
        for k in range(b):
            gk, xk, yk = (Tensor(v, requires_grad=True)
                          for v in (grids[k], bx[k], by[k]))
            with Tape() as tape:
                outk, validk = T.bilinear_sample(gk, xk, yk, mode=mode)
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

    @pytest.mark.parametrize("mode", ["zero", "edge"])
    def test_masked_points_are_invalid(self, rng, mode):
        T.set_default_dtype(np.float64)
        grid = rng.standard_normal((self.C, self.H, self.W)) + 3.0
        xs, ys = self.coords(rng)
        mask = rng.random(xs.shape) > 0.4
        wts = rng.standard_normal((self.C, xs.size))

        def run(m, loss_wts):
            g, x, y = (Tensor(v, requires_grad=True) for v in (grid, xs, ys))
            with Tape() as tape:
                out, valid = T.bilinear_sample(g, x, y, mode=mode, mask=m)
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
        grads = backward(tape, out)
        assert np.allclose(x.grad, [5.0, 6.0])
        assert np.allclose(y.grad, [2.0, 3.0])
        assert set(grads) == {x, y}

    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            out = (x * x).sum()
        backward(tape, out)
        assert np.allclose(x.grad, [6.0])

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
        seen = set()
        for out, parents, _ in tape.entries:
            for p in parents:
                assert id(p) not in seen or True  # parents may be leaves
            seen.add(id(out))
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
        opt = Adam({"good": p, "bad": q})
        p.grad = np.zeros(2, dtype=np.float32)
        q.grad = np.array([0.0, np.nan], dtype=np.float32)
        with pytest.raises(TrainStepError, match="bad"):
            opt.step()
        assert np.all(p.data == 0.0)  # nothing was applied

    def test_missing_grad_is_zero_update(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p})
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
        state = net.state()
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
        err = check_gradients(
            lambda x, k, b: (T.conv2d(x, k, b, 1, 1) * w).sum(),
            [rng.standard_normal((3, 4, 4)),
             rng.standard_normal((2, 3, 3, 3)) * 0.5,
             rng.standard_normal(2) * 0.1])
        assert err < 1e-4

    def test_softmax_gradients(self, rng):
        w = rng.standard_normal((4, 5))
        err = check_gradients(lambda a: (a.softmax(0) * w).sum(),
                              [rng.standard_normal((4, 5))])
        assert err < 1e-4

    def test_bilinear_sample_coord_gradients(self, rng):
        w = rng.standard_normal((2, 6))
        xs = rng.uniform(0.3, 4.5, 6)
        ys = rng.uniform(0.3, 3.5, 6)

        def f(grid, x, y):
            out, _ = T.bilinear_sample(grid, x, y)
            return (out * w).sum()

        err = check_gradients(f, [rng.standard_normal((2, 5, 6)), xs, ys])
        assert err < 1e-4


class TestOpGradcheckSweep:
    def test_every_core_op_passes_ten_instances(self):
        """The exhaustive finite-difference sweep over every core op."""
        reports = run_suite(instances=10, include_model_ops=False)
        assert reports
        failed = [(r.name, r.max_rel_err) for r in reports if not r.passed]
        assert not failed, failed


class TestFullLossGradcheck:
    """The whole training loss against central differences on its parameters."""

    def test_passes(self):
        assert check_full_loss() < 1e-3

    def test_catches_a_wrong_tanh_backward(self, monkeypatch):
        def tanh_missing_square(a):
            out = Tensor(np.tanh(a.data))
            return T._record(out, (a,), lambda g: T._accum(a, g * (1.0 - out.data)))

        monkeypatch.setattr(T, "tanh", tanh_missing_square)
        assert check_full_loss() > 1e-3
