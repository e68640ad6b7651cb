"""Depth estimator: GRU oracle, readout algebra, hypothesis generation."""

import dataclasses

import numpy as np
import pytest

from mvsgru import matching
from mvsgru import tensor as T
from mvsgru.errors import ConfigError, ShapeError
from mvsgru.estimator import (DepthEstimator, GruCell, _lowest_argmax, gru_update,
                              predict_depth)
from mvsgru.features import stack_pyramids
from mvsgru.geometry import denormalize_inv, inverse_grid
from mvsgru.scenes import SynthSpec, synth_scene
from mvsgru.tensor import Tensor
from mvsgru.training import TrainConfig


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_oracle(cell, h, x):
    """GRU equations on a 1x1 spatial grid.

    With same-padding 3x3 convs and a single pixel, only the center tap of
    each kernel touches real data, so the update collapses to plain matrix
    algebra.
    """
    wz = cell.wz.weight.data[:, :, 1, 1]
    wr = cell.wr.weight.data[:, :, 1, 1]
    wh = cell.wh.weight.data[:, :, 1, 1]
    hx = np.concatenate([h, x])
    z = sigmoid(wz @ hx + cell.wz.bias.data)
    r = sigmoid(wr @ hx + cell.wr.bias.data)
    cand = np.tanh(wh @ np.concatenate([r * h, x]) + cell.wh.bias.data)
    return (1.0 - z) * h + z * cand


def windowed_expectation(p, x, radius):
    """Renormalized expectation of the bins' η values j/(D-1) around the
    argmax, by loops."""
    d = len(p)
    num = den = 0.0
    for j in range(max(0, x - radius), min(d - 1, x + radius) + 1):
        num += p[j] * j / (d - 1)
        den += p[j]
    return num / den


class TestGruUpdate:
    def test_matches_single_pixel_oracle(self, rng):
        T.set_default_dtype(np.float64)
        cell = GruCell(4, 3, rng)
        h = rng.standard_normal((4, 1, 1))
        x = rng.standard_normal((3, 1, 1))
        got = gru_update(cell, Tensor(h), Tensor(x)).data[:, 0, 0]
        want = gru_oracle(cell, h[:, 0, 0], x[:, 0, 0])
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_parameters_halve_the_state(self, rng):
        cell = GruCell(4, 2, rng)
        for p in cell.parameters().values():
            p.data[...] = 0.0
        h = rng.standard_normal((4, 3, 3))
        out = gru_update(cell, Tensor(h), Tensor(rng.standard_normal((2, 3, 3))))
        # z = r = 1/2 and the candidate is tanh(0) = 0
        assert np.allclose(out.data, 0.5 * h, atol=1e-6)

    def test_closed_update_gate_keeps_state(self, rng):
        cell = GruCell(4, 2, rng)
        for p in cell.parameters().values():
            p.data[...] = 0.0
        cell.wz.bias.data[...] = -50.0
        h = rng.standard_normal((4, 3, 3))
        out = gru_update(cell, Tensor(h), Tensor(rng.standard_normal((2, 3, 3))))
        assert np.allclose(out.data, h, atol=1e-8)

    def test_rejects_channel_mismatch(self, rng):
        cell = GruCell(4, 3, rng)
        with pytest.raises(ShapeError):
            gru_update(cell, Tensor(rng.random((5, 2, 2))),
                       Tensor(rng.random((3, 2, 2))))
        with pytest.raises(ShapeError):
            gru_update(cell, Tensor(rng.random((4, 2, 2))),
                       Tensor(rng.random((2, 2, 2))))


class TestPredictDepth:
    """The readout takes the probability head's logits; log p stands for a
    normalized volume p, whose softmax it is."""

    def test_one_hot_recovers_the_hypothesis(self):
        T.set_default_dtype(np.float64)
        logits = np.zeros((16, 2, 2))
        logits[7] = 60.0
        eta, x = predict_depth(Tensor(logits), radius=3)
        assert (x == 7).all()
        assert np.allclose(eta.data, 7 / 15, atol=1e-12)

    def test_bins_are_the_inverse_grid_normalized(self):
        # bin j's η maps to inverse_grid's j-th depth
        T.set_default_dtype(np.float64)
        inv = inverse_grid(2.0, 8.0, 16)
        for j in (0, 5, 15):
            logits = np.zeros((16, 1, 1))
            logits[j] = 60.0
            eta, _ = predict_depth(Tensor(logits), radius=2)
            assert np.isclose(denormalize_inv(eta.data[0, 0], 2.0, 8.0), 1.0 / inv[j],
                              rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform_probability_over_three_samples(self, dtype):
        T.set_default_dtype(dtype)
        # η over 3 bins: 0, 1/2, 1; the window reaches past both ends
        eta, x = predict_depth(Tensor(np.full((3, 1, 1), -1.5)), radius=4)
        assert x[0, 0] == 0  # all tied, lowest index wins
        assert np.isclose(eta.data[0, 0], 0.5, rtol=1e-6 if dtype == np.float32 else 1e-12)

    def test_argmax_tie_takes_lowest_index(self):
        logits = np.full((12, 1, 1), -2.0)
        logits[3] = logits[5] = 1.25
        _, x = predict_depth(Tensor(logits), radius=1)
        assert x[0, 0] == 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_argmax_matches_numpy_with_planted_ties(self, rng, dtype):
        T.set_default_dtype(dtype)
        logits = rng.standard_normal((32, 6, 7)).astype(dtype)
        # copy each pixel's maximum to two random depths: exact ties
        top = logits.max(0)
        for _ in range(2):
            np.put_along_axis(logits, rng.integers(0, 32, (1, 6, 7)), top[None], axis=0)
        logits[:, 0, 0] = 0.5  # every depth tied
        logits[[0, 31], 1, 0] = 3.0  # tied at both ends
        logits[[30, 31], 1, 1] = 3.0  # tied at the top end
        _, x = predict_depth(Tensor(logits), radius=2)
        assert np.array_equal(x, np.argmax(logits, axis=0))
        assert x[0, 0] == 0 and x[1, 0] == 0 and x[1, 1] == 30

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("best", [0, 1, 14, 15])
    def test_window_at_the_range_edges(self, rng, dtype, best):
        # window entries outside [0, D-1] weigh nothing: η is the loop over
        # the truncated window, and the bins outside the window do not
        # change a bit of it
        T.set_default_dtype(dtype)
        logits = rng.standard_normal((16, 1, 1)).astype(dtype)
        logits[best] += 6.0
        eta, x = predict_depth(Tensor(logits), radius=2)
        assert x[0, 0] == best
        p = np.exp(logits[:, 0, 0].astype(np.float64) - logits.max())
        want = windowed_expectation(p, best, 2)
        assert np.isclose(eta.data[0, 0], want, rtol=1e-6 if dtype == np.float32 else 1e-12)
        far = np.abs(np.arange(16) - best) > 2
        moved = logits.copy()
        moved[far] = logits[best] - 1.0 - rng.random((far.sum(), 1, 1))
        again, _ = predict_depth(Tensor(moved), radius=2)
        assert again.data.tobytes() == eta.data.tobytes()

    def test_matches_loop_oracle_at_random_pixels(self, rng):
        T.set_default_dtype(np.float64)
        p = rng.random((32, 3, 4)) + 1e-3
        p /= p.sum(0)
        eta, x = predict_depth(Tensor(np.log(p)), radius=4)
        assert np.array_equal(x, np.argmax(p, axis=0))
        for (i, j) in [(0, 0), (1, 2), (2, 3)]:
            want = windowed_expectation(p[:, i, j], int(x[i, j]), 4)
            assert np.allclose(eta.data[i, j], want, atol=1e-12)

    def test_probability_outside_window_is_ignored(self, rng):
        T.set_default_dtype(np.float64)
        logits = rng.standard_normal((16, 1, 1))
        logits[8] = 9.0
        base, _ = predict_depth(Tensor(logits.copy()), radius=2)
        # shuffle everything outside [6, 10]; the readout must not move
        outside = np.concatenate([logits[:6, 0, 0], logits[11:, 0, 0]])
        shuffled = np.random.default_rng(3).permutation(outside)
        q = logits.copy()
        q[:6, 0, 0] = shuffled[:6]
        q[11:, 0, 0] = shuffled[6:]
        moved, _ = predict_depth(Tensor(q), radius=2)
        assert base.data.tobytes() == moved.data.tobytes()


def whole_volume_argmax(v: np.ndarray) -> np.ndarray:
    """``_lowest_argmax`` as one expression over the whole volume."""
    d = v.shape[0]
    rank = np.arange(d, 0, -1, dtype=np.int16 if d < 2**15 else np.int32)
    top = ((v == v.max(0)) * rank.reshape((d,) + (1,) * (v.ndim - 1))).max(0)
    return (d - top.astype(np.intp)) % d


class TestLowestArgmaxBands:
    """The readout's argmax runs in row bands split by ``work_slices``."""

    def test_a_64_px_readout_is_one_band(self):
        # D2 = 256 bins over a 16 x 16 readout; at 256 px, 64 x 64 is two
        assert len(T.work_slices(16, 256 * 16)) == 1
        assert len(T.work_slices(64, 256 * 64)) == 2

    @pytest.mark.parametrize("d,h,w,rows", [(32, 7, 5, 3), (2**15 + 3, 3, 2, 2)],
                             ids=["int16-ranks", "int32-ranks"])
    def test_bands_match_the_whole_volume(self, rng, monkeypatch, d, h, w, rows):
        v = rng.standard_normal((d, h, w)).astype(np.float32)
        # copy each pixel's maximum to a random bin: exact ties
        np.put_along_axis(v, rng.integers(0, d, (1, h, w)), v.max(0)[None], axis=0)
        v[:, 0, 0] = 0.5  # every bin tied
        v[[1, d - 1], 1, 0] = 9.0  # tied at the second and the last bin
        v[d - 1, 2, 0] = 9.0  # the last bin alone: rank 1
        v[:, -1, -1] = np.nan  # an all-NaN column reads 0
        monkeypatch.setattr(T, "MAX_WORK_ELEMENTS", rows * d * w)
        bands = T.work_slices(h, d * w)
        assert len(bands) > 1 and h % (bands[0].stop - bands[0].start)
        got = _lowest_argmax(v)
        assert np.array_equal(got, whole_volume_argmax(v))
        # numpy's argmax takes the lowest index too, and the first NaN
        assert np.array_equal(got, np.argmax(v, axis=0))
        assert (got[0, 0], got[1, 0], got[2, 0], got[-1, -1]) == (0, 1, d - 1, 0)


class TestHypothesisGeneration:
    def setup_method(self):
        self.model = DepthEstimator(TrainConfig(), np.random.default_rng(0))

    def test_offsets_in_normalized_inverse_depth(self):
        T.set_default_dtype(np.float64)
        hyps = self.model.generate_hypotheses(np.full((1, 2, 2), 0.5))
        for hyp, radius, count in zip(hyps, (2.0 ** -7, 2.0 ** -5, 2.0 ** -3),
                                      (4, 4, 2)):
            assert hyp.shape == (count, 2, 2)
            want = 0.5 + np.linspace(-radius, radius, count)
            assert np.allclose(hyp[:, 0, 0], want, atol=1e-12)

    def test_clipped_at_the_range_edge(self):
        hyps = self.model.generate_hypotheses(np.zeros((1, 2, 2), np.float32))  # η = 0, d_max
        for hyp in hyps:
            assert hyp.dtype == np.float32
            assert (hyp >= 0.0).all() and (hyp <= 1.0).all()
        # the low half of each window collapses onto η = 0
        assert (hyps[0][:2] == 0.0).all()
        assert (hyps[0][2:] > 0.0).all()


class TestEstimatorRuns:
    def setup_method(self):
        self.scene = synth_scene(SynthSpec(seed=5, views=3, size=16, quads=1))
        self.model = DepthEstimator(TrainConfig(iters=2),
                                    np.random.default_rng(1))

    def test_run_shapes_and_invariants(self):
        res = self.model.run(self.scene.views, iters=2)
        assert len(res.hiddens) == len(res.depths) == len(res.conf_logits) == len(res.indices) == 3
        for h in res.hiddens:
            prob = self.model.predict_probability(h)
            assert prob.shape == (256, 4, 4)
            assert np.allclose(prob.data.sum(axis=0), 1.0, atol=1e-5)
            assert (prob.data >= 0).all()
        for depth in res.depths:
            v = self.scene.views[0]
            assert (depth.data >= v.d_min - 1e-4).all()
            assert (depth.data <= v.d_max + 1e-4).all()
        for z in res.conf_logits:
            assert z.shape == (4, 4)
            conf = z.sigmoid().data
            assert (conf > 0).all() and (conf < 1).all()
        assert res.d_up.shape == (16, 16)
        assert res.conf_up.shape == (16, 16)

    def test_zero_iterations_still_reads_out(self):
        res = self.model.run(self.scene.views, iters=0)
        assert len(res.depths) == 1
        assert res.logit(0).data.tobytes() == res.logit(-1).data.tobytes()
        assert res.d_up is not None

    def test_upsample_can_be_skipped(self):
        res = self.model.run(self.scene.views, iters=0, upsample=False)
        assert res.d_up is None and res.conf_up is None

    def test_initial_hidden_state_is_bounded(self):
        pyramids = [self.model.fpn.extract(v.image) for v in self.scene.views]
        init = self.model.initialize(pyramids[0], stack_pyramids(pyramids[1:]),
                                     self.scene.views)
        assert init.h0.shape == (32, 4, 4)
        assert (np.abs(init.h0.data) < 1.0).all()
        assert init.s_init.shape == (32, 2, 2)
        assert init.shares_up.shape == (len(self.scene.views) - 1, 1, 16)
        assert (init.shares_up.data > 0).all()
        assert np.allclose(init.shares_up.data.sum(0), 1.0, atol=1e-6)

    @pytest.mark.parametrize("n_views", [3, 4])
    def test_init_sweep_looks_up_every_source_in_one_call(self, monkeypatch, n_views):
        scene = synth_scene(SynthSpec(seed=5, views=n_views, size=16, quads=1))
        pyramids = [self.model.fpn.extract(v.image) for v in scene.views]
        calls = []

        def counted(f_ref, f_src, *args):
            calls.append(f_src.shape[0])
            return correlate(f_ref, f_src, *args)

        correlate = matching.group_correlation
        monkeypatch.setattr(matching, "group_correlation", counted)
        init = self.model.initialize(pyramids[0], stack_pyramids(pyramids[1:]), scene.views)
        assert calls == [n_views - 1]
        assert init.shares_up.shape[0] == n_views - 1

    def test_each_depth_is_its_eta_denormalized(self):
        T.set_default_dtype(np.float64)
        model = DepthEstimator(TrainConfig(iters=2), np.random.default_rng(1))
        res = model.run(self.scene.views, iters=2)
        assert len(res.etas) == len(res.depths) == 3
        for eta, depth in zip(res.etas, res.depths):
            want = denormalize_inv(eta, res.d_min, res.d_max)
            assert depth.data.tobytes() == want.data.tobytes()

    def test_rejects_single_view(self):
        with pytest.raises(ConfigError):
            self.model.run(self.scene.views[:1])

    def test_given_pyramids_match_its_own_extraction(self):
        with T.no_grad():
            want = self.model.run(self.scene.views, iters=1)
            pyramids = [self.model.fpn.extract(v.image) for v in self.scene.views]
            got = self.model.run(self.scene.views, iters=1, pyramids=pyramids)
        assert got.d_up.data.tobytes() == want.d_up.data.tobytes()
        assert got.conf_up.data.tobytes() == want.conf_up.data.tobytes()

    @pytest.mark.parametrize("count", [2, 4])
    def test_rejects_a_pyramid_count_other_than_the_views(self, count):
        pyramid = self.model.fpn.extract(self.scene.views[0].image)
        with pytest.raises(ShapeError, match=f"{count} feature pyramids for 3 views"):
            self.model.run(self.scene.views, iters=0, pyramids=[pyramid] * count)

    def test_same_seed_same_run(self):
        a = DepthEstimator(TrainConfig(iters=1), np.random.default_rng(9))
        b = DepthEstimator(TrainConfig(iters=1), np.random.default_rng(9))
        ra = a.run(self.scene.views, iters=1)
        rb = b.run(self.scene.views, iters=1)
        assert ra.d_up.data.tobytes() == rb.d_up.data.tobytes()


def kept_arrays(res):
    """Every array a RunResult holds, the estimator's weights aside."""
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        if f.name == "estimator":
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, Tensor):
                yield item.data
            elif isinstance(item, np.ndarray):
                yield item


class TestProbabilityVolumes:
    """A run with no tape keeps no volume and rebuilds each on request."""

    def test_rebuilt_volumes_are_the_taped_runs_bit_for_bit(self):
        scene = synth_scene(SynthSpec(seed=5, views=3, size=32, quads=1))
        model = DepthEstimator(TrainConfig(iters=3), np.random.default_rng(1))
        with T.Tape():
            taped = model.run(scene.views)
        with T.no_grad():
            free = model.run(scene.views)
        assert len(taped.logits) == 4 and free.logits == []
        assert len(free.hiddens) == 4
        for k in range(-4, 4):
            want, got = taped.logit(k), free.logit(k)
            assert not got.requires_grad
            assert got.data.tobytes() == want.data.tobytes()

    def test_a_run_without_a_tape_keeps_no_volume(self):
        scene = synth_scene(SynthSpec(seed=5, views=3, size=32, quads=1))
        model = DepthEstimator(TrainConfig(iters=2), np.random.default_rng(1))
        with T.no_grad():
            res = model.run(scene.views)
        volume = model.cfg.d2 * 8 * 8
        sizes = [a.size for a in kept_arrays(res)]
        assert sizes and max(sizes) < volume
        assert res.logit(-1).shape == (model.cfg.d2, 8, 8)

    def test_memory_does_not_grow_by_a_volume_per_iteration(self, traced):
        # each iteration keeps a [32, 32, 32] hidden state (128 kB) and its
        # readout's maps, about 151 kB; its [256, 32, 32] volume (1 MB)
        # would also stay if the run kept every volume.  Four iterations
        # keep 0.6 MB: seven, from 1 to 8, keep 1.06 MB, which the init
        # sweep's transient peak hid while it held a warped volume
        scene = synth_scene(SynthSpec(seed=5, views=3, size=128))
        model = DepthEstimator(TrainConfig(), np.random.default_rng(0))

        def run(iters):
            with T.no_grad():
                model.run(scene.views, iters=iters)

        def peak(iters):
            return traced(lambda: run(iters))[2]

        peak(0)  # the cached tap slices and resize matrices
        volume = 256 * 32 * 32 * 4
        assert peak(8) - peak(4) < volume

    def test_peak_per_pixel_is_bounded_at_256_px(self, traced):
        # one warm run of 3 views, 4 iterations, upsampled, peaks at 239
        # bytes per input pixel, during the last lookup.  It peaked at 262
        # in the last readout while the run still held the lookup levels
        # and the argmax formed its bool and int16 volumes whole
        size = 256
        scene = synth_scene(SynthSpec(seed=5, views=3, size=size))
        model = DepthEstimator(TrainConfig(), np.random.default_rng(0))

        def run():
            with T.no_grad():
                model.run(scene.views)

        run()  # the cached tap slices and resize matrices
        per_px = traced(run)[2] / size ** 2
        assert per_px <= 250, f"{per_px:.1f} B/px"


class TestConfigValidation:
    def test_negative_iterations(self):
        with pytest.raises(ConfigError):
            DepthEstimator(TrainConfig(iters=-1), np.random.default_rng(0))

    def test_wrong_level_count(self):
        with pytest.raises(ConfigError):
            DepthEstimator(TrainConfig(radii=(0.1, 0.2)),
                           np.random.default_rng(0))

    def test_non_increasing_radii(self):
        with pytest.raises(ConfigError):
            DepthEstimator(TrainConfig(radii=(0.2, 0.1, 0.3)),
                           np.random.default_rng(0))
