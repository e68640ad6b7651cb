"""Losses, ground-truth prep, config files, and the training loop."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from mvsgru import tensor as T
from mvsgru.errors import ConfigError, EmptySampleError
from mvsgru.estimator import DepthEstimator, RunResult
from mvsgru.geometry import denormalize_inv
from mvsgru.optim import Adam
from mvsgru.scenes import SynthSpec, synth_scene
from mvsgru.tensor import Tape, Tensor, backward
from mvsgru.training import (TrainConfig, load_train_config, loss_class,
                             loss_conf, loss_full, loss_regress, make_gt,
                             sample_loss, save_train_config, scale_views, train)


def depth_for_eta(eta, d_min, d_max):
    """Invert the normalized-inverse-depth map."""
    inv = 1.0 / d_max + eta * (1.0 / d_min - 1.0 / d_max)
    return 1.0 / inv


class TestMakeGt:
    def test_quarter_phase_picks_pixel_centers(self, rng):
        depth = rng.random((8, 8)) + 1.0
        gt = make_gt(depth, 1.0, 3.0, d2=16)
        assert gt.eta_q.shape == (2, 2)
        assert np.array_equal(gt.eta_q, gt.eta_full[1::4, 1::4])
        assert np.allclose(depth_for_eta(gt.eta_q, 1.0, 3.0), depth[1::4, 1::4])

    def test_invalid_pixels_are_masked(self):
        depth = np.full((4, 4), 2.0)
        depth[0, 0] = np.nan
        depth[1, 1] = -1.0
        depth[2, 2] = 0.0
        gt = make_gt(depth, 1.0, 4.0, d2=8)
        assert not gt.valid_full[0, 0]
        assert not gt.valid_full[1, 1]
        assert not gt.valid_full[2, 2]
        assert gt.valid_full.sum() == 13
        assert gt.eta_full[0, 0] == 0.0

    def test_all_invalid_raises(self):
        with pytest.raises(EmptySampleError):
            make_gt(np.full((4, 4), np.nan), 1.0, 4.0, d2=256)

    def test_nearest_sample_index_with_tie_to_lower(self):
        d_min, d_max = 1.0, 4.0
        # d2=5 puts samples at eta = 0, .25, .5, .75, 1
        etas = np.array([[0.375, 0.4], [0.0, 1.0]])
        depth = np.kron(depth_for_eta(etas, d_min, d_max), np.ones((4, 4)))
        gt = make_gt(depth, d_min, d_max, d2=5)
        # 0.375 sits exactly between samples 1 and 2: the tie goes low
        assert gt.x_gt[0, 0] == 1
        assert gt.x_gt[0, 1] == 2
        assert gt.x_gt[1, 0] == 0
        assert gt.x_gt[1, 1] == 4


class TestLossTerms:
    def test_uniform_probability_costs_log_d2(self):
        T.set_default_dtype(np.float64)
        logits = Tensor(np.zeros((256, 3, 3)))
        x_gt = np.zeros((3, 3), dtype=np.int64)
        valid = np.ones((3, 3), dtype=bool)
        got = loss_class(logits, x_gt, valid).data
        assert np.allclose(got, np.log(256.0), atol=1e-9)

    def test_perfect_prediction_costs_zero(self):
        # every other bin 1000 nats below: its exp underflows to 0
        logits = np.full((8, 2, 2), -1000.0)
        logits[3] = 0.0
        x_gt = np.full((2, 2), 3, dtype=np.int64)
        valid = np.ones((2, 2), dtype=bool)
        assert loss_class(Tensor(logits), x_gt, valid).data == 0.0

    def test_class_ignores_invalid_pixels(self, rng):
        T.set_default_dtype(np.float64)
        p = rng.random((8, 2, 2)) + 1e-3
        p /= p.sum(0)
        x_gt = np.zeros((2, 2), dtype=np.int64)
        valid = np.array([[True, False], [False, False]])
        got = loss_class(Tensor(np.log(p) + 3.0), x_gt, valid).data
        assert np.allclose(got, -np.log(p[0, 0, 0]), atol=1e-12)

    def test_regress_single_pixel_value(self):
        T.set_default_dtype(np.float64)
        eta_k = Tensor(np.array([[0.501]]))
        eta_gt = np.array([[0.5]])
        x = np.array([[10]])
        valid = np.ones((1, 1), dtype=bool)
        got = loss_regress(eta_k, x, eta_gt, x, valid, radius=4, beta=256.0)
        assert np.allclose(got.data, 256.0 * 0.001, atol=1e-9)

    def test_regress_gate_drops_strays(self):
        eta_k = Tensor(np.array([[0.9, 0.5]]))
        eta_gt = np.array([[0.1, 0.5]])
        x_gt = np.array([[0, 100]])
        x_k = np.array([[10, 101]])
        valid = np.ones((1, 2), dtype=bool)
        got = loss_regress(eta_k, x_k, eta_gt, x_gt, valid, radius=4, beta=256.0)
        # first pixel strayed 10 > 4 samples: only the second contributes
        assert np.allclose(got.data, 256.0 * 0.0, atol=1e-9)

    def test_regress_empty_gate_is_exactly_zero(self):
        eta_k = Tensor(np.array([[0.9]]))
        got = loss_regress(eta_k, np.array([[50]]), np.array([[0.1]]),
                           np.array([[0]]), np.ones((1, 1), dtype=bool),
                           radius=4, beta=256.0)
        assert got.data == 0.0

    def test_conf_half_costs_log_two(self):
        T.set_default_dtype(np.float64)
        z = Tensor(np.zeros((2, 2)))
        target = np.array([[1, 0], [0, 1]], dtype=bool)
        valid = np.ones((2, 2), dtype=bool)
        assert np.allclose(loss_conf(z, target, valid).data, np.log(2.0),
                           atol=1e-12)

    def test_conf_matches_bce_formula(self, rng):
        T.set_default_dtype(np.float64)
        c = rng.random((3, 3)) * 0.98 + 0.01
        t = (rng.random((3, 3)) > 0.5)
        valid = rng.random((3, 3)) > 0.3
        valid[0, 0] = True
        got = loss_conf(Tensor(np.log(c / (1 - c))), t, valid).data
        bce = -(t * np.log(c) + (1 - t) * np.log(1 - c))
        assert np.allclose(got, bce[valid].mean(), atol=1e-12)

    def test_far_from_the_target_both_losses_pass_a_gradient(self):
        # the ground-truth bin 40 nats below the argmax, and a confidence
        # logit of −40 against target 1: probabilities near e^-40 ≈ 4e-18,
        # below any clip of the probability before its log
        T.set_default_dtype(np.float64)
        one = np.ones((1, 1), dtype=bool)
        logits = Tensor(np.zeros((8, 1, 1)), requires_grad=True)
        logits.data[5] = 40.0
        z = Tensor(np.full((1, 1), -40.0), requires_grad=True)
        for loss, leaf in ((lambda: loss_class(logits, np.zeros((1, 1), np.int64), one), logits),
                           (lambda: loss_conf(z, one, one), z)):
            with Tape() as tape:
                value = loss()
            backward(tape, value)
            assert value.data == pytest.approx(40.0)
            assert leaf.grad.reshape(-1)[0] == pytest.approx(-1.0)

    def test_both_losses_equal_the_clipped_formulas_above_the_clip(self, rng):
        # the clipped cross entropies, −log max(p, 1e-12) of the softmax and
        # of the sigmoid, wherever p >= 1e-12
        T.set_default_dtype(np.float64)
        logits = rng.standard_normal((16, 5, 5)) * 4.0
        x_gt = rng.integers(0, 16, size=(5, 5))
        prob = np.exp(logits - logits.max(0))
        prob /= prob.sum(0)
        p_gt = np.take_along_axis(prob, x_gt[None], 0)[0]
        z = rng.standard_normal((5, 5)) * 4.0
        target = rng.random((5, 5)) > 0.5
        p_target = 1.0 / (1.0 + np.exp(np.where(target, -z, z)))
        for got, p in ((loss_class(Tensor(logits), x_gt, p_gt >= 1e-12), p_gt),
                       (loss_conf(Tensor(z), target, p_target >= 1e-12), p_target)):
            want = -np.log(np.maximum(p, 1e-12))[p >= 1e-12].mean()
            assert got.data == pytest.approx(want, rel=1e-12)

    def test_empty_masks_give_zero(self):
        none = np.zeros((2, 2), dtype=bool)
        assert loss_class(Tensor(np.zeros((4, 2, 2))),
                          np.zeros((2, 2), np.int64), none).data == 0.0
        assert loss_conf(Tensor(np.zeros((2, 2))),
                         np.zeros((2, 2), dtype=bool), none).data == 0.0


def one_pixel_run(eta_k, conf, d_min, d_max, d2):
    """RunResult with a single quarter-res pixel and hand-picked outputs;
    conf is the confidence, whose logit the run holds."""
    eta = Tensor(np.array([[eta_k]]))
    depth = denormalize_inv(eta, d_min, d_max)
    # equal logits: the uniform volume 1/d2
    return RunResult(d_init=Tensor(depth.data.copy()),
                     logits=[Tensor(np.zeros((d2, 1, 1)))],
                     depths=[depth],
                     etas=[eta],
                     indices=[np.zeros((1, 1), dtype=np.int64)],
                     conf_logits=[Tensor(np.array([[np.log(conf / (1 - conf))]]))],
                     d_up=None, d_min=d_min, d_max=d_max)


class TestLossFull:
    def test_a_run_without_a_tape_gives_the_same_loss(self):
        # its logits are rebuilt from the hidden states
        scene = synth_scene(SynthSpec(seed=4, views=3, size=32, quads=2))
        cfg = TrainConfig(iters=3)
        model = DepthEstimator(cfg, np.random.default_rng(2))
        ref = scene.views[0]
        gt = make_gt(ref.gt_depth, ref.d_min, ref.d_max, cfg.d2)
        with Tape():
            taped = model.run(scene.views)
        with T.no_grad():
            free = model.run(scene.views)
            got = loss_full(free, gt, cfg)
        want = loss_full(taped, gt, cfg)
        assert got.row() == want.row()
        for a, b in zip(got.clas, want.clas):
            assert a.data.tobytes() == b.data.tobytes()

    def test_confidence_target_boundary_is_inclusive(self):
        T.set_default_dtype(np.float64)
        d_min, d_max, d2 = 1.0, 4.0, 8
        cfg = TrainConfig(d2=d2, iters=0, gamma=0.002)
        eta_gt = 0.5
        gt = make_gt(np.kron(depth_for_eta(np.array([[eta_gt]]), d_min, d_max),
                             np.ones((4, 4))), d_min, d_max, d2=d2)
        just_inside = eta_gt + cfg.gamma * (1 - 1e-6)
        just_outside = eta_gt + cfg.gamma * (1 + 1e-6)
        bd_in = loss_full(one_pixel_run(just_inside, 0.9, d_min, d_max, d2),
                          gt, cfg)
        bd_out = loss_full(one_pixel_run(just_outside, 0.9, d_min, d_max, d2),
                           gt, cfg)
        assert np.allclose(bd_in.conf[0].data, -np.log(0.9), atol=1e-9)
        assert np.allclose(bd_out.conf[0].data, -np.log(0.1), atol=1e-9)

    @pytest.mark.parametrize("iters", [0, 1, 4])
    def test_total_is_the_documented_weighted_sum(self, iters):
        T.set_default_dtype(np.float64)
        scene = synth_scene(SynthSpec(seed=7, views=3, size=16, quads=1))
        cfg = TrainConfig(iters=iters, views=3)
        model = DepthEstimator(cfg, np.random.default_rng(2))
        bd = sample_loss(model, scene.views, 0, [1, 2], cfg, warmup=False)
        a = cfg.alpha
        want = bd.initial.data * a ** (iters + 1) + bd.upsample.data
        for k in range(iters + 1):
            want = want + a ** (iters - k) * (bd.clas[k].data
                                              + bd.regress[k].data
                                              + bd.conf[k].data)
        assert np.allclose(bd.total.data, want, rtol=1e-12)

    def test_warmup_total_drops_regress_and_conf(self):
        T.set_default_dtype(np.float64)
        scene = synth_scene(SynthSpec(seed=7, views=3, size=16, quads=1))
        cfg = TrainConfig(iters=1, views=3)
        model = DepthEstimator(cfg, np.random.default_rng(2))
        bd = sample_loss(model, scene.views, 0, [1, 2], cfg, warmup=True)
        a = cfg.alpha
        want = bd.initial.data * a ** 2 + bd.upsample.data
        for k in range(2):
            want = want + a ** (1 - k) * bd.clas[k].data
        assert np.allclose(bd.total.data, want, rtol=1e-12)
        # the components are still reported
        assert all(c.data >= 0 for c in bd.conf)

    def test_warmup_gradient_skips_confidence_head(self):
        scene = synth_scene(SynthSpec(seed=7, views=3, size=16, quads=1))
        cfg = TrainConfig(iters=1, views=3)
        model = DepthEstimator(cfg, np.random.default_rng(2))
        with Tape() as tape:
            bd = sample_loss(model, scene.views, 0, [1, 2], cfg, warmup=True)
        backward(tape, bd.total)
        for name in ("conf_head.weight", "conf_head.bias"):
            g = model.parameters()[name].grad
            assert g is None or not g.any(), name
        assert model.parameters()["prob_head.weight"].grad.any()

    @pytest.mark.parametrize("s", [0.8, 1.25])
    def test_scene_scale_invariance(self, s):
        T.set_default_dtype(np.float64)
        scene = synth_scene(SynthSpec(seed=11, views=3, size=16, quads=1))
        cfg = TrainConfig(iters=1, views=3)
        model = DepthEstimator(cfg, np.random.default_rng(4))
        base = sample_loss(model, scene.views, 0, [1, 2], cfg)
        scaled = sample_loss(model, scale_views(scene.views, s), 0, [1, 2], cfg)
        # rounding in d*s feeds the warp, so agreement is close but not exact
        assert np.allclose(base.total.data, scaled.total.data, rtol=1e-6)

    def test_missing_ground_truth_raises(self):
        scene = synth_scene(SynthSpec(seed=7, views=2, size=16, quads=1))
        views = scale_views(scene.views, 1.0)
        views[0].gt_depth = None
        cfg = TrainConfig(iters=0, views=2)
        model = DepthEstimator(cfg, np.random.default_rng(2))
        with pytest.raises(EmptySampleError):
            sample_loss(model, views, 0, [1], cfg)


def step_loss(scene, model_seed: int = 3):
    """The loss of one step of a fresh model on ``scene``, as a closure."""
    cfg = TrainConfig()
    model = DepthEstimator(cfg, np.random.default_rng(model_seed))
    return lambda: sample_loss(model, scene.views, 0, [1, 2], cfg).total


def train_step(scene, model_seed: int = 3) -> int:
    """Run one training step; return the entries its tape recorded.

    ``backward`` consumes the tape, so they are counted before it runs.
    """
    loss_fn = step_loss(scene, model_seed)
    with Tape() as tape:
        loss = loss_fn()
    entries = len(tape)
    backward(tape, loss)
    return entries


def non_float32_gradients(monkeypatch, run) -> list[str]:
    """Call ``run()``; name each backward closure that hands ``_accum`` a
    gradient that is not float32.  The closure ``_unary`` and ``_binary``
    share is named by the op's ``grad`` function it calls.  None, which a
    parent that needs no gradient may get, is no gradient."""
    accum, wrong = T._accum, []

    def checked(t, g):
        if g is not None and np.asarray(g).dtype != np.float32:
            frame = sys._getframe(1)
            shared = frame.f_code.co_qualname.startswith(("_unary.", "_binary."))
            wrong.append(frame.f_locals["grad"].__qualname__ if shared
                         else frame.f_code.co_qualname)
        accum(t, g)

    monkeypatch.setattr(T, "_accum", checked)
    run()
    return wrong


class TestTrainStep:
    def test_tape_entry_budget(self, fixed_sample):
        # exactly, so that splitting a fused op back up shows: 939 entries
        # before the leaky ReLU became conv2d's epilogue (87 fewer) and
        # group normalization one op (72 fewer); 988 before the hypotheses
        # took one chain for all levels and the view shares and η one shape;
        # 780 before the readout took logits (one fewer per readout: a −inf
        # mask and a window softmax in place of the 0/1 mask, the mass and
        # the division by it) and the sources were stacked texel-major (a
        # reshape and a transpose more per level)
        # 781 before the loop carried η end to end (three fewer per
        # iteration in generate_hypotheses, one fewer per readout)
        # 764 before only the last readout's depth was converted on the tape
        # 752 before the lookups took η as a constant (no taped projection,
        # hypotheses or coordinate gradient: 140 fewer)
        # 612 before the losses read logits (per readout, one fewer in the
        # cross entropy and three in the BCE; one sigmoid more for conf_up)
        # 593 before each lookup sampled and correlated in one op and
        # integrate became one op (one fewer each: 14 lookups, 13 integrates)
        # 566 before the init sweep looked up all sources in one op (2 fewer)
        # and every weighted reduction became weighted_sum (one fewer each:
        # 5 readouts, d_coarse, the upsampler and 17 masked loss means)
        assert train_step(fixed_sample, model_seed=0) == 540

    def test_backward_frees_gradients_as_it_goes(self, fixed_sample, step_peaks):
        # backward would hold ~21 MB of intermediate gradients on top of the
        # ~22 MB forward state if it kept every entry's grad to the end
        forward_peak, step_peak = step_peaks(step_loss(fixed_sample))
        assert step_peak - forward_peak < 5e6

    def test_forward_keeps_no_im2col_buffers(self, fixed_sample, step_peaks):
        # about 22 MB; the im2col matrices, had the tape kept them for the
        # weight gradients, would add about 17 MB
        forward_peak, _ = step_peaks(step_loss(fixed_sample))
        assert forward_peak < 30e6

    def test_float32_step_passes_float32_gradients(self, fixed_sample, monkeypatch):
        assert non_float32_gradients(monkeypatch, lambda: train_step(fixed_sample)) == []

    def test_parameter_gradients_are_writeable_and_disjoint(self, fixed_sample):
        # _accum keeps each first gradient as handed over, so a closure that
        # handed one array to two parents, or a read-only view, shows here
        cfg = TrainConfig()
        model = DepthEstimator(cfg, np.random.default_rng(3))
        with Tape() as tape:
            loss = sample_loss(model, fixed_sample.views, 0, [1, 2], cfg).total
        backward(tape, loss)
        grads = [p.grad for p in model.parameters().values()]
        assert len(grads) == 99
        assert all(isinstance(g, np.ndarray) and g.flags.writeable for g in grads)
        assert not any(np.shares_memory(g, h) for i, g in enumerate(grads)
                       for h in grads[i + 1:])

    def test_a_float64_gradient_is_reported_by_its_op(self, monkeypatch):
        def widened(a):
            return T._unary(a, a.data * 2.0, lambda g, y: (g * 2.0).astype(np.float64))

        def step():
            x = Tensor(np.ones(3), requires_grad=True)
            with Tape() as tape:
                loss = widened(x).sum()
            backward(tape, loss)

        assert non_float32_gradients(monkeypatch, step) == [
            "TestTrainStep.test_a_float64_gradient_is_reported_by_its_op"
            ".<locals>.widened.<locals>.<lambda>"]


class TestSchedule:
    def test_halving_epochs(self):
        cfg = TrainConfig(lr=1e-3, lr_halve_epochs=(4, 8, 12))
        want = {1: 1e-3, 4: 1e-3, 5: 5e-4, 8: 5e-4, 9: 2.5e-4,
                12: 2.5e-4, 13: 1.25e-4, 16: 1.25e-4}
        for epoch, lr in want.items():
            assert cfg.lr_at(epoch) == pytest.approx(lr, rel=1e-12)


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = TrainConfig(iters=2, views=4, lr=5e-4, radii=(0.25, 0.5, 0.75),
                          counts=(2, 3, 4), epochs=3, scale_lo=0.9)
        path = tmp_path / "train.cfg"
        save_train_config(cfg, path)
        assert load_train_config(path) == cfg

    def test_comments_and_blanks_are_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\niters=2   # trailing\n")
        assert load_train_config(path).iters == 2

    def test_config_written_before_tau_was_dropped_still_loads(self):
        # artifacts/model.cfg carries tau=0.3, a key TrainConfig no longer has
        path = Path(__file__).resolve().parents[1] / "artifacts" / "model.cfg"
        assert "tau=0.3" in path.read_text().split()
        assert load_train_config(path) == TrainConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("itres=2\n")
        with pytest.raises(ConfigError):
            load_train_config(path)

    def test_garbled_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_train_config(path)

    @pytest.mark.parametrize("content, line", [
        (b"epochs=abc\n", 1), (b"iters=2\nlr=fast\n", 2), (b"radii=0.1,x\n", 1),
        (b"counts=4,4.5,2\n", 1), (b"iters=2\n# caf\xe9\n", 2), (b"\xff\xfe=1\n", 1)],
        ids=["int-word", "float-word", "tuple-word", "tuple-float-for-int",
             "latin1-comment", "binary-key"])
    def test_bad_value_or_encoding_names_the_line(self, tmp_path, content, line):
        path = tmp_path / "c.cfg"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"c.cfg:{line}: "):
            load_train_config(path)


class TestConfigValidation:
    @pytest.mark.parametrize("key, value", [
        ("iters", -1), ("views", 1), ("epochs", 0), ("batch", 0), ("lr", 0.0),
        ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
        ("radii", (0.1, 0.2)), ("counts", (4, 4)), ("radii", (0.2, 0.1, 0.3)),
        ("radii", (0.1, 0.1, 0.3)), ("d1", 1), ("d2", 1), ("readout_radius", -1),
        ("source_pool", 0), ("counts", (0, 4, 2)), ("counts", (1, 4, 2)), ("scale_lo", 2.0),
        ("scale_lo", 0.0),
        ("scale_lo", float("nan")), ("scale_hi", 0.5)])
    def test_every_route_to_a_config_checks_it(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(TrainConfig(), **{key: value})
        path = tmp_path / "c.cfg"
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        path.write_text(f"{key}={text}\n")
        with pytest.raises(ConfigError, match=key):
            load_train_config(path)


class TestScaleViews:
    def test_scales_geometry_not_images(self):
        scene = synth_scene(SynthSpec(seed=3, views=2, size=16, quads=1))
        scaled = scale_views(scene.views, 2.0)
        for v, w in zip(scene.views, scaled):
            assert np.allclose(w.t, v.t * 2.0)
            assert w.d_min == pytest.approx(v.d_min * 2.0)
            assert w.d_max == pytest.approx(v.d_max * 2.0)
            assert np.allclose(w.gt_depth, v.gt_depth * 2.0, equal_nan=True)
            assert w.image is v.image
            assert np.array_equal(w.k, v.k)
            assert np.array_equal(w.r, v.r)


class TestTrainLoop:
    def make_cfg(self):
        return TrainConfig(iters=1, views=2, epochs=2, batch=2, seed=5,
                           warmup_epochs=1)

    def test_writes_artifacts_and_metrics(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=21, views=3, size=16, quads=1))
        train([scene], self.make_cfg(), tmp_path)
        assert (tmp_path / "model.ckpt").exists()
        assert (tmp_path / "model.cfg").exists()
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("step,epoch,lr,loss_full")
        assert len(lines) == 1 + 2 * 3  # header + epochs * samples

    def test_training_is_deterministic(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=21, views=3, size=16, quads=1))
        train([scene], self.make_cfg(), tmp_path / "a")
        train([scene], self.make_cfg(), tmp_path / "b")
        a = (tmp_path / "a" / "model.ckpt").read_bytes()
        b = (tmp_path / "b" / "model.ckpt").read_bytes()
        assert a == b

    def test_trailing_partial_batch_is_applied(self, tmp_path, monkeypatch):
        # 3 samples at batch 2: one full batch plus one partial batch per epoch
        steps = []
        real_step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda opt: steps.append(1) or real_step(opt))
        scene = synth_scene(SynthSpec(seed=21, views=3, size=16, quads=1))
        cfg = self.make_cfg()
        train([scene], cfg, tmp_path)
        assert len(steps) == 2 * cfg.epochs

    def test_view_without_ground_truth_is_skipped(self, tmp_path):
        scene = synth_scene(SynthSpec(seed=21, views=3, size=16, quads=1))
        scene.views[1].gt_depth = np.full_like(scene.views[1].gt_depth, np.nan)
        logged = []
        train([scene], self.make_cfg(), tmp_path, log=logged.append)
        assert (tmp_path / "model.ckpt").exists()
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + epochs * usable samples
        assert sum("skipped 1 samples" in m for m in logged) == 2

    def test_rejects_empty_scene_list(self, tmp_path):
        with pytest.raises(ConfigError):
            train([], self.make_cfg(), tmp_path)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_rejects_batch_below_one_before_writing(self, tmp_path, batch):
        scene = synth_scene(SynthSpec(seed=21, views=3, size=16, quads=1))
        with pytest.raises(ConfigError, match="batch"):
            train([scene], TrainConfig(iters=1, views=2, epochs=1, batch=batch),
                  tmp_path / "out")
        assert not (tmp_path / "out").exists()
