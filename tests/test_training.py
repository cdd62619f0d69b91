"""Loss values/gradients, SNR mixing, Adam, schedule machine, SDR, manifest."""

import math

import numpy as np
import pytest

from fbse import dsp, model, training
from fbse.autodiff import Tensor
from fbse.errors import ShapeMismatchError
from fbse.gradcheck import fd_compare
from fbse.params import ParamStore


def rand_pairs(seed, frames=4):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((frames, 161)), rng.standard_normal((frames, 161)))
            for _ in range(3)]


def cmse(est, ref):
    """Loss value and per-plane gradients of ``cmse_loss_op`` on plain arrays."""
    est_t = [(Tensor(r, requires_grad=True), Tensor(i, requires_grad=True)) for r, i in est]
    loss = training.cmse_loss_op(est_t, ref)
    loss.backward()
    return float(loss.data), [(r.grad, i.grad) for r, i in est_t]


class TestLossConfig:
    def test_defaults(self):
        cfg = training.LossConfig()
        assert (cfg.ri_weight, cfg.mag_weight, cfg.compression) == (0.3, 0.7, 0.3)

    def test_non_convex_rejected(self):
        with pytest.raises(ValueError):
            training.LossConfig(ri_weight=0.5, mag_weight=0.7)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            training.LossConfig(compression=0.0)


class TestCmseLoss:
    def test_zero_when_equal(self):
        est = rand_pairs(0)
        ref = [(r.copy(), i.copy()) for r, i in est]
        loss, grads = cmse(est, ref)
        assert loss == 0.0
        for gr, gi in grads:
            assert not gr.any() and not gi.any()

    def test_single_bin_hand_value(self):
        frames = 2
        zeros = np.zeros((frames, 161))
        est_r = zeros.copy()
        est_r[0, 5] = 1.0
        est = [(est_r, zeros.copy()), (zeros.copy(), zeros.copy()), (zeros.copy(), zeros.copy())]
        ref = [(zeros.copy(), zeros.copy()) for _ in range(3)]
        loss, _ = cmse(est, ref)
        # |1|**0.3 == 1 so RI and magnitude terms are both 1, weighted 0.3/0.7,
        # normalized by channels * frames * bins
        expected = (0.3 * 1.0 + 0.7 * 1.0) / (3 * frames * 161)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_positive_and_zero_iff_equal(self):
        est = rand_pairs(1)
        ref = rand_pairs(2)
        loss, _ = cmse(est, ref)
        assert loss > 0.0

    def test_gradient_matches_fd_away_from_zero(self):
        rng = np.random.default_rng(3)
        shape = (3, 7)
        mk = lambda: rng.uniform(0.2, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
        est = [(Tensor(mk(), requires_grad=True), Tensor(mk(), requires_grad=True))
               for _ in range(3)]
        ref = [(mk(), mk()) for _ in range(3)]
        tensors = [t for pair in est for t in pair]
        err, ok = fd_compare(lambda: training.cmse_loss_op(est, ref), tensors)
        assert ok, err

    def test_shape_error(self):
        est = rand_pairs(4, frames=3)
        ref = rand_pairs(5, frames=4)
        with pytest.raises(ShapeMismatchError):
            cmse(est, ref)

    def test_pair_count_mismatch(self):
        est = rand_pairs(4)
        with pytest.raises(ShapeMismatchError):
            cmse(est, rand_pairs(5)[:2])
        with pytest.raises(ShapeMismatchError):
            cmse(est[:2], rand_pairs(5))

    def test_imag_shape_error(self):
        est = rand_pairs(4, frames=3)
        ref = rand_pairs(5, frames=3)
        ref[1] = (ref[1][0], ref[1][1][:2])
        with pytest.raises(ShapeMismatchError):
            cmse(est, ref)
        est[2] = (est[2][0], est[2][1][:, :160])
        with pytest.raises(ShapeMismatchError):
            cmse(est, rand_pairs(5, frames=3))

    def test_decompress_op_gradient(self):
        rng = np.random.default_rng(7)
        r = Tensor(rng.uniform(0.3, 1.0, (3, 4)), requires_grad=True)
        i = Tensor(rng.uniform(0.3, 1.0, (3, 4)), requires_grad=True)
        probe_r = rng.standard_normal((3, 4))
        probe_i = rng.standard_normal((3, 4))

        def forward():
            from fbse import autodiff as ad

            lr, li = training.decompress_op(r, i, 0.3)
            return ad.add(ad.sum_all(ad.mul(lr, Tensor(probe_r))),
                          ad.sum_all(ad.mul(li, Tensor(probe_i))))

        err, ok = fd_compare(forward, [r, i])
        assert ok, err


class TestSnrMix:
    def test_zero_db_equal_powers(self):
        speech = training.synth_speech(0.3, seed=0)
        noise = training.synth_noise(0.3, seed=1)
        noisy, scaled = training.mix_at_snr(speech, noise, 0.0)
        noise_part = noisy.samples - scaled.samples
        ps = np.mean(scaled.samples**2)
        pn = np.mean(noise_part**2)
        assert ps == pytest.approx(pn, rel=1e-6)

    def test_huge_snr_returns_speech(self):
        speech = training.synth_speech(0.2, seed=2)
        noise = training.synth_noise(0.2, seed=3)
        noisy = training.mix_at_snr(speech, noise, 1e9)[0]
        np.testing.assert_allclose(noisy.samples, speech.samples, atol=1e-6)

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 4.2, 10.0])
    def test_measured_snr_matches_request(self, snr_db):
        speech = training.synth_speech(0.4, seed=4)
        noise = training.synth_noise(0.4, seed=5)
        noisy, scaled = training.mix_at_snr(speech, noise, snr_db)
        noise_part = noisy.samples - scaled.samples
        measured = 10 * math.log10(np.mean(scaled.samples**2) / np.mean(noise_part**2))
        assert measured == pytest.approx(snr_db, abs=0.01)

    def test_peak_normalization_avoids_clipping(self):
        speech = training.synth_speech(0.2, seed=6)
        noise = training.synth_noise(0.2, seed=7)
        noisy = training.mix_at_snr(speech, noise, -10.0)[0]
        assert np.max(np.abs(noisy.samples)) <= 0.99 + 1e-12

    def test_silent_inputs_rejected(self):
        silent = dsp.AudioBuffer(np.zeros(4800), 48000)
        speech = training.synth_speech(0.1, seed=8)
        with pytest.raises(ValueError):
            training.mix_at_snr(silent, speech, 0.0)[0]
        with pytest.raises(ValueError):
            training.mix_at_snr(speech, silent, 0.0)[0]


class TestSdr:
    def test_equal_signals_hit_cap(self):
        x = training.synth_speech(0.1, seed=9)
        assert training.sdr(x, x) == training.SDR_CAP_DB

    def test_zero_estimate_is_zero_db(self):
        x = training.synth_speech(0.1, seed=10)
        zero = dsp.AudioBuffer(np.zeros(x.length), 48000)
        assert training.sdr(x, zero) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_noise_closed_form(self):
        rng = np.random.default_rng(11)
        ref = dsp.AudioBuffer(rng.standard_normal(48000), 48000)
        noise = rng.standard_normal(48000)
        for target_db in (6.0, 14.0):
            gain = math.sqrt(np.sum(ref.samples**2) /
                             (np.sum(noise**2) * 10 ** (target_db / 10)))
            est = dsp.AudioBuffer(ref.samples + gain * noise, 48000)
            assert training.sdr(ref, est) == pytest.approx(target_db, abs=0.01)

    def test_length_mismatch(self):
        a = dsp.AudioBuffer(np.ones(10), 48000)
        b = dsp.AudioBuffer(np.ones(11), 48000)
        with pytest.raises(ShapeMismatchError):
            training.sdr(a, b)


class TestAdam:
    def test_no_grads_no_update(self):
        store = ParamStore(0)
        p = store.add("p", (4,), uniform_bound=1.0)
        before = p.data.copy()
        training.adam_step(store.params, training.AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_scalar_quadratic_converges(self):
        store = ParamStore(1)
        p = store.add_full("x", (1,), 4.0)
        state = training.AdamState()
        for _ in range(500):
            p.grad = 2.0 * (p.data - 3.0)
            training.adam_step(store.params, state, lr=0.01)
        assert abs(p.data[0] - 3.0) < 1e-3

    def test_matches_reference_adam_trajectory(self):
        # torch's Adam on the same quadratic lands on the same iterates
        torch = pytest.importorskip("torch")
        x = torch.tensor([5.0], requires_grad=True)
        opt = torch.optim.Adam([x], lr=0.01)
        store = ParamStore(0)
        p = store.add_full("x", (1,), 5.0)
        state = training.AdamState()
        for _ in range(200):
            opt.zero_grad()
            ((x - 3.0) ** 2).backward()
            opt.step()
            p.grad = 2.0 * (p.data - 3.0)
            training.adam_step(store.params, state, lr=0.01)
        assert p.data[0] == pytest.approx(x.item(), abs=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            store = ParamStore(2)
            p = store.add("p", (3,), uniform_bound=0.5)
            state = training.AdamState()
            traj = []
            for k in range(20):
                p.grad = np.sin(p.data + k)
                training.adam_step(store.params, state, lr=0.05)
                traj.append(p.data.copy())
            return np.stack(traj)

        assert np.array_equal(run(), run())

    def test_select_freezes_subset(self):
        store = ParamStore(3)
        a = store.add("stage1.w", (2,), uniform_bound=1.0)
        b = store.add("stage2.w", (2,), uniform_bound=1.0)
        a.grad = np.ones(2)
        b.grad = np.ones(2)
        before = a.data.copy()
        training.adam_step(store.params, training.AdamState(), lr=0.1,
                           select=lambda name: name.startswith("stage2."))
        np.testing.assert_array_equal(a.data, before)
        assert not np.array_equal(b.data, before)


class TestSchedule:
    def run_trace(self, vals, state=None):
        state = state or training.ScheduleState()
        history = [state]
        for v in vals:
            state = training.schedule_tick(state, v)
            history.append(state)
        return state, history

    def test_scripted_two_stage_trace(self):
        # improving, then 3-epoch plateaus driving each phase transition
        state, hist = self.run_trace([1.0, 0.9, 0.95, 0.95, 0.95])
        assert state.phase == training.PHASE_STAGE2
        assert state.lr_stage1 == pytest.approx(5e-4)
        assert state.lr_stage2 == pytest.approx(1e-3)

        state, _ = self.run_trace([0.8, 0.85, 0.85, 0.85], state)
        assert state.phase == training.PHASE_JOINT
        assert state.lr_stage2 == pytest.approx(5e-4)

        state, _ = self.run_trace([0.7, 0.75, 0.75, 0.75], state)
        assert state.phase == training.PHASE_JOINT
        assert state.lr_stage1 == pytest.approx(2.5e-4)
        assert state.lr_stage2 == pytest.approx(2.5e-4)

    def test_improving_keeps_everything(self):
        state, _ = self.run_trace([1.0, 0.9, 0.8, 0.7, 0.6])
        assert state.phase == training.PHASE_STAGE1
        assert state.lr_stage1 == 1e-3
        assert state.plateau_counter == 0

    def test_counter_resets_after_halving(self):
        state, _ = self.run_trace([1.0, 1.1, 1.1, 1.1])
        assert state.plateau_counter == 0

    def test_phases_only_move_forward(self):
        state, hist = self.run_trace([1.0] + [2.0] * 12)
        order = {training.PHASE_STAGE1: 0, training.PHASE_STAGE2: 1, training.PHASE_JOINT: 2}
        ranks = [order[s.phase] for s in hist]
        assert ranks == sorted(ranks)

    def test_trainability_flags(self):
        s = training.ScheduleState()
        assert s.stage1_trainable() and not s.stage2_trainable()
        s2 = training.ScheduleState(phase=training.PHASE_STAGE2)
        assert not s2.stage1_trainable() and s2.stage2_trainable()
        s3 = training.ScheduleState(phase=training.PHASE_JOINT)
        assert s3.stage1_trainable() and s3.stage2_trainable()


class TestTrainingStep:
    def test_loss_decreases_quickly(self):
        m = model.Enhancer(model.ModelConfig.tiny(), seed=0)
        noisy, clean = training.synthetic_pair(seconds=0.5, seed=0)
        losses = training.overfit_single_pair(m, noisy, clean, steps=25, lr=3e-3)
        assert losses[-1] < 0.9 * losses[0]

    def test_frozen_stage1_receives_zero_updates(self):
        m = model.Enhancer(model.ModelConfig.tiny(), seed=1)
        noisy, clean = training.synthetic_pair(seconds=0.25, seed=1)
        noisy_pairs, ref_pairs = training.spectra_pair(m, noisy, clean)
        sched = training.ScheduleState(phase=training.PHASE_STAGE2)
        stage1_before = {k: v.data.copy() for k, v in m.stage_params("stage1").items()}
        adam = training.AdamState()
        select = lambda name: ((name.startswith("stage1.") and sched.stage1_trainable())
                               or (name.startswith("stage2.") and sched.stage2_trainable()))
        stage2_before = {k: v.data.copy() for k, v in m.stage_params("stage2").items()}
        for _ in range(3):
            training.training_step(m, noisy_pairs, ref_pairs, training.LossConfig(),
                                   adam, sched.lr_stage2, select=select)
        for name, before in stage1_before.items():
            np.testing.assert_array_equal(m.store.params[name].data, before)
        assert any(not np.array_equal(m.store.params[name].data, before)
                   for name, before in stage2_before.items())


class TestWholeModelGradient:
    def test_directional_derivative_matches_central_difference(self):
        # the loss of training_step before its Adam update, along one random
        # direction of every parameter, at gradcheck's tolerance. The step is
        # smaller than gradcheck's per-element FD_STEP: a step of 1e-5 along all
        # parameters at once moves some PReLU input across its kink (FD off by
        # 5e-4), while at 1e-7 the truncation and rounding errors stay near 1e-9.
        from fbse.gradcheck import ABS_ESCAPE, REL_TOL

        step = 1e-7

        m = model.Enhancer(model.ModelConfig.tiny(), seed=5)
        noisy, clean = training.synthetic_pair(seconds=0.25, seed=5)
        noisy_pairs, ref_pairs = training.spectra_pair(m, noisy, clean)
        params = list(m.store.params.values())
        loss_cfg = training.LossConfig()

        def loss():
            stage = m.enhance_spectra(noisy_pairs, training=True)
            est = [training.decompress_op(r, i, m.cfg.compression) for r, i in stage.enhanced]
            return training.cmse_loss_op(est, ref_pairs, loss_cfg)

        m.store.zero_grads()
        loss().backward()
        rng = np.random.default_rng(5)
        dirs = [rng.standard_normal(p.data.shape) for p in params]
        analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(params, dirs))
        values = []
        for sign in (1.0, -1.0):
            for p, d in zip(params, dirs):
                p.data += sign * step * d
            values.append(float(loss().data))
            for p, d in zip(params, dirs):
                p.data -= sign * step * d
        fd = (values[0] - values[1]) / (2 * step)
        assert abs(analytic - fd) <= max(REL_TOL * max(abs(analytic), abs(fd)), ABS_ESCAPE), \
            (analytic, fd)


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [training.MixtureSpec("clean/a.wav", "noise/b.wav", -5.0, 7),
                   training.MixtureSpec("clean/c.wav", "noise/d.wav", 10.0, 8)]
        path = tmp_path / "train.tsv"
        training.save_manifest(path, records)
        assert training.load_manifest(path) == records

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# header\n\nclean.wav\tnoise.wav\t0.0\t3\n")
        recs = training.load_manifest(path)
        assert len(recs) == 1 and recs[0].seed == 3

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n")
        with pytest.raises(ValueError):
            training.load_manifest(path)
