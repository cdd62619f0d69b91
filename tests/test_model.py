"""Model graph: block wiring, band directionality, mask algebra, complexity
accounting, end-to-end contracts."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbse import autodiff as ad
from fbse import dsp, layers, model
from fbse.autodiff import Tensor
from fbse.errors import ConfigError, NonFiniteInputError, ShapeMismatchError
from fbse.layers import Conv1d
from fbse.params import ParamStore

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.fixture(scope="module")
def tiny():
    return model.Enhancer(model.ModelConfig.tiny(), seed=0)


def rand_audio(n, seed=0, rate=48000):
    rng = np.random.default_rng(seed)
    return dsp.AudioBuffer(rng.uniform(-0.5, 0.5, n), rate)


class TestGatedTcnStack:
    def test_receptive_field_default(self):
        store = ParamStore(0)
        stack = model.GatedTcnStack(store, "g", model.MagTcnConfig(feature_dim=4, hidden_dim=4), in_dim=6)
        # 3 groups x 6 blocks, k=3, dilations 1,2,4,8,16,32 -> 1 + 2*63*3
        assert stack.receptive_field == 379

    def test_residual_identity_with_zero_out_convs(self):
        store = ParamStore(1)
        cfg = model.MagTcnConfig(groups=1, per_group=2, dilations=(1, 2),
                               feature_dim=4, hidden_dim=4)
        stack = model.GatedTcnStack(store, "g", cfg, in_dim=4)
        stack.in_proj.w.data[...] = np.eye(4)[:, :, None]
        for blk in stack.blocks:
            blk.pw_out.w.data[...] = 0.0
        x = np.random.default_rng(0).standard_normal((4, 12))
        np.testing.assert_array_equal(stack(Tensor(x)).data, x)

    def test_causality(self):
        store = ParamStore(2)
        cfg = model.MagTcnConfig(groups=1, per_group=3, dilations=(1, 2, 4),
                               feature_dim=3, hidden_dim=5)
        stack = model.GatedTcnStack(store, "g", cfg, in_dim=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 40))
        y0 = stack(Tensor(x)).data
        x2 = x.copy()
        x2[:, 25] += 1.0
        y1 = stack(Tensor(x2)).data
        assert np.array_equal(y0[:, :25], y1[:, :25])
        assert not np.array_equal(y0[:, 25:], y1[:, 25:])


class TestResidualStackInit:
    def test_default_stack_outputs_stay_order_one(self, monkeypatch):
        # each residual branch's pw_out starts at 1/sqrt(stack depth) of the
        # Kaiming bound; with the plain bound the rms grew ~1.4x per block
        # (mag_tcn 461, band_tcn 8.6e5 at this seed)
        from fbse import training

        m = model.Enhancer(model.ModelConfig.default(), seed=0)
        noisy, clean = training.synthetic_pair(seconds=1.0, seed=0)
        noisy_pairs, _ = training.spectra_pair(m, noisy, clean)
        rms = {}

        class Done(Exception):
            pass

        for name in ("mag_tcn", "band_tcn"):
            module = getattr(m, name)

            def record(*args, _name=name, _module=module):
                out = _module(*args)
                rms[_name] = float(np.sqrt(np.mean(out.data ** 2)))
                if _name == "band_tcn":
                    raise Done  # the mask head and stage 2 are not needed
                return out

            monkeypatch.setattr(m, name, record)
        with ad.no_grad(), pytest.raises(Done):
            m.enhance_spectra(noisy_pairs)
        assert set(rms) == {"mag_tcn", "band_tcn"}
        assert rms["mag_tcn"] <= 10.0 and rms["band_tcn"] <= 10.0, rms

    def test_branch_gain_scales_only_pw_out(self):
        cfg = model.MagTcnConfig(groups=2, per_group=2, dilations=(1, 2), feature_dim=6,
                                 hidden_dim=6)
        stack = model.GatedTcnStack(ParamStore(3), "g", cfg, in_dim=6)
        kaiming = np.sqrt(6.0 / 6)
        for blk in stack.blocks:
            assert np.abs(blk.pw_out.w.data).max() <= kaiming / 2.0  # depth 4
            assert np.abs(blk.pw_in.w.data).max() > kaiming / 2.0


class TestRecurrentUnet:
    def test_shapes_close_for_any_t(self):
        store = ParamStore(0)
        cfg = model.UnetConfig(levels=4, channels=4, convs_per_level=2,
                               lstm_layers=1, lstm_hidden=8, out_channels=2)
        net = model.RecurrentUnet(store, "u", cfg, 6, 2, 161)
        assert net.freqs == [161, 81, 41, 21, 11]
        rng = np.random.default_rng(1)
        for t in (2, 3, 7):
            out = net(Tensor(rng.standard_normal((6, t, 161))))
            assert out.data.shape == (2, t, 161)

    def test_rejects_wrong_channel_count(self):
        store = ParamStore(0)
        cfg = model.UnetConfig(levels=2, channels=4, convs_per_level=1,
                               lstm_layers=1, lstm_hidden=8)
        net = model.RecurrentUnet(store, "u", cfg, 6, 2, 161)
        with pytest.raises(ShapeMismatchError):
            net(Tensor(np.zeros((5, 3, 161))))

    def test_zero_input_zero_output(self):
        store = ParamStore(3)
        cfg = model.UnetConfig(levels=3, channels=4, convs_per_level=1,
                               lstm_layers=1, lstm_hidden=8, out_channels=2)
        net = model.RecurrentUnet(store, "u", cfg, 6, 2, 161)
        assert not net(Tensor(np.zeros((6, 4, 161)))).data.any()

    def test_causal_in_time(self):
        store = ParamStore(4)
        cfg = model.UnetConfig(levels=2, channels=3, convs_per_level=2,
                               lstm_layers=1, lstm_hidden=6, out_channels=2)
        net = model.RecurrentUnet(store, "u", cfg, 6, 2, 161)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6, 161))
        y0 = net(Tensor(x)).data
        x2 = x.copy()
        x2[:, 4, :] += 1.0
        y1 = net(Tensor(x2)).data
        assert np.array_equal(y0[:, :4, :], y1[:, :4, :])
        assert not np.array_equal(y0[:, 4:, :], y1[:, 4:, :])


class TestMultiBandTcn:
    def test_single_band_identity(self):
        store = ParamStore(0)
        cfg = model.BandTcnConfig(bands=1, blocks_per_band=1, kernel=1,
                                dilations=(1,), band_dim=4)
        tcn = model.MultiBandTcn(store, "m", cfg, fixed_dim=4, dyn_flat_dim=4)
        eye = np.eye(4)[:, :, None]
        tcn.dyn_proj.w.data[...] = eye
        tcn.band_in[0].w.data[...] = eye
        # fusion selects the dynamic half of concat(fixed, dyn)
        tcn.fusion[0].w.data[...] = 0.0
        tcn.fusion[0].w.data[:, 4:, 0] = np.eye(4)
        tcn.bands[0][0].pw_out.w.data[...] = 0.0
        rng = np.random.default_rng(1)
        dyn = rng.standard_normal((4, 9))
        fixed = rng.standard_normal((4, 9))
        out = tcn(Tensor(fixed), Tensor(dyn)).data
        np.testing.assert_array_equal(out, dyn)

    def test_band_conv_matches_direct_summation(self):
        # dilated band convolution y[t] = sum_i f(i) * z[t - d*i], f(i)=w[K-1-i]
        store = ParamStore(2)
        conv = Conv1d(store, "c", 1, 1, kernel=2, dilation=3)
        conv.w.data[0, 0] = [0.25, -2.0]
        conv.b.data[...] = 0.0
        rng = np.random.default_rng(3)
        z = rng.standard_normal(12)
        y = conv(Tensor(z[None, :])).data[0]
        taps = {0: -2.0, 1: 0.25}  # f(0)=w[K-1], f(1)=w[0]
        ref = np.zeros(12)
        for t in range(12):
            for i, f in taps.items():
                if t - 3 * i >= 0:
                    ref[t] += f * z[t - 3 * i]
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_forward_stacked_directionality(self):
        store = ParamStore(4)
        cfg = model.BandTcnConfig(bands=3, blocks_per_band=2, kernel=3,
                                dilations=(1, 3), band_dim=4)
        tcn = model.MultiBandTcn(store, "m", cfg, fixed_dim=4, dyn_flat_dim=12)
        rng = np.random.default_rng(5)
        fixed = rng.standard_normal((4, 10))
        dyn = rng.standard_normal((12, 10))
        base = tcn(Tensor(fixed), Tensor(dyn)).data
        bd = cfg.band_dim
        # ensure the projection actually mixes: couple dyn slice b into band b only
        tcn.dyn_proj.w.data[...] = 0.0
        for b in range(3):
            tcn.dyn_proj.w.data[b * bd : (b + 1) * bd, b * bd : (b + 1) * bd, 0] = np.eye(bd)
        base = tcn(Tensor(fixed), Tensor(dyn)).data

        def run(d):
            return tcn(Tensor(fixed), Tensor(d)).data

        d1 = dyn.copy()
        d1[:bd] += 1.0  # perturb band 1 features
        out1 = run(d1)
        assert not np.array_equal(out1[bd : 2 * bd], base[bd : 2 * bd]), "band 1 must reach band 2"
        assert not np.array_equal(out1[2 * bd :], base[2 * bd :]), "band 1 must reach band 3"

        d3 = dyn.copy()
        d3[2 * bd :] += 1.0  # perturb band 3 features
        out3 = run(d3)
        np.testing.assert_array_equal(out3[:bd], base[:bd])
        np.testing.assert_array_equal(out3[bd : 2 * bd], base[bd : 2 * bd])
        assert not np.array_equal(out3[2 * bd :], base[2 * bd :])

    def test_band_dim_mismatch_rejected(self):
        store = ParamStore(6)
        cfg = model.BandTcnConfig(bands=2, blocks_per_band=1, band_dim=4)
        tcn = model.MultiBandTcn(store, "m", cfg, fixed_dim=4, dyn_flat_dim=8)
        with pytest.raises(ShapeMismatchError):
            tcn(Tensor(np.zeros((5, 7))), Tensor(np.zeros((8, 7))))


class TestMaskHeadAndCrm:
    def test_mask_plane_count_and_bounds(self):
        store = ParamStore(0)
        head = model.MaskHead(store, "h", in_dim=8, bins=161)
        assert len(head.convs) == 6
        rng = np.random.default_rng(1)
        masks = head(Tensor(rng.standard_normal((8, 5)) * 30))
        assert len(masks) == 3
        for mr, mi in masks:
            assert mr.data.shape == (5, 161)
            assert np.all(np.abs(mr.data) <= 1.0) and np.all(np.abs(mi.data) <= 1.0)

    def test_zero_features_zero_mask(self):
        head = model.MaskHead(ParamStore(1), "h", in_dim=4, bins=161)
        masks = head(Tensor(np.zeros((4, 3))))
        for mr, mi in masks:
            assert not mr.data.any() and not mi.data.any()

    def test_crm_identity_and_null(self):
        rng = np.random.default_rng(2)
        noisy = [(Tensor(rng.standard_normal((4, 6))), Tensor(rng.standard_normal((4, 6))))
                 for _ in range(3)]
        ones = [(Tensor(np.ones((4, 6))), Tensor(np.zeros((4, 6)))) for _ in range(3)]
        out = model.apply_crm(noisy, ones)
        for (nr, ni), (er, ei) in zip(noisy, out):
            np.testing.assert_array_equal(er.data, nr.data)
            np.testing.assert_array_equal(ei.data, ni.data)
        zeros = [(Tensor(np.zeros((4, 6))), Tensor(np.zeros((4, 6)))) for _ in range(3)]
        out = model.apply_crm(noisy, zeros)
        for er, ei in out:
            assert not er.data.any() and not ei.data.any()

    def test_crm_matches_scalar_complex_arithmetic(self):
        rng = np.random.default_rng(3)
        nr, ni = rng.standard_normal((2, 3, 5))
        mr, mi = rng.standard_normal((2, 3, 5))
        out = model.apply_crm([(Tensor(nr), Tensor(ni))], [(Tensor(mr), Tensor(mi))])
        ref = (nr + 1j * ni) * (mr + 1j * mi)
        np.testing.assert_allclose(out[0][0].data, ref.real, atol=1e-10)
        np.testing.assert_allclose(out[0][1].data, ref.imag, atol=1e-10)


class TestCompensation:
    def test_zero_stage2_keeps_masked(self, tiny):
        rng = np.random.default_rng(4)
        pairs = [(rng.standard_normal((5, 161)), rng.standard_normal((5, 161)))
                 for _ in range(3)]
        m = model.Enhancer(model.ModelConfig.tiny(), seed=5)
        m.zero_stage("stage2")
        st = m.enhance_spectra(pairs)
        for (mr, mi), (er, ei) in zip(st.masked, st.enhanced):
            np.testing.assert_array_equal(mr.data, er.data)
            np.testing.assert_array_equal(mi.data, ei.data)

    def test_enhanced_minus_masked_equals_compensation(self, tiny):
        rng = np.random.default_rng(5)
        pairs = [(rng.standard_normal((4, 161)), rng.standard_normal((4, 161)))
                 for _ in range(3)]
        st = tiny.enhance_spectra(pairs)
        for ch in range(3):
            np.testing.assert_allclose(st.enhanced[ch][0].data - st.masked[ch][0].data,
                                       st.compensation.data[2 * ch], atol=1e-12)
            np.testing.assert_allclose(st.enhanced[ch][1].data - st.masked[ch][1].data,
                                       st.compensation.data[2 * ch + 1], atol=1e-12)

    def test_channel_counts(self, tiny):
        assert tiny.comp.unet.in_channels == 12
        assert tiny.comp.unet.out_channels == 6


def whole_analysis(audio, c):
    """Sub-channels and their compressed spectra, each signal in one call."""
    bank = dsp.extract(audio)
    return bank, [dsp.compress(dsp.stft(ch), c) for ch in bank.channels]


def whole_synthesis(pairs, bank, c):
    """The 48 kHz signal of compressed (real, imag) spectra, each in one call."""
    outs = [dsp.istft(dsp.decompress(dsp.ComplexSpectrum(r, i, dsp.COMPRESSED, c), c),
                      length=bank.channel_length) for r, i in pairs]
    return dsp.interpolate(dsp.SubChannelBank(tuple(outs), bank.origin_length))


class TestForward:
    def test_zero_input_zero_output(self, tiny):
        out = tiny.forward(dsp.AudioBuffer(np.zeros(4800), 48000))
        assert not out.samples.any()

    def test_pipeline_transparency_with_identity_mask(self, tiny):
        x = rand_audio(9600, seed=6)
        c = tiny.cfg.compression
        bank, comp = whole_analysis(x, c)
        y = whole_synthesis([(s.real, s.imag) for s in comp], bank, c)
        assert np.max(np.abs(y.samples - x.samples)) < 1e-5

    @pytest.mark.parametrize("frames", [1, 31, 32, 33, 64, 65])
    def test_blocks_equal_the_whole_sequence_on_the_tape(self, tiny, frames):
        """forward runs TIME_BLOCK frames at a time; the training path runs
        every frame in one taped graph."""
        assert layers.TIME_BLOCK == 32
        x = rand_audio(3 * (dsp.WIN_LEN + (frames - 1) * dsp.HOP_LEN) - 1, seed=frames)
        c = tiny.cfg.compression
        bank, comp = whole_analysis(x, c)
        assert comp[0].frames == frames
        for run, stage1 in ((tiny.forward, False), (tiny.stage1_forward, True)):
            st = tiny.enhance_spectra([(s.real, s.imag) for s in comp],
                                      disable_compensation=stage1)
            assert st.enhanced[0][0].requires_grad
            ref = whole_synthesis([(r.data, i.data) for r, i in st.enhanced], bank, c)
            np.testing.assert_allclose(run(x).samples, ref.samples, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stage1", [False, True])
    def test_frames_one_at_a_time_equal_one_block(self, tiny, monkeypatch, stage1):
        """Single frames take the step kernels (the stage-1 path excepted) and
        give the terms of one whole-block call over the same state."""
        n = 12
        frames = np.random.default_rng(7).uniform(-0.5, 0.5, (model.NUM_CHANNELS, n, dsp.WIN_LEN))
        whole = tiny.enhance_frames(frames, {}, disable_compensation=stage1)
        steps = []
        step = tiny.stream_step
        monkeypatch.setattr(tiny, "stream_step", lambda *a: steps.append(1) or step(*a))
        state = {}
        single = np.concatenate([tiny.enhance_frames(frames[:, t : t + 1], state, stage1)
                                 for t in range(n)], axis=1)
        assert whole.shape == single.shape == (model.NUM_CHANNELS, n, dsp.WIN_LEN)
        assert len(steps) == (0 if stage1 else n)
        np.testing.assert_allclose(single, whole, rtol=0, atol=1e-12)

    def test_stream_state_refuses_training_and_the_tape(self, tiny):
        pairs = [(np.ones((2, 161)), np.ones((2, 161)))] * 3
        with pytest.raises(ValueError):
            tiny.enhance_spectra(pairs, state={})
        with ad.no_grad(), pytest.raises(ValueError):
            tiny.enhance_spectra(pairs, training=True, state={})

    def test_calls_share_no_state(self, tiny):
        x = rand_audio(72000, seed=13)
        first = tiny.forward(x).samples
        assert np.array_equal(tiny.forward(x).samples, first)

    def test_memory_does_not_grow_with_the_input(self, tiny):
        """The traced peak of a 20 s forward exceeds a 2 s one's by at most
        2 MB per extra second; one float64 copy of 48 kHz audio takes 0.38."""
        peaks = {}
        for secs in (2, 20):
            x = rand_audio(secs * 48000, seed=secs)
            tracemalloc.start()
            try:
                tiny.forward(x)
                peaks[secs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[20] - peaks[2]) / 18 <= 2e6, peaks

    @pytest.mark.parametrize("n", [480, 961, 48000])
    def test_length_contract(self, tiny, n):
        assert tiny.forward(rand_audio(n, seed=n)).length == n

    def test_stage_separability_bit_exact(self):
        m = model.Enhancer(model.ModelConfig.tiny(), seed=8)
        m.zero_stage("stage2")
        x = rand_audio(9600, seed=9)
        two_stage = m.forward(x)
        stage1 = m.stage1_forward(x)
        assert np.array_equal(two_stage.samples, stage1.samples)

    def test_end_to_end_causality(self, tiny):
        x = rand_audio(14400, seed=10)
        y0 = tiny.forward(x).samples
        s = 9000
        x2 = dsp.AudioBuffer(x.samples.copy(), 48000)
        x2.samples[s] += 0.5
        y1 = tiny.forward(x2).samples
        changed = np.nonzero(y0 != y1)[0]
        assert changed.size > 0
        assert changed[0] >= s - dsp.LATENCY_SAMPLES_48K

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_rejected_before_any_work(self, tiny, monkeypatch, bad):
        x = rand_audio(48000, seed=12)
        x.samples[4800] = bad
        monkeypatch.setattr(dsp, "extract", lambda *a: pytest.fail("analysis ran on bad input"))
        for run in (tiny.forward, tiny.stage1_forward):
            with pytest.raises(NonFiniteInputError):
                run(x)

    def test_checkpoint_round_trip_through_forward(self, tmp_path, tiny):
        path = tmp_path / "m.ckpt"
        tiny.store.save(path)
        other = model.Enhancer(model.ModelConfig.tiny(), seed=123)
        other.store.load(path)
        x = rand_audio(4800, seed=11)
        assert np.array_equal(tiny.forward(x).samples, other.forward(x).samples)


# ---------------------------------------------------------------------------
# closed-form complexity oracle: the counts from the config alone, independent
# of the built layers that model.complexity_report reads


def _gated2d(cin, cout, kt, kf):
    return 2 * (cin * cout * kt * kf + cout)


def _conv1d_params(cin, cout, k):
    return cin * cout * k + cout


def _mag_tcn_counts(cfg: model.MagTcnConfig, bins):
    n_blocks = cfg.groups * cfg.per_group
    feat, hid = cfg.feature_dim, cfg.hidden_dim
    per_block = (_conv1d_params(feat, hid, 1) + 2 * _conv1d_params(hid, hid, cfg.kernel)
                 + _conv1d_params(hid, feat, 1) + 2 * hid)
    params = _conv1d_params(model.NUM_CHANNELS * bins, feat, 1) + n_blocks * per_block
    per_block_macs = (feat * hid + 2 * hid * hid * cfg.kernel + hid * feat)
    macs = model.NUM_CHANNELS * bins * feat + n_blocks * per_block_macs
    return params, macs


def _unet_counts(cfg: model.UnetConfig, in_channels, out_channels, bins):
    freqs = model.encoder_freqs(cfg, bins)
    ch = cfg.channels
    params = 0
    macs = 0
    for lvl in range(cfg.levels):
        kt, kf = model._level_kernel(cfg, lvl)
        cin = in_channels if lvl == 0 else ch
        params += _gated2d(cin, ch, kt, kf) + 2 * ch + ch          # conv + IN + PReLU
        macs += 2 * cin * ch * kt * kf * freqs[lvl + 1]
        rkt, rkf = cfg.other_kernel
        for _ in range(cfg.convs_per_level - 1):
            params += _gated2d(ch, ch, rkt, rkf) + 2 * ch + ch
            macs += 2 * ch * ch * rkt * rkf * freqs[lvl + 1]
    bott = ch * freqs[-1]
    hid = cfg.lstm_hidden
    for l in range(cfg.lstm_layers):
        din = bott if l == 0 else hid
        params += 4 * hid * (din + hid) + 4 * hid
        macs += 4 * hid * (din + hid)
    params += hid * bott + bott
    macs += hid * bott
    for lvl in range(cfg.levels):
        kt, kf = model._level_kernel(cfg, lvl, decoder=True)
        in_freq = freqs[cfg.levels - lvl]
        out_freq = freqs[cfg.levels - 1 - lvl]
        params += _gated2d(2 * ch, ch, kt, kf) + 2 * ch + ch
        macs += 2 * (2 * ch) * ch * kt * kf * in_freq
        rkt, rkf = cfg.other_kernel
        for _ in range(cfg.convs_per_level - 1):
            params += _gated2d(ch, ch, rkt, rkf) + 2 * ch + ch
            macs += 2 * ch * ch * rkt * rkf * out_freq
    params += ch * out_channels + out_channels
    macs += ch * out_channels * bins
    return params, macs


def _band_tcn_counts(cfg: model.BandTcnConfig, fixed_dim, dyn_flat_dim):
    bd = cfg.band_dim
    params = _conv1d_params(dyn_flat_dim, cfg.bands * bd, 1)
    macs = dyn_flat_dim * cfg.bands * bd
    per_block = (_conv1d_params(bd, bd, 1) * 2 + _conv1d_params(bd, bd, cfg.kernel) + 2 * bd)
    per_block_macs = 2 * bd * bd + bd * bd * cfg.kernel
    for b in range(cfg.bands):
        params += _conv1d_params(fixed_dim + bd, bd, 1)
        macs += (fixed_dim + bd) * bd
        cin = bd if b == 0 else 2 * bd
        params += _conv1d_params(cin, bd, 1)
        macs += cin * bd
        params += cfg.blocks_per_band * per_block
        macs += cfg.blocks_per_band * per_block_macs
    return params, macs


def closed_form_report(cfg: model.ModelConfig):
    """Per-module parameter and MAC/frame counts from the config alone."""
    bins = cfg.bins
    report = {}
    report["magnitude_tcn"] = _mag_tcn_counts(cfg.mag_tcn, bins)
    report["embedding_unet"] = _unet_counts(cfg.unet, model.RI_PLANES, cfg.unet.out_channels, bins)
    fixed_dim = cfg.mag_tcn.feature_dim
    report["multiband_tcn"] = _band_tcn_counts(cfg.band_tcn, fixed_dim, cfg.unet.out_channels * bins)
    head_in = cfg.band_tcn.bands * cfg.band_tcn.band_dim
    report["mask_head"] = (model.RI_PLANES * _conv1d_params(head_in, bins, 1),
                           model.RI_PLANES * head_in * bins)
    comp_p, comp_m = _unet_counts(cfg.comp, model.COMP_IN_CHANNELS, model.RI_PLANES, bins)
    # the ChannelAffine heads add params but only elementwise work, which is not counted
    report["compensation"] = (comp_p + 2 * model.RI_PLANES, comp_m)
    return {name: {"params": p, "macs_per_frame": m} for name, (p, m) in report.items()}


def half_width_config():
    return model.ModelConfig(
        mag_tcn=model.MagTcnConfig(feature_dim=128, hidden_dim=128),
        unet=model.UnetConfig(channels=32, lstm_hidden=190),
        band_tcn=model.BandTcnConfig(band_dim=128),
        comp=model.UnetConfig(channels=32, lstm_hidden=190),
    )


class TestComplexity:
    def test_closed_form_matches_allocation(self):
        # the report read off the built layers equals the oracle on every module
        for cfg in (model.ModelConfig.tiny(), model.ModelConfig.default(), half_width_config()):
            m = model.Enhancer(cfg, seed=0)
            oracle = closed_form_report(cfg)
            assert m.complexity() == oracle
            assert m.param_count == sum(mod["params"] for mod in oracle.values())

    def test_default_in_reported_windows(self):
        oracle = closed_form_report(model.ModelConfig.default())
        params = sum(mod["params"] for mod in oracle.values())
        macs = sum(mod["macs_per_frame"] for mod in oracle.values()) * model.FRAMES_PER_SECOND
        assert 25.4e6 <= params <= 34.4e6
        assert 10.6e9 <= macs <= 14.4e9

    def test_single_conv_closed_form(self):
        # one k=3 conv over 100 frames/s: k*cin*cout MACs per frame
        store = ParamStore(0)
        conv = Conv1d(store, "c", 16, 32, kernel=3)
        assert conv.macs_per_frame == 3 * 16 * 32
        assert conv.macs_per_frame * model.FRAMES_PER_SECOND == 3 * 16 * 32 * 100

    def test_conv_modules_scale_quadratically_with_width(self):
        full_rep = closed_form_report(model.ModelConfig.default())
        half_rep = closed_form_report(half_width_config())
        for mod in ("magnitude_tcn", "multiband_tcn"):
            ratio = full_rep[mod]["params"] / half_rep[mod]["params"]
            assert 3.0 < ratio < 4.5, (mod, ratio)

    def test_report_matches_macs_of_stepped_layers(self, monkeypatch):
        # default as well as tiny: only default has refiner convs and a second LSTM layer
        for cfg in (model.ModelConfig.tiny(), model.ModelConfig.default()):
            with monkeypatch.context() as patch:
                self._check_stepped_macs(model.Enhancer(cfg, seed=0), patch)

    @staticmethod
    def _check_stepped_macs(m, monkeypatch):
        # every MAC-counting step kernel adds its own macs_per_frame to the
        # top-level module it runs under; one stream_step must sum to the report
        roles = {"mag_tcn": "magnitude_tcn", "unet": "embedding_unet",
                 "band_tcn": "multiband_tcn", "mask_head": "mask_head",
                 "comp": "compensation"}
        traced = dict.fromkeys(roles.values(), 0)
        running = []
        for attr, name in roles.items():
            def role_step(*args, _step=getattr(m, attr).step, _name=name):
                running.append(_name)
                try:
                    return _step(*args)
                finally:
                    running.pop()
            monkeypatch.setattr(getattr(m, attr), "step", role_step)
        costs = {layers.Conv1d: lambda layer, x: layer.macs_per_frame,
                 layers.Linear: lambda layer, x: layer.macs_per_frame,
                 layers.Lstm: lambda layer, x: layer.macs_per_frame,
                 layers.Conv2d: lambda layer, x: layer.macs_per_frame(x.shape[1]),
                 layers.ConvTranspose2d: lambda layer, x: layer.macs_per_frame(x.shape[1])}
        for cls, cost in costs.items():
            def kernel_step(layer, state, x, _step=cls.step, _cost=cost):
                traced[running[-1]] += _cost(layer, x)
                return _step(layer, state, x)
            monkeypatch.setattr(cls, "step", kernel_step)
        zeros = np.zeros(m.cfg.bins)
        m.stream_step(m.init_stream_state(), [(zeros, zeros)] * model.NUM_CHANNELS)
        report = m.complexity()
        assert traced == {name: report[name]["macs_per_frame"] for name in traced}

    def test_latency_constant(self):
        from fbse.streaming import LatencyReport

        rep = LatencyReport()
        assert rep.algorithmic_ms == 30.0
        assert rep.algorithmic_ms == rep.frame_ms + rep.hop_ms


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        for cfg in (model.ModelConfig.default(), model.ModelConfig.tiny()):
            path = tmp_path / "m.cfg"
            model.save_config(path, cfg)
            assert model.load_config(path) == cfg

    def test_rejects_bad_version_and_keys(self):
        with pytest.raises(ConfigError):
            model.config_from_text("fbse-config v99\n")
        with pytest.raises(ConfigError):
            model.config_from_text("fbse-config v1\nbogus.key = 3\n")
        with pytest.raises(ConfigError):
            model.config_from_text("not a config\n")

    @pytest.mark.parametrize("name", ["default", "tiny"])
    def test_shipped_configs_are_pinned(self, name):
        with open(f"{CONFIGS}/{name}.cfg", encoding="utf-8") as fh:
            assert fh.read() == model.config_to_text(getattr(model.ModelConfig, name)())

    @pytest.mark.parametrize("kwargs", [
        dict(mag_tcn=model.MagTcnConfig(dilations=())),
        dict(mag_tcn=model.MagTcnConfig(kernel=0)),
        dict(unet=model.UnetConfig(channels=0)),
        dict(unet=model.UnetConfig(freq_stride=0)),
        dict(comp=model.UnetConfig(first_kernel=(2,))),
        dict(band_tcn=model.BandTcnConfig(dilations=(1, -3))),
        dict(dtype="banana"),
        dict(compression=0.0),
        dict(compression=1.5),
        dict(comp=model.UnetConfig(other_kernel=(2, 4), levels=9)),
    ], ids=["empty-dilations", "kernel-0", "channels-0", "stride-0", "kernel-not-pair",
            "dilation-negative", "dtype", "compression-0", "compression-above-1",
            "comp-ladder-collapses"])
    def test_model_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            model.ModelConfig(**kwargs)

    def test_sizes_above_the_bound_are_refused(self):
        with pytest.raises(ConfigError, match="unet.levels"):
            model.ModelConfig(unet=model.UnetConfig(levels=model.MAX_CONFIG_SIZE + 1,
                                                    freq_stride=1))
        with pytest.raises(ConfigError, match="band_tcn.dilations"):
            model.ModelConfig(band_tcn=model.BandTcnConfig(dilations=(1, model.MAX_CONFIG_SIZE + 1)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_config_text_gives_a_config_or_config_error(self, data):
        lines = model.config_to_text(model.ModelConfig.tiny()).splitlines()
        if data.draw(st.booleans()):
            lines = [data.draw(st.text(max_size=80))]
        # wide enough to cross MAX_CONFIG_SIZE, small enough that a U-net of that
        # many levels stays cheap should the bound ever go
        ints = st.integers(-10**6, 10**6).map(str)
        value = (ints | st.lists(ints, max_size=3).map(",".join) | st.floats().map(repr)
                 | st.text(max_size=12))
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, len(lines) - 1))
            key = lines[i].split("=")[0]
            edit = data.draw(st.sampled_from(["value", "drop", "dup", "line"]))
            if edit == "value":
                lines[i] = f"{key}= {data.draw(value)}"
            elif edit == "drop":
                del lines[i]
            elif edit == "dup":
                lines.insert(i, lines[i])
            else:
                lines.insert(i, data.draw(st.text(max_size=40)))
            if not lines:
                break
        try:
            cfg = model.config_from_text("\n".join(lines))
        except ConfigError:
            return
        assert isinstance(cfg, model.ModelConfig)
