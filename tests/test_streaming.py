"""Streaming runtime: per-layer and full-graph offline equivalence, latency
accounting, cache bookkeeping, flush semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbse import dsp, layers, model, streaming
from fbse.autodiff import Tensor
from fbse.errors import (
    NonFiniteInputError,
    OversizeBlockError,
    ShapeMismatchError,
    StreamClosedError,
)
from fbse.params import ParamStore


@pytest.fixture(scope="module")
def tiny_model():
    return model.Enhancer(model.ModelConfig.tiny(), seed=0)


def rand_audio(n, seed=0):
    rng = np.random.default_rng(seed)
    return dsp.AudioBuffer(rng.uniform(-0.5, 0.5, n), 48000)


class TestLayerStepEquivalence:
    """step() must replay the whole-sequence forward exactly."""

    def test_conv1d(self):
        rng = np.random.default_rng(0)
        layer = layers.Conv1d(ParamStore(0), "c", 3, 4, kernel=3, dilation=6)
        x = rng.standard_normal((3, 40))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, t]) for t in range(40)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    def test_conv2d_and_gated(self):
        rng = np.random.default_rng(1)
        layer = layers.GatedConv2d(ParamStore(1), "g", 2, 3, kernel=(2, 3), stride=2)
        x = rng.standard_normal((2, 12, 9))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, t]) for t in range(12)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    def test_deconv(self):
        rng = np.random.default_rng(2)
        layer = layers.GatedConvTranspose2d(ParamStore(2), "d", 3, 2, kernel=(2, 3),
                                            stride=2, out_freq=9)
        x = rng.standard_normal((3, 10, 5))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, t]) for t in range(10)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    @pytest.mark.parametrize("kernel,dilation,t", [(1, 1, 12), (3, 16, 20)],
                             ids=["kernel1", "cache-longer-than-sequence"])
    def test_conv1d_shapes(self, kernel, dilation, t):
        rng = np.random.default_rng(10)
        layer = layers.Conv1d(ParamStore(10), "c", 5, 4, kernel=kernel, dilation=dilation)
        x = rng.standard_normal((5, t))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, i]) for i in range(t)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,pad", [((2, 5), 2, None), ((2, 3), 1, None),
                                                   ((1, 1), 1, 0)],
                             ids=["k2x5-s2", "k2x3-s1", "k1x1-pad0"])
    def test_conv2d_shapes(self, kernel, stride, pad):
        rng = np.random.default_rng(11)
        layer = layers.Conv2d(ParamStore(11), "c", 3, 4, kernel=kernel, stride=stride, pad=pad)
        x = rng.standard_normal((3, 9, 17))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, i]) for i in range(9)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    # f=5 input bins: span 11 (k2x3) or 13 (k2x5) before the pad-bin crop; out_freq 8
    # trims the natural 9 bins, 11 runs past the span and is zero-padded (bias only)
    @pytest.mark.parametrize("kernel,out_freq", [((2, 5), None), ((2, 3), 8), ((2, 3), 11)],
                             ids=["k2x5-s2", "trim", "zero-pad"])
    def test_deconv_shapes(self, kernel, out_freq):
        rng = np.random.default_rng(12)
        layer = layers.ConvTranspose2d(ParamStore(12), "d", 3, 4, kernel=kernel, stride=2,
                                       out_freq=out_freq)
        layer.b.data[...] = rng.standard_normal(4)
        x = rng.standard_normal((3, 8, 5))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, i]) for i in range(8)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    def test_lstm(self):
        rng = np.random.default_rng(3)
        lstm = layers.Lstm(ParamStore(3), "l", 4, 5, 3)
        x = rng.standard_normal((20, 4))
        offline = lstm(Tensor(x)).data
        state = {}
        stepped = np.stack([lstm.step(state, x[t]) for t in range(20)])
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    def test_instance_norm_eval(self):
        rng = np.random.default_rng(4)
        norm = layers.InstanceNorm(ParamStore(4), "n", 3)
        norm.run_mean[...] = rng.standard_normal(3)
        norm.run_var[...] = rng.uniform(0.5, 2.0, 3)
        x = rng.standard_normal((3, 7, 6))
        offline = norm(Tensor(x), training=False).data
        stepped = np.stack([norm.step(None, x[:, t]) for t in range(7)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)

    def test_recurrent_unet(self):
        store = ParamStore(5)
        cfg = model.UnetConfig(levels=3, channels=4, convs_per_level=2,
                               lstm_layers=2, lstm_hidden=6, out_channels=2)
        net = model.RecurrentUnet(store, "u", cfg, 6, 2, 161)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 8, 161))
        offline = net(Tensor(x)).data
        state = {}
        stepped = np.stack([net.step(state, x[:, t]) for t in range(8)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-10)

    def test_multiband_tcn(self):
        store = ParamStore(7)
        cfg = model.BandTcnConfig(bands=3, blocks_per_band=2, dilations=(1, 3), band_dim=4)
        tcn = model.MultiBandTcn(store, "m", cfg, fixed_dim=5, dyn_flat_dim=10)
        rng = np.random.default_rng(8)
        fixed = rng.standard_normal((5, 15))
        dyn = rng.standard_normal((10, 15))
        offline = tcn(Tensor(fixed), Tensor(dyn)).data
        state = {}
        stepped = np.stack([tcn.step(state, fixed[:, t], dyn[:, t]) for t in range(15)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-10)

    def test_full_model_step(self, tiny_model):
        rng = np.random.default_rng(9)
        pairs = [(rng.standard_normal((10, 161)), rng.standard_normal((10, 161)))
                 for _ in range(3)]
        st = tiny_model.enhance_spectra(pairs)
        state = tiny_model.init_stream_state()
        for t in range(10):
            frame = [(r[t], i[t]) for r, i in pairs]
            out = tiny_model.stream_step(state, frame)
            for ch in range(3):
                np.testing.assert_allclose(out[ch][0], st.enhanced[ch][0].data[t], atol=1e-10)
                np.testing.assert_allclose(out[ch][1], st.enhanced[ch][1].data[t], atol=1e-10)


CHUNK_T = 2 * layers.TIME_BLOCK + 5  # two full time blocks and a partial one

# builder, input channels, input bins; f=5 deconv bins give a natural 9, so
# out_freq 8 trims and 11 zero-pads
CHUNK_LAYERS = {
    "conv2d-k2x5-s2": (lambda s: layers.Conv2d(s, "c", 3, 4, (2, 5), stride=2), 3, 17),
    "conv2d-k2x3-s1": (lambda s: layers.Conv2d(s, "c", 3, 4, (2, 3), stride=1), 3, 17),
    "deconv-trim": (lambda s: layers.ConvTranspose2d(s, "d", 3, 4, (2, 3), out_freq=8), 3, 5),
    "deconv-zero-pad": (lambda s: layers.ConvTranspose2d(s, "d", 3, 4, (2, 3), out_freq=11), 3, 5),
    "gated-conv2d": (lambda s: layers.GatedConv2d(s, "g", 3, 4, (2, 5), stride=2), 3, 17),
    "gated-deconv": (lambda s: layers.GatedConvTranspose2d(s, "g", 3, 4, (2, 3), out_freq=8),
                     3, 5),
    "conv1d-kernel1": (lambda s: OneBin(layers.Conv1d(s, "c", 3, 4, kernel=1)), 3, 1),
    # its 32-frame cache outlives every chunk
    "conv1d-k3-d16": (lambda s: OneBin(layers.Conv1d(s, "c", 3, 4, kernel=3, dilation=16)), 3, 1),
    # the stacked [lin; gate] pair, before gating
    "gated-tcn-dil-pair": (lambda s: OneBin(model.GatedTcnBlock(
        s, "b", model.MagTcnConfig(feature_dim=3, hidden_dim=4), dilation=5, depth=1).dil), 4, 1),
    "lstm-2layer": (lambda s: OneBin(layers.Lstm(s, "l", 3, 5, 2), time_first=True), 3, 1),
}


class OneBin:
    """A 1-D ``[C, T]`` or recurrent ``[T, D]`` layer seen as a 2-D layer on one
    frequency bin, ``[C, T, 1]``: its own ``__call__``, ``step`` and ``chunk`` run."""

    def __init__(self, layer, time_first=False):
        self.layer, self.time_first = layer, time_first

    def _to(self, x):
        return x[..., 0].T if self.time_first else x[..., 0]

    def _from(self, y):
        return (y.T if self.time_first else y)[..., None]

    def __call__(self, x):
        return Tensor(self._from(self.layer(Tensor(self._to(x.data))).data))

    def step(self, state, frame):
        return self.layer.step(state, frame[:, 0])[:, None]

    def chunk(self, state, x):
        return self._from(self.layer.chunk(state, self._to(x)))


class TestChunkEquivalence:
    """The whole-sequence forward, per-frame ``step`` and ``chunk`` of any size
    run one kernel, across time-block boundaries."""

    @pytest.mark.parametrize("name", sorted(CHUNK_LAYERS))
    def test_call_step_and_chunks_agree(self, name):
        build, cin, freq = CHUNK_LAYERS[name]
        rng = np.random.default_rng(13)
        store = ParamStore(13)
        layer = build(store)
        for pname, p in store.params.items():
            if pname.endswith("bias"):
                p.data[...] = rng.standard_normal(p.data.shape)
        x = rng.standard_normal((cin, CHUNK_T, freq))
        offline = layer(Tensor(x)).data
        state = {}
        stepped = np.stack([layer.step(state, x[:, t]) for t in range(CHUNK_T)], axis=1)
        np.testing.assert_allclose(stepped, offline, atol=1e-12)
        for size in (1, 3, 7):
            state = {}
            chunked = np.concatenate([layer.chunk(state, x[:, t : t + size])
                                      for t in range(0, CHUNK_T, size)], axis=1)
            np.testing.assert_allclose(chunked, offline, atol=1e-12, err_msg=f"chunk {size}")

    @pytest.mark.parametrize("name", sorted(CHUNK_LAYERS))
    def test_state_after_a_long_chunk_owns_its_memory(self, name):
        """A cache kept as a view would pin the chunk's whole ``[cache; x]``
        buffer alive: one time block per layer for the offline forward."""
        build, cin, freq = CHUNK_LAYERS[name]
        state = {}
        build(ParamStore(13)).chunk(state, np.ones((cin, CHUNK_T, freq)))
        assert all(arr.flags.owndata for arr in state.values())


class TestStreamContract:
    def test_emission_schedule_and_counter(self, tiny_model):
        x = rand_audio(4800, seed=1)
        state = streaming.stream_create(tiny_model)
        sizes = []
        for k in range(10):
            out = streaming.stream_push(state, x.samples[k * 480 : (k + 1) * 480])
            sizes.append(out.size)
            assert state.samples_out == max(0, state.samples_in - 1440)
        assert sizes == [0, 0, 0] + [480] * 7

    def test_full_equivalence(self, tiny_model):
        for seed in range(3):
            x = rand_audio(3 * 48000, seed=seed)
            offline = tiny_model.forward(x)
            streamed = streaming.enhance_streaming(tiny_model, x)
            assert streamed.length == offline.length
            assert np.max(np.abs(streamed.samples - offline.samples)) <= 1e-5

    def test_impulse_warm_up_boundary(self, tiny_model):
        state = streaming.stream_create(tiny_model)
        block = np.zeros(480)
        block[0] = 1.0
        outs = [streaming.stream_push(state, block)]
        for _ in range(7):
            outs.append(streaming.stream_push(state, np.zeros(480)))
        # first three pushes emit nothing: 1440-sample warm-up
        assert all(o.size == 0 for o in outs[:3])
        first_content = np.concatenate(outs)
        assert first_content.size == 5 * 480
        assert np.abs(first_content).max() > 0

    def test_flush_totals(self, tiny_model):
        x = rand_audio(48000, seed=2)
        state = streaming.stream_create(tiny_model)
        total = 0
        for k in range(100):
            total += streaming.stream_push(state, x.samples[k * 480 : (k + 1) * 480]).size
        total += streaming.stream_flush(state).size
        assert total == 48000

    def test_flush_without_pushes_is_empty(self, tiny_model):
        state = streaming.stream_create(tiny_model)
        assert streaming.stream_flush(state).size == 0

    def test_zero_stream_emits_zeros(self, tiny_model):
        state = streaming.stream_create(tiny_model)
        pieces = [streaming.stream_push(state, np.zeros(480)) for _ in range(12)]
        pieces.append(streaming.stream_flush(state))
        out = np.concatenate(pieces)
        assert out.size == 12 * 480
        assert not out.any()

    # lengths end before, on and past the first frame, mid-hop and on a hop
    # boundary, so flush reaches the last-hop denominator from different states
    @pytest.mark.parametrize("n", [1, 479, 480, 1000, 1440, 1441, 4801])
    def test_partial_final_block(self, tiny_model, n):
        x = rand_audio(n, seed=3)
        offline = tiny_model.forward(x)
        state = streaming.stream_create(tiny_model)
        pieces = [streaming.stream_push(state, x.samples[lo : lo + 480])
                  for lo in range(0, n, 480)]
        pieces.append(streaming.stream_flush(state))
        out = np.concatenate(pieces)
        assert out.size == n
        np.testing.assert_allclose(out, offline.samples, atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4000), seed=st.integers(0, 2**31), first=st.integers(1, 480),
           rest=st.lists(st.integers(0, 480), max_size=11))
    def test_random_push_sizes_match_forward(self, tiny_model, n, seed, first, rest):
        x, sizes = rand_audio(n, seed=seed), [first, *rest]
        state = streaming.stream_create(tiny_model)
        pieces, lo, k = [], 0, 0
        while lo < n:
            size = sizes[k % len(sizes)]
            pieces.append(streaming.stream_push(state, x.samples[lo : lo + size]))
            lo, k = lo + size, k + 1
        pieces.append(streaming.stream_flush(state))
        out = np.concatenate(pieces)
        assert out.size == n
        assert np.max(np.abs(out - tiny_model.forward(x).samples)) <= 1e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected_without_state_change(self, tiny_model, bad):
        x = rand_audio(4800, seed=5).samples
        blocks = [x[k * 480 : (k + 1) * 480] for k in range(10)]
        clean = streaming.stream_create(tiny_model)
        hit = streaming.stream_create(tiny_model)
        for k, block in enumerate(blocks):
            if k == 4:
                poisoned = block.copy()
                poisoned[17] = bad
                with pytest.raises(NonFiniteInputError):
                    streaming.stream_push(hit, poisoned)
            assert np.array_equal(streaming.stream_push(hit, block),
                                  streaming.stream_push(clean, block))
        assert np.array_equal(streaming.stream_flush(hit), streaming.stream_flush(clean))

    @pytest.mark.parametrize("bad", [["a"] * 10, object(), np.full(480, 0.1 + 0.2j),
                                     [0.1, None]], ids=["strings", "object", "complex", "none"])
    def test_non_real_block_rejected_without_state_change(self, tiny_model, bad):
        x = rand_audio(4800, seed=6).samples
        blocks = [x[k * 480 : (k + 1) * 480] for k in range(10)]
        clean = streaming.stream_create(tiny_model)
        hit = streaming.stream_create(tiny_model)
        for k, block in enumerate(blocks):
            if k == 4:
                with pytest.raises(ShapeMismatchError, match="real samples"):
                    streaming.stream_push(hit, bad)
                assert hit.samples_in == clean.samples_in
            assert np.array_equal(streaming.stream_push(hit, block),
                                  streaming.stream_push(clean, block))
        assert np.array_equal(streaming.stream_flush(hit), streaming.stream_flush(clean))

    def test_oversize_block_rejected(self, tiny_model):
        state = streaming.stream_create(tiny_model)
        with pytest.raises(OversizeBlockError):
            streaming.stream_push(state, np.zeros(481))

    def test_push_after_flush_rejected(self, tiny_model):
        state = streaming.stream_create(tiny_model)
        streaming.stream_push(state, np.zeros(480))
        streaming.stream_flush(state)
        with pytest.raises(StreamClosedError):
            streaming.stream_push(state, np.zeros(480))

    def test_fresh_states_identical(self, tiny_model):
        s1 = streaming.stream_create(tiny_model)
        s2 = streaming.stream_create(tiny_model)
        assert s1.frames_done == 0 and not s1.pending.size
        x = rand_audio(4 * 480, seed=11).samples
        for k in range(4):
            streaming.stream_push(s1, x[k * 480 : (k + 1) * 480])
            streaming.stream_push(s2, x[k * 480 : (k + 1) * 480])
            for c1, c2 in ((s1.conv_caches, s2.conv_caches), (s1.lstm_states, s2.lstm_states)):
                assert set(c1) == set(c2)
                for key in c1:
                    assert np.array_equal(c1[key], c2[key]), key
        assert s1.frames_done == 3 and s1.conv_caches and s1.lstm_states

    def test_interleaved_streams_are_isolated(self, tiny_model):
        # a layer that kept stream state on itself, or one slot per class,
        # would mix the two streams or break the offline equivalence
        xs = [rand_audio(24 * 480, seed=s).samples for s in (12, 13)]

        def run(streams_audio):
            states = [streaming.stream_create(tiny_model) for _ in streams_audio]
            outs = [[] for _ in streams_audio]
            for lo in range(0, xs[0].size, 480):
                for st, x, out in zip(states, streams_audio, outs):
                    out.append(streaming.stream_push(st, x[lo : lo + 480]))
            return [np.concatenate(o + [streaming.stream_flush(st)]) for st, o in zip(states, outs)]

        both = run(xs)
        for x, out in zip(xs, both):
            alone = run([x])[0]
            assert np.array_equal(out, alone)
            offline = tiny_model.forward(dsp.AudioBuffer(x, 48000)).samples
            np.testing.assert_allclose(alone, offline, atol=1e-5)


class TestStateBookkeeping:
    def test_conv_cache_widths_match_closed_form(self, tiny_model):
        cfg = tiny_model.cfg
        state = streaming.stream_create(tiny_model)
        assert not state.model_state  # slots are filled by the first model frame
        for _ in range(2):
            streaming.stream_push(state, np.zeros(480))
        caches = state.conv_caches

        mag_tcn_dil = {}
        n_blocks = cfg.mag_tcn.groups * cfg.mag_tcn.per_group
        for n in range(n_blocks):
            d = cfg.mag_tcn.dilations[(n % cfg.mag_tcn.per_group) % len(cfg.mag_tcn.dilations)]
            mag_tcn_dil[n] = (cfg.mag_tcn.kernel - 1) * d
        band_tcn_dil = {i: (cfg.band_tcn.kernel - 1) * cfg.band_tcn.dilations[i % len(cfg.band_tcn.dilations)]
                     for i in range(cfg.band_tcn.blocks_per_band)}

        seen_mag_tcn = seen_band_tcn = seen_2d = 0
        for name, arr in caches.items():
            if name.startswith("stage1.mag_tcn"):  # stage1.mag_tcn.g{grp}.b{idx}.dil
                grp, idx = (int(part[1:]) for part in name.split(".")[2:4])
                assert arr.shape[1] == mag_tcn_dil[grp * cfg.mag_tcn.per_group + idx], name
                seen_mag_tcn += 1
            elif name.startswith("stage1.band_tcn"):  # stage1.band_tcn.band{b}.blk{i}.dil
                blk = int(name.split(".")[3][3:])
                assert arr.shape[1] == band_tcn_dil[blk], name
                seen_band_tcn += 1
            else:
                # 2-D convs cache (kernel_t - 1) frames: 1 for main/refiner, 0 for 1x1 out
                assert arr.ndim == 3 and arr.shape[1] in (0, 1), name
                seen_2d += 1
        assert seen_mag_tcn == n_blocks  # one cache per stacked lin/gate pair
        assert seen_band_tcn == cfg.band_tcn.bands * cfg.band_tcn.blocks_per_band
        # per U-net: a gated pair per encoder and decoder conv, and the 1x1 out conv
        per_unet = [2 * u.levels * u.convs_per_level + 1 for u in (cfg.unet, cfg.comp)]
        assert seen_2d == sum(per_unet)
        # one slot per stateful layer, under a name no other slot has
        assert len(state.model_state) == len(caches) + len(state.lstm_states) == len(caches) + 2

    def test_caches_never_grow(self, tiny_model):
        state = streaming.stream_create(tiny_model)
        rng = np.random.default_rng(4)
        for _ in range(5):
            streaming.stream_push(state, rng.uniform(-0.5, 0.5, 480))
        shapes = {k: v.shape for k, v in state.conv_caches.items()}
        lstm_shapes = {k: v.shape for k, v in state.lstm_states.items()}
        for _ in range(30):
            streaming.stream_push(state, rng.uniform(-0.5, 0.5, 480))
        assert {k: v.shape for k, v in state.conv_caches.items()} == shapes
        assert {k: v.shape for k, v in state.lstm_states.items()} == lstm_shapes
        assert state.ola_tail.shape == (3, dsp.HOP_LEN)


class TestRtf:
    def test_report_fields(self, tiny_model):
        rep = streaming.measure_rtf(tiny_model, seconds=0.5, seed=0)
        assert rep.algorithmic_ms == 30.0
        assert rep.frames_measured == 50  # seconds * 100 hops/s
        assert rep.per_frame_compute_ms > 0
        assert rep.rtf == pytest.approx(rep.per_frame_compute_ms / 10.0)

    def test_tiny_is_realtime(self, tiny_model):
        rep = streaming.measure_rtf(tiny_model, seconds=1.0, seed=1)
        assert rep.rtf < 1.0
