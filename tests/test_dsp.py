"""DSP frontend: polyphase split, STFT/ISTFT, power-law compression."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbse import dsp
from fbse.errors import (
    DomainError,
    EmptyInputError,
    InvalidExponentError,
    InvalidSampleRateError,
    ShapeMismatchError,
)


def buf48(samples):
    return dsp.AudioBuffer(np.asarray(samples, dtype=np.float64), 48000)


def buf16(samples):
    return dsp.AudioBuffer(np.asarray(samples, dtype=np.float64), 16000)


class TestAudioBuffer:
    @pytest.mark.parametrize("bad", [["a"] * 10, object(), np.full(4, 0.5 + 0.5j), [0.1, None],
                                     [[0.1], [0.1, 0.2]]],
                             ids=["strings", "object", "complex", "none", "ragged"])
    def test_samples_that_are_not_real_numbers_rejected(self, bad):
        with pytest.raises(ShapeMismatchError, match="real samples"):
            dsp.AudioBuffer(bad, 48000)

    def test_integer_and_float32_samples_become_float64(self):
        for samples in ([0, 1, -1], np.array([0.5, -0.25], dtype=np.float32), [True, False]):
            buf = dsp.AudioBuffer(samples, 48000)
            assert buf.samples.dtype == np.float64
            assert np.array_equal(buf.samples, np.asarray(samples, dtype=np.float64))


class TestExtractInterpolate:
    def test_interleave_order(self):
        x = buf48([10.0, 11.0, 12.0, 13.0, 14.0, 15.0])
        bank = dsp.extract(x)
        np.testing.assert_array_equal(bank.channels[0].samples, [10.0, 13.0])
        np.testing.assert_array_equal(bank.channels[1].samples, [11.0, 14.0])
        np.testing.assert_array_equal(bank.channels[2].samples, [12.0, 15.0])

    def test_zero_input(self):
        bank = dsp.extract(buf48(np.zeros(300)))
        for ch in bank.channels:
            assert ch.length == 100
            assert not ch.samples.any()

    def test_round_trip_non_multiple_of_three(self):
        rng = np.random.default_rng(0)
        x = buf48(rng.standard_normal(999))
        y = dsp.interpolate(dsp.extract(x))
        assert y.length == 999
        np.testing.assert_array_equal(y.samples, x.samples)

    def test_interpolate_known(self):
        chans = tuple(buf16(v) for v in ([1.0, 4.0], [2.0, 5.0], [3.0, 6.0]))
        out = dsp.interpolate(dsp.SubChannelBank(chans, origin_length=6))
        np.testing.assert_array_equal(out.samples, [1, 2, 3, 4, 5, 6])

    def test_zero_channels_give_zero_signal(self):
        chans = tuple(buf16(np.zeros(5)) for _ in range(3))
        out = dsp.interpolate(dsp.SubChannelBank(chans, origin_length=15))
        assert not out.samples.any()

    def test_wrong_rate_rejected(self):
        with pytest.raises(InvalidSampleRateError):
            dsp.extract(buf16(np.zeros(10)))

    def test_mismatched_channels_rejected(self):
        chans = (buf16(np.zeros(4)), buf16(np.zeros(5)), buf16(np.zeros(4)))
        with pytest.raises(ShapeMismatchError):
            dsp.SubChannelBank(chans, origin_length=12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=2**31))
    def test_round_trip_any_length(self, n, seed):
        x = buf48(np.random.default_rng(seed).uniform(-1, 1, n))
        y = dsp.interpolate(dsp.extract(x))
        np.testing.assert_array_equal(y.samples, x.samples)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1500), st.integers(min_value=0, max_value=2**31))
    def test_extract_of_interpolate_identity(self, sub_len, seed):
        rng = np.random.default_rng(seed)
        chans = tuple(buf16(rng.standard_normal(sub_len)) for _ in range(3))
        bank = dsp.SubChannelBank(chans, origin_length=3 * sub_len)
        bank2 = dsp.extract(dsp.interpolate(bank))
        for a, b in zip(bank.channels, bank2.channels):
            np.testing.assert_array_equal(a.samples, b.samples)


def naive_dft(frame):
    n = len(frame)
    k = np.arange(n)
    out = np.empty(n // 2 + 1, dtype=complex)
    for m in range(n // 2 + 1):
        out[m] = np.sum(frame * np.exp(-2j * np.pi * m * k / n))
    return out


class TestStft:
    def test_dc_signal_concentrates_in_bin0(self):
        spec = dsp.stft(buf16(np.ones(320)))
        assert spec.frames == 1
        assert spec.real[0, 0] == pytest.approx(dsp.WINDOW.sum(), rel=1e-12)
        assert np.max(np.abs(spec.imag)) < 1e-9

    def test_zero_signal(self):
        spec = dsp.stft(buf16(np.zeros(1000)))
        assert not spec.real.any() and not spec.imag.any()

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 1600)
        spec = dsp.stft(buf16(x))
        hop, win_len = dsp.HOP_LEN, dsp.WIN_LEN
        for t in range(spec.frames):
            seg = np.zeros(win_len)
            chunk = x[t * hop : t * hop + win_len]
            seg[: len(chunk)] = chunk
            ref = naive_dft(seg * dsp.WINDOW)
            np.testing.assert_allclose(spec.real[t], ref.real, atol=1e-9)
            np.testing.assert_allclose(spec.imag[t], ref.imag, atol=1e-9)

    def test_frame_count(self):
        assert dsp.stft(buf16(np.ones(320))).frames == 1
        assert dsp.stft(buf16(np.ones(321))).frames == 2
        assert dsp.stft(buf16(np.ones(480))).frames == 2
        assert dsp.stft(buf16(np.ones(16000))).frames == 99

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            dsp.stft(buf16(np.zeros(0)))

    def test_wrong_rate_rejected(self):
        with pytest.raises(InvalidSampleRateError):
            dsp.stft(buf48(np.zeros(480)))

    def test_synthesis_normalization_strictly_positive(self):
        # Hamming never reaches zero, so every per-sample WOLA denominator
        # (any frame overlap pattern) stays strictly positive
        win = dsp.WINDOW
        assert win.min() > 0.0
        den = np.zeros(dsp.WIN_LEN + 9 * dsp.HOP_LEN)
        for t in range(10):
            den[t * dsp.HOP_LEN : t * dsp.HOP_LEN + dsp.WIN_LEN] += win * win
        assert den.min() > 0.0

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 3200)
        spec = dsp.stft(buf16(x))
        for t in range(spec.frames):
            seg = x[t * dsp.HOP_LEN : t * dsp.HOP_LEN + dsp.WIN_LEN] * dsp.WINDOW
            spectral = spec.real[t] ** 2 + spec.imag[t] ** 2
            # one-sided spectrum: double the interior bins
            energy = (spectral[0] + spectral[-1] + 2 * spectral[1:-1].sum()) / dsp.FFT_LEN
            assert energy == pytest.approx(np.sum(seg * seg), rel=1e-9)


class TestIstft:
    @pytest.mark.parametrize("n", [3200, 4001, 16000])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, n)
        y = dsp.istft(dsp.stft(buf16(x)), length=n)
        hop = dsp.HOP_LEN
        interior = slice(hop, n - hop)
        err = np.abs(y.samples[interior] - x[interior])
        assert np.max(err / np.maximum(np.abs(x[interior]), 1e-3)) < 1e-6

    def test_full_reconstruction_including_edges(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 3200)
        y = dsp.istft(dsp.stft(buf16(x)), length=3200)
        np.testing.assert_allclose(y.samples, x, atol=1e-10)

    def test_zero_spectrum(self):
        spec = dsp.ComplexSpectrum(np.zeros((4, 161)), np.zeros((4, 161)))
        assert not dsp.istft(spec).samples.any()

    def test_single_dc_frame(self):
        seg = np.fft.rfft(dsp.WINDOW * 1.0, n=dsp.FFT_LEN)
        spec = dsp.ComplexSpectrum(seg.real[None, :], seg.imag[None, :])
        out = dsp.istft(spec)
        np.testing.assert_allclose(out.samples, np.ones(dsp.WIN_LEN), atol=1e-10)

    @pytest.mark.parametrize("frames,length", [(1, None), (1, 200), (2, None), (9, None),
                                               (9, 1000)])
    def test_matches_per_frame_wola_loop(self, frames, length):
        # reference: overlap-add every windowed frame and its squared window
        # sample by sample, then divide (the same adds in the same order)
        rng = np.random.default_rng(frames)
        spec = dsp.ComplexSpectrum(rng.standard_normal((frames, dsp.NUM_BINS)),
                                   rng.standard_normal((frames, dsp.NUM_BINS)))
        win = dsp.WINDOW
        total = dsp.WIN_LEN + (frames - 1) * dsp.HOP_LEN
        num = np.zeros(total)
        den = np.zeros(total)
        for t in range(frames):
            seg = np.fft.irfft(spec.real[t] + 1j * spec.imag[t], n=dsp.FFT_LEN)[: dsp.WIN_LEN]
            lo = t * dsp.HOP_LEN
            num[lo : lo + dsp.WIN_LEN] += seg * win
            den[lo : lo + dsp.WIN_LEN] += win * win
        ref = (num / np.maximum(den, dsp.OLA_DENOM_FLOOR))[:length]
        assert np.array_equal(dsp.istft(spec, length=length).samples, ref)

    @settings(max_examples=40, deadline=None)
    @given(frames=st.integers(1, 40), seed=st.integers(0, 2**31),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6))
    @example(frames=5, seed=0, sizes=[1])
    @example(frames=33, seed=1, sizes=[32, 1])
    def test_wola_blocks_equal_one_whole_grid_call(self, frames, seed, sizes):
        """WOLA terms cut into blocks, the tail carried from block to block,
        give the hops of one call over the whole grid, bit for bit."""
        segs = np.random.default_rng(seed).standard_normal((3, frames, dsp.WIN_LEN))
        tail, pieces, lo, k = np.zeros((3, dsp.HOP_LEN)), [], 0, 0
        while lo < frames:
            hi = min(lo + sizes[k % len(sizes)], frames)
            hops, tail = dsp.wola(tail, segs[:, lo:hi], first=lo == 0)
            pieces.append(hops)
            lo, k = hi, k + 1
        pieces.append((tail / dsp.OLA_DENOM_LAST)[:, None])
        whole, last = dsp.wola(np.zeros((3, dsp.HOP_LEN)), segs, first=True)
        assert np.array_equal(np.concatenate(pieces, axis=1),
                              np.concatenate([whole, (last / dsp.OLA_DENOM_LAST)[:, None]], axis=1))

    def test_window_constants_read_only(self):
        for const in (dsp.WINDOW, dsp.OLA_DENOM_FIRST, dsp.OLA_DENOM_MIDDLE, dsp.OLA_DENOM_LAST):
            with pytest.raises(ValueError):
                const[0] = 0.0

    def test_compressed_domain_rejected(self):
        spec = dsp.ComplexSpectrum(np.ones((2, 161)), np.zeros((2, 161)))
        with pytest.raises(DomainError):
            dsp.istft(dsp.compress(spec, 0.3))


class TestCompression:
    def test_known_bin(self):
        spec = dsp.ComplexSpectrum(np.full((1, 161), 3.0), np.full((1, 161), 4.0))
        comp = dsp.compress(spec, 0.3)
        mag = comp.magnitude()
        np.testing.assert_allclose(mag, 5.0**0.3, rtol=1e-12)
        phase = np.arctan2(comp.imag, comp.real)
        np.testing.assert_allclose(phase, np.arctan2(4.0, 3.0), rtol=1e-12)

    def test_c_equal_one_is_identity(self):
        rng = np.random.default_rng(3)
        spec = dsp.ComplexSpectrum(rng.standard_normal((5, 161)), rng.standard_normal((5, 161)))
        comp = dsp.compress(spec, 1.0)
        np.testing.assert_allclose(comp.real, spec.real, rtol=1e-12)
        np.testing.assert_allclose(comp.imag, spec.imag, rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        spec = dsp.ComplexSpectrum(rng.standard_normal((6, 161)), rng.standard_normal((6, 161)))
        back = dsp.decompress(dsp.compress(spec, 0.3), 0.3)
        mask = spec.magnitude() > 1e-8
        np.testing.assert_allclose(back.real[mask], spec.real[mask], rtol=1e-6)
        np.testing.assert_allclose(back.imag[mask], spec.imag[mask], rtol=1e-6)

    def test_zero_bins_stay_zero(self):
        spec = dsp.ComplexSpectrum(np.zeros((2, 161)), np.zeros((2, 161)))
        comp = dsp.compress(spec, 0.3)
        assert not comp.real.any() and not comp.imag.any()
        back = dsp.decompress(comp, 0.3)
        assert not back.real.any() and not back.imag.any()

    def test_invalid_exponent(self):
        spec = dsp.ComplexSpectrum(np.ones((1, 161)), np.zeros((1, 161)))
        for c in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidExponentError):
                dsp.compress(spec, c)

    def test_domain_mismatch(self):
        spec = dsp.ComplexSpectrum(np.ones((1, 161)), np.zeros((1, 161)))
        comp = dsp.compress(spec, 0.3)
        with pytest.raises(DomainError):
            dsp.compress(comp, 0.3)
        with pytest.raises(DomainError):
            dsp.decompress(spec, 0.3)
        with pytest.raises(DomainError):
            dsp.decompress(comp, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.05, max_value=1.0))
    def test_phase_preserved_and_magnitude_monotone(self, seed, c):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((3, 161)) * 10
        i = rng.standard_normal((3, 161)) * 10
        spec = dsp.ComplexSpectrum(r, i)
        comp = dsp.compress(spec, c)
        mag = spec.magnitude()
        nz = mag > 1e-6
        phase_in = np.arctan2(i, r)[nz]
        phase_out = np.arctan2(comp.imag, comp.real)[nz]
        np.testing.assert_allclose(phase_out, phase_in, atol=1e-9)
        flat_in = mag[nz].ravel()
        flat_out = comp.magnitude()[nz].ravel()
        order = np.argsort(flat_in)
        assert np.all(np.diff(flat_out[order]) >= -1e-12)
