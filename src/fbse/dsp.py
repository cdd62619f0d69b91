"""Deterministic signal math: polyphase split, STFT/ISTFT, power-law compression.

A 48 kHz signal is split into three interleaved 16 kHz sub-channels
(``sub[j][m] = x[3*m + j]``) and restored by the exact inverse interleave.
Each sub-channel is analyzed with a 20 ms / 10 ms-hop periodic Hamming STFT;
synthesis is weighted overlap-add normalized by the summed squared window, the
least-squares inverse of Griffin & Lim (1984).

This module is the only definition of that framing: :func:`stft`/:func:`istft`,
the block-wise offline forward and the streaming runtime are all built from
:func:`analysis_frames`, :func:`synthesis_frames` and :func:`wola`, the one
overlap-add. A frame spans exactly two hops, so the window-energy denominator
of any output hop is one of three constants (first, middle, last hop), and
the only carried synthesis state is the previous frame's second half.

Complex spectra can be moved between the linear domain and a magnitude-
compressed domain ``|S|^c * exp(i*arg(S))``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptyInputError,
    InvalidExponentError,
    InvalidSampleRateError,
    ShapeMismatchError,
)

FULLBAND_RATE = 48000
SUBBAND_RATE = 16000
NUM_SUBCHANNELS = 3

WIN_LEN = 320          # 20 ms at 16 kHz
HOP_LEN = 160          # 10 ms at 16 kHz
FFT_LEN = 320
NUM_BINS = FFT_LEN // 2 + 1

#: output delay inherent to framing: analysis window + one synthesis hop,
#: expressed in 48 kHz samples (30 ms).
LATENCY_SAMPLES_48K = 3 * (WIN_LEN + HOP_LEN)

ZERO_MAG_FLOOR = 1e-12
OLA_DENOM_FLOOR = 1e-8

#: periodic Hamming analysis/synthesis window (denominator N, not N-1)
WINDOW = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(WIN_LEN) / WIN_LEN)
_WIN_SQ = WINDOW * WINDOW
#: WOLA denominators of the first hop (``w²[:hop]``), a middle hop
#: (``w²[hop:] + w²[:hop]``) and the last hop (``w²[hop:]``) of a frame grid
OLA_DENOM_FIRST = np.maximum(_WIN_SQ[:HOP_LEN], OLA_DENOM_FLOOR)
OLA_DENOM_MIDDLE = np.maximum(_WIN_SQ[HOP_LEN:] + _WIN_SQ[:HOP_LEN], OLA_DENOM_FLOOR)
OLA_DENOM_LAST = np.maximum(_WIN_SQ[HOP_LEN:], OLA_DENOM_FLOOR)
for _const in (WINDOW, OLA_DENOM_FIRST, OLA_DENOM_MIDDLE, OLA_DENOM_LAST):
    _const.flags.writeable = False

LINEAR = "linear"
COMPRESSED = "compressed"


def real_samples(samples) -> np.ndarray:
    """``samples`` as a float64 array; strings, objects and complex values
    raise :class:`~fbse.errors.ShapeMismatchError` instead of being cast."""
    try:
        arr = np.asarray(samples)
    except ValueError as exc:  # ragged nesting
        raise ShapeMismatchError(f"expected real samples: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise ShapeMismatchError(f"expected real samples, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


@dataclass
class AudioBuffer:
    """Mono PCM samples (nominally in [-1, 1]) plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = real_samples(self.samples)
        if self.samples.ndim != 1:
            raise ShapeMismatchError(f"expected mono 1-D samples, got shape {self.samples.shape}")
        if self.sample_rate not in (SUBBAND_RATE, FULLBAND_RATE):
            raise InvalidSampleRateError(f"unsupported sample rate {self.sample_rate}")

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.length / self.sample_rate


@dataclass
class SubChannelBank:
    """Three phase-aligned 16 kHz sub-channels of one 48 kHz signal."""

    channels: tuple
    origin_length: int

    def __post_init__(self):
        if len(self.channels) != NUM_SUBCHANNELS:
            raise ShapeMismatchError(f"expected {NUM_SUBCHANNELS} channels, got {len(self.channels)}")
        lengths = {ch.length for ch in self.channels}
        if len(lengths) != 1:
            raise ShapeMismatchError(f"sub-channel lengths differ: {sorted(lengths)}")
        for ch in self.channels:
            if ch.sample_rate != SUBBAND_RATE:
                raise InvalidSampleRateError("sub-channels must be 16 kHz")

    @property
    def channel_length(self) -> int:
        return self.channels[0].length


@dataclass
class ComplexSpectrum:
    """Frames x bins complex spectrum stored as separate real/imag planes."""

    real: np.ndarray
    imag: np.ndarray
    domain: str = LINEAR
    exponent: float | None = None

    def __post_init__(self):
        self.real = np.asarray(self.real, dtype=np.float64)
        self.imag = np.asarray(self.imag, dtype=np.float64)
        if self.real.shape != self.imag.shape:
            raise ShapeMismatchError(f"real {self.real.shape} vs imag {self.imag.shape}")
        if self.real.ndim != 2 or self.real.shape[1] != NUM_BINS:
            raise ShapeMismatchError(
                f"expected (frames, {NUM_BINS}) planes, got {self.real.shape}")
        if self.domain not in (LINEAR, COMPRESSED):
            raise DomainError(f"unknown domain {self.domain!r}")
        if self.domain == COMPRESSED and self.exponent is None:
            raise DomainError("compressed spectrum needs its exponent")

    @property
    def frames(self) -> int:
        return self.real.shape[0]

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.real * self.real + self.imag * self.imag)


def extract(x: AudioBuffer) -> SubChannelBank:
    """Split a 48 kHz signal into 3 interleaved 16 kHz sub-channels.

    The input is zero-padded to a multiple of 3 so that
    ``channels[j].samples[m] == x.samples[3*m + j]`` holds exactly;
    ``origin_length`` records the pre-padding length so interpolation can
    undo the padding bit-exactly.
    """
    if x.sample_rate != FULLBAND_RATE:
        raise InvalidSampleRateError(f"extract needs 48 kHz input, got {x.sample_rate}")
    n = x.length
    sub_len = -(-n // 3)  # ceil
    padded = np.zeros(3 * sub_len, dtype=np.float64)
    padded[:n] = x.samples
    lanes = padded.reshape(sub_len, 3)
    channels = tuple(
        AudioBuffer(lanes[:, j].copy(), SUBBAND_RATE) for j in range(NUM_SUBCHANNELS)
    )
    return SubChannelBank(channels, origin_length=n)


def interpolate(bank: SubChannelBank) -> AudioBuffer:
    """Re-interleave 3 sub-channels into a 48 kHz signal (exact inverse of extract)."""
    sub_len = bank.channel_length
    out = np.empty((sub_len, 3), dtype=np.float64)
    for j, ch in enumerate(bank.channels):
        out[:, j] = ch.samples
    flat = out.reshape(-1)[: bank.origin_length]
    return AudioBuffer(flat.copy(), FULLBAND_RATE)


def frame_count(n_samples: int) -> int:
    """Number of analysis frames once the tail is zero-padded to the frame grid."""
    if n_samples <= 0:
        raise EmptyInputError("cannot frame an empty signal")
    if n_samples <= WIN_LEN:
        return 1
    return 1 + -(-(n_samples - WIN_LEN) // HOP_LEN)


def analysis_frames(frames: np.ndarray) -> np.ndarray:
    """Windowed rfft of time frames ``[..., WIN_LEN]`` -> complex ``[..., NUM_BINS]``."""
    return np.fft.rfft(frames * WINDOW, n=FFT_LEN, axis=-1)


def synthesis_frames(spec: np.ndarray) -> np.ndarray:
    """irfft, crop and window of spectra ``[..., NUM_BINS]``: the WOLA
    numerator terms ``[..., WIN_LEN]``."""
    return np.fft.irfft(spec, n=FFT_LEN, axis=-1)[..., :WIN_LEN] * WINDOW


def frame_view(signals: np.ndarray) -> np.ndarray:
    """Signals ``[..., n]`` zero-padded to whole frames, as a strided ``[...,
    frames, WIN_LEN]`` view whose frame ``t`` is samples ``[t*hop, t*hop + win)``."""
    n = signals.shape[-1]
    sig = np.zeros(signals.shape[:-1] + (WIN_LEN + (frame_count(n) - 1) * HOP_LEN,))
    sig[..., :n] = signals
    return np.lib.stride_tricks.sliding_window_view(sig, WIN_LEN, axis=-1)[..., ::HOP_LEN, :]


def wola(tail: np.ndarray, segs: np.ndarray, first=False):
    """Overlap-add the WOLA terms ``segs`` ``[..., n, WIN_LEN]`` onto ``tail``,
    the second half of the frame before them. Returns the ``n`` completed hops,
    each divided by the middle-hop denominator (hop 0 by the first-hop one if
    ``first``), and the new tail; the grid's last hop is ``tail / OLA_DENOM_LAST``."""
    num = segs[..., :HOP_LEN] + np.concatenate([tail[..., None, :], segs[..., :-1, HOP_LEN:]], -2)
    hops = num / OLA_DENOM_MIDDLE
    if first:
        hops[..., 0, :] = num[..., 0, :] / OLA_DENOM_FIRST
    return hops, segs[..., -1, HOP_LEN:]


def stft(x: AudioBuffer) -> ComplexSpectrum:
    """Hamming-window short-time transform of a 16 kHz signal.

    The frames are those of :func:`frame_view`.
    """
    if x.sample_rate != SUBBAND_RATE:
        raise InvalidSampleRateError(f"stft needs 16 kHz input, got {x.sample_rate}")
    if x.length == 0:
        raise EmptyInputError("stft of empty signal")
    spec = analysis_frames(frame_view(x.samples))
    return ComplexSpectrum(spec.real.copy(), spec.imag.copy(), LINEAR)


def istft(spec: ComplexSpectrum, length: int | None = None) -> AudioBuffer:
    """Weighted overlap-add synthesis normalized by the window energy.

    Hop ``k`` of the output is frame ``k-1``'s second half plus frame ``k``'s
    first half, divided by the first/middle/last-hop denominator. Returns the
    full frame-grid signal unless ``length`` truncates it.
    """
    if spec.domain != LINEAR:
        raise DomainError("istft needs a linear-domain spectrum; decompress first")
    hops, tail = wola(np.zeros(HOP_LEN), synthesis_frames(spec.real + 1j * spec.imag), first=True)
    out = np.concatenate([hops.reshape(-1), tail / OLA_DENOM_LAST])
    if length is not None:
        out = out[:length]
    return AudioBuffer(out, SUBBAND_RATE)


def compressed_planes(real, imag, c):
    """Return (real, imag) scaled so magnitude becomes |.|**c, phase kept."""
    mag = np.sqrt(real * real + imag * imag)
    scale = np.zeros_like(mag)
    nz = mag > ZERO_MAG_FLOOR
    scale[nz] = mag[nz] ** (c - 1.0)
    return real * scale, imag * scale


def compress(spec: ComplexSpectrum, c: float) -> ComplexSpectrum:
    """Power-law compress a linear spectrum: magnitude -> magnitude**c.

    Phase is preserved exactly; bins with magnitude below ``ZERO_MAG_FLOOR``
    map to exactly zero (avoids the 0/0 in the phase-keeping ratio).
    """
    if not 0.0 < c <= 1.0:
        raise InvalidExponentError(f"compression exponent must be in (0, 1], got {c}")
    if spec.domain != LINEAR:
        raise DomainError("compress expects a linear-domain spectrum")
    r, i = compressed_planes(spec.real, spec.imag, c)
    return ComplexSpectrum(r, i, COMPRESSED, exponent=c)


def decompress(spec: ComplexSpectrum, c: float) -> ComplexSpectrum:
    """Inverse of :func:`compress`: magnitude -> magnitude**(1/c)."""
    if not 0.0 < c <= 1.0:
        raise InvalidExponentError(f"compression exponent must be in (0, 1], got {c}")
    if spec.domain != COMPRESSED:
        raise DomainError("decompress expects a compressed-domain spectrum")
    if spec.exponent is not None and abs(spec.exponent - c) > 1e-12:
        raise DomainError(f"spectrum was compressed with c={spec.exponent}, asked to invert c={c}")
    r, i = compressed_planes(spec.real, spec.imag, 1.0 / c)
    return ComplexSpectrum(r, i, LINEAR)
