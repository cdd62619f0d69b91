"""Mono WAV read/write (PCM16 and float32 little-endian RIFF)."""

import numpy as np
from scipy.io import wavfile

from .dsp import AudioBuffer
from .errors import AudioFormatError, InvalidSampleRateError, NonFiniteInputError

PCM16_SCALE = 32768.0


def read_wav(path) -> AudioBuffer:
    """Load a mono PCM16 or float32 WAV into a float64 AudioBuffer.

    PCM16 is scaled by 1/32768; anything multichannel or in another sample
    format is rejected, and so is a float file holding NaN or inf.
    """
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise AudioFormatError(f"{path}: not a readable RIFF/WAV file ({exc})") from exc
    if data.ndim != 1:
        raise AudioFormatError(f"{path}: expected mono, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise AudioFormatError(f"{path}: unsupported sample format {data.dtype}")
    if not np.isfinite(samples).all():
        raise NonFiniteInputError(f"{path}: holds NaN or inf samples")
    try:
        return AudioBuffer(samples, int(rate))
    except InvalidSampleRateError as exc:
        raise InvalidSampleRateError(f"{path}: {exc}") from exc


def write_wav(path, buf: AudioBuffer, fmt: str = "float32") -> None:
    """Write an AudioBuffer as float32 (default) or PCM16 WAV."""
    if fmt == "float32":
        wavfile.write(path, buf.sample_rate, buf.samples.astype(np.float32))
    elif fmt == "pcm16":
        clipped = np.clip(buf.samples, -1.0, 32767.0 / PCM16_SCALE)
        wavfile.write(path, buf.sample_rate, np.round(clipped * PCM16_SCALE).astype(np.int16))
    else:
        raise ValueError(f"unknown wav format {fmt!r}")
