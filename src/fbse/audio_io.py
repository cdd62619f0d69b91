"""Mono WAV read/write: little-endian RIFF parsed and emitted with ``struct``.

Read: PCM16, IEEE float32 and IEEE float64, each also inside
``WAVE_FORMAT_EXTENSIBLE``. Write: PCM16 or float32 behind a 44-byte header.
"""

import struct

import numpy as np

from .dsp import AudioBuffer
from .errors import AudioFormatError, InvalidSampleRateError, NonFiniteInputError

PCM16_SCALE = 32768.0

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 2..15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0..1 hold the format tag
_SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> little-endian sample dtype
_SAMPLE_DTYPES = {
    (WAVE_FORMAT_PCM, 16): np.dtype("<i2"),
    (WAVE_FORMAT_IEEE_FLOAT, 32): np.dtype("<f4"),
    (WAVE_FORMAT_IEEE_FLOAT, 64): np.dtype("<f8"),
}
_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")        # tag, channels, rate, byte rate, block align, bits
_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
_MAX_RIFF_SIZE = 0xFFFFFFFF


def _chunks(view: memoryview):
    """(id, body) of each chunk after the ``WAVE`` tag, bodies as views of ``view``."""
    pos = 12
    while pos + _CHUNK.size <= len(view):
        cid, size = _CHUNK.unpack_from(view, pos)
        start = pos + _CHUNK.size
        if start + size > len(view):
            raise AudioFormatError(f"{cid!r} chunk of {size} bytes runs past the end of the file")
        yield cid, view[start : start + size]
        pos = start + size + (size & 1)            # odd-sized chunks are padded to even


def _parse_fmt(fmt: memoryview):
    """(sample rate, sample dtype) of a ``fmt `` chunk body, checked for mono and alignment."""
    if len(fmt) < _FMT.size:
        raise AudioFormatError(f"fmt chunk of {len(fmt)} bytes, need at least {_FMT.size}")
    tag, channels, rate, _, block_align, bits = _FMT.unpack_from(fmt)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40 or bytes(fmt[26:40]) != _SUBFORMAT_TAIL:
            raise AudioFormatError("WAVE_FORMAT_EXTENSIBLE fmt chunk without a known subformat")
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if channels != 1:
        raise AudioFormatError(f"expected mono, got {channels} channels")
    dtype = _SAMPLE_DTYPES.get((tag, bits))
    if dtype is None:
        raise AudioFormatError(f"unsupported sample format: tag {tag:#06x}, {bits} bits; "
                               "accepted are PCM16, float32 and float64")
    if block_align != dtype.itemsize:
        raise AudioFormatError(f"block_align {block_align} does not match {bits}-bit mono")
    return rate, dtype


def _parse(raw: bytes):
    """(sample rate, samples as a read-only view of ``raw``) of a mono RIFF/WAVE file."""
    view = memoryview(raw)
    magic = bytes(view[:4])
    if magic in (b"RIFX", b"RF64"):
        raise AudioFormatError(f"{magic.decode()} files are not supported, only little-endian RIFF")
    if magic != b"RIFF" or bytes(view[8:12]) != b"WAVE":
        raise AudioFormatError("not a RIFF/WAVE file")
    fmt = data = None
    for cid, body in _chunks(view):
        if cid == b"fmt " and fmt is None:
            fmt = body
        elif cid == b"data" and data is None:
            data = body
        if fmt is not None and data is not None:
            break
    if fmt is None or data is None:
        raise AudioFormatError(f"no {'fmt' if fmt is None else 'data'} chunk")
    rate, dtype = _parse_fmt(fmt)
    if len(data) % dtype.itemsize:
        raise AudioFormatError(f"data chunk of {len(data)} bytes is not whole "
                               f"{dtype.itemsize}-byte samples")
    return rate, np.frombuffer(data, dtype=dtype)


def read_wav(path) -> AudioBuffer:
    """Load a mono PCM16, float32 or float64 WAV into a float64 AudioBuffer.

    PCM16 is scaled by 1/32768. Any other layout, a chunk that runs past the
    end of the file (a truncated file included) or a float file holding NaN
    or inf raises a :class:`~fbse.errors.FbseError`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        rate, data = _parse(raw)
    except AudioFormatError as exc:
        raise AudioFormatError(f"{path}: {exc}") from None
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise NonFiniteInputError(f"{path}: holds NaN or inf samples")
    samples = data.astype(np.float64)
    if data.dtype.kind == "i":
        samples /= PCM16_SCALE
    try:
        return AudioBuffer(samples, rate)
    except InvalidSampleRateError as exc:
        raise InvalidSampleRateError(f"{path}: {exc}") from exc


def write_wav(path, buf: AudioBuffer, fmt: str = "float32") -> None:
    """Write an AudioBuffer as float32 (default) or PCM16 WAV behind a 44-byte header."""
    if fmt == "float32":
        tag, data = WAVE_FORMAT_IEEE_FLOAT, buf.samples.astype("<f4")
    elif fmt == "pcm16":
        scaled = buf.samples * PCM16_SCALE
        np.clip(scaled, -PCM16_SCALE, PCM16_SCALE - 1, out=scaled)
        tag, data = WAVE_FORMAT_PCM, np.rint(scaled, out=scaled).astype("<i2")
    else:
        raise ValueError(f"unknown wav format {fmt!r}")
    riff_size = _HEADER.size - 8 + data.nbytes
    if riff_size > _MAX_RIFF_SIZE:
        raise AudioFormatError(f"{path}: {data.nbytes} bytes of samples exceed a RIFF file")
    width = data.itemsize
    header = _HEADER.pack(b"RIFF", riff_size, b"WAVE", b"fmt ", _FMT.size, tag, 1,
                          buf.sample_rate, buf.sample_rate * width, width, 8 * width,
                          b"data", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
