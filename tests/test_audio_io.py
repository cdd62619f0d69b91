"""WAV reader/writer round trips, format rejection and boundary fuzz.

scipy's ``wavfile`` is the reference writer and reader here; fbse itself
never imports scipy.
"""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import fbse
from fbse import audio_io
from fbse.dsp import AudioBuffer
from fbse.errors import AudioFormatError, FbseError, InvalidSampleRateError, NonFiniteInputError


def test_float32_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-1, 1, 4800), 48000)
    path = tmp_path / "a.wav"
    audio_io.write_wav(path, buf, fmt="float32")
    back = audio_io.read_wav(path)
    assert back.sample_rate == 48000
    np.testing.assert_allclose(back.samples, buf.samples, atol=1e-7)


def test_pcm16_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    buf = AudioBuffer(rng.uniform(-0.9, 0.9, 1600), 16000)
    path = tmp_path / "b.wav"
    audio_io.write_wav(path, buf, fmt="pcm16")
    back = audio_io.read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.samples, buf.samples, atol=1.0 / 32768)


def test_multichannel_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 48000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(AudioFormatError):
        audio_io.read_wav(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 48000, np.zeros(100, dtype=np.uint8))
    with pytest.raises(AudioFormatError):
        audio_io.read_wav(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not RIFF data")
    with pytest.raises(AudioFormatError):
        audio_io.read_wav(path)


def test_odd_sample_rate_rejected(tmp_path):
    path = tmp_path / "odd.wav"
    wavfile.write(path, 44100, np.zeros(100, dtype=np.float32))
    with pytest.raises(InvalidSampleRateError):
        audio_io.read_wav(path)


# -- hand-built RIFF files ---------------------------------------------------

KSDATAFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(cid: bytes, body: bytes, size=None) -> bytes:
    """One RIFF chunk, padded to even length; ``size`` overrides the size field."""
    size = len(body) if size is None else size
    return cid + struct.pack("<I", size) + body + b"\x00" * (len(body) & 1)


def fmt_body(tag=1, channels=1, rate=48000, bits=16, block_align=None, sub_tag=None):
    block_align = channels * bits // 8 if block_align is None else block_align
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, bits)
    if sub_tag is not None:
        body += struct.pack("<HHI", 22, bits, 0x4) + struct.pack("<H", sub_tag) + KSDATAFORMAT_TAIL
    return body


def riff(*chunks: bytes, magic=b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


PCM = np.array([0, 1, -1, 32767, -32768, 12345], dtype="<i2")


def read_bytes(tmp_path, raw: bytes):
    path = tmp_path / "x.wav"
    path.write_bytes(raw)
    return audio_io.read_wav(path)


class TestRiffParser:
    def test_writer_emits_a_44_byte_header(self, tmp_path):
        path = tmp_path / "w.wav"
        for fmt, width in (("float32", 4), ("pcm16", 2)):
            audio_io.write_wav(path, AudioBuffer(np.zeros(7), 48000), fmt=fmt)
            assert path.stat().st_size == 44 + 7 * width

    def test_writer_refuses_more_samples_than_a_riff_size_field_holds(self, tmp_path,
                                                                      monkeypatch):
        monkeypatch.setattr(audio_io, "_MAX_RIFF_SIZE", 36 + 4 * 99)
        with pytest.raises(AudioFormatError):
            audio_io.write_wav(tmp_path / "w.wav", AudioBuffer(np.zeros(100), 48000))

    def test_unknown_and_odd_sized_chunks_are_skipped(self, tmp_path):
        raw = riff(chunk(b"LIST", b"abc"), chunk(b"fmt ", fmt_body()), chunk(b"junk", b"x"),
                   chunk(b"data", PCM.tobytes()), chunk(b"tail", b"12345"))
        back = read_bytes(tmp_path, raw)
        assert np.array_equal(back.samples, PCM / 32768.0)

    def test_data_before_fmt(self, tmp_path):
        back = read_bytes(tmp_path, riff(chunk(b"data", PCM.tobytes()), chunk(b"fmt ", fmt_body())))
        assert np.array_equal(back.samples, PCM / 32768.0)

    @pytest.mark.parametrize("sub_tag,bits,dtype", [(1, 16, "<i2"), (3, 32, "<f4"), (3, 64, "<f8")])
    def test_extensible_subformats(self, tmp_path, sub_tag, bits, dtype):
        x = np.array([0.5, -0.25, 0.125]).astype(dtype)
        raw = riff(chunk(b"fmt ", fmt_body(0xFFFE, bits=bits, sub_tag=sub_tag)),
                   chunk(b"data", x.tobytes()))
        scale = 32768.0 if sub_tag == 1 else 1.0
        assert np.array_equal(read_bytes(tmp_path, raw).samples, x.astype(np.float64) / scale)

    def test_zero_samples_read_as_an_empty_buffer(self, tmp_path):
        back = read_bytes(tmp_path, riff(chunk(b"fmt ", fmt_body()), chunk(b"data", b"")))
        assert back.length == 0 and back.sample_rate == 48000

    @pytest.mark.parametrize("raw", [
        pytest.param(b"", id="empty-file"),
        pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"data", b""), magic=b"RIFX"),
                     id="rifx"),
        pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"data", b""), magic=b"RF64"),
                     id="rf64"),
        pytest.param(riff(chunk(b"data", PCM.tobytes())), id="no-fmt"),
        pytest.param(riff(chunk(b"fmt ", fmt_body())), id="no-data"),
        pytest.param(riff(chunk(b"fmt ", fmt_body()[:14]), chunk(b"data", b"")), id="short-fmt"),
        # scipy read a data chunk cut short by the end of the file; fbse refuses it
        pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"data", PCM.tobytes()))[:-2],
                     id="truncated-data"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(), size=1000)), id="fmt-past-end"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(block_align=4)), chunk(b"data", PCM.tobytes())),
                     id="block-align"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(bits=24)), chunk(b"data", b"\x00" * 6)), id="pcm24"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(tag=3, bits=16)), chunk(b"data", b"")),
                     id="float16"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(tag=6, bits=8)), chunk(b"data", b"")), id="a-law"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(channels=0)), chunk(b"data", b"")),
                     id="zero-channels"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(channels=2, block_align=2)),
                          chunk(b"data", PCM.tobytes())), id="stereo-with-mono-block-align"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(0xFFFE, sub_tag=1)[:30]), chunk(b"data", b"")),
                     id="short-extensible"),
        pytest.param(riff(chunk(b"fmt ", fmt_body(0xFFFE, sub_tag=2)), chunk(b"data", b"")),
                     id="extensible-adpcm"),
        pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"data", b"\x00" * 3)),
                     id="partial-sample"),
    ])
    def test_malformed_files_raise_audio_format_error(self, tmp_path, raw):
        with pytest.raises(AudioFormatError):
            read_bytes(tmp_path, raw)

    def test_non_finite_float64_rejected(self, tmp_path):
        x = np.array([0.0, np.nan], dtype="<f8")
        raw = riff(chunk(b"fmt ", fmt_body(tag=3, bits=64)), chunk(b"data", x.tobytes()))
        with pytest.raises(NonFiniteInputError):
            read_bytes(tmp_path, raw)


# -- fuzz --------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wavfuzz")


@pytest.fixture(scope="module")
def valid_wavs(fuzz_dir):
    """A valid PCM16 and a valid float32 file, as fbse and as scipy write them."""
    x = np.random.default_rng(0).uniform(-0.5, 0.5, 40)
    out, path = [], fuzz_dir / "valid.wav"
    for fmt in ("pcm16", "float32"):
        audio_io.write_wav(path, AudioBuffer(x, 48000), fmt=fmt)
        out.append(path.read_bytes())
    for data in (np.round(x * 32767).astype(np.int16), x.astype(np.float32)):
        wavfile.write(path, 48000, data)
        out.append(path.read_bytes())
    return out


def _loads_or_raises_fbse_error(path):
    try:
        audio_io.read_wav(path)
    except FbseError:
        pass


class TestWavFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=200)
           | st.binary(max_size=80).map(lambda b: b"RIFF" + b[:4] + b"WAVE" + b[4:]))
    def test_any_bytes_load_or_raise_fbse_error(self, fuzz_dir, raw):
        path = fuzz_dir / "bytes.wav"
        path.write_bytes(raw)
        _loads_or_raises_fbse_error(path)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_mutation_of_a_valid_wav_loads_or_raises_fbse_error(self, fuzz_dir, valid_wavs,
                                                                       data):
        raw = bytearray(data.draw(st.sampled_from(valid_wavs)))
        for pos, value in data.draw(st.lists(st.tuples(st.integers(0, 63), st.binary(min_size=1,
                                                                                    max_size=4)),
                                             max_size=3)):
            raw[pos : pos + len(value)] = value
        raw = raw[: data.draw(st.integers(0, len(raw)))]
        path = fuzz_dir / "mutated.wav"
        path.write_bytes(bytes(raw))
        _loads_or_raises_fbse_error(path)

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from(["int16", "float32", "float64"]),
           rate=st.sampled_from([16000, 48000]), seed=st.integers(0, 2**31), n=st.integers(0, 300))
    def test_scipy_written_files_read_bit_exact(self, fuzz_dir, dtype, rate, seed, n):
        rng = np.random.default_rng(seed)
        if dtype == "int16":
            data = rng.integers(-32768, 32768, n).astype(np.int16)
            expected = data / 32768.0
        else:
            data = rng.standard_normal(n).astype(dtype)
            expected = data.astype(np.float64)
        path = fuzz_dir / "scipy.wav"
        wavfile.write(path, rate, data)
        back = audio_io.read_wav(path)
        assert back.sample_rate == rate
        assert back.samples.dtype == np.float64 and np.array_equal(back.samples, expected)

    @settings(max_examples=60, deadline=None)
    @given(fmt=st.sampled_from(["pcm16", "float32"]), rate=st.sampled_from([16000, 48000]),
           seed=st.integers(0, 2**31), n=st.integers(0, 300))
    def test_scipy_reads_fbse_files_bit_exact(self, fuzz_dir, fmt, rate, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.2, 1.2, n)
        if fmt == "pcm16":
            expected = np.round(np.clip(x, -1.0, 32767 / 32768) * 32768).astype(np.int16)
        else:
            expected = x.astype(np.float32)
        path = fuzz_dir / "fbse.wav"
        audio_io.write_wav(path, AudioBuffer(x, rate), fmt=fmt)
        got_rate, got = wavfile.read(path)
        assert got_rate == rate
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fbse.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fbse.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
