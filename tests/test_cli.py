"""CLI surface: subcommands, exit codes, report formats, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from fbse import audio_io, cli, dsp, model, training
from fbse.errors import FbseError


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    model.save_config(path, model.ModelConfig.tiny())
    return str(path)


@pytest.fixture()
def wav_48k(tmp_path):
    def make(name, samples):
        path = tmp_path / name
        audio_io.write_wav(path, dsp.AudioBuffer(samples, 48000))
        return str(path)

    return make


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnhance:
    def test_zero_wav_gives_zero_wav(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        inp = wav_48k("z.wav", np.zeros(4800))
        out = str(tmp_path / "out.wav")
        code, stdout, _ = run(["enhance", inp, out, "--config", tiny_cfg_path], capsys)
        assert code == 0
        assert not audio_io.read_wav(out).samples.any()

    def test_streaming_matches_offline(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        rng = np.random.default_rng(0)
        inp = wav_48k("x.wav", rng.uniform(-0.5, 0.5, 48000))
        out_a, out_b = str(tmp_path / "a.wav"), str(tmp_path / "b.wav")
        assert run(["enhance", inp, out_a, "--config", tiny_cfg_path], capsys)[0] == 0
        assert run(["enhance", inp, out_b, "--config", tiny_cfg_path, "--streaming"],
                   capsys)[0] == 0
        a = audio_io.read_wav(out_a).samples
        b = audio_io.read_wav(out_b).samples
        assert a.size == b.size
        assert np.max(np.abs(a - b)) <= 1e-5

    def test_json_report(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        inp = wav_48k("x.wav", np.random.default_rng(1).uniform(-0.5, 0.5, 9600))
        out = str(tmp_path / "o.wav")
        code, stdout, _ = run(["enhance", inp, out, "--config", tiny_cfg_path,
                               "--report", "json"], capsys)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["algorithmic_latency_ms"] == 30.0
        assert rep["samples"] == 9600
        assert "per_frame_ms" in rep and "rtf" in rep and "sdr_in_out_db" in rep
        assert rep["peak_rss_mb"] > 0

    def test_non_48k_input_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        path = tmp_path / "w16.wav"
        audio_io.write_wav(path, dsp.AudioBuffer(np.zeros(1600), 16000))
        code, _, err = run(["enhance", str(path), str(tmp_path / "o.wav"),
                            "--config", tiny_cfg_path], capsys)
        assert code == 2

    def test_stereo_input_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        path = tmp_path / "st.wav"
        wavfile.write(path, 48000, np.zeros((100, 2), dtype=np.float32))
        code, _, _ = run(["enhance", str(path), str(tmp_path / "o.wav"),
                          "--config", tiny_cfg_path], capsys)
        assert code == 2

    def test_non_finite_input_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        samples = np.zeros(4800, dtype=np.float32)
        samples[100] = np.inf
        path = tmp_path / "inf.wav"
        wavfile.write(path, 48000, samples)
        code, _, err = run(["enhance", str(path), str(tmp_path / "o.wav"),
                            "--config", tiny_cfg_path], capsys)
        assert code == 2
        assert "NaN or inf" in err and "Traceback" not in err

    def test_corrupt_checkpoint_exits_3(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        inp = wav_48k("x.wav", np.zeros(4800))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code, _, _ = run(["enhance", inp, str(tmp_path / "o.wav"),
                          "--config", tiny_cfg_path, "--checkpoint", str(bad)], capsys)
        assert code == 3

    def test_checkpoint_round_trip(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        m = model.Enhancer(model.ModelConfig.tiny(), seed=9)
        ckpt = tmp_path / "m.ckpt"
        m.store.save(ckpt)
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.5, 0.5, 9600)
        inp = wav_48k("x.wav", x)
        out = str(tmp_path / "o.wav")
        code, _, _ = run(["enhance", inp, out, "--config", tiny_cfg_path,
                          "--checkpoint", str(ckpt), "--seed", "0"], capsys)
        assert code == 0
        direct = m.forward(dsp.AudioBuffer(audio_io.read_wav(inp).samples, 48000))
        np.testing.assert_allclose(audio_io.read_wav(out).samples,
                                   direct.samples, atol=1e-6)

    def test_seed_reproducibility(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        inp = wav_48k("x.wav", np.random.default_rng(3).uniform(-0.5, 0.5, 4800))
        outs = []
        for name in ("a.wav", "b.wav"):
            out = str(tmp_path / name)
            assert run(["enhance", inp, out, "--config", tiny_cfg_path,
                        "--seed", "11"], capsys)[0] == 0
            outs.append(audio_io.read_wav(out).samples)
        assert np.array_equal(outs[0], outs[1])


class TestBadAudioBoundary:
    """Bad input audio exits 2 and an unwritable output exits 1, each with one line."""

    def test_zero_sample_wav_exits_2(self, tiny_cfg_path, wav_48k, tmp_path, capsys):
        inp = wav_48k("empty.wav", np.zeros(0))
        code, _, err = run(["enhance", inp, str(tmp_path / "o.wav"), "--config", tiny_cfg_path],
                           capsys)
        assert code == 2
        assert "no samples" in err and "Traceback" not in err

    def test_zero_sample_wavs_to_sdr_exit_2(self, wav_48k, capsys):
        empty = wav_48k("empty.wav", np.zeros(0))
        code, stdout, err = run(["sdr", empty, empty], capsys)
        assert code == 2 and stdout == ""
        assert "no samples" in err and "Traceback" not in err

    def test_truncated_pcm16_wav_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        path = tmp_path / "cut.wav"
        audio_io.write_wav(path, dsp.AudioBuffer(np.zeros(4800), 48000), fmt="pcm16")
        path.write_bytes(path.read_bytes()[:30])
        code, _, err = run(["enhance", str(path), str(tmp_path / "o.wav"),
                            "--config", tiny_cfg_path], capsys)
        assert code == 2
        assert err.startswith("input error:") and "Traceback" not in err

    def test_output_in_a_missing_directory_exits_1(self, tiny_cfg_path, wav_48k, tmp_path,
                                                   capsys):
        inp = wav_48k("x.wav", np.zeros(4800))
        code, stdout, err = run(["enhance", inp, str(tmp_path / "no" / "o.wav"),
                                 "--config", tiny_cfg_path], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("output error:") and len(err.splitlines()) == 1

    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(0, 44 + 4 * 960),
           edits=st.lists(st.tuples(st.integers(0, 59), st.binary(min_size=1, max_size=4)),
                          max_size=3))
    def test_mutated_wav_exits_0_or_2(self, tiny_cfg_path, tmp_path_factory, cut, edits):
        path = tmp_path_factory.getbasetemp() / "mutated.wav"
        audio_io.write_wav(path, dsp.AudioBuffer(np.full(960, 0.25), 48000))
        raw = bytearray(path.read_bytes())
        for pos, value in edits:
            raw[pos : pos + len(value)] = value
        path.write_bytes(bytes(raw[:cut]))
        try:
            audio_io.read_wav(path)
            readable = True
        except FbseError:
            readable = False
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["enhance", str(path), str(path.with_suffix(".out.wav")),
                             "--config", tiny_cfg_path])
        assert code in ((0, 2) if readable else (2,)), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestAnalyze:
    def test_default_config_totals(self, capsys):
        code, stdout, _ = run(["analyze", "--report", "json"], capsys)
        assert code == 0
        rep = json.loads(stdout)
        assert 25.4e6 <= rep["total_params"] <= 34.4e6
        assert 10.6e9 <= rep["total_macs_per_second"] <= 14.4e9
        assert rep["algorithmic_latency_ms"] == 30.0
        assert set(rep["modules"]) == {"magnitude_tcn", "embedding_unet", "multiband_tcn",
                                       "mask_head", "compensation"}

    def test_text_report(self, tiny_cfg_path, capsys):
        code, stdout, _ = run(["analyze", "--config", tiny_cfg_path], capsys)
        assert code == 0
        assert "total_params" in stdout and "algorithmic_latency_ms: 30.0" in stdout


BAD_CONFIG_LINES = ["unet.channels = 0", "unet.channels = four", "mag_tcn.dilations =",
                    "dtype = banana", "unet.lstm_hidden = -3", "compression = x",
                    "compression = 0", "compression = 1.5", "comp.first_kernel = 2",
                    "band_tcn.dilations = 1,0", "unet.freq_stride = 0"]


class TestMalformedConfig:
    @pytest.mark.parametrize("command", ["analyze", "enhance"])
    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_exits_1_with_a_message(self, command, line, wav_48k, tmp_path, capsys):
        key = line.split("=")[0].strip()
        text = model.config_to_text(model.ModelConfig.tiny())
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(line + "\n" if ln.startswith(key + " ") else ln + "\n"
                               for ln in text.splitlines()))
        assert line in cfg.read_text()
        argv = {"analyze": ["analyze"],
                "enhance": ["enhance", wav_48k("x.wav", np.zeros(4800)), str(tmp_path / "o.wav")]}
        code, stdout, err = run(argv[command] + ["--config", str(cfg)], capsys)
        assert code == 1
        assert key in err and "Traceback" not in err and stdout == ""

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(["analyze", "--config", str(tmp_path / "nope.cfg")], capsys)
        assert code == 1 and "nope.cfg" in err


class TestGradcheckCmd:
    def test_passes_and_prints_table(self, capsys):
        code, stdout, _ = run(["gradcheck", "--seeds", "1", "--report", "json"], capsys)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["passed"] is True
        assert set(rep["checks"]) == {"conv1d", "gconv2d", "gconv2d_k5", "gdeconv2d",
                                      "gdeconv2d_trim", "instance_norm", "lstm", "pointwise",
                                      "cmse_loss"}

    def test_deterministic(self, capsys):
        _, out1, _ = run(["gradcheck", "--seeds", "1", "--report", "json"], capsys)
        _, out2, _ = run(["gradcheck", "--seeds", "1", "--report", "json"], capsys)
        assert out1 == out2


class TestMixAndSdr:
    def test_mix_then_sdr(self, tmp_path, capsys):
        clean = training.synth_speech(0.5, seed=0)
        noise = training.synth_noise(0.5, seed=1)
        cpath, npath = str(tmp_path / "c.wav"), str(tmp_path / "n.wav")
        audio_io.write_wav(cpath, clean)
        audio_io.write_wav(npath, noise)
        noisy_path = str(tmp_path / "noisy.wav")
        code, stdout, _ = run(["mix", cpath, npath, noisy_path, "--snr", "5",
                               "--report", "json"], capsys)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["measured_snr_db"] == pytest.approx(5.0, abs=0.05)

        code, stdout, _ = run(["sdr", cpath, noisy_path, "--report", "json"], capsys)
        assert code == 0
        val = json.loads(stdout)["sdr_db"]
        assert np.isfinite(val) and val != 0.0

    def test_sdr_identical_files_hits_cap(self, tmp_path, capsys):
        x = training.synth_speech(0.2, seed=2)
        p = str(tmp_path / "x.wav")
        audio_io.write_wav(p, x)
        code, stdout, _ = run(["sdr", p, p, "--report", "json"], capsys)
        assert code == 0
        assert json.loads(stdout)["sdr_db"] == training.SDR_CAP_DB

    def test_mix_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["mix", str(tmp_path / "nope.wav"), str(tmp_path / "nope2.wav"),
                          str(tmp_path / "o.wav"), "--snr", "0"], capsys)
        assert code == 2


class TestSelftestCmd:
    def test_exit_codes_track_results(self, capsys, monkeypatch):
        from fbse import selftest

        monkeypatch.setattr(selftest, "CRITERIA", [("stub", lambda: (True, "ok"))])
        assert run(["selftest"], capsys)[0] == 0
        monkeypatch.setattr(selftest, "CRITERIA", [("stub", lambda: (False, "broken"))])
        code, stdout, _ = run(["selftest"], capsys)
        assert code == 4
        assert "FAIL" in stdout


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert run([], capsys)[0] == 1

    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_missing_required_arg_exits_1(self, capsys):
        assert run(["enhance", "only_input.wav"], capsys)[0] == 1
