"""Bundled acceptance checks, runnable from a fresh clone via `fbse selftest`.

Each check returns (name, passed, detail). The pytest acceptance module runs
the same functions so the CLI and the test suite cannot drift apart.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from . import audio_io, dsp, gradcheck, model, streaming, training


def _rand_audio(rng, n, rate=48000):
    return dsp.AudioBuffer(rng.uniform(-0.8, 0.8, n), rate)


def check_extract_interpolate(n_signals=1000, max_len=10000, seed=0):
    """Bit-exact three-way split/interleave round trip on random lengths."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    for _ in range(n_signals):
        n = int(rng.integers(1, max_len + 1))
        x = _rand_audio(rng, n)
        back = dsp.interpolate(dsp.extract(x))
        if back.length != n or not np.array_equal(back.samples, x.samples):
            return False, f"round trip broke at length {n}"
    elapsed = time.perf_counter() - t0
    return elapsed < 5.0, f"{n_signals} signals bit-exact in {elapsed:.2f}s (< 5s)"


def check_stft_istft(n_signals=100, seed=1):
    """Interior reconstruction <= 1e-6 relative; naive-DFT agreement <= 1e-9."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst_rec = 0.0
    for _ in range(n_signals):
        n = int(rng.integers(1600, 6400))
        x = dsp.AudioBuffer(rng.uniform(-1, 1, n), 16000)
        y = dsp.istft(dsp.stft(x), length=n)
        interior = slice(dsp.HOP_LEN, n - dsp.HOP_LEN)
        rel = np.abs(y.samples[interior] - x.samples[interior]) / np.maximum(
            np.abs(x.samples[interior]), 1e-3)
        worst_rec = max(worst_rec, float(rel.max()))
    if worst_rec > 1e-6:
        return False, f"reconstruction relative error {worst_rec:.2e} > 1e-6"
    worst_dft = 0.0
    for _ in range(3):
        x = rng.uniform(-1, 1, 1600)
        spec = dsp.stft(dsp.AudioBuffer(x, 16000))
        k = np.arange(dsp.WIN_LEN)
        for t in range(spec.frames):
            seg = np.zeros(dsp.WIN_LEN)
            chunk = x[t * dsp.HOP_LEN : t * dsp.HOP_LEN + dsp.WIN_LEN]
            seg[: chunk.size] = chunk
            seg = seg * dsp.WINDOW
            for m in (0, 7, 80, 160):
                ref = np.sum(seg * np.exp(-2j * np.pi * m * k / dsp.FFT_LEN))
                worst_dft = max(worst_dft,
                                abs(spec.real[t, m] - ref.real),
                                abs(spec.imag[t, m] - ref.imag))
    elapsed = time.perf_counter() - t0
    ok = worst_dft <= 1e-9 and elapsed < 30.0
    return ok, (f"reconstruction {worst_rec:.2e} (<=1e-6), naive-DFT {worst_dft:.2e} "
                f"(<=1e-9) in {elapsed:.1f}s (< 30s)")


def check_compression(seed=2):
    """Phase preserved exactly, round trip <= 1e-6 relative, zero bins to zero."""
    rng = np.random.default_rng(seed)
    spec = dsp.ComplexSpectrum(rng.standard_normal((20, 161)) * 5,
                               rng.standard_normal((20, 161)) * 5)
    comp = dsp.compress(spec, 0.3)
    nz = spec.magnitude() > 1e-8
    dphase = np.abs(np.angle((comp.real + 1j * comp.imag)[nz]) -
                    np.angle((spec.real + 1j * spec.imag)[nz]))
    if dphase.max() > 1e-10:
        return False, f"phase drift {dphase.max():.2e}"
    back = dsp.decompress(comp, 0.3)
    rel = np.abs(back.real[nz] - spec.real[nz]) / np.maximum(np.abs(spec.real[nz]), 1e-8)
    rel = max(float(rel.max()),
              float((np.abs(back.imag[nz] - spec.imag[nz])
                     / np.maximum(np.abs(spec.imag[nz]), 1e-8)).max()))
    if rel > 1e-6:
        return False, f"round-trip relative error {rel:.2e}"
    zero = dsp.compress(dsp.ComplexSpectrum(np.zeros((3, 161)), np.zeros((3, 161))), 0.3)
    if zero.real.any() or zero.imag.any():
        return False, "zero bins produced nonzero compressed output"
    return True, f"phase {dphase.max():.1e}, round trip {rel:.1e}, zero bins exact"


def check_gradients(n_seeds=20):
    """FD checks for every layer kind and the loss at <= 1e-4 relative."""
    t0 = time.perf_counter()
    results = gradcheck.run_all(seeds=range(n_seeds))
    elapsed = time.perf_counter() - t0
    worst = {}
    for r in results:
        worst[r.name] = max(worst.get(r.name, 0.0), r.max_rel_err)
    bad = [f"{r.name}/seed{r.seed}" for r in results if not r.passed]
    if bad:
        return False, f"failed: {', '.join(bad[:5])}"
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    return elapsed < 300.0, f"{n_seeds} seeds x {len(worst)} checks in {elapsed:.0f}s: {summary}"


def check_causality(n_pairs=50, seed=3):
    """Perturbing input sample s never changes output before s - 1440."""
    rng = np.random.default_rng(seed)
    m = model.Enhancer(model.ModelConfig.tiny(), seed=seed)
    n = 14400
    for trial in range(n_pairs):
        x = _rand_audio(rng, n)
        s = int(rng.integers(2000, n - 100))
        y0 = m.forward(x).samples
        x2 = dsp.AudioBuffer(x.samples.copy(), 48000)
        x2.samples[s] += 0.5
        y1 = m.forward(x2).samples
        changed = np.nonzero(y0 != y1)[0]
        if changed.size and changed[0] < s - dsp.LATENCY_SAMPLES_48K:
            return False, f"trial {trial}: change at {changed[0]} < {s - dsp.LATENCY_SAMPLES_48K}"
    return True, f"{n_pairs} paired passes, no change earlier than s - {dsp.LATENCY_SAMPLES_48K}"


def check_streaming_equivalence(n_signals=10, seconds=3.0, seed=4):
    """Block-wise path equals offline within 1e-5 with the 1440-sample lag."""
    m = model.Enhancer(model.ModelConfig.tiny(), seed=seed)
    worst = 0.0
    for k in range(n_signals):
        rng = np.random.default_rng(seed + k)
        x = _rand_audio(rng, int(seconds * 48000))
        offline = m.forward(x)
        state = streaming.stream_create(m)
        pieces = []
        lag_ok = True
        for lo in range(0, x.length, streaming.BLOCK_SAMPLES):
            pieces.append(streaming.stream_push(state, x.samples[lo : lo + streaming.BLOCK_SAMPLES]))
            lag_ok &= state.samples_out == max(0, state.samples_in - 1440)
        pieces.append(streaming.stream_flush(state))
        streamed = np.concatenate(pieces)
        if streamed.size != offline.length or not lag_ok:
            return False, f"signal {k}: size/lag contract broken"
        worst = max(worst, float(np.max(np.abs(streamed - offline.samples))))
    return worst <= 1e-5, f"{n_signals} x {seconds:.0f}s signals, max |diff| {worst:.2e} (<= 1e-5)"


def check_complexity():
    """Default config inside the published parameter and MAC/s windows."""
    per_module = model.complexity_report(model.ModelConfig.default())
    params = sum(m["params"] for m in per_module.values())
    macs = sum(m["macs_per_frame"] for m in per_module.values()) * model.FRAMES_PER_SECOND
    latency = streaming.LatencyReport().algorithmic_ms
    ok = (25.4e6 <= params <= 34.4e6) and (10.6e9 <= macs <= 14.4e9) and latency == 30.0
    return ok, (f"{params/1e6:.2f}M params in [25.4, 34.4], "
                f"{macs/1e9:.2f}G MAC/s in [10.6, 14.4], latency {latency:.0f}ms == 30ms")


def check_toy_training(steps=300, seed=5):
    """Tiny model (<50k params) overfits one 2s pair by >= 90%; the staged
    schedule reproduces its scripted phase transitions."""
    m = model.Enhancer(model.ModelConfig.tiny(), seed=seed)
    n_params = m.param_count
    if n_params > 50000:
        return False, f"tiny config has {n_params} params > 50000"
    noisy, clean = training.synthetic_pair(seconds=2.0, seed=seed, snr_db=5.0)
    losses = training.overfit_single_pair(m, noisy, clean, steps=steps, lr=3e-3)
    reduction = 1.0 - min(losses) / losses[0]
    if reduction < 0.9:
        return False, f"loss only reduced {reduction:.1%} in {steps} steps"

    state = training.ScheduleState()
    for v in [1.0, 0.9, 0.95, 0.95, 0.95]:
        state = training.schedule_tick(state, v)
    if state.phase != training.PHASE_STAGE2 or abs(state.lr_stage1 - 5e-4) > 1e-12:
        return False, f"schedule failed to freeze stage 1 ({state})"
    for v in [0.8, 0.85, 0.85, 0.85]:
        state = training.schedule_tick(state, v)
    if state.phase != training.PHASE_JOINT:
        return False, f"schedule failed to reach joint phase ({state})"
    return True, (f"{n_params} params, cMSE {losses[0]:.3f} -> {min(losses):.3f} "
                  f"({reduction:.1%} in {steps} steps); schedule phases reproduced")


def check_stage_separability(seed=6):
    """Zeroed stage-2 parameters reproduce the stage-1 pipeline bit-exactly."""
    rng = np.random.default_rng(seed)
    m = model.Enhancer(model.ModelConfig.tiny(), seed=seed)
    m.zero_stage("stage2")
    x = _rand_audio(rng, 2 * 48000)
    two = m.forward(x)
    one = m.stage1_forward(x)
    ok = np.array_equal(two.samples, one.samples)
    return ok, "zeroed stage 2 == stage-1 pipeline, bit-exact" if ok else "outputs differ"


def check_end_to_end_smoke(seed=7):
    """CLI enhance on 10s of 48 kHz audio: equal length, nonzero SDR, RTF < 1."""
    from . import cli

    rng = np.random.default_rng(seed)
    x = _rand_audio(rng, 10 * 48000)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_path = tmp / "tiny.cfg"
        model.save_config(cfg_path, model.ModelConfig.tiny())
        in_path, out_path = tmp / "in.wav", tmp / "out.wav"
        audio_io.write_wav(in_path, x)
        code = cli.main(["enhance", str(in_path), str(out_path),
                         "--config", str(cfg_path), "--seed", str(seed)])
        if code != 0:
            return False, f"enhance exited {code}"
        out = audio_io.read_wav(out_path)
        if out.length != x.length:
            return False, f"length {out.length} != {x.length}"
        score = training.sdr(dsp.AudioBuffer(np.asarray(x.samples, dtype=np.float64), 48000),
                             dsp.AudioBuffer(out.samples, 48000))
        if score == 0.0 or not np.isfinite(score):
            return False, f"degenerate SDR report {score}"
    rep = streaming.measure_rtf(model.Enhancer(model.ModelConfig.tiny(), seed=seed), seconds=2.0)
    ok = rep.rtf < 1.0
    return ok, (f"10s enhanced, SDR(in, out) {score:.2f} dB, "
                f"RTF {rep.rtf:.3f} (< 1) at {rep.per_frame_compute_ms:.2f} ms/frame")


CRITERIA = [
    ("1 extract/interpolate identity", check_extract_interpolate),
    ("2 stft/istft reconstruction + DFT oracle", check_stft_istft),
    ("3 compression phase/round-trip/zero", check_compression),
    ("4 gradient suite (FD, 20 seeds)", check_gradients),
    ("5 full-graph causality", check_causality),
    ("6 streaming/offline equivalence", check_streaming_equivalence),
    ("7 complexity accounting", check_complexity),
    ("8 toy training + schedule", check_toy_training),
    ("9 stage separability", check_stage_separability),
    ("10 end-to-end smoke (enhance, RTF)", check_end_to_end_smoke),
]


def run_all(verbose=False):
    results = []
    for name, fn in CRITERIA:
        passed, detail = fn()
        results.append((name, passed, detail))
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}", flush=True)
    return results
