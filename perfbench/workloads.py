"""The four workloads: seeded inputs, timed phase, correctness gate, traced phase.

Every workload builds its inputs from the run's seed with the repository's
own generators (``training.synth_speech``, ``synth_noise``, ``mix_at_snr`` at
a seeded SNR) and hands the program only the generated audio. One thread
generates and drives the load.

``latency`` is the wall time of the workload's unit of work:

* ``stream-default``: one ``stream_push`` call (closed loop);
* ``stream-tiny-rt``: one block, from the time it was due to the return of
  its push (open loop, one 10 ms block due every 40 ms);
* ``offline-default``: one file, read to write, per 10 ms of its audio. Each
  of the three clips is first reduced to the median of its runs, so the
  figures do not depend on how many times each clip fitted in the run; p50
  is then the middle clip and the tail the slowest;
* ``train-tiny``: one ``training_step``.

``rtf`` is the wall time spent in that work divided by the audio duration
it covered. For offline-default that is one job of the three clips, each at
its median wall time, and 1 / x-realtime.

The tail is the p75 of the streaming and training workloads, fixed so that
a faster commit, with more samples, is compared like with like. Higher
percentiles have ten samples beyond them too, but on a shared 2-core host
their run-to-run spread was 0.12-0.4 (p90) and 0.5-4.9 (p99) against 0.05-0.1
for p75; they are recorded in the report.
"""

import gc
import math
import os
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from fbse import audio_io, dsp, model, streaming, training
from instrument import FbseTracer

TOLERANCE = 1e-5                      # acceptance criterion 6, streaming vs offline
BLOCK = streaming.BLOCK_SAMPLES       # 480 samples = 10 ms at 48 kHz
LATENCY = streaming.LATENCY_SAMPLES   # 1440 samples = 30 ms
RATE = dsp.FULLBAND_RATE
HOP_S = BLOCK / RATE
DEADLINE_S = HOP_S
# Offered load of the open loop: one block every 40 ms, a quarter of the
# real-time rate. A tiny push took 6 ms on a quiet shared 2-core host and up
# to 16 ms when neighbours loaded it; at 10 or 20 ms per block the queue
# behind those slow phases spread hop latency by 100-150 % between runs.
OPEN_LOOP_PERIOD_S = 0.040
TAIL_PCT = 75.0
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LR = 3e-3                             # as in training.overfit_single_pair
WARMUP_PUSHES = 5
MAX_FAILURE_NOTES = 5


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)     # check name -> [passed, failed]
    failures: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    tracer: object = None

    def check(self, name, ok, note=""):
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
        if not ok and len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{name}: {note}")
        return ok

    def op(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def tail(values, pct):
    """``pct`` percentile, or the highest rung of LADDER below it that still
    has at least ten samples beyond it; the maximum when none has."""
    n = len(values)
    for p in (pct,) + tuple(r for r in LADDER if r < pct):
        if n * (1.0 - p / 100.0) >= 10.0:
            return float(np.percentile(values, p)), p
    return float(max(values)), 100.0


def timing_summary(res, values_s, pct):
    vals = [1e3 * v for v in values_s]
    res.e2e["latency_p50_ms"] = statistics.median(vals)
    res.e2e["latency_tail_ms"], used = tail(vals, pct)
    res.detail["latency"] = {"samples": len(vals), "tail_percentile": used,
                             "min_ms": min(vals), "max_ms": max(vals),
                             "percentiles_ms": {p: float(np.percentile(vals, p)) for p in LADDER
                                                if len(vals) * (1.0 - p / 100.0) >= 10.0}}


def mixture(seed, n_samples, rng):
    """Speech plus noise at a seeded SNR, exactly ``n_samples`` long."""
    seconds = n_samples / RATE + 0.01
    speech = training.synth_speech(seconds, seed=seed)
    noise = training.synth_noise(seconds, seed=seed + 1)
    noisy, _ = training.mix_at_snr(speech, noise, float(rng.uniform(0.0, 15.0)), rng)
    return noisy.samples[:n_samples].copy()


def build(cfg, seed, reps, make_extra):
    """Construct the model (plus the workload's own set-up) ``reps`` times;
    returns the last model, its extra object and every set-up time."""
    times = []
    m = extra = None
    for _ in range(reps):
        m = extra = None                 # free the previous model before timing the next
        gc.collect()
        t0 = perf_counter()
        m = model.Enhancer(cfg, seed=seed)
        extra = make_extra(m)
        times.append(perf_counter() - t0)
    return m, extra, times


def peak_rss_mb():
    """Peak resident memory of this process so far.

    Read right after the timed phase: the correctness gate's offline pass
    grows with the audio a faster program streams, and must not count.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failure_note():
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# streaming


@dataclass
class Push:
    due: float
    sent: float
    done: float
    n_in: int
    out: np.ndarray = None
    error: str = None


def _push(state, block, due):
    sent = perf_counter()
    try:
        out = streaming.stream_push(state, block)
        err = None
    except Exception:   # a failed push is counted, and the stream goes on
        out, err = None, failure_note()
    return Push(due, sent, perf_counter(), block.size, out, err)


def closed_loop(state, x, seconds, partial):
    """Push whole blocks back to back for ``seconds`` (or until ``x`` runs
    out), then one ``partial``-sample block."""
    pushes = []
    pos = 0
    t_end = perf_counter() + seconds
    while perf_counter() < t_end and pos + BLOCK + partial <= x.size:
        pushes.append(_push(state, x[pos : pos + BLOCK], perf_counter()))
        pos += BLOCK
    pushes.append(_push(state, x[pos : pos + partial], perf_counter()))
    return pushes, pos + partial


def open_loop(state, x):
    """One block due every OPEN_LOOP_PERIOD_S, whether or not the last push returned.

    The generator busy-waits for each due time: after sleeping, the next
    push was about 5 % slower at p50 and 20 % at p90 on a shared 2-core host,
    a cost of the host's scheduler rather than of the program.
    """
    pushes = []
    t0 = perf_counter() + 0.01
    for k, lo in enumerate(range(0, x.size, BLOCK)):
        due = t0 + k * OPEN_LOOP_PERIOD_S
        while perf_counter() < due:
            pass
        pushes.append(_push(state, x[lo : lo + BLOCK], due))
    return pushes


def flush(state):
    t0 = perf_counter()
    try:
        out, err = streaming.stream_flush(state), None
    except Exception:
        out, err = None, failure_note()
    return Push(t0, t0, perf_counter(), 0, out, err)


def check_stream(res, m, pushes, x):
    """Per push: exact 1440-sample latency schedule, finite samples, and
    equality with ``Enhancer.forward`` on the same input within 1e-5.
    The flush completes the output to the input length."""
    ref = m.forward(dsp.AudioBuffer(x, RATE)).samples
    ref_ok = res.check("forward_length", ref.size == x.size, f"{ref.size} vs {x.size}")
    n_in = n_out = 0
    for k, p in enumerate(pushes):
        is_flush = k == len(pushes) - 1
        n_in += p.n_in
        ok = res.check("no_exception", p.error is None, p.error)
        if ok:
            lo, n_out = n_out, n_out + p.out.size
            want = n_in if is_flush else max(0, n_in - LATENCY)
            ok &= res.check("flush_length" if is_flush else "latency_1440",
                            n_out == want, f"op {k}: {n_out} out after {n_in} in, want {want}")
            ok &= res.check("finite", bool(np.all(np.isfinite(p.out))), f"op {k}")
            if n_out <= ref.size:
                err = float(np.max(np.abs(p.out - ref[lo:n_out]), initial=0.0))
                ok &= res.check("equals_forward", err <= TOLERANCE, f"op {k}: max |diff| {err:.3g}")
            else:
                ok &= res.check("equals_forward", False, f"op {k}: output beyond forward's")
        res.op(ok and ref_ok)


def push_walls(state, x, n, tracer=None):
    """Wall time of each of ``n`` back-to-back pushes of ``x``'s first blocks."""
    walls = []
    for k in range(n):
        if tracer is not None:
            tracer.op = k
        t0 = perf_counter()
        streaming.stream_push(state, x[k * BLOCK : (k + 1) * BLOCK])
        walls.append(perf_counter() - t0)
    return walls


def traced_stream(cfg, seed, x, n_pushes, untraced_walls):
    with FbseTracer().install() as tr:
        m = model.Enhancer(cfg, seed=seed)
        tr.add_model(m)
        state = streaming.stream_create(m)
        tr.start_ops()
        walls = push_walls(state, x, n_pushes, tr)
    per = tr.per_layer(n_pushes, "model.Enhancer.stream_step")
    per["trace.overhead"] = sum(walls) / sum(untraced_walls)
    return per, tr


def _stream_workload(cfg, seed, seconds, trace, open_rt, setup_reps, traced_pushes):
    rng = np.random.default_rng(seed)
    partial = int(rng.integers(1, BLOCK))
    if open_rt:
        x = mixture(seed, int(round(seconds / OPEN_LOOP_PERIOD_S)) * BLOCK + partial, rng)
    else:   # enough audio for a stream that runs up to twice faster than real time
        x = mixture(seed, int(2 * seconds * RATE) + BLOCK + partial, rng)
    m, state, setup = build(cfg, seed, setup_reps, streaming.stream_create)
    warm = streaming.stream_create(m)       # first calls fault in fresh memory
    for lo in range(0, WARMUP_PUSHES * BLOCK, BLOCK):
        streaming.stream_push(warm, x[lo : lo + BLOCK])
    del warm
    if open_rt:
        pushes, used = open_loop(state, x), x.size
    else:
        pushes, used = closed_loop(state, x, seconds, partial)
    pushes.append(flush(state))
    frames = state.frames_done

    res = Result()
    res.e2e["peak_rss_mb"] = peak_rss_mb()
    timed = pushes[:-1]
    walls = [p.done - p.sent for p in timed]
    res.e2e["setup_s"] = statistics.median(setup)
    timing_summary(res, [p.done - p.due for p in timed], TAIL_PCT)
    res.e2e["rtf"] = sum(walls) / (used / RATE)
    lags = [1e3 * (p.sent - p.due) for p in timed]
    res.detail.update(audio_s=used / RATE, pushes=len(timed), setup_reps=setup,
                      push_wall_p50_ms=1e3 * statistics.median(walls))
    check_stream(res, m, pushes, x[:used])
    if trace:
        untraced = push_walls(streaming.stream_create(m), x, traced_pushes)
        del m, state
        res.per_layer, res.tracer = traced_stream(cfg, seed, x, traced_pushes, untraced)
        res.per_layer["streaming.frames"] = frames
        res.per_layer["streaming.deadline_misses"] = sum(w > DEADLINE_S for w in walls)
        res.per_layer["bench.generator_lag_tail_ms"] = tail(lags, TAIL_PCT)[0] if open_rt else 0.0
    return res


def stream_default(seed, seconds, trace, out_dir):
    return _stream_workload(model.ModelConfig.default(), seed, seconds, trace, open_rt=False,
                            setup_reps=5, traced_pushes=30)


def stream_tiny_rt(seed, seconds, trace, out_dir):
    return _stream_workload(model.ModelConfig.tiny(), seed, seconds, trace, open_rt=True,
                            setup_reps=51, traced_pushes=100)


# ---------------------------------------------------------------------------
# offline, file to file


def _enhance_file(m, src, dst):
    audio = audio_io.read_wav(src)
    out = m.forward(audio)
    audio_io.write_wav(dst, out)
    return out


def offline_default(seed, seconds, trace, out_dir):
    rng = np.random.default_rng(seed)
    work = os.path.join(out_dir, "offline")
    os.makedirs(work, exist_ok=True)
    lengths, src, dst = [], [], []
    for k in range(3):      # about 1.0, 2.2 and 3.4 s; no length is a multiple of 3
        n = int((1.0 + 1.2 * k + rng.uniform(0.0, 0.1)) * RATE)
        n += 1 if n % 3 == 0 else 0
        src.append(os.path.join(work, f"in{k}.wav"))
        dst.append(os.path.join(work, f"out{k}.wav"))
        audio_io.write_wav(src[-1], dsp.AudioBuffer(mixture(int(rng.integers(2**31)), n, rng), RATE))
        lengths.append(audio_io.read_wav(src[-1]).length)
    m, _, setup = build(model.ModelConfig.default(), seed, 5, lambda m: None)
    _enhance_file(m, src[0], dst[0])        # warm-up: first calls fault in fresh memory

    files = []      # (clip, wall s, output or None, error)
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or len(files) < len(src):
        k = len(files) % len(src)
        t0 = perf_counter()
        try:
            out, err = _enhance_file(m, src[k], dst[k]), None
        except Exception:
            out, err = None, failure_note()
        files.append((k, perf_counter() - t0, out, err))

    res = Result()
    res.e2e["peak_rss_mb"] = peak_rss_mb()
    res.e2e["setup_s"] = statistics.median(setup)
    clip_wall = [statistics.median(w for k, w, _, _ in files if k == c) for c in range(len(src))]
    clip_ms_per_hop = [1e3 * w / (n / RATE / HOP_S) for w, n in zip(clip_wall, lengths)]
    res.e2e["latency_p50_ms"] = statistics.median(clip_ms_per_hop)
    res.e2e["latency_tail_ms"] = max(clip_ms_per_hop)
    res.e2e["rtf"] = sum(clip_wall) / (sum(lengths) / RATE)
    res.detail.update(files=len(files), clip_samples=lengths, clip_wall_s=clip_wall,
                      clip_ms_per_hop=clip_ms_per_hop, x_realtime=1.0 / res.e2e["rtf"],
                      setup_reps=setup)

    # the shortest clip also runs through the streaming path
    streamed = streaming.enhance_streaming(m, audio_io.read_wav(src[0])).samples
    for i, (k, _, out, err) in enumerate(files):
        ok = res.check("no_exception", err is None, err)
        if ok:
            ok &= res.check("length", out.length == lengths[k], f"file {i}: {out.length}")
            ok &= res.check("finite", bool(np.all(np.isfinite(out.samples))), f"file {i}")
            if k == 0 and out.length == streamed.size:
                diff = float(np.max(np.abs(out.samples - streamed)))
                ok &= res.check("equals_streaming", diff <= TOLERANCE,
                                f"file {i}: max |diff| {diff:.3g}")
            elif k == 0:
                ok &= res.check("equals_streaming", False, f"streamed {streamed.size} samples")
        res.op(ok)
    if trace:
        del m
        clip0 = [wall for k, wall, _, _ in files if k == 0]
        with FbseTracer().install() as tr:
            m = model.Enhancer(model.ModelConfig.default(), seed=seed)
            tr.add_model(m)
            tr.start_ops()
            t0 = perf_counter()
            _enhance_file(m, src[0], dst[0])
            wall = perf_counter() - t0
        res.per_layer = tr.per_layer(1, "model.Enhancer.forward")
        res.per_layer["trace.overhead"] = wall / statistics.median(clip0)
        res.tracer = tr
    return res


# ---------------------------------------------------------------------------
# training


def train_tiny(seed, seconds, trace, out_dir):
    rng = np.random.default_rng(seed)
    speech = training.synth_speech(2.0, seed=seed)
    noise = training.synth_noise(2.0, seed=seed + 1)
    noisy, clean = training.mix_at_snr(speech, noise, float(rng.uniform(0.0, 15.0)), rng)
    cfg = model.ModelConfig.tiny()
    m, pairs, setup = build(cfg, seed, 51, lambda m: training.spectra_pair(m, noisy, clean))
    loss_cfg = training.LossConfig()
    # warm-up on a throwaway model: first calls fault in fresh memory
    spare = model.Enhancer(cfg, seed=seed)
    training.training_step(spare, *pairs, loss_cfg, training.AdamState(), LR)
    del spare
    adam = training.AdamState()

    steps = []      # (wall s, loss or None, error)
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or len(steps) < 2:
        t0 = perf_counter()
        try:
            loss, err = training.training_step(m, *pairs, loss_cfg, adam, LR), None
        except Exception:
            loss, err = None, failure_note()
        steps.append((perf_counter() - t0, loss, err))

    res = Result()
    res.e2e["peak_rss_mb"] = peak_rss_mb()
    walls = [w for w, _, _ in steps]
    res.e2e["setup_s"] = statistics.median(setup)
    timing_summary(res, walls, TAIL_PCT)
    res.e2e["rtf"] = sum(walls) / (len(steps) * noisy.duration)
    losses = [loss for _, loss, _ in steps]
    res.detail.update(steps=len(steps), first_loss=losses[0], last_loss=losses[-1],
                      setup_reps=setup)
    falls = (None not in (losses[0], losses[-1])) and losses[-1] < losses[0]
    res.check("loss_falls", falls, f"first {losses[0]} last {losses[-1]}")
    for i, (_, loss, err) in enumerate(steps):
        ok = res.check("no_exception", err is None, err)
        ok = ok and res.check("finite_loss", math.isfinite(loss), f"step {i}: {loss}")
        res.op(ok and falls)    # a run whose loss does not fall fails every step
    if trace:
        n_traced = 4
        with FbseTracer().install() as tr:
            m = model.Enhancer(cfg, seed=seed)
            tr.add_model(m)
            pairs = training.spectra_pair(m, noisy, clean)
            adam = training.AdamState()
            tr.start_ops()
            traced = []
            for k in range(n_traced):
                tr.op = k
                t0 = perf_counter()
                training.training_step(m, *pairs, loss_cfg, adam, LR)
                traced.append(perf_counter() - t0)
        res.per_layer = tr.per_layer(n_traced, "training.training_step")
        res.per_layer["trace.overhead"] = statistics.median(traced) / statistics.median(walls)
        res.tracer = tr
    return res


WORKLOADS = {
    "stream-default": stream_default,
    "stream-tiny-rt": stream_tiny_rt,
    "offline-default": offline_default,
    "train-tiny": train_tiny,
}
