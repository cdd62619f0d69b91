"""Frame-accurate real-time execution of the enhancement model.

One push carries one 10 ms hop (480 samples at 48 kHz). Each push completes
one 320-sample frame of the three sub-channels from the previous hop and the
new one, and runs it through :meth:`fbse.model.Enhancer.enhance_frames` and
:func:`fbse.dsp.wola`, as the offline forward runs its blocks. Emission is
delayed by exactly the 30 ms algorithmic latency (analysis window + one
synthesis hop, 1440 samples at 48 kHz): the first three pushes return empty
arrays, after which every push returns one hop of enhanced audio, and
``stream_flush`` drains the remainder so that total output equals total input
bit-for-bit in length. The emitted sample stream is identical to the offline
:meth:`fbse.model.Enhancer.forward` output.

This module keeps only buffering, latency and overlap-add state: the previous
hop (``prev_hop``) and the previous frame's second half (``ola_tail``), which
``stream_flush`` emits as the frame grid's last hop.

Per-layer state is exact and owned by the layer: in ``StreamState.model_state``,
one flat dict that is empty at creation, every dilated convolution caches
``(k-1)*d`` past frames and each LSTM its (h, c) under the layer itself, from
the stream's first model frame (its second hop) on. Memory stays O(model)
regardless of stream length, and streams over one model share only weights.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import (
    EmptyInputError,
    NonFiniteInputError,
    OversizeBlockError,
    ShapeMismatchError,
    StreamClosedError,
)
from .layers import Lstm

BLOCK_SAMPLES = 3 * dsp.HOP_LEN            # 480 at 48 kHz
LATENCY_SAMPLES = dsp.LATENCY_SAMPLES_48K  # 1440 at 48 kHz
FRAME_MS = 1000.0 * dsp.WIN_LEN / dsp.SUBBAND_RATE
HOP_MS = 1000.0 * dsp.HOP_LEN / dsp.SUBBAND_RATE


@dataclass
class LatencyReport:
    """Measured streaming cost next to the fixed framing latency."""

    frame_ms: float = FRAME_MS
    hop_ms: float = HOP_MS
    algorithmic_ms: float = FRAME_MS + HOP_MS
    per_frame_compute_ms: float = 0.0
    rtf: float = 0.0
    frames_measured: int = 0


class StreamState:
    """Single-writer state of one stream over a shared immutable model."""

    def __init__(self, model):
        self.model = model
        self.model_state = model.init_stream_state()
        self.pending = np.zeros(0, dtype=np.float64)
        self.prev_hop = np.zeros((3, dsp.HOP_LEN), dtype=np.float64)
        self.ola_tail = np.zeros((3, dsp.HOP_LEN), dtype=np.float64)  # previous frame's 2nd half
        self.hops = 0
        self.frames_done = 0
        self.samples_in = 0           # real samples pushed
        self.samples_out = 0          # real samples emitted
        self.ready = np.zeros(0, dtype=np.float64)
        self.closed = False

    # spec-facing views ------------------------------------------------------

    @property
    def conv_caches(self):
        """Conv layer name -> its cache of past frames."""
        return {layer.name: arr for layer, arr in self.model_state.items()
                if not isinstance(layer, Lstm)}

    @property
    def lstm_states(self):
        """LSTM name -> its [2, layers, hidden] (h, c)."""
        return {layer.name: arr for layer, arr in self.model_state.items()
                if isinstance(layer, Lstm)}


def stream_create(model) -> StreamState:
    """Fresh zero-initialized stream over the model (deterministic)."""
    return StreamState(model)


def _queue_hop(state: StreamState, hop16):
    """Interleave one output hop [3, HOP_LEN] to 48 kHz and queue it."""
    state.ready = np.concatenate([state.ready, hop16.T.ravel()])


def _consume_block(state: StreamState, block48):
    """Advance one hop: 480 interleaved samples -> maybe one model frame."""
    hop = np.ascontiguousarray(block48.reshape(dsp.HOP_LEN, 3).T)
    if state.hops >= 1:
        frame = np.concatenate([state.prev_hop, hop], axis=1)[:, None]  # [3, 1, WIN_LEN]
        segs = state.model.enhance_frames(frame, state.model_state)
        hops, state.ola_tail = dsp.wola(state.ola_tail, segs, first=state.frames_done == 0)
        _queue_hop(state, hops[:, 0])
        state.frames_done += 1
    state.prev_hop = hop
    state.hops += 1


def _emit(state: StreamState, target_total):
    need = target_total - state.samples_out
    if need <= 0:
        return np.zeros(0, dtype=np.float64)
    take = min(need, state.ready.size)
    out, state.ready = state.ready[:take], state.ready[take:]
    state.samples_out += take
    return out


def stream_push(state: StreamState, block) -> np.ndarray:
    """Feed up to one hop (480 samples at 48 kHz); returns enhanced samples.

    Empty until the 1440-sample latency is buffered, then one hop per push.
    Partial blocks are buffered; a short final block is completed by
    ``stream_flush``. A block holding NaN or inf raises
    :class:`~fbse.errors.NonFiniteInputError` and leaves the stream as it was.
    """
    if state.closed:
        raise StreamClosedError("stream already flushed")
    block = dsp.real_samples(block)
    if block.ndim != 1:
        raise ShapeMismatchError(f"expected mono block, got shape {block.shape}")
    if block.size > BLOCK_SAMPLES:
        raise OversizeBlockError(f"block of {block.size} samples exceeds hop of {BLOCK_SAMPLES}")
    if not np.isfinite(block).all():
        raise NonFiniteInputError("block holds NaN or inf samples")
    state.samples_in += block.size
    state.pending = np.concatenate([state.pending, block])
    while state.pending.size >= BLOCK_SAMPLES:
        chunk, state.pending = state.pending[:BLOCK_SAMPLES], state.pending[BLOCK_SAMPLES:]
        _consume_block(state, chunk)
    return _emit(state, max(0, state.samples_in - LATENCY_SAMPLES))


def stream_flush(state: StreamState) -> np.ndarray:
    """Complete the final frame grid with zeros and drain all real samples.

    After flush the cumulative output length equals the cumulative input
    length exactly.
    """
    if state.closed:
        return np.zeros(0, dtype=np.float64)
    state.closed = True
    if state.samples_in == 0:
        return np.zeros(0, dtype=np.float64)
    if state.pending.size:
        pad = np.zeros(BLOCK_SAMPLES - state.pending.size, dtype=np.float64)
        state.pending = np.concatenate([state.pending, pad])
        chunk, state.pending = state.pending[:BLOCK_SAMPLES], state.pending[BLOCK_SAMPLES:]
        _consume_block(state, chunk)
    sub_len = -(-state.samples_in // 3)
    needed_frames = dsp.frame_count(sub_len)
    while state.frames_done < needed_frames:
        _consume_block(state, np.zeros(BLOCK_SAMPLES, dtype=np.float64))
    # the last frame's second half is the final hop of the frame grid
    _queue_hop(state, state.ola_tail / dsp.OLA_DENOM_LAST)
    return _emit(state, state.samples_in)


def enhance_streaming(model, audio: dsp.AudioBuffer) -> dsp.AudioBuffer:
    """Block-wise enhancement of a whole buffer through the streaming path."""
    if audio.sample_rate != dsp.FULLBAND_RATE:
        raise ShapeMismatchError("streaming input must be 48 kHz")
    if audio.length == 0:
        raise EmptyInputError("empty input")
    state = stream_create(model)
    pieces = []
    for lo in range(0, audio.length, BLOCK_SAMPLES):
        pieces.append(stream_push(state, audio.samples[lo : lo + BLOCK_SAMPLES]))
    pieces.append(stream_flush(state))
    return dsp.AudioBuffer(np.concatenate(pieces), dsp.FULLBAND_RATE)


def measure_rtf(model, seconds: float = 2.0, seed: int = 0,
                warmup_frames: int = 10) -> LatencyReport:
    """Wall-clock cost per 10 ms hop on synthetic audio (monotonic clock,
    first ``warmup_frames`` pushes discarded)."""
    rng = np.random.default_rng(seed)
    n_blocks = max(int(math.ceil(seconds * 1000.0 / HOP_MS)), warmup_frames + 2)
    state = stream_create(model)
    times = []
    for _ in range(n_blocks):
        block = rng.uniform(-0.3, 0.3, BLOCK_SAMPLES)
        t0 = time.perf_counter()
        stream_push(state, block)
        times.append(time.perf_counter() - t0)
    kept = times[warmup_frames:]
    per_frame_ms = 1000.0 * float(np.mean(kept))
    return LatencyReport(per_frame_compute_ms=per_frame_ms,
                         rtf=per_frame_ms / HOP_MS,
                         frames_measured=n_blocks)
