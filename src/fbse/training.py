"""Training machinery: combined compressed-spectrum MSE loss, SNR mixing,
Adam, the staged two-phase learning-rate schedule, and a time-domain SDR
metric. All of it is exercised at toy scale; nothing here assumes a corpus.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dsp
from .autodiff import Tensor, make_node
from .dsp import AudioBuffer, ZERO_MAG_FLOOR
from .errors import ShapeMismatchError

SDR_CAP_DB = 100.0


@dataclass
class LossConfig:
    """Weights of the combined real/imag + magnitude MSE on compressed spectra."""

    ri_weight: float = 0.3
    mag_weight: float = 0.7
    compression: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.compression <= 1.0:
            raise ValueError(f"compression exponent must be in (0,1], got {self.compression}")
        if abs(self.ri_weight + self.mag_weight - 1.0) > 1e-9:
            raise ValueError(
                f"ri_weight + mag_weight must equal 1 (got {self.ri_weight + self.mag_weight})")


def _power_stats(r, i, c):
    """Magnitude powers used by compression partials; zero-magnitude bins
    contribute exactly zero everywhere (subgradient choice)."""
    mag = np.hypot(r, i)
    nz = mag > ZERO_MAG_FLOOR
    p1 = np.zeros_like(mag)   # mag**(c-1)
    p2 = np.zeros_like(mag)   # mag**(c-2)
    p3 = np.zeros_like(mag)   # mag**(c-3)
    m = mag[nz]
    p1[nz] = m ** (c - 1.0)
    p2[nz] = m ** (c - 2.0)
    p3[nz] = m ** (c - 3.0)
    return mag, p1, p2, p3


def _cmse_channel(est_r, est_i, ref_r, ref_i, cfg: LossConfig):
    """Unnormalized loss sum and its gradients w.r.t. one channel's linear RI."""
    c = cfg.compression
    _, p1, p2, p3 = _power_stats(est_r, est_i, c)
    rc = est_r * p1
    ic = est_i * p1
    mc = np.hypot(rc, ic)
    _, q1, _, _ = _power_stats(ref_r, ref_i, c)
    rc_ref = ref_r * q1
    ic_ref = ref_i * q1
    mc_ref = np.hypot(rc_ref, ic_ref)
    dr_c = rc - rc_ref
    di_c = ic - ic_ref
    dm_c = mc - mc_ref
    lam, beta = cfg.ri_weight, cfg.mag_weight
    total = lam * np.sum(dr_c**2 + di_c**2) + beta * np.sum(dm_c**2)
    cm1 = c - 1.0
    grad_r = (2.0 * lam * (dr_c * (p1 + cm1 * est_r**2 * p3) + di_c * cm1 * est_r * est_i * p3)
              + 2.0 * beta * dm_c * c * est_r * p2)
    grad_i = (2.0 * lam * (di_c * (p1 + cm1 * est_i**2 * p3) + dr_c * cm1 * est_r * est_i * p3)
              + 2.0 * beta * dm_c * c * est_i * p2)
    return total, grad_r, grad_i


def cmse_loss_op(est_pairs, ref_pairs, cfg: LossConfig | None = None) -> Tensor:
    """Tape node for the loss: ``est_pairs`` are (real, imag) Tensors in the
    linear domain, ``ref_pairs`` plain (real, imag) arrays."""
    cfg = cfg or LossConfig()
    n = len(est_pairs)
    if len(ref_pairs) != n:
        raise ShapeMismatchError(f"{n} estimated channels vs {len(ref_pairs)} references")
    total = 0.0
    grads = []
    parents = []
    for (er, ei), (rr, ri) in zip(est_pairs, ref_pairs):
        if not er.data.shape == ei.data.shape == rr.shape == ri.shape:
            raise ShapeMismatchError(f"est {er.data.shape}/{ei.data.shape} vs ref "
                                     f"{rr.shape}/{ri.shape}")
        norm = n * er.data.size
        s, gr, gi = _cmse_channel(er.data, ei.data, rr, ri, cfg)
        total += s / norm
        grads.append((gr / norm, gi / norm))
        parents.extend((er, ei))

    def bw(g):
        for (er, ei), (gr, gi) in zip(est_pairs, grads):
            er.accumulate_grad(float(g) * gr)
            ei.accumulate_grad(float(g) * gi)

    return make_node(np.asarray(total), tuple(parents), bw)


def decompress_op(r: Tensor, i: Tensor, c: float):
    """Differentiable magnitude power-law expansion (exponent 1/c) of a
    compressed (real, imag) pair; returns two tape tensors."""
    e = 1.0 / c
    rd, idt = r.data, i.data
    _, p1, _, p3 = _power_stats(rd, idt, e)
    out_r = rd * p1
    out_i = idt * p1
    em1 = e - 1.0

    def bw_r(g):
        r.accumulate_grad(g * (p1 + em1 * rd**2 * p3))
        i.accumulate_grad(g * em1 * rd * idt * p3)

    def bw_i(g):
        i.accumulate_grad(g * (p1 + em1 * idt**2 * p3))
        r.accumulate_grad(g * em1 * rd * idt * p3)

    return make_node(out_r, (r, i), bw_r), make_node(out_i, (r, i), bw_i)


# ---------------------------------------------------------------------------
# data synthesis


def _fit_noise(noise, n, rng):
    if noise.size == 0:
        raise ValueError("noise signal is empty")
    if noise.size < n:
        reps = -(-n // noise.size)
        noise = np.tile(noise, reps)
    if noise.size > n:
        start = 0 if rng is None else int(rng.integers(0, noise.size - n + 1))
        noise = noise[start : start + n]
    return noise


def mix_at_snr(speech: AudioBuffer, noise: AudioBuffer, snr_db: float, rng=None):
    """Scale noise to the requested SNR and mix; returns (noisy, scaled clean).

    Both outputs share one joint peak normalization (applied only when the
    mixture would clip), so the SNR is preserved exactly.
    """
    if speech.sample_rate != noise.sample_rate:
        raise ShapeMismatchError("speech and noise sample rates differ")
    s = speech.samples
    n = _fit_noise(noise.samples, s.size, rng)
    p_s = float(np.mean(s * s))
    p_n = float(np.mean(n * n))
    if p_s <= 0.0:
        raise ValueError("speech signal is silent")
    if p_n <= 0.0:
        raise ValueError("noise signal is silent")
    # log-domain with a clamp so absurd SNR surrogates (e.g. 1e9 dB) stay finite
    exponent = min(max(-snr_db / 20.0, -300.0), 300.0)
    gain = math.sqrt(p_s / p_n) * 10.0 ** exponent
    noisy = s + gain * n
    peak = float(np.max(np.abs(noisy)))
    scale = 0.99 / peak if peak > 0.99 else 1.0
    return (AudioBuffer(noisy * scale, speech.sample_rate),
            AudioBuffer(s * scale, speech.sample_rate))


def sdr(ref: AudioBuffer, est: AudioBuffer) -> float:
    """Energy-ratio source-to-distortion in dB on aligned signals, capped at
    100 dB as est approaches ref exactly."""
    if ref.length != est.length:
        raise ShapeMismatchError(f"ref length {ref.length} vs est {est.length}")
    num = float(np.sum(ref.samples**2))
    err = ref.samples - est.samples
    den = float(np.sum(err * err))
    if num <= 0.0:
        return 0.0
    if den <= num * 10.0 ** (-SDR_CAP_DB / 10.0):
        return SDR_CAP_DB
    return 10.0 * math.log10(num / den)


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def adam_step(params, state: AdamState, lr, betas=(0.9, 0.999), eps=1e-8, select=None):
    """Bias-corrected Adam update in place. ``params`` maps name -> Tensor;
    ``select(name)`` can freeze a subset (False -> no update)."""
    state.t += 1
    b1, b2 = betas
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        if select is not None and not select(name):
            continue
        if p.grad is None:
            continue
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# staged schedule


PHASE_STAGE1 = "stage1_only"
PHASE_STAGE2 = "stage2_frozen1"
PHASE_JOINT = "joint"

INITIAL_LR = 1e-3
FREEZE_LR = 5e-4
PLATEAU_EPOCHS = 3


@dataclass(frozen=True)
class ScheduleState:
    """Three-phase trainer state: stage 1 alone, stage 2 with stage 1 frozen,
    then joint updates; learning rates halve after 3 non-improving epochs."""

    phase: str = PHASE_STAGE1
    lr_stage1: float = INITIAL_LR
    lr_stage2: float = INITIAL_LR
    plateau_counter: int = 0
    best_val: float = math.inf
    epoch: int = 0

    def stage1_trainable(self) -> bool:
        return self.phase in (PHASE_STAGE1, PHASE_JOINT)

    def stage2_trainable(self) -> bool:
        return self.phase in (PHASE_STAGE2, PHASE_JOINT)


def schedule_tick(state: ScheduleState, val_loss: float) -> ScheduleState:
    """Advance one epoch; plateau detection uses the joint validation loss."""
    upd = {"epoch": state.epoch + 1}
    if val_loss < state.best_val:
        upd["best_val"] = val_loss
        upd["plateau_counter"] = 0
        return dataclasses.replace(state, **upd)
    counter = state.plateau_counter + 1
    if counter < PLATEAU_EPOCHS:
        upd["plateau_counter"] = counter
        return dataclasses.replace(state, **upd)
    upd["plateau_counter"] = 0
    if state.phase == PHASE_STAGE1:
        lr = state.lr_stage1 * 0.5
        upd["lr_stage1"] = lr
        if lr <= FREEZE_LR + 1e-15:
            upd["phase"] = PHASE_STAGE2
            upd["best_val"] = math.inf
    elif state.phase == PHASE_STAGE2:
        lr = state.lr_stage2 * 0.5
        upd["lr_stage2"] = lr
        if lr <= FREEZE_LR + 1e-15:
            upd["phase"] = PHASE_JOINT
            upd["best_val"] = math.inf
    else:
        upd["lr_stage1"] = state.lr_stage1 * 0.5
        upd["lr_stage2"] = state.lr_stage2 * 0.5
    return dataclasses.replace(state, **upd)


# ---------------------------------------------------------------------------
# training manifest (clean path, noise path, snr_db, seed)


@dataclass
class MixtureSpec:
    clean_path: str
    noise_path: str
    snr_db: float
    seed: int


def synth_speech(seconds, seed=0, rate=dsp.FULLBAND_RATE) -> AudioBuffer:
    """Speech-like test signal: drifting harmonic stack with a slow envelope."""
    rng = np.random.default_rng(seed)
    n = int(seconds * rate)
    t = np.arange(n) / rate
    f0 = 120.0 + 40.0 * np.sin(2 * np.pi * 0.7 * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    sig = np.zeros(n)
    for k in range(1, 9):
        sig += rng.uniform(0.3, 1.0) / k * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * 2.3 * t + rng.uniform(0, 2 * np.pi))
    sig *= envelope
    return AudioBuffer(0.6 * sig / np.max(np.abs(sig)), rate)


def synth_noise(seconds, seed=1, rate=dsp.FULLBAND_RATE) -> AudioBuffer:
    """Broadband test noise with mild spectral tilt."""
    rng = np.random.default_rng(seed)
    n = int(seconds * rate)
    white = rng.standard_normal(n)
    tilted = np.convolve(white, [0.6, 0.3, 0.1], mode="same")
    return AudioBuffer(0.5 * tilted / np.max(np.abs(tilted)), rate)


def synthetic_pair(seconds=2.0, seed=0, snr_db=5.0):
    """One (noisy, clean) 48 kHz pair for overfitting demonstrations."""
    speech = synth_speech(seconds, seed=seed)
    noise = synth_noise(seconds, seed=seed + 1)
    return mix_at_snr(speech, noise, snr_db, np.random.default_rng(seed))


def spectra_pair(model, noisy: AudioBuffer, clean: AudioBuffer):
    """Compressed noisy input planes and linear clean reference planes."""
    noisy_bank = dsp.extract(noisy)
    clean_bank = dsp.extract(clean)
    noisy_pairs = []
    ref_pairs = []
    for nch, cch in zip(noisy_bank.channels, clean_bank.channels):
        comp = dsp.compress(dsp.stft(nch), model.cfg.compression)
        noisy_pairs.append((comp.real, comp.imag))
        ref = dsp.stft(cch)
        ref_pairs.append((ref.real, ref.imag))
    return noisy_pairs, ref_pairs


def training_step(model, noisy_pairs, ref_pairs, loss_cfg: LossConfig,
                  adam_state: AdamState, lr: float, select=None) -> float:
    """One full forward/backward/Adam update; returns the loss value."""
    model.store.zero_grads()
    stage = model.enhance_spectra(noisy_pairs, training=True)
    est_pairs = [decompress_op(r, i, model.cfg.compression) for r, i in stage.enhanced]
    loss = cmse_loss_op(est_pairs, ref_pairs, loss_cfg)
    loss.backward()
    adam_step(model.store.params, adam_state, lr, select=select)
    return float(loss.data)


def overfit_single_pair(model, noisy: AudioBuffer, clean: AudioBuffer,
                        steps=300, lr=3e-3, loss_cfg: LossConfig | None = None):
    """Drive the model onto one training pair; returns the loss history."""
    loss_cfg = loss_cfg or LossConfig()
    noisy_pairs, ref_pairs = spectra_pair(model, noisy, clean)
    adam_state = AdamState()
    return [training_step(model, noisy_pairs, ref_pairs, loss_cfg, adam_state, lr)
            for _ in range(steps)]


def load_manifest(path):
    """Parse the tab-separated mixture manifest; '#' starts a comment."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            records.append(MixtureSpec(parts[0], parts[1], float(parts[2]), int(parts[3])))
    return records


def save_manifest(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# clean\tnoise\tsnr_db\tseed\n")
        for r in records:
            fh.write(f"{r.clean_path}\t{r.noise_path}\t{r.snr_db}\t{r.seed}\n")
