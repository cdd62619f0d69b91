"""Two-stage enhancement graph over three 16 kHz sub-channel spectra.

Stage 1 estimates bounded complex ratio masks from two parallel embeddings:

* a gated temporal-conv stack over the compressed magnitude spectra
  (fixed receptive field), and
* a gated 2-D conv U-net with an LSTM bottleneck over the compressed
  real/imag planes (dynamic receptive field),

fused per frequency band by a forward-stacked multi-band TCN. Stage 2 runs a
second U-net over the noisy + masked planes and adds a per-channel-calibrated
compensation to the masked spectra. Everything is causal in time.

Also provides closed-form parameter and multiply-accumulate accounting used
by the ``analyze`` CLI command.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import Tensor, no_grad
from .errors import ConfigError, NonFiniteInputError, ShapeMismatchError
from .layers import (
    ChannelAffine,
    Conv1d,
    Conv2d,
    GatedConv2d,
    GatedConvTranspose2d,
    InstanceNorm,
    Linear,
    Lstm,
    PReLU,
    gate_halves,
    gate_op,
    stacked,
    stacked_op,
)
from .params import ParamStore

NUM_CHANNELS = dsp.NUM_SUBCHANNELS
RI_PLANES = 2 * NUM_CHANNELS          # real+imag per sub-channel
COMP_IN_CHANNELS = 2 * RI_PLANES      # noisy planes + masked planes
FRAMES_PER_SECOND = dsp.SUBBAND_RATE // dsp.HOP_LEN

CONFIG_FORMAT = "fbse-config"
CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


@dataclass
class MagTcnConfig:
    """Gated temporal-conv stack over flattened magnitude features."""

    groups: int = 3
    per_group: int = 6
    dilations: tuple = (1, 2, 4, 8, 16, 32)
    kernel: int = 3
    feature_dim: int = 256
    hidden_dim: int = 256


@dataclass
class UnetConfig:
    """Gated 2-D conv encoder/decoder with an LSTM bottleneck."""

    levels: int = 4
    channels: int = 64
    first_kernel: tuple = (2, 5)
    other_kernel: tuple = (2, 3)
    freq_stride: int = 2
    convs_per_level: int = 2
    lstm_layers: int = 4
    lstm_hidden: int = 380
    out_channels: int = 8


@dataclass
class BandTcnConfig:
    """Forward-stacked multi-band TCN fusing the two embeddings."""

    bands: int = 3
    blocks_per_band: int = 5
    kernel: int = 3
    dilations: tuple = (1, 3, 5, 7, 11)
    band_dim: int = 256


@dataclass
class ModelConfig:
    mag_tcn: MagTcnConfig = field(default_factory=MagTcnConfig)
    unet: UnetConfig = field(default_factory=UnetConfig)
    band_tcn: BandTcnConfig = field(default_factory=BandTcnConfig)
    comp: UnetConfig = field(default_factory=UnetConfig)
    compression: float = 0.3
    bins: int = dsp.NUM_BINS
    dtype: str = "float64"

    def __post_init__(self):
        ladder = encoder_freqs(self.unet, self.bins)
        if min(ladder) < 1:
            raise ConfigError(f"frequency ladder collapses: {ladder}")

    @classmethod
    def default(cls):
        return cls()

    @classmethod
    def tiny(cls):
        """Desk-scale config (<50k parameters) used by tests and smoke runs."""
        unet = UnetConfig(levels=3, channels=4, convs_per_level=1,
                          lstm_layers=1, lstm_hidden=12, out_channels=2)
        return cls(
            mag_tcn=MagTcnConfig(groups=1, per_group=2, dilations=(1, 2),
                            feature_dim=8, hidden_dim=8),
            unet=unet,
            comp=replace(unet),
            band_tcn=BandTcnConfig(bands=3, blocks_per_band=2, dilations=(1, 3), band_dim=4),
        )


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _parse_like(template, raw):
    if isinstance(template, tuple):
        return tuple(int(x) for x in raw.split(","))
    return type(template)(raw)


_SECTIONS = {"mag_tcn": MagTcnConfig, "unet": UnetConfig, "band_tcn": BandTcnConfig, "comp": UnetConfig}
_SCALARS = ("compression", "dtype")


def config_to_text(cfg: ModelConfig) -> str:
    lines = [f"{CONFIG_FORMAT} v{CONFIG_VERSION}"]
    for key in _SCALARS:
        lines.append(f"{key} = {getattr(cfg, key)}")
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        for f in fields(sub):
            lines.append(f"{section}.{f.name} = {_fmt_value(getattr(sub, f.name))}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ConfigError("empty config file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != CONFIG_FORMAT:
        raise ConfigError(f"not a {CONFIG_FORMAT} file: {lines[0]!r}")
    if head[1] != f"v{CONFIG_VERSION}":
        raise ConfigError(f"unsupported config version {head[1]}")
    sections = {name: klass() for name, klass in _SECTIONS.items()}
    scalars = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ConfigError(f"malformed line: {ln!r}")
        key, raw = (part.strip() for part in ln.split("=", 1))
        if "." in key:
            section, attr = key.split(".", 1)
            if section not in sections or not hasattr(sections[section], attr):
                raise ConfigError(f"unknown config key {key!r}")
            template = getattr(sections[section], attr)
            setattr(sections[section], attr, _parse_like(template, raw))
        elif key in _SCALARS:
            scalars[key] = float(raw) if key == "compression" else raw
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ModelConfig(**sections, **scalars)


def save_config(path, cfg: ModelConfig):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


# ---------------------------------------------------------------------------
# frequency bookkeeping


def _level_kernel(cfg: UnetConfig, level: int, decoder=False):
    """(2,5) on the first encoder level and the last decoder level."""
    if decoder:
        return cfg.first_kernel if level == cfg.levels - 1 else cfg.other_kernel
    return cfg.first_kernel if level == 0 else cfg.other_kernel


def encoder_freqs(cfg: UnetConfig, in_freq: int):
    """Frequency sizes along the encoder: [in_freq, after level 1, ...]."""
    freqs = [in_freq]
    for lvl in range(cfg.levels):
        kf = _level_kernel(cfg, lvl)[1]
        pad = (kf - 1) // 2
        freqs.append((freqs[-1] + 2 * pad - kf) // cfg.freq_stride + 1)
    return freqs


# ---------------------------------------------------------------------------
# gated temporal conv stack (magnitude branch)


def _branch_gain(depth):
    """Init gain of the last layer of each of ``depth`` residual branches in
    series: 1/sqrt(depth) keeps the stack's output rms O(1) at init (Fixup,
    Zhang et al. 2019, arXiv:1901.09321)."""
    return 1.0 / np.sqrt(depth)


class GatedTcnBlock:
    """pointwise in -> gated dilated conv pair -> pointwise out, residual."""

    def __init__(self, store, name, cfg: MagTcnConfig, dilation, depth):
        feat, hid = cfg.feature_dim, cfg.hidden_dim
        self.pw_in = Conv1d(store, f"{name}.pw_in", feat, hid, 1)
        self.act_in = PReLU(store, f"{name}.act_in", hid)
        (self.dil_lin, self.dil_gate), self.dil = stacked(
            Conv1d, store, f"{name}.dil", (f"{name}.dil_lin", f"{name}.dil_gate"),
            hid, hid, cfg.kernel, dilation)
        self.act_mid = PReLU(store, f"{name}.act_mid", hid)
        self.pw_out = Conv1d(store, f"{name}.pw_out", hid, feat, 1, gain=_branch_gain(depth))
        self.dilation = dilation
        self.kernel = cfg.kernel

    def __call__(self, x: Tensor) -> Tensor:
        h = self.act_in(self.pw_in(x))
        g = gate_op(stacked_op(self.dil, (self.dil_lin, self.dil_gate), h))
        return ad.add(x, self.pw_out(self.act_mid(g)))

    def init_state(self, dtype):
        return self.dil.init_state(dtype)

    def step(self, state, frame):
        h = self.act_in.step(None, self.pw_in.step(None, frame))
        g = gate_halves(self.dil.step(state, h))
        return frame + self.pw_out.step(None, self.act_mid.step(None, g))


class GatedTcnStack:
    """Projection of stacked sub-channel magnitudes plus dilated gated blocks."""

    def __init__(self, store, name, cfg: MagTcnConfig, in_dim):
        self.cfg = cfg
        self.in_proj = Conv1d(store, f"{name}.in_proj", in_dim, cfg.feature_dim, 1)
        self.blocks = []
        for grp in range(cfg.groups):
            for idx in range(cfg.per_group):
                d = cfg.dilations[idx % len(cfg.dilations)]
                self.blocks.append(GatedTcnBlock(store, f"{name}.g{grp}.b{idx}", cfg, d,
                                                 depth=cfg.groups * cfg.per_group))

    @property
    def receptive_field(self) -> int:
        """Frames seen by the final output: 1 + sum of (k-1)*d over blocks."""
        return 1 + sum((b.kernel - 1) * b.dilation for b in self.blocks)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.in_proj(x)
        for b in self.blocks:
            h = b(h)
        return h

    def init_state(self, dtype):
        return {"blocks": [b.init_state(dtype) for b in self.blocks]}

    def step(self, state, frame):
        h = self.in_proj.step(None, frame)
        for b, st in zip(self.blocks, state["blocks"]):
            h = b.step(st, h)
        return h


# ---------------------------------------------------------------------------
# recurrent U-net (dynamic branch and compensation topology)


class _UnetLevel:
    def __init__(self, store, name, cfg: UnetConfig, cin, kernel, decoder, out_freq=None):
        ch = cfg.channels
        if decoder:
            self.main = GatedConvTranspose2d(store, f"{name}.main", cin, ch, kernel,
                                             stride=cfg.freq_stride, out_freq=out_freq)
        else:
            self.main = GatedConv2d(store, f"{name}.main", cin, ch, kernel,
                                    stride=cfg.freq_stride)
        self.norm = InstanceNorm(store, f"{name}.norm", ch)
        self.act = PReLU(store, f"{name}.act", ch)
        self.refiners = []
        for r in range(cfg.convs_per_level - 1):
            self.refiners.append((
                GatedConv2d(store, f"{name}.ref{r}", ch, ch, cfg.other_kernel, stride=1),
                InstanceNorm(store, f"{name}.ref{r}.norm", ch),
                PReLU(store, f"{name}.ref{r}.act", ch),
            ))

    def __call__(self, x: Tensor, training) -> Tensor:
        h = self.act(self.norm(self.main(x), training))
        for conv, norm, act in self.refiners:
            h = act(norm(conv(h), training))
        return h

    def init_state(self, in_freq, out_freq, dtype):
        st = {"main": self.main.init_state(in_freq, dtype), "refs": []}
        for conv, _, _ in self.refiners:
            st["refs"].append(conv.init_state(out_freq, dtype))
        return st

    def step(self, state, frame):
        h = self.act.step(None, self.norm.step(None, self.main.step(state["main"], frame)))
        for (conv, norm, act), st in zip(self.refiners, state["refs"]):
            h = act.step(None, norm.step(None, conv.step(st, h)))
        return h


class RecurrentUnet:
    """Gated conv encoder -> stacked LSTM bottleneck -> gated deconv decoder
    with skip concatenation, closing back to the input frequency size."""

    def __init__(self, store, name, cfg: UnetConfig, in_channels, out_channels, in_freq):
        self.cfg = cfg
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.freqs = encoder_freqs(cfg, in_freq)
        ch = cfg.channels
        self.encoder = []
        for lvl in range(cfg.levels):
            cin = in_channels if lvl == 0 else ch
            self.encoder.append(_UnetLevel(store, f"{name}.enc{lvl}", cfg, cin,
                                           _level_kernel(cfg, lvl), decoder=False))
        bott = ch * self.freqs[-1]
        self.lstm = Lstm(store, f"{name}.lstm", bott, cfg.lstm_hidden, cfg.lstm_layers)
        self.unflatten = Linear(store, f"{name}.unflatten", cfg.lstm_hidden, bott)
        self.decoder = []
        for lvl in range(cfg.levels):
            self.decoder.append(_UnetLevel(store, f"{name}.dec{lvl}", cfg, 2 * ch,
                                           _level_kernel(cfg, lvl, decoder=True),
                                           decoder=True, out_freq=self.freqs[cfg.levels - 1 - lvl]))
        self.out_conv = Conv2d(store, f"{name}.out_conv", ch, out_channels, (1, 1), stride=1, pad=0)

    def __call__(self, x: Tensor, training=False) -> Tensor:
        if x.data.shape[0] != self.in_channels:
            raise ShapeMismatchError(
                f"expected {self.in_channels}-channel input, got {x.data.shape[0]}")
        skips = []
        h = x
        for level in self.encoder:
            h = level(h, training)
            skips.append(h)
        ch, t, fb = h.data.shape
        flat = ad.reshape(ad.moveaxis(h, 0, 1), (t, ch * fb))
        emb = self.unflatten(self.lstm(flat))
        h = ad.moveaxis(ad.reshape(emb, (t, ch, fb)), 0, 1)
        for lvl, level in enumerate(self.decoder):
            h = level(ad.concat([h, skips[self.cfg.levels - 1 - lvl]], axis=0), training)
        return self.out_conv(h)

    def init_state(self, dtype):
        st = {"enc": [], "dec": [], "lstm": self.lstm.init_state(dtype),
              "out": self.out_conv.init_state(self.freqs[0], dtype)}
        for lvl, level in enumerate(self.encoder):
            st["enc"].append(level.init_state(self.freqs[lvl], self.freqs[lvl + 1], dtype))
        for lvl, level in enumerate(self.decoder):
            st["dec"].append(level.init_state(self.freqs[self.cfg.levels - lvl],
                                              self.freqs[self.cfg.levels - 1 - lvl], dtype))
        return st

    def step(self, state, frame):
        skips = []
        h = frame
        for level, st in zip(self.encoder, state["enc"]):
            h = level.step(st, h)
            skips.append(h)
        ch, fb = h.shape
        emb = self.unflatten.step(None, self.lstm.step(state["lstm"], h.reshape(ch * fb)))
        h = emb.reshape(ch, fb)
        for lvl, (level, st) in enumerate(zip(self.decoder, state["dec"])):
            h = level.step(st, np.concatenate([h, skips[self.cfg.levels - 1 - lvl]], axis=0))
        return self.out_conv.step(state["out"], h)


# ---------------------------------------------------------------------------
# multi-band TCN


class TcnBlock:
    def __init__(self, store, name, dim, kernel, dilation, depth):
        self.pw_in = Conv1d(store, f"{name}.pw_in", dim, dim, 1)
        self.act_in = PReLU(store, f"{name}.act_in", dim)
        self.dil = Conv1d(store, f"{name}.dil", dim, dim, kernel, dilation)
        self.act_mid = PReLU(store, f"{name}.act_mid", dim)
        self.pw_out = Conv1d(store, f"{name}.pw_out", dim, dim, 1, gain=_branch_gain(depth))
        self.kernel, self.dilation = kernel, dilation

    def __call__(self, x: Tensor) -> Tensor:
        h = self.act_mid(self.dil(self.act_in(self.pw_in(x))))
        return ad.add(x, self.pw_out(h))

    def init_state(self, dtype):
        return {"dil": self.dil.init_state(dtype)}

    def step(self, state, frame):
        h = self.act_mid.step(None, self.dil.step(state["dil"], self.act_in.step(None, self.pw_in.step(None, frame))))
        return frame + self.pw_out.step(None, h)


class MultiBandTcn:
    """Splits the dynamic embedding into frequency bands, fuses each with the
    fixed embedding, and runs per-band TCN groups where band b also consumes
    band b-1's output (information flows low band -> high band only)."""

    def __init__(self, store, name, cfg: BandTcnConfig, fixed_dim, dyn_flat_dim):
        self.cfg = cfg
        self.fixed_dim = fixed_dim
        self.dyn_proj = Conv1d(store, f"{name}.dyn_proj", dyn_flat_dim,
                               cfg.bands * cfg.band_dim, 1)
        self.fusion = []
        self.band_in = []
        self.bands = []
        for b in range(cfg.bands):
            self.fusion.append(Conv1d(store, f"{name}.band{b}.fusion",
                                      fixed_dim + cfg.band_dim, cfg.band_dim, 1))
            cin = cfg.band_dim if b == 0 else 2 * cfg.band_dim
            self.band_in.append(Conv1d(store, f"{name}.band{b}.in", cin, cfg.band_dim, 1))
            blocks = []
            for i in range(cfg.blocks_per_band):
                d = cfg.dilations[i % len(cfg.dilations)]
                # band b runs on band b-1's output: one residual stack of bands*blocks
                blocks.append(TcnBlock(store, f"{name}.band{b}.blk{i}", cfg.band_dim,
                                       cfg.kernel, d, depth=cfg.bands * cfg.blocks_per_band))
            self.bands.append(blocks)

    def __call__(self, fixed: Tensor, dyn_flat: Tensor) -> Tensor:
        if fixed.data.shape[0] != self.fixed_dim:
            raise ShapeMismatchError(
                f"fixed embedding dim {fixed.data.shape[0]} != {self.fixed_dim}")
        dyn = self.dyn_proj(dyn_flat)
        bd = self.cfg.band_dim
        outs = []
        prev = None
        for b in range(self.cfg.bands):
            y = ad.narrow(dyn, 0, b * bd, (b + 1) * bd)
            y = self.fusion[b](ad.concat([fixed, y], axis=0))
            h = y if prev is None else ad.concat([prev, y], axis=0)
            h = self.band_in[b](h)
            for blk in self.bands[b]:
                h = blk(h)
            outs.append(h)
            prev = h
        return ad.concat(outs, axis=0)

    def init_state(self, dtype):
        return {"bands": [[blk.init_state(dtype) for blk in blocks] for blocks in self.bands]}

    def step(self, state, fixed_f, dyn_flat_f):
        dyn = self.dyn_proj.step(None, dyn_flat_f)
        bd = self.cfg.band_dim
        outs = []
        prev = None
        for b in range(self.cfg.bands):
            y = dyn[b * bd : (b + 1) * bd]
            y = self.fusion[b].step(None, np.concatenate([fixed_f, y]))
            h = y if prev is None else np.concatenate([prev, y])
            h = self.band_in[b].step(None, h)
            for blk, st in zip(self.bands[b], state["bands"][b]):
                h = blk.step(st, h)
            outs.append(h)
            prev = h
        return np.concatenate(outs)


# ---------------------------------------------------------------------------
# mask head, CRM application, compensation


class MaskHead:
    """Six kernel-1 convs, stacked as one -> tanh-bounded real/imag mask planes."""

    def __init__(self, store, name, in_dim, bins):
        self.bins = bins
        self.convs, self.whole = stacked(Conv1d, store, name,
                                         [f"{name}.plane{p}" for p in range(RI_PLANES)],
                                         in_dim, bins, 1)

    def __call__(self, feat: Tensor):
        # returns [(mask_r, mask_i)] per sub-channel, each [T, F]
        masks = ad.tanh(ad.moveaxis(stacked_op(self.whole, self.convs, feat), 0, 1))
        b = self.bins
        planes = [ad.narrow(masks, 1, p * b, (p + 1) * b) for p in range(RI_PLANES)]
        return [(planes[2 * ch], planes[2 * ch + 1]) for ch in range(NUM_CHANNELS)]

    def step(self, state, feat_f):
        planes = np.tanh(self.whole.step(None, feat_f)).reshape(RI_PLANES, self.bins)
        return [(planes[2 * ch], planes[2 * ch + 1]) for ch in range(NUM_CHANNELS)]


def apply_crm(noisy_pairs, mask_pairs):
    """Complex multiply per sub-channel: (Nr + iNi) * (Mr + iMi)."""
    out = []
    for (nr, ni), (mr, mi) in zip(noisy_pairs, mask_pairs):
        out_r = ad.sub(ad.mul(nr, mr), ad.mul(ni, mi))
        out_i = ad.add(ad.mul(nr, mi), ad.mul(ni, mr))
        out.append((out_r, out_i))
    return out


def apply_crm_frame(noisy_pairs, mask_pairs):
    out = []
    for (nr, ni), (mr, mi) in zip(noisy_pairs, mask_pairs):
        out.append((nr * mr - ni * mi, nr * mi + ni * mr))
    return out


class CompensationStage:
    """Second U-net over noisy + masked planes; its six output planes are
    calibrated by per-plane scalar affines and added to the masked spectra."""

    def __init__(self, store, name, cfg: UnetConfig, bins):
        self.unet = RecurrentUnet(store, f"{name}.unet", cfg, COMP_IN_CHANNELS,
                                  RI_PLANES, bins)
        self.heads = ChannelAffine(store, f"{name}.heads", RI_PLANES)

    def __call__(self, planes: Tensor, training=False) -> Tensor:
        return self.heads(self.unet(planes, training))

    def init_state(self, dtype):
        return {"unet": self.unet.init_state(dtype)}

    def step(self, state, frame):
        return self.heads.step(None, self.unet.step(state["unet"], frame))


# ---------------------------------------------------------------------------
# full model


@dataclass
class StageTensors:
    """Tape handles for one forward pass over spectra (compressed domain)."""

    masked: list        # [(r, i)] per sub-channel, Tensors [T, F]
    compensation: Tensor  # [6, T, F]
    enhanced: list      # [(r, i)] per sub-channel, Tensors [T, F]


def _stack_planes(pairs):
    planes = []
    for r, i in pairs:
        planes.extend((r, i))
    return planes


class Enhancer:
    """Full two-stage model over three compressed sub-channel spectra."""

    def __init__(self, cfg: ModelConfig | None = None, seed: int = 0):
        self.cfg = cfg or ModelConfig()
        self.dtype = np.dtype(self.cfg.dtype)
        self.store = ParamStore(seed, self.dtype)
        bins = self.cfg.bins
        self.mag_tcn = GatedTcnStack(self.store, "stage1.mag_tcn", self.cfg.mag_tcn,
                              in_dim=NUM_CHANNELS * bins)
        self.unet = RecurrentUnet(self.store, "stage1.unet", self.cfg.unet,
                                  RI_PLANES, self.cfg.unet.out_channels, bins)
        self.band_tcn = MultiBandTcn(self.store, "stage1.band_tcn", self.cfg.band_tcn,
                                  self.cfg.mag_tcn.feature_dim,
                                  self.cfg.unet.out_channels * bins)
        self.mask_head = MaskHead(self.store, "stage1.mask_head",
                                  self.cfg.band_tcn.bands * self.cfg.band_tcn.band_dim, bins)
        self.comp = CompensationStage(self.store, "stage2", self.cfg.comp, bins)

    # -- spectra-level forward (tape) --------------------------------------

    def enhance_spectra(self, noisy_pairs, training=False, identity_mask=False,
                        disable_compensation=False) -> StageTensors:
        """Run both stages on compressed (real, imag) plane pairs.

        ``noisy_pairs`` is a list of 3 ``(real, imag)`` arrays of shape [T, F].
        ``identity_mask`` forces the stage-1 mask to complex one (debug seam);
        ``disable_compensation`` stops after stage 1.
        """
        if len(noisy_pairs) != NUM_CHANNELS:
            raise ShapeMismatchError(f"expected {NUM_CHANNELS} sub-channels")
        const = [(Tensor(np.ascontiguousarray(r, dtype=self.dtype)),
                  Tensor(np.ascontiguousarray(i, dtype=self.dtype)))
                 for r, i in noisy_pairs]
        mags = [np.hypot(r.data, i.data).T for r, i in const]          # [F, T] each
        mag_flat = Tensor(np.concatenate(mags, axis=0))                # [3F, T]
        fixed = self.mag_tcn(mag_flat)
        unet_in = ad.concat([ad.reshape(p, (1,) + p.data.shape)
                             for pair in const for p in pair], axis=0)  # [6, T, F]
        dyn = self.unet(unet_in, training)                              # [C_out, T, F]
        dyn_flat = ad.reshape(ad.moveaxis(dyn, 1, 2), (-1, dyn.data.shape[1]))
        feats = self.band_tcn(fixed, dyn_flat)
        if identity_mask:
            masked = [(Tensor(r.data.copy()), Tensor(i.data.copy())) for r, i in const]
        else:
            masked = apply_crm(const, self.mask_head(feats))
        if disable_compensation:
            t, f = const[0][0].data.shape
            comp_zero = Tensor(np.zeros((RI_PLANES, t, f), dtype=self.dtype))
            return StageTensors(masked, comp_zero, list(masked))
        comp_planes = [ad.reshape(p, (1,) + p.data.shape)
                       for p in _stack_planes(const) + _stack_planes(masked)]
        comp_out = self.comp(ad.concat(comp_planes, axis=0), training)  # [6, T, F]
        enhanced = []
        for ch in range(NUM_CHANNELS):
            cr = ad.reshape(ad.narrow(comp_out, 0, 2 * ch, 2 * ch + 1), masked[ch][0].data.shape)
            ci = ad.reshape(ad.narrow(comp_out, 0, 2 * ch + 1, 2 * ch + 2), masked[ch][1].data.shape)
            enhanced.append((ad.add(masked[ch][0], cr), ad.add(masked[ch][1], ci)))
        return StageTensors(masked, comp_out, enhanced)

    # -- audio-level forward ------------------------------------------------

    def _analysis(self, audio: dsp.AudioBuffer):
        bank = dsp.extract(audio)
        specs = [dsp.stft(ch) for ch in bank.channels]
        comp = [dsp.compress(s, self.cfg.compression) for s in specs]
        return bank, comp

    def _synthesis(self, enhanced_pairs, sub_len, origin_len):
        outs = []
        for r, i in enhanced_pairs:
            spec = dsp.ComplexSpectrum(np.asarray(r, dtype=np.float64),
                                       np.asarray(i, dtype=np.float64),
                                       dsp.COMPRESSED, exponent=self.cfg.compression)
            lin = dsp.decompress(spec, self.cfg.compression)
            outs.append(dsp.istft(lin, length=sub_len))
        bank = dsp.SubChannelBank(tuple(outs), origin_length=origin_len)
        return dsp.interpolate(bank)

    def forward(self, audio: dsp.AudioBuffer, identity_mask=False,
                disable_compensation=False) -> dsp.AudioBuffer:
        """Offline enhancement of a 48 kHz buffer; output length == input length.

        A buffer holding NaN or inf raises
        :class:`~fbse.errors.NonFiniteInputError` before any work is done.
        """
        if not np.isfinite(audio.samples).all():
            raise NonFiniteInputError("audio holds NaN or inf samples")
        bank, comp = self._analysis(audio)
        pairs = [(s.real, s.imag) for s in comp]
        with no_grad():
            st = self.enhance_spectra(pairs, training=False, identity_mask=identity_mask,
                                      disable_compensation=disable_compensation)
        enhanced = [(r.data, i.data) for r, i in st.enhanced]
        return self._synthesis(enhanced, bank.channel_length, bank.origin_length)

    def stage1_forward(self, audio: dsp.AudioBuffer) -> dsp.AudioBuffer:
        """Masking-only pipeline (compensation stage bypassed entirely)."""
        return self.forward(audio, disable_compensation=True)

    # -- streaming ----------------------------------------------------------

    def init_stream_state(self):
        dt = self.dtype
        return {
            "mag_tcn": self.mag_tcn.init_state(dt),
            "unet": self.unet.init_state(dt),
            "band_tcn": self.band_tcn.init_state(dt),
            "comp": self.comp.init_state(dt),
        }

    def stream_step(self, state, frame_pairs):
        """One hop: 3 compressed (real[F], imag[F]) pairs in, same out."""
        mags = [np.hypot(r, i) for r, i in frame_pairs]
        fixed = self.mag_tcn.step(state["mag_tcn"], np.concatenate(mags))
        unet_in = np.stack([p for pair in frame_pairs for p in pair], axis=0)
        dyn = self.unet.step(state["unet"], unet_in)           # [C_out, F]
        feats = self.band_tcn.step(state["band_tcn"], fixed, dyn.reshape(-1))
        masks = self.mask_head.step(None, feats)
        masked = apply_crm_frame(frame_pairs, masks)
        comp_in = np.stack([p for pair in frame_pairs for p in pair]
                           + [p for pair in masked for p in pair], axis=0)
        comp_out = self.comp.step(state["comp"], comp_in)
        return [(masked[ch][0] + comp_out[2 * ch], masked[ch][1] + comp_out[2 * ch + 1])
                for ch in range(NUM_CHANNELS)]

    # -- bookkeeping ----------------------------------------------------------

    @property
    def param_count(self) -> int:
        return self.store.total_count

    def stage_params(self, stage: str):
        prefix = f"{stage}."
        return {k: v for k, v in self.store.params.items() if k.startswith(prefix)}

    def zero_stage(self, stage: str):
        for t in self.stage_params(stage).values():
            t.data[...] = 0.0


# ---------------------------------------------------------------------------
# closed-form complexity accounting (independent of the built layers)


def _gated2d(cin, cout, kt, kf):
    return 2 * (cin * cout * kt * kf + cout)


def _conv1d_params(cin, cout, k):
    return cin * cout * k + cout


def _mag_tcn_counts(cfg: MagTcnConfig, bins):
    n_blocks = cfg.groups * cfg.per_group
    feat, hid = cfg.feature_dim, cfg.hidden_dim
    per_block = (_conv1d_params(feat, hid, 1) + 2 * _conv1d_params(hid, hid, cfg.kernel)
                 + _conv1d_params(hid, feat, 1) + 2 * hid)
    params = _conv1d_params(NUM_CHANNELS * bins, feat, 1) + n_blocks * per_block
    per_block_macs = (feat * hid + 2 * hid * hid * cfg.kernel + hid * feat)
    macs = NUM_CHANNELS * bins * feat + n_blocks * per_block_macs
    return params, macs


def _unet_counts(cfg: UnetConfig, in_channels, out_channels, bins):
    freqs = encoder_freqs(cfg, bins)
    ch = cfg.channels
    params = 0
    macs = 0
    for lvl in range(cfg.levels):
        kt, kf = _level_kernel(cfg, lvl)
        cin = in_channels if lvl == 0 else ch
        params += _gated2d(cin, ch, kt, kf) + 2 * ch + ch          # conv + IN + PReLU
        macs += 2 * cin * ch * kt * kf * freqs[lvl + 1]
        rkt, rkf = cfg.other_kernel
        for _ in range(cfg.convs_per_level - 1):
            params += _gated2d(ch, ch, rkt, rkf) + 2 * ch + ch
            macs += 2 * ch * ch * rkt * rkf * freqs[lvl + 1]
    bott = ch * freqs[-1]
    hid = cfg.lstm_hidden
    for l in range(cfg.lstm_layers):
        din = bott if l == 0 else hid
        params += 4 * hid * (din + hid) + 4 * hid
        macs += 4 * hid * (din + hid)
    params += hid * bott + bott
    macs += hid * bott
    for lvl in range(cfg.levels):
        kt, kf = _level_kernel(cfg, lvl, decoder=True)
        in_freq = freqs[cfg.levels - lvl]
        out_freq = freqs[cfg.levels - 1 - lvl]
        params += _gated2d(2 * ch, ch, kt, kf) + 2 * ch + ch
        macs += 2 * (2 * ch) * ch * kt * kf * in_freq
        rkt, rkf = cfg.other_kernel
        for _ in range(cfg.convs_per_level - 1):
            params += _gated2d(ch, ch, rkt, rkf) + 2 * ch + ch
            macs += 2 * ch * ch * rkt * rkf * out_freq
    params += ch * out_channels + out_channels
    macs += ch * out_channels * bins
    return params, macs


def _band_tcn_counts(cfg: BandTcnConfig, fixed_dim, dyn_flat_dim):
    bd = cfg.band_dim
    params = _conv1d_params(dyn_flat_dim, cfg.bands * bd, 1)
    macs = dyn_flat_dim * cfg.bands * bd
    per_block = (_conv1d_params(bd, bd, 1) * 2 + _conv1d_params(bd, bd, cfg.kernel) + 2 * bd)
    per_block_macs = 2 * bd * bd + bd * bd * cfg.kernel
    for b in range(cfg.bands):
        params += _conv1d_params(fixed_dim + bd, bd, 1)
        macs += (fixed_dim + bd) * bd
        cin = bd if b == 0 else 2 * bd
        params += _conv1d_params(cin, bd, 1)
        macs += cin * bd
        params += cfg.blocks_per_band * per_block
        macs += cfg.blocks_per_band * per_block_macs
    return params, macs


def complexity_report(cfg: ModelConfig):
    """Per-module parameter and MAC/frame counts from the config alone."""
    bins = cfg.bins
    report = {}
    report["magnitude_tcn"] = _mag_tcn_counts(cfg.mag_tcn, bins)
    report["embedding_unet"] = _unet_counts(cfg.unet, RI_PLANES, cfg.unet.out_channels, bins)
    fixed_dim = cfg.mag_tcn.feature_dim
    report["multiband_tcn"] = _band_tcn_counts(cfg.band_tcn, fixed_dim, cfg.unet.out_channels * bins)
    head_in = cfg.band_tcn.bands * cfg.band_tcn.band_dim
    report["mask_head"] = (RI_PLANES * _conv1d_params(head_in, bins, 1),
                           RI_PLANES * head_in * bins)
    comp_p, comp_m = _unet_counts(cfg.comp, COMP_IN_CHANNELS, RI_PLANES, bins)
    # the ChannelAffine heads add params but only elementwise work, which is not counted
    report["compensation"] = (comp_p + 2 * RI_PLANES, comp_m)
    return {name: {"params": p, "macs_per_frame": m} for name, (p, m) in report.items()}


def count_params(cfg: ModelConfig) -> int:
    return sum(mod["params"] for mod in complexity_report(cfg).values())


def count_macs_per_second(cfg: ModelConfig) -> int:
    per_frame = sum(mod["macs_per_frame"] for mod in complexity_report(cfg).values())
    return per_frame * FRAMES_PER_SECOND
