"""Two-stage enhancement graph over three 16 kHz sub-channel spectra.

Stage 1 estimates bounded complex ratio masks from two parallel embeddings:

* a gated temporal-conv stack over the compressed magnitude spectra
  (fixed receptive field), and
* a gated 2-D conv U-net with an LSTM bottleneck over the compressed
  real/imag planes (dynamic receptive field),

fused per frequency band by a forward-stacked multi-band TCN. Stage 2 runs a
second U-net over the noisy + masked planes and adds a per-channel-calibrated
compensation to the masked spectra. Everything is causal in time.

Each top-level module reports its multiply-accumulates per frame as the sum
of its layers'; ``complexity_report`` reads them and the parameter counts off
a built model, for the ``analyze`` CLI command and the acceptance checks.
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
    ConvTranspose2d,
    GatedConv2d,
    GatedConvTranspose2d,
    InstanceNorm,
    Linear,
    Lstm,
    TIME_BLOCK,
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
# bound on every size, kernel, stride, dilation and count of a config section;
# without it a stride-1 U-net of 10**9 levels makes the frequency ladder a
# 10**9-entry list before any layer is built
MAX_CONFIG_SIZE = 1 << 16


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
        """Every size, kernel, stride, dilation and count of a section is in
        [1, MAX_CONFIG_SIZE], and a tuple of them is non-empty; a U-net kernel
        is a (time, freq) pair."""
        for name in _SECTIONS:
            sub = getattr(self, name)
            for f in fields(sub):
                v = getattr(sub, f.name)
                vals = v if isinstance(v, tuple) else (v,)
                if (not vals or min(vals) < 1 or max(vals) > MAX_CONFIG_SIZE
                        or (f.name.endswith("_kernel") and len(vals) != 2)):
                    raise ConfigError(f"{name}.{f.name} = {_fmt_value(v)}: sizes are 1 to "
                                      f"{MAX_CONFIG_SIZE}, U-net kernels (time, freq) pairs")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype = {self.dtype!r}: must be float32 or float64")
        if not 0 < self.compression <= 1:
            raise ConfigError(f"compression = {self.compression}: must be in (0, 1]")
        for unet in (self.unet, self.comp):
            ladder = encoder_freqs(unet, self.bins)
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


def _parse_like(template, raw, key):
    try:
        return tuple(map(int, raw.split(","))) if isinstance(template, tuple) else type(template)(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r}: not a valid {type(template).__name__}") from None


_SECTIONS = {"mag_tcn": MagTcnConfig, "unet": UnetConfig, "band_tcn": BandTcnConfig, "comp": UnetConfig}
_SCALARS = ("compression", "dtype")


def _flat(cfg: ModelConfig):
    """``{file key: value}`` of every config field, in file order."""
    out = {key: getattr(cfg, key) for key in _SCALARS}
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        out.update({f"{section}.{f.name}": getattr(sub, f.name) for f in fields(sub)})
    return out


def config_to_text(cfg: ModelConfig) -> str:
    lines = [f"{CONFIG_FORMAT} v{CONFIG_VERSION}"]
    lines += [f"{key} = {_fmt_value(v)}" for key, v in _flat(cfg).items()]
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    """The config of a config file; anything malformed raises :class:`ConfigError`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ConfigError("empty config file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != CONFIG_FORMAT:
        raise ConfigError(f"not a {CONFIG_FORMAT} file: {lines[0]!r}")
    if head[1] != f"v{CONFIG_VERSION}":
        raise ConfigError(f"unsupported config version {head[1]}")
    defaults = _flat(ModelConfig())
    parts = {name: {} for name in ("", *_SECTIONS)}  # "" holds the scalars
    for ln in lines[1:]:
        if "=" not in ln:
            raise ConfigError(f"malformed line: {ln!r}")
        key, raw = (part.strip() for part in ln.split("=", 1))
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        section, _, attr = key.rpartition(".")
        parts[section][attr] = _parse_like(defaults[key], raw, key)
    scalars = parts.pop("")
    return ModelConfig(**{name: _SECTIONS[name](**kw) for name, kw in parts.items()}, **scalars)


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

    def __call__(self, x: Tensor, state=None) -> Tensor:
        h = self.act_in(self.pw_in(x, state))
        g = gate_op(stacked_op(self.dil, (self.dil_lin, self.dil_gate), h, state))
        return ad.add(x, self.pw_out(self.act_mid(g), state))

    def step(self, state, frame):
        h = self.act_in.step(state, self.pw_in.step(state, frame))
        g = gate_halves(self.dil.step(state, h))
        return frame + self.pw_out.step(state, self.act_mid.step(state, g))


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
        return 1 + sum((b.dil.kernel - 1) * b.dil.dilation for b in self.blocks)

    def __call__(self, x: Tensor, state=None) -> Tensor:
        h = self.in_proj(x, state)
        for b in self.blocks:
            h = b(h, state)
        return h

    def step(self, state, frame):
        h = self.in_proj.step(state, frame)
        for b in self.blocks:
            h = b.step(state, h)
        return h

    @property
    def macs_per_frame(self):  # a block's stacked pair ``dil`` once, not its halves as well
        convs = [c for b in self.blocks for c in (b.pw_in, b.dil, b.pw_out)]
        return sum(c.macs_per_frame for c in [self.in_proj, *convs])


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

    def __call__(self, x: Tensor, training, state=None) -> Tensor:
        h = self.act(self.norm(self.main(x, state), training))
        for conv, norm, act in self.refiners:
            h = act(norm(conv(h, state), training))
        return h

    def step(self, state, frame):
        h = self.act.step(state, self.norm.step(state, self.main.step(state, frame)))
        for conv, norm, act in self.refiners:
            h = act.step(state, norm.step(state, conv.step(state, h)))
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

    def __call__(self, x: Tensor, training=False, state=None) -> Tensor:
        if x.data.shape[0] != self.in_channels:
            raise ShapeMismatchError(
                f"expected {self.in_channels}-channel input, got {x.data.shape[0]}")
        skips = []
        h = x
        for level in self.encoder:
            h = level(h, training, state)
            skips.append(h)
        ch, t, fb = h.data.shape
        flat = ad.reshape(ad.moveaxis(h, 0, 1), (t, ch * fb))
        emb = self.unflatten(self.lstm(flat, state))
        h = ad.moveaxis(ad.reshape(emb, (t, ch, fb)), 0, 1)
        for lvl, level in enumerate(self.decoder):
            h = level(ad.concat([h, skips[self.cfg.levels - 1 - lvl]], axis=0), training, state)
        return self.out_conv(h, state)

    def step(self, state, frame):
        skips = []
        h = frame
        for level in self.encoder:
            h = level.step(state, h)
            skips.append(h)
        ch, fb = h.shape
        emb = self.unflatten.step(state, self.lstm.step(state, h.reshape(ch * fb)))
        h = emb.reshape(ch, fb)
        for lvl, level in enumerate(self.decoder):
            h = level.step(state, np.concatenate([h, skips[self.cfg.levels - 1 - lvl]], axis=0))
        return self.out_conv.step(state, h)

    @property
    def macs_per_frame(self):
        """Gated pairs at the bins they read: a level's main conv sets its refiners' bins."""
        f, macs = self.freqs[0], self.lstm.macs_per_frame + self.unflatten.macs_per_frame
        for level in self.encoder + self.decoder:
            main = level.main.pair
            macs += main.macs_per_frame(f)
            f = main.out_freq if isinstance(main, ConvTranspose2d) else main.out_freq(f)
            macs += sum(conv.pair.macs_per_frame(f) for conv, _, _ in level.refiners)
        return macs + self.out_conv.macs_per_frame(f)


# ---------------------------------------------------------------------------
# multi-band TCN


class TcnBlock:
    def __init__(self, store, name, dim, kernel, dilation, depth):
        self.pw_in = Conv1d(store, f"{name}.pw_in", dim, dim, 1)
        self.act_in = PReLU(store, f"{name}.act_in", dim)
        self.dil = Conv1d(store, f"{name}.dil", dim, dim, kernel, dilation)
        self.act_mid = PReLU(store, f"{name}.act_mid", dim)
        self.pw_out = Conv1d(store, f"{name}.pw_out", dim, dim, 1, gain=_branch_gain(depth))

    def __call__(self, x: Tensor, state=None) -> Tensor:
        h = self.act_mid(self.dil(self.act_in(self.pw_in(x, state)), state))
        return ad.add(x, self.pw_out(h, state))

    def step(self, state, frame):
        h = self.act_mid.step(state, self.dil.step(state, self.act_in.step(state, self.pw_in.step(state, frame))))
        return frame + self.pw_out.step(state, h)


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

    def __call__(self, fixed: Tensor, dyn_flat: Tensor, state=None) -> Tensor:
        if fixed.data.shape[0] != self.fixed_dim:
            raise ShapeMismatchError(
                f"fixed embedding dim {fixed.data.shape[0]} != {self.fixed_dim}")
        dyn = self.dyn_proj(dyn_flat, state)
        bd = self.cfg.band_dim
        outs = []
        prev = None
        for b in range(self.cfg.bands):
            y = ad.narrow(dyn, 0, b * bd, (b + 1) * bd)
            y = self.fusion[b](ad.concat([fixed, y], axis=0), state)
            h = y if prev is None else ad.concat([prev, y], axis=0)
            h = self.band_in[b](h, state)
            for blk in self.bands[b]:
                h = blk(h, state)
            outs.append(h)
            prev = h
        return ad.concat(outs, axis=0)

    def step(self, state, fixed_f, dyn_flat_f):
        dyn = self.dyn_proj.step(state, dyn_flat_f)
        bd = self.cfg.band_dim
        outs = []
        prev = None
        for b in range(self.cfg.bands):
            y = dyn[b * bd : (b + 1) * bd]
            y = self.fusion[b].step(state, np.concatenate([fixed_f, y]))
            h = y if prev is None else np.concatenate([prev, y])
            h = self.band_in[b].step(state, h)
            for blk in self.bands[b]:
                h = blk.step(state, h)
            outs.append(h)
            prev = h
        return np.concatenate(outs)

    @property
    def macs_per_frame(self):
        convs = [c for band in self.bands for b in band for c in (b.pw_in, b.dil, b.pw_out)]
        return sum(c.macs_per_frame for c in [self.dyn_proj, *self.fusion, *self.band_in, *convs])


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
        planes = np.tanh(self.whole.step(state, feat_f)).reshape(RI_PLANES, self.bins)
        return [(planes[2 * ch], planes[2 * ch + 1]) for ch in range(NUM_CHANNELS)]

    @property
    def macs_per_frame(self):
        return self.whole.macs_per_frame


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

    def __call__(self, planes: Tensor, training=False, state=None) -> Tensor:
        return self.heads(self.unet(planes, training, state))

    def step(self, state, frame):
        return self.heads.step(state, self.unet.step(state, frame))

    @property
    def macs_per_frame(self):  # the heads do elementwise work only, which is not counted
        return self.unet.macs_per_frame


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

    def enhance_spectra(self, noisy_pairs, training=False,
                        disable_compensation=False, state=None) -> StageTensors:
        """Run both stages on compressed (real, imag) plane pairs.

        ``noisy_pairs`` is a list of 3 ``(real, imag)`` arrays of shape [T, F].
        ``disable_compensation`` stops after stage 1. Frames given a stream
        ``state`` (``{}`` when fresh) continue it, untaped and at inference only.
        """
        if len(noisy_pairs) != NUM_CHANNELS:
            raise ShapeMismatchError(f"expected {NUM_CHANNELS} sub-channels")
        if state is not None and (training or ad.grad_enabled()):
            raise ValueError("a stream state runs untaped inference: training=False under no_grad")
        const = [(Tensor(np.ascontiguousarray(r, dtype=self.dtype)),
                  Tensor(np.ascontiguousarray(i, dtype=self.dtype)))
                 for r, i in noisy_pairs]
        mags = [np.sqrt(r.data * r.data + i.data * i.data).T for r, i in const]  # [F, T]
        mag_flat = Tensor(np.concatenate(mags, axis=0))                # [3F, T]
        fixed = self.mag_tcn(mag_flat, state)
        unet_in = ad.concat([ad.reshape(p, (1,) + p.data.shape)
                             for pair in const for p in pair], axis=0)  # [6, T, F]
        dyn = self.unet(unet_in, training, state)                       # [C_out, T, F]
        dyn_flat = ad.reshape(ad.moveaxis(dyn, 1, 2), (-1, dyn.data.shape[1]))
        feats = self.band_tcn(fixed, dyn_flat, state)
        masked = apply_crm(const, self.mask_head(feats))
        if disable_compensation:
            t, f = const[0][0].data.shape
            comp_zero = Tensor(np.zeros((RI_PLANES, t, f), dtype=self.dtype))
            return StageTensors(masked, comp_zero, list(masked))
        comp_planes = [ad.reshape(p, (1,) + p.data.shape)
                       for p in _stack_planes(const) + _stack_planes(masked)]
        comp_out = self.comp(ad.concat(comp_planes, axis=0), training, state)  # [6, T, F]
        enhanced = []
        for ch in range(NUM_CHANNELS):
            cr = ad.reshape(ad.narrow(comp_out, 0, 2 * ch, 2 * ch + 1), masked[ch][0].data.shape)
            ci = ad.reshape(ad.narrow(comp_out, 0, 2 * ch + 1, 2 * ch + 2), masked[ch][1].data.shape)
            enhanced.append((ad.add(masked[ch][0], cr), ad.add(masked[ch][1], ci)))
        return StageTensors(masked, comp_out, enhanced)

    # -- audio-level forward ------------------------------------------------

    def enhance_frames(self, frames, state, disable_compensation=False):
        """Time frames ``[3, n, WIN_LEN]`` that continue the stream ``state``
        -> their WOLA terms ``[3, n, WIN_LEN]``: analysis, compression, model,
        expansion and synthesis, the one block body of offline and streaming.

        One frame with compensation on runs :meth:`stream_step`, any other block
        :meth:`enhance_spectra` untaped; both fill the same per-layer state. At
        one frame the step kernels make about a third of the Python calls.
        """
        c = self.cfg.compression
        spec = dsp.analysis_frames(frames)                               # [3, n, F]
        r, i = dsp.compressed_planes(spec.real, spec.imag, c)
        if frames.shape[1] == 1 and not disable_compensation:
            pairs = zip(r[:, 0].astype(self.dtype), i[:, 0].astype(self.dtype))
            out = [(er[None], ei[None]) for er, ei in self.stream_step(state, list(pairs))]
        else:
            with no_grad():
                st = self.enhance_spectra(list(zip(r, i)), disable_compensation=disable_compensation,
                                          state=state)
            out = [(er.data, ei.data) for er, ei in st.enhanced]
        er, ei = np.array(list(zip(*out)), dtype=np.float64)                   # [3, n, F] each
        lr, li = dsp.compressed_planes(er, ei, 1.0 / c)
        return dsp.synthesis_frames(lr + 1j * li)

    def forward(self, audio: dsp.AudioBuffer, disable_compensation=False) -> dsp.AudioBuffer:
        """Offline enhancement of a 48 kHz buffer; output length == input length.

        :meth:`enhance_frames` runs ``TIME_BLOCK`` frames at a time over one
        stream state, and :func:`fbse.dsp.wola` adds each block's terms to the
        tail of the one before: memory is O(model + block) besides the samples.
        NaN or inf samples raise :class:`~fbse.errors.NonFiniteInputError` first.
        """
        if not np.isfinite(audio.samples).all():
            raise NonFiniteInputError("audio holds NaN or inf samples")
        frames = dsp.frame_view(np.array([ch.samples for ch in dsp.extract(audio).channels]))
        hops = np.empty((NUM_CHANNELS, frames.shape[1] + 1, dsp.HOP_LEN))  # [3, T+1, HOP]
        state, tail = {}, np.zeros((NUM_CHANNELS, dsp.HOP_LEN))
        for t0 in range(0, frames.shape[1], TIME_BLOCK):
            segs = self.enhance_frames(frames[:, t0 : t0 + TIME_BLOCK], state, disable_compensation)
            hops[:, t0 : t0 + segs.shape[1]], tail = dsp.wola(tail, segs, first=t0 == 0)
        hops[:, -1] = tail / dsp.OLA_DENOM_LAST
        del frames
        subs = hops.reshape(NUM_CHANNELS, -1)  # interpolate trims them
        bank = dsp.SubChannelBank(tuple(dsp.AudioBuffer(ch, dsp.SUBBAND_RATE) for ch in subs),
                                  origin_length=audio.length)
        return dsp.interpolate(bank)

    def stage1_forward(self, audio: dsp.AudioBuffer) -> dsp.AudioBuffer:
        """Masking-only pipeline (compensation stage bypassed entirely)."""
        return self.forward(audio, disable_compensation=True)

    # -- streaming ----------------------------------------------------------

    def init_stream_state(self):
        """An empty dict: each stateful layer fills its own slot on its first frame."""
        return {}

    def stream_step(self, state, frame_pairs):
        """One hop: 3 compressed (real[F], imag[F]) pairs in, same out."""
        unet_in = np.stack([p for pair in frame_pairs for p in pair], axis=0)  # [6, F]
        fixed = self.mag_tcn.step(state, np.sqrt(unet_in[0::2] ** 2 + unet_in[1::2] ** 2).ravel())
        dyn = self.unet.step(state, unet_in)           # [C_out, F]
        feats = self.band_tcn.step(state, fixed, dyn.reshape(-1))
        masks = self.mask_head.step(state, feats)
        masked = apply_crm_frame(frame_pairs, masks)
        comp_in = np.stack([p for pair in frame_pairs for p in pair]
                           + [p for pair in masked for p in pair], axis=0)
        comp_out = self.comp.step(state, comp_in)
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

    def complexity(self):
        """Per top-level module: its stored parameters and its MACs per frame."""
        modules = {"magnitude_tcn": (self.mag_tcn, "stage1.mag_tcn"),
                   "embedding_unet": (self.unet, "stage1.unet"),
                   "multiband_tcn": (self.band_tcn, "stage1.band_tcn"),
                   "mask_head": (self.mask_head, "stage1.mask_head"),
                   "compensation": (self.comp, "stage2")}
        return {name: {"params": sum(t.data.size for t in self.stage_params(prefix).values()),
                       "macs_per_frame": mod.macs_per_frame}
                for name, (mod, prefix) in modules.items()}


def complexity_report(cfg: ModelConfig):
    """:meth:`Enhancer.complexity` of a model built from ``cfg``."""
    return Enhancer(cfg).complexity()
