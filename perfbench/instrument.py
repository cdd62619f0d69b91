"""Which fbse calls the benchmark traces, and the per-layer metrics it derives.

Spans sit around the public entry points of each module: ``streaming``
(push/flush), ``model`` (the five top-level modules of the two-stage graph,
on the per-frame ``step`` path and the whole-sequence forward path),
``layers`` (every step kernel and every whole-sequence kernel), ``autodiff``
(``Tensor.backward``, plus a bare count of ``make_node`` calls), ``training``,
``params`` (``ParamStore.add*``), ``dsp`` and ``audio_io``.

MAC counts come from each layer's own ``macs_per_frame``; weight bytes are
computed from ``w.data.nbytes``, never measured, so ``weight_gb_s`` is the
bandwidth the layer would need if it read every weight once per call.
"""

import numpy as np

from fbse import audio_io, autodiff, dsp, layers, model, params, streaming, training
from tracer import COST, END, NAME, OP, PARENT, START, Tracer

ROLES = {  # attribute of Enhancer -> name in model.complexity_report
    "mag_tcn": "magnitude_tcn",
    "unet": "embedding_unet",
    "band_tcn": "multiband_tcn",
    "mask_head": "mask_head",
    "comp": "compensation",
}
ROLE_CLASSES = (model.GatedTcnStack, model.RecurrentUnet, model.MultiBandTcn,
                model.MaskHead, model.CompensationStage)
NORM_ACT = (layers.InstanceNorm, layers.PReLU, layers.ChannelAffine)
SEQ_KERNELS = ("conv1d_forward", "conv2d_forward", "conv_transpose2d_forward",
               "lstm_seq_forward", "lstm_seq_backward")
DSP_FUNCS = ("stft", "istft", "extract", "interpolate", "compress", "decompress")
PARAM_ADDS = ("add", "add_full", "add_buffer")


def _fixed_macs(layer, state, frame):
    return layer.macs_per_frame, layer.w.data.nbytes


def _freq_macs(layer, state, frame):
    return layer.macs_per_frame(frame.shape[1]), layer.w.data.nbytes


def _lstm_macs(layer, state, vec):
    return layer.macs_per_frame, sum(w.data.nbytes for w in layer.ws)


STEP_KERNELS = {  # class -> cost of one step call: (MACs, weight bytes)
    layers.Conv1d: _fixed_macs,
    layers.Conv2d: _freq_macs,
    layers.ConvTranspose2d: _freq_macs,
    layers.Lstm: _lstm_macs,
    layers.Linear: _fixed_macs,
}


def _conv2d_fwd_macs(x, w, b, stride, pad):
    fo = (x.shape[2] + 2 * pad - w.shape[3]) // stride + 1
    return w.size * x.shape[1] * fo


SEQ_MACS = {  # whole-sequence kernel -> MACs of one call
    "conv1d_forward": lambda x, w, b, dilation: w.size * x.shape[1],
    "conv2d_forward": _conv2d_fwd_macs,
    "conv_transpose2d_forward": lambda x, w, b, stride, pad, out_freq:
        w.size * x.shape[1] * x.shape[2],
    "lstm_seq_forward": lambda x, weights, biases: x.shape[0] * sum(w.size for w in weights),
    # weight gradient, input gradient and the recurrent h gradient: twice the forward
    "lstm_seq_backward": lambda g, caches, weights: 2 * g.shape[0] * sum(w.size for w in weights),
}


def _no_bytes(macs):
    return lambda *args, **kwargs: (macs(*args, **kwargs), 0)


class FbseTracer(Tracer):
    """Tracer wired to the fbse package; ``add_model`` names its modules."""

    def __init__(self):
        super().__init__()
        self.roles = {}

    def add_model(self, m):
        for attr in ROLES:
            self.roles[id(getattr(m, attr))] = attr

    def install(self):
        for fn in ("stream_create", "stream_push", "stream_flush"):
            self.wrap_function(streaming, fn, f"streaming.{fn}")
        enh = model.Enhancer
        self.wrap_method(enh, "__init__", "model.Enhancer.__init__")
        self.wrap_method(enh, "stream_step", "model.Enhancer.stream_step")
        self.wrap_method(enh, "forward", "model.Enhancer.forward")
        self.wrap_method(enh, "enhance_spectra", "model.Enhancer.enhance_spectra",
                         cost=lambda self_, pairs, *a, **k: np.shape(pairs[0][0])[0])
        roles = self.roles
        for cls in ROLE_CLASSES:
            for attr, kind in (("step", "step"), ("__call__", "fwd")):
                self.wrap_method(cls, attr, lambda obj, kind=kind:
                                 f"model.{roles.get(id(obj), type(obj).__name__)}.{kind}")
        for cls, cost in STEP_KERNELS.items():
            self.wrap_method(cls, "step", f"layers.{cls.__name__}.step", cost=cost)
        for cls in NORM_ACT:
            self.wrap_method(cls, "step", f"layers.{cls.__name__}.step")
        for fn in SEQ_KERNELS:
            self.wrap_function(layers, fn, f"layers.{fn}", cost=_no_bytes(SEQ_MACS[fn]))
        self.wrap_method(autodiff.Tensor, "backward", "autodiff.Tensor.backward")
        self.wrap_function(autodiff, "make_node", "autodiff.make_node", count_only=True)
        for fn in ("training_step", "spectra_pair", "decompress_op", "cmse_loss_op", "adam_step"):
            self.wrap_function(training, fn, f"training.{fn}")
        for fn in PARAM_ADDS + ("zero_grads",):
            self.wrap_method(params.ParamStore, fn, f"params.ParamStore.{fn}")
        for fn in DSP_FUNCS:
            self.wrap_function(dsp, fn, f"dsp.{fn}")
        for fn in ("read_wav", "write_wav"):
            self.wrap_function(audio_io, fn, f"audio_io.{fn}")
        return self

    def start_ops(self):
        """Mark the end of set-up: later spans and counts belong to operations."""
        self.op = 0
        for name in self.counts:
            self.counts[name] = 0

    # -- aggregation --------------------------------------------------------

    def _roles_of_spans(self):
        """Nearest enclosing top-level model module of every span (or None)."""
        out = []
        for s in self.spans:
            name = s[NAME]
            if name.startswith("model.") and name.split(".")[1] in ROLES:
                out.append(name.split(".")[1])
            else:
                out.append(out[s[PARENT]] if s[PARENT] >= 0 else None)
        return out

    def step_macs_per_role(self):
        """Per module, MACs of all leaf step kernels divided by frames stepped."""
        frames = sum(1 for s in self.spans if s[NAME] == "model.Enhancer.stream_step")
        macs = dict.fromkeys(ROLES, 0)
        for s, role in zip(self.spans, self._roles_of_spans()):
            if s[COST] is not None and s[NAME].endswith(".step") and role is not None:
                macs[role] += s[COST][0]
        return {role: m / frames for role, m in macs.items()} if frames else macs

    def per_layer(self, n_ops, anchor):
        """Every per-layer metric of the spans recorded during operations.

        ``n_ops`` is the number of traced operations (pushes, files or
        training steps); ``anchor`` names the span whose child coverage is
        reported as ``trace.coverage``. Metrics of code the workload never
        calls read 0.
        """
        self_t, child_t = self.self_times()
        calls, total, selft, work, nbytes = {}, {}, {}, {}, {}
        frames_fwd = 0
        train_fwd = 0.0
        anchor_t = anchor_child = 0.0
        for i, s in enumerate(self.spans):
            if s[OP] < 0:
                continue
            name, dur = s[NAME], s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            selft[name] = selft.get(name, 0.0) + self_t[i]
            if name == "model.Enhancer.enhance_spectra":
                frames_fwd += s[COST]
                parent = s[PARENT]
                if parent >= 0 and self.spans[parent][NAME] == "training.training_step":
                    train_fwd += dur
            elif s[COST] is not None:
                work[name] = work.get(name, 0) + s[COST][0]
                nbytes[name] = nbytes.get(name, 0) + s[COST][1]
            if name == anchor:
                anchor_t += dur
                anchor_child += child_t[i]

        frames_step = calls.get("model.Enhancer.stream_step", 0)
        ms = lambda sec, n: 1e3 * sec / n if n else 0.0
        rate = lambda amount, sec: amount / sec / 1e9 if sec > 0 else 0.0
        m = {}
        m["streaming.self_ms_per_push"] = ms(selft.get("streaming.stream_push", 0.0),
                                             calls.get("streaming.stream_push", 0))
        for role in ROLES:
            m[f"model.{role}.step_ms_per_frame"] = ms(total.get(f"model.{role}.step", 0.0),
                                                      frames_step)
            m[f"model.{role}.fwd_ms_per_frame"] = ms(total.get(f"model.{role}.fwd", 0.0),
                                                     frames_fwd)
        for cls in STEP_KERNELS:
            key = f"layers.{cls.__name__}.step"
            t = total.get(key, 0.0)
            m[f"{key}.ms_per_frame"] = ms(t, frames_step)
            m[f"{key}.calls_per_frame"] = calls.get(key, 0) / frames_step if frames_step else 0.0
            m[f"{key}.gmac_s"] = rate(work.get(key, 0), t)
            m[f"{key}.weight_gb_s"] = rate(nbytes.get(key, 0), t)
        na = [f"layers.{cls.__name__}.step" for cls in NORM_ACT]
        m["layers.norm_act.step.ms_per_frame"] = ms(sum(total.get(k, 0.0) for k in na),
                                                    frames_step)
        m["layers.norm_act.step.calls_per_frame"] = (
            sum(calls.get(k, 0) for k in na) / frames_step if frames_step else 0.0)
        for fn in SEQ_KERNELS:
            t = total.get(f"layers.{fn}", 0.0)
            m[f"layers.{fn}.ms"] = ms(t, n_ops)
            m[f"layers.{fn}.gmac_s"] = rate(work.get(f"layers.{fn}", 0), t)
        m["autodiff.backward.self_ms"] = ms(selft.get("autodiff.Tensor.backward", 0.0), n_ops)
        m["autodiff.nodes_per_step"] = self.counts.get("autodiff.make_node", 0) / n_ops
        m["training.forward_ms"] = ms(train_fwd, n_ops)
        m["training.loss_ms"] = ms(total.get("training.decompress_op", 0.0)
                                   + total.get("training.cmse_loss_op", 0.0), n_ops)
        m["training.adam_ms"] = ms(total.get("training.adam_step", 0.0), n_ops)
        for fn in DSP_FUNCS:
            m[f"dsp.{fn}.ms"] = ms(total.get(f"dsp.{fn}", 0.0), n_ops)
        for fn in ("read_wav", "write_wav"):
            m[f"audio_io.{fn}.ms"] = ms(total.get(f"audio_io.{fn}", 0.0), n_ops)
        init = sum(s[END] - s[START] for s in self.spans
                   if s[OP] < 0 and s[NAME] in {f"params.ParamStore.{f}" for f in PARAM_ADDS})
        m["params.init_ms"] = 1e3 * init
        m["trace.coverage"] = anchor_child / anchor_t if anchor_t > 0 else 0.0
        return m


def mac_crosscheck():
    """Traced per-frame MACs of the step path against model.complexity_report.

    Returns one row per (config, module) with both counts and their
    difference; rows with a non-zero difference are disagreements.
    """
    rows = []
    for cfg_name, cfg in (("tiny", model.ModelConfig.tiny()),
                          ("default", model.ModelConfig.default())):
        m = model.Enhancer(cfg, seed=0)
        zeros = np.zeros(cfg.bins, dtype=m.dtype)
        with FbseTracer().install() as tr:
            tr.add_model(m)
            m.stream_step(m.init_stream_state(), [(zeros, zeros)] * model.NUM_CHANNELS)
            traced = tr.step_macs_per_role()
        closed = model.complexity_report(cfg)
        for role, report_name in ROLES.items():
            want = closed[report_name]["macs_per_frame"]
            rows.append({"config": cfg_name, "module": role, "traced": int(traced[role]),
                         "complexity_report": want, "diff": int(traced[role]) - want})
        del m
    return rows
