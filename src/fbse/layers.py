"""Layer zoo: dilated causal 1-D conv, gated 2-D conv/deconv, instance norm,
multi-layer LSTM, linear, PReLU, per-channel affine.

Every layer offers two execution paths backed by the same kernel math:

* ``__call__(Tensor) -> Tensor`` — whole-sequence forward that records the
  reverse-mode tape (see :mod:`fbse.autodiff`);
* ``init_state()`` / ``step(state, frame)`` — stateful one-frame-at-a-time
  forward on plain arrays for the streaming runtime. Causal layers cache
  exactly ``(kernel-1)*dilation`` past frames.

Each conv ``step`` is one BLAS call on a view of ``w.data``: a GEMV over the
flattened dilated window (``Conv1d``), a GEMM over im2col columns
(``Conv2d``), a GEMM of the ``[Cout*Kf, Cin*Kt]`` weight with the
time-reversed window followed by ``Kf`` strided adds (``ConvTranspose2d``);
each LSTM layer is one GEMV over ``[x; h]``. ``ConvTranspose2d`` stores its
weight in step order ``[Cout, Kf, Cin, Kt]`` and registers the logical
``[Cout, Cin, Kt, Kf]`` view, so that matrix is a free reshape.

A gated pair (``GatedConv2d``, ``GatedConvTranspose2d`` and the dilated pair
of the magnitude TCN) owns one stacked weight and one stacked bias of height
``2*Cout``. Its ``lin`` and ``gate`` tensors, registered in the store under
their own names, shapes and seeded init, are views of rows ``[:Cout]`` and
``[Cout:]``; an unregistered layer with ``2*Cout`` outputs over the stacked
arrays runs the pair's ``step`` as one call with one cache. No copy of a
weight is cached anywhere, because checkpoint loading, stage zeroing and the
optimizer all update ``w.data`` in place, through the views.

Feature layouts: 1-D ``[C, T]``, 2-D ``[C, T, F]``, recurrent ``[T, D]``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .autodiff import Tensor, make_node
from .errors import ShapeMismatchError
from .params import ParamStore


def _sigmoid(x):
    return expit(x)


# ---------------------------------------------------------------------------
# dilated causal 1-D convolution


def conv1d_forward(x, w, b, dilation):
    """x [Cin,T], w [Cout,Cin,K] -> y [Cout,T]; causal left padding."""
    cout, cin, k = w.shape
    t = x.shape[1]
    pad = (k - 1) * dilation
    xp = np.pad(x, ((0, 0), (pad, 0)))
    y = np.broadcast_to(b[:, None], (cout, t)).copy()
    for i in range(k):
        y += w[:, :, i] @ xp[:, i * dilation : i * dilation + t]
    return y, xp


def conv1d_op(x: Tensor, w: Tensor, b: Tensor, dilation: int) -> Tensor:
    if x.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"conv1d: input channels {x.data.shape[0]} != weight {w.data.shape[1]}")
    y, xp = conv1d_forward(x.data, w.data, b.data, dilation)
    wd = w.data
    k = wd.shape[2]
    t = x.data.shape[1]
    pad = (k - 1) * dilation

    def bw(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(wd)
        for i in range(k):
            seg = slice(i * dilation, i * dilation + t)
            dw[:, :, i] = g @ xp[:, seg].T
            dxp[:, seg] += wd[:, :, i].T @ g
        w.accumulate_grad(dw)
        b.accumulate_grad(g.sum(axis=1))
        x.accumulate_grad(dxp[:, pad:])

    return make_node(y, (x, w, b), bw)


class Conv1d:
    """Dilated causal 1-D convolution over the time axis."""

    def __init__(self, store: ParamStore, name, cin, cout, kernel=1, dilation=1, out=(None, None)):
        self.name = name
        self.cin, self.cout, self.kernel, self.dilation = cin, cout, kernel, dilation
        self.w = store.add(f"{name}.weight", (cout, cin, kernel), fan_in=cin * kernel, out=out[0])
        self.b = store.add(f"{name}.bias", (cout,), zero=True, out=out[1])

    def __call__(self, x: Tensor) -> Tensor:
        return conv1d_op(x, self.w, self.b, self.dilation)

    @property
    def cache_frames(self):
        return (self.kernel - 1) * self.dilation

    def init_state(self, dtype=np.float64):
        return {"cache": np.zeros((self.cin, self.cache_frames), dtype=dtype)}

    def step(self, state, frame):
        if self.cache_frames == 0:
            return self.w.data[:, :, 0] @ frame + self.b.data
        win = np.concatenate([state["cache"], frame[:, None]], axis=1)
        taps = win[:, :: self.dilation].ravel()  # [Cin*K], same order as the weight rows
        y = self.w.data.reshape(self.cout, -1) @ taps + self.b.data
        state["cache"] = win[:, 1:]
        return y

    @property
    def param_count(self):
        return self.w.data.size + self.b.data.size

    @property
    def macs_per_frame(self):
        return self.cin * self.cout * self.kernel


# ---------------------------------------------------------------------------
# 2-D convolution: causal in time, strided/padded along frequency


def conv2d_forward(x, w, b, stride, pad):
    """x [Cin,T,F], w [Cout,Cin,Kt,Kf] -> y [Cout,T,Fo]."""
    cout, cin, kt, kf = w.shape
    t, f = x.shape[1], x.shape[2]
    fo = (f + 2 * pad - kf) // stride + 1
    xp = np.pad(x, ((0, 0), (kt - 1, 0), (pad, pad)))
    y = np.zeros((cout, t, fo), dtype=x.dtype)
    for i in range(kt):
        for j in range(kf):
            xs = xp[:, i : i + t, j : j + stride * (fo - 1) + 1 : stride]
            y += np.tensordot(w[:, :, i, j], xs, axes=(1, 0))
    y += b[:, None, None]
    return y, xp, fo


def conv2d_op(x: Tensor, w: Tensor, b: Tensor, stride: int, pad: int) -> Tensor:
    if x.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"conv2d: input channels {x.data.shape[0]} != weight {w.data.shape[1]}")
    y, xp, fo = conv2d_forward(x.data, w.data, b.data, stride, pad)
    wd = w.data
    _, _, kt, kf = wd.shape
    t, f = x.data.shape[1], x.data.shape[2]

    def bw(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(wd)
        for i in range(kt):
            for j in range(kf):
                fsl = slice(j, j + stride * (fo - 1) + 1, stride)
                xs = xp[:, i : i + t, fsl]
                dw[:, :, i, j] = np.tensordot(g, xs, axes=([1, 2], [1, 2]))
                dxp[:, i : i + t, fsl] += np.tensordot(wd[:, :, i, j].T, g, axes=(1, 0))
        w.accumulate_grad(dw)
        b.accumulate_grad(g.sum(axis=(1, 2)))
        x.accumulate_grad(dxp[:, kt - 1 :, pad : pad + f])

    return make_node(y, (x, w, b), bw)


class Conv2d:
    """2-D convolution, causal on the time axis, strided on frequency."""

    def __init__(self, store, name, cin, cout, kernel=(2, 3), stride=1, pad=None, out=(None, None)):
        self.name = name
        self.cin, self.cout = cin, cout
        self.kt, self.kf = kernel
        self.stride = stride
        self.pad = (self.kf - 1) // 2 if pad is None else pad
        fan_in = cin * self.kt * self.kf
        self.w = store.add(f"{name}.weight", (cout, cin, self.kt, self.kf), fan_in=fan_in,
                           out=out[0])
        self.b = store.add(f"{name}.bias", (cout,), zero=True, out=out[1])

    def out_freq(self, f):
        return (f + 2 * self.pad - self.kf) // self.stride + 1

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_op(x, self.w, self.b, self.stride, self.pad)

    @property
    def cache_frames(self):
        return self.kt - 1

    def init_state(self, freq, dtype=np.float64):
        return {"cache": np.zeros((self.cin, self.cache_frames, freq), dtype=dtype)}

    def step(self, state, frame):
        f = frame.shape[1]
        fo = self.out_freq(f)
        p = self.pad
        win = np.zeros((self.cin, self.kt, f + 2 * p), dtype=frame.dtype)  # [Cin,Kt,F+2*pad]
        win[:, :-1, p : p + f] = state["cache"]
        win[:, -1, p : p + f] = frame
        taps = sliding_window_view(win, self.kf, axis=2)[:, :, :: self.stride]  # [Cin,Kt,Fo,Kf]
        cols = taps.transpose(0, 1, 3, 2).reshape(-1, fo)  # im2col [Cin*Kt*Kf, Fo]
        y = self.w.data.reshape(self.cout, -1) @ cols + self.b.data[:, None]
        if self.cache_frames:
            state["cache"] = win[:, 1:, p : p + f]
        return y

    @property
    def param_count(self):
        return self.w.data.size + self.b.data.size

    def macs_per_frame(self, in_freq):
        return self.cin * self.cout * self.kt * self.kf * self.out_freq(in_freq)


# ---------------------------------------------------------------------------
# transposed 2-D convolution (frequency upsampling), causal in time


def conv_transpose2d_forward(x, w, b, stride, pad, out_freq):
    cout, cin, kt, kf = w.shape
    t, f = x.shape[1], x.shape[2]
    span = stride * (f - 1) + kf
    buf = np.zeros((cout, t, span), dtype=x.dtype)
    for i in range(kt):
        for j in range(kf):
            contrib = np.tensordot(w[:, :, i, j], x, axes=(1, 0))  # [Cout,T,F]
            buf[:, i:, j : j + stride * (f - 1) + 1 : stride] += contrib[:, : t - i]
    take = min(out_freq, span - pad)
    y = np.zeros((cout, t, out_freq), dtype=x.dtype)
    y[:, :, :take] = buf[:, :, pad : pad + take]
    y += b[:, None, None]
    return y, span, take


def conv_transpose2d_op(x: Tensor, w: Tensor, b: Tensor, stride, pad, out_freq) -> Tensor:
    if x.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"deconv2d: input channels {x.data.shape[0]} != weight {w.data.shape[1]}")
    y, span, take = conv_transpose2d_forward(x.data, w.data, b.data, stride, pad, out_freq)
    xd, wd = x.data, w.data
    _, _, kt, kf = wd.shape
    t, f = xd.shape[1], xd.shape[2]

    def bw(g):
        gspan = np.zeros((g.shape[0], t, span), dtype=g.dtype)
        gspan[:, :, pad : pad + take] = g[:, :, :take]
        dx = np.zeros_like(xd)
        dw = np.zeros_like(wd)
        for i in range(kt):
            for j in range(kf):
                gs = gspan[:, i:, j : j + stride * (f - 1) + 1 : stride]  # [Cout,T-i,F]
                dw[:, :, i, j] = np.tensordot(gs, xd[:, : t - i], axes=([1, 2], [1, 2]))
                dx[:, : t - i] += np.tensordot(wd[:, :, i, j].T, gs, axes=(1, 0))
        w.accumulate_grad(dw)
        b.accumulate_grad(g.sum(axis=(1, 2)))
        x.accumulate_grad(dx)

    return make_node(y, (x, w, b), bw)


class ConvTranspose2d:
    """Frequency-upsampling transposed conv; output frequency size is pinned
    to the paired encoder resolution (trim/zero-pad on the right)."""

    def __init__(self, store, name, cin, cout, kernel=(2, 3), stride=2, pad=None, out_freq=None,
                 out=(None, None)):
        self.name = name
        self.cin, self.cout = cin, cout
        self.kt, self.kf = kernel
        self.stride = stride
        self.pad = (self.kf - 1) // 2 if pad is None else pad
        self.out_freq = out_freq
        fan_in = cin * self.kt * self.kf
        w = out[0]
        if w is None:  # stored in step order [Cout, Kf, Cin, Kt], viewed as [Cout, Cin, Kt, Kf]
            w = np.empty((cout, self.kf, cin, self.kt), dtype=store.dtype).transpose(0, 2, 3, 1)
        self.w = store.add(f"{name}.weight", (cout, cin, self.kt, self.kf), fan_in=fan_in, out=w)
        self.b = store.add(f"{name}.bias", (cout,), zero=True, out=out[1])

    def natural_out_freq(self, f):
        return self.stride * (f - 1) + self.kf - 2 * self.pad

    def __call__(self, x: Tensor) -> Tensor:
        out_freq = self.out_freq or self.natural_out_freq(x.data.shape[2])
        return conv_transpose2d_op(x, self.w, self.b, self.stride, self.pad, out_freq)

    @property
    def cache_frames(self):
        return self.kt - 1

    def init_state(self, freq, dtype=np.float64):
        return {"cache": np.zeros((self.cin, self.cache_frames, freq), dtype=dtype)}

    def step(self, state, frame):
        win = np.concatenate([state["cache"], frame[:, None, :]], axis=1)
        f = frame.shape[1]
        out_freq = self.out_freq or self.natural_out_freq(f)
        span = self.stride * (f - 1) + self.kf
        # tap (i, j) of x[t - i] lands on output bins j, j + stride, ...; undoing the
        # logical view gives the stored [Cout, Kf, Cin, Kt] order, so no copy is made
        wmat = self.w.data.transpose(0, 3, 1, 2).reshape(self.cout * self.kf, -1)
        contrib = (wmat @ win[:, ::-1].reshape(-1, f)).reshape(self.cout, self.kf, f)
        buf = np.zeros((self.cout, span), dtype=frame.dtype)
        for j in range(self.kf):
            buf[:, j : j + self.stride * (f - 1) + 1 : self.stride] += contrib[:, j]
        take = min(out_freq, span - self.pad)
        y = np.zeros((self.cout, out_freq), dtype=frame.dtype)
        y[:, :take] = buf[:, self.pad : self.pad + take]
        y += self.b.data[:, None]
        if self.cache_frames:
            state["cache"] = win[:, 1:, :]
        return y

    @property
    def param_count(self):
        return self.w.data.size + self.b.data.size

    def macs_per_frame(self, in_freq):
        return self.cin * self.cout * self.kt * self.kf * in_freq


# ---------------------------------------------------------------------------
# gated pairs: out = lin(x) * sigmoid(gate(x)), one stacked weight per pair


class _Unregistered:
    """Store stand-in for a gated pair's stacked layer: it allocates the
    stacked arrays and registers nothing; the pair's halves fill them."""

    def __init__(self, dtype):
        self.dtype = dtype

    def add(self, name, shape, out=None, **init):
        return Tensor(np.empty(shape, dtype=self.dtype) if out is None else out)


def gated_pair(cls, store, name, lin_name, gate_name, cin, cout, *args):
    """``(lin, gate, pair)``: ``pair`` is an unregistered ``cls`` layer with
    ``2*cout`` outputs; ``lin`` and ``gate`` are registered under their names
    over views of its rows ``[:cout]`` and ``[cout:]``."""
    pair = cls(_Unregistered(store.dtype), name, cin, 2 * cout, *args)
    w, b = pair.w.data, pair.b.data
    lin = cls(store, lin_name, cin, cout, *args, out=(w[:cout], b[:cout]))
    gate = cls(store, gate_name, cin, cout, *args, out=(w[cout:], b[cout:]))
    return lin, gate, pair


def gate_halves(y):
    """``lin * sigmoid(gate)`` of a stacked pair output ``[lin; gate]``."""
    c = y.shape[0] // 2
    return y[:c] * _sigmoid(y[c:])


class _Gated:
    def __init__(self, cls, store, name, cin, cout, *args):
        self.name = name
        self.lin, self.gate, self.pair = gated_pair(cls, store, name, f"{name}.lin",
                                                    f"{name}.gate", cin, cout, *args)

    def __call__(self, x: Tensor) -> Tensor:
        from . import autodiff as ad

        return ad.mul(self.lin(x), ad.sigmoid(self.gate(x)))

    def init_state(self, freq, dtype=np.float64):
        return self.pair.init_state(freq, dtype)

    def step(self, state, frame):
        return gate_halves(self.pair.step(state, frame))

    @property
    def param_count(self):
        return self.pair.param_count

    def macs_per_frame(self, in_freq):
        return self.pair.macs_per_frame(in_freq)


class GatedConv2d(_Gated):
    def __init__(self, store, name, cin, cout, kernel=(2, 3), stride=1, pad=None):
        super().__init__(Conv2d, store, name, cin, cout, kernel, stride, pad)

    def out_freq(self, f):
        return self.pair.out_freq(f)


class GatedConvTranspose2d(_Gated):
    def __init__(self, store, name, cin, cout, kernel=(2, 3), stride=2, pad=None, out_freq=None):
        super().__init__(ConvTranspose2d, store, name, cin, cout, kernel, stride, pad, out_freq)


# ---------------------------------------------------------------------------
# instance normalization


def instance_norm_op(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Per-channel zero-mean/unit-variance over all non-channel axes, then affine."""
    xd = x.data
    axes = tuple(range(1, xd.ndim))
    mu = xd.mean(axis=axes, keepdims=True)
    var = xd.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = (xd - mu) * inv
    gshape = (-1,) + (1,) * (xd.ndim - 1)
    y = gamma.data.reshape(gshape) * xh + beta.data.reshape(gshape)
    n = int(np.prod([xd.shape[a] for a in axes]))

    def bw(g):
        gamma.accumulate_grad((g * xh).sum(axis=axes))
        beta.accumulate_grad(g.sum(axis=axes))
        dxh = g * gamma.data.reshape(gshape)
        s1 = dxh.sum(axis=axes, keepdims=True)
        s2 = (dxh * xh).sum(axis=axes, keepdims=True)
        x.accumulate_grad(inv / n * (n * dxh - s1 - xh * s2))

    return make_node(y, (x, gamma, beta), bw)


class InstanceNorm:
    """Utterance statistics while training; frozen running statistics at
    inference (the streaming path is strictly causal and per-frame)."""

    def __init__(self, store, name, channels, eps=1e-5, decay=0.99):
        self.name = name
        self.channels = channels
        self.eps = eps
        self.decay = decay
        self.gamma = store.add_full(f"{name}.gamma", (channels,), 1.0)
        self.beta = store.add(f"{name}.beta", (channels,), zero=True)
        self.run_mean = store.add_buffer(f"{name}.run_mean", (channels,), 0.0)
        self.run_var = store.add_buffer(f"{name}.run_var", (channels,), 1.0)

    def __call__(self, x: Tensor, training=False) -> Tensor:
        if training:
            axes = tuple(range(1, x.data.ndim))
            self.run_mean *= self.decay
            self.run_mean += (1 - self.decay) * x.data.mean(axis=axes)
            self.run_var *= self.decay
            self.run_var += (1 - self.decay) * x.data.var(axis=axes)
            return instance_norm_op(x, self.gamma, self.beta, self.eps)
        return self._frozen_affine(x)

    def _frozen_affine(self, x: Tensor):
        from . import autodiff as ad

        gshape = (-1,) + (1,) * (x.data.ndim - 1)
        inv = 1.0 / np.sqrt(self.run_var + self.eps)
        w = (self.gamma.data * inv).reshape(gshape)
        off = (self.beta.data - self.gamma.data * inv * self.run_mean).reshape(gshape)
        gamma, beta, run_mean, eps = self.gamma, self.beta, self.run_mean, self.eps
        xd = x.data
        y = w * xd + off

        def bw(g):
            axes = tuple(range(1, xd.ndim))
            x.accumulate_grad(g * w)
            invf = 1.0 / np.sqrt(self.run_var + eps)
            gamma.accumulate_grad((g * (xd - run_mean.reshape(gshape)) * invf.reshape(gshape)).sum(axis=axes))
            beta.accumulate_grad(g.sum(axis=axes))

        return make_node(y, (x, gamma, beta), bw)

    def init_state(self, freq=None, dtype=np.float64):
        return {}

    def step(self, state, frame):
        inv = 1.0 / np.sqrt(self.run_var + self.eps)
        w = (self.gamma.data * inv)[:, None]
        off = (self.beta.data - self.gamma.data * inv * self.run_mean)[:, None]
        return w * frame + off

    @property
    def param_count(self):
        return 2 * self.channels


# ---------------------------------------------------------------------------
# PReLU


class PReLU:
    def __init__(self, store, name, channels, init_slope=0.25):
        self.name = name
        self.alpha = store.add_full(f"{name}.alpha", (channels,), init_slope)

    def __call__(self, x: Tensor) -> Tensor:
        from . import autodiff as ad

        return ad.prelu(x, self.alpha)

    def init_state(self, freq=None, dtype=np.float64):
        return {}

    def step(self, state, frame):
        slope = self.alpha.data.reshape((-1,) + (1,) * (frame.ndim - 1))
        return np.where(frame > 0, frame, slope * frame)

    @property
    def param_count(self):
        return self.alpha.data.size


# ---------------------------------------------------------------------------
# linear (used on [T, D] sequences)


class Linear:
    def __init__(self, store, name, din, dout):
        self.name = name
        self.din, self.dout = din, dout
        self.w = store.add(f"{name}.weight", (din, dout), fan_in=din)
        self.b = store.add(f"{name}.bias", (dout,), zero=True)

    def __call__(self, x: Tensor) -> Tensor:
        xd, wd = x.data, self.w.data
        w, b = self.w, self.b

        def bw(g):
            x.accumulate_grad(g @ wd.T)
            w.accumulate_grad(xd.T @ g)
            b.accumulate_grad(g.sum(axis=0))

        return make_node(xd @ wd + self.b.data, (x, w, b), bw)

    def init_state(self, dtype=np.float64):
        return {}

    def step(self, state, vec):
        return vec @ self.w.data + self.b.data

    @property
    def param_count(self):
        return self.w.data.size + self.b.data.size

    @property
    def macs_per_frame(self):
        return self.din * self.dout


# ---------------------------------------------------------------------------
# per-channel affine (compensation calibration heads)


def channel_affine_op(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    gshape = (-1,) + (1,) * (x.data.ndim - 1)
    xd = x.data
    ws = w.data.reshape(gshape)

    def bw(g):
        axes = tuple(range(1, xd.ndim))
        x.accumulate_grad(g * ws)
        w.accumulate_grad((g * xd).sum(axis=axes))
        b.accumulate_grad(g.sum(axis=axes))

    return make_node(ws * xd + b.data.reshape(gshape), (x, w, b), bw)


class ChannelAffine:
    """One scalar gain and bias per channel (kernel-1 conv on a single plane)."""

    def __init__(self, store, name, channels):
        self.name = name
        self.channels = channels
        self.w = store.add(f"{name}.weight", (channels,), uniform_bound=1.0)
        self.b = store.add(f"{name}.bias", (channels,), zero=True)

    def __call__(self, x: Tensor) -> Tensor:
        return channel_affine_op(x, self.w, self.b)

    def init_state(self, freq=None, dtype=np.float64):
        return {}

    def step(self, state, frame):
        gshape = (-1,) + (1,) * (frame.ndim - 1)
        return self.w.data.reshape(gshape) * frame + self.b.data.reshape(gshape)

    @property
    def param_count(self):
        return 2 * self.channels


# ---------------------------------------------------------------------------
# multi-layer LSTM


def lstm_seq_forward(x, weights, biases):
    """x [T, D] through stacked LSTM layers; returns (y [T, H], caches)."""
    caches = []
    inp = x
    for wl, bl in zip(weights, biases):
        h4 = bl.shape[0]
        hid = h4 // 4
        din = wl.shape[1] - hid
        t = inp.shape[0]
        wx, wh = wl[:, :din], wl[:, din:]
        gates_x = inp @ wx.T + bl
        h = np.zeros(hid, dtype=x.dtype)
        c = np.zeros(hid, dtype=x.dtype)
        arr = lambda: np.zeros((t, hid), dtype=x.dtype)
        hs, h_prev, c_prev, iv, fv, gv, ov, tc = (arr() for _ in range(8))
        for ti in range(t):
            gate = gates_x[ti] + wh @ h
            i_ = _sigmoid(gate[:hid])
            f_ = _sigmoid(gate[hid : 2 * hid])
            g_ = np.tanh(gate[2 * hid : 3 * hid])
            o_ = _sigmoid(gate[3 * hid :])
            h_prev[ti], c_prev[ti] = h, c
            c = f_ * c + i_ * g_
            tc_ = np.tanh(c)
            h = o_ * tc_
            hs[ti] = h
            iv[ti], fv[ti], gv[ti], ov[ti], tc[ti] = i_, f_, g_, o_, tc_
        caches.append({"inp": inp, "hs": hs, "h_prev": h_prev, "c_prev": c_prev,
                       "i": iv, "f": fv, "g": gv, "o": ov, "tc": tc, "din": din, "hid": hid})
        inp = hs
    return inp, caches


def lstm_seq_backward(g_out, caches, weights):
    """Backprop through time for the stacked forward above."""
    dws, dbs = [], []
    dh_seq = g_out
    for cache, wl in zip(reversed(caches), reversed(weights)):
        din, hid = cache["din"], cache["hid"]
        inp = cache["inp"]
        t = inp.shape[0]
        wh = wl[:, din:]
        dgates = np.zeros((t, 4 * hid), dtype=inp.dtype)
        dh_rec = np.zeros(hid, dtype=inp.dtype)
        dc_rec = np.zeros(hid, dtype=inp.dtype)
        iv, fv, gv, ov, tc = cache["i"], cache["f"], cache["g"], cache["o"], cache["tc"]
        c_prev = cache["c_prev"]
        for ti in range(t - 1, -1, -1):
            dh = dh_seq[ti] + dh_rec
            do = dh * tc[ti]
            dc = dc_rec + dh * ov[ti] * (1.0 - tc[ti] ** 2)
            di = dc * gv[ti]
            df = dc * c_prev[ti]
            dg = dc * iv[ti]
            dc_rec = dc * fv[ti]
            dgates[ti, :hid] = di * iv[ti] * (1.0 - iv[ti])
            dgates[ti, hid : 2 * hid] = df * fv[ti] * (1.0 - fv[ti])
            dgates[ti, 2 * hid : 3 * hid] = dg * (1.0 - gv[ti] ** 2)
            dgates[ti, 3 * hid :] = do * ov[ti] * (1.0 - ov[ti])
            dh_rec = wh.T @ dgates[ti]
        cat = np.concatenate([inp, cache["h_prev"]], axis=1)
        dws.append(dgates.T @ cat)
        dbs.append(dgates.sum(axis=0))
        dh_seq = dgates @ wl[:, :din]
    return dh_seq, list(reversed(dws)), list(reversed(dbs))


class Lstm:
    """Stacked unidirectional LSTM over [T, D] sequences."""

    def __init__(self, store, name, din, hidden, layers):
        self.name = name
        self.din, self.hidden, self.layers = din, hidden, layers
        bound = 1.0 / np.sqrt(hidden)
        self.ws, self.bs = [], []
        for l in range(layers):
            d = din if l == 0 else hidden
            self.ws.append(store.add(f"{name}.l{l}.weight", (4 * hidden, d + hidden),
                                     uniform_bound=bound))
            # zero biases keep the whole graph silence-preserving at init
            self.bs.append(store.add(f"{name}.l{l}.bias", (4 * hidden,), zero=True))

    def __call__(self, x: Tensor) -> Tensor:
        weights = [w.data for w in self.ws]
        biases = [b.data for b in self.bs]
        y, caches = lstm_seq_forward(x.data, weights, biases)
        ws, bs = self.ws, self.bs

        def bw(g):
            dx, dws, dbs = lstm_seq_backward(g, caches, weights)
            x.accumulate_grad(dx)
            for wt, dw in zip(ws, dws):
                wt.accumulate_grad(dw)
            for bt, db in zip(bs, dbs):
                bt.accumulate_grad(db)

        return make_node(y, (x, *ws, *bs), bw)

    def init_state(self, dtype=np.float64):
        return {"h": np.zeros((self.layers, self.hidden), dtype=dtype),
                "c": np.zeros((self.layers, self.hidden), dtype=dtype)}

    def step(self, state, vec):
        hid = self.hidden
        inp = vec
        for l in range(self.layers):
            gate = self.ws[l].data @ np.concatenate([inp, state["h"][l]]) + self.bs[l].data
            i_ = _sigmoid(gate[:hid])
            f_ = _sigmoid(gate[hid : 2 * hid])
            g_ = np.tanh(gate[2 * hid : 3 * hid])
            o_ = _sigmoid(gate[3 * hid :])
            state["c"][l] = f_ * state["c"][l] + i_ * g_
            state["h"][l] = o_ * np.tanh(state["c"][l])
            inp = state["h"][l]
        return inp.copy()

    @property
    def param_count(self):
        return sum(w.data.size for w in self.ws) + sum(b.data.size for b in self.bs)

    @property
    def macs_per_frame(self):
        total = 0
        for l in range(self.layers):
            d = self.din if l == 0 else self.hidden
            total += 4 * self.hidden * (d + self.hidden)
        return total
