"""Layer zoo: dilated causal 1-D conv, gated 2-D conv/deconv, instance norm,
multi-layer LSTM, linear, PReLU, per-channel affine.

Every layer has a whole-sequence ``__call__(Tensor) -> Tensor`` that records
the reverse-mode tape (see :mod:`fbse.autodiff`), and ``init_state()`` /
``step(state, frame)`` on plain arrays for the streaming runtime. Causal
layers cache exactly ``(kernel-1)*dilation`` past frames.

A 2-D conv layer has one chunk kernel ``(x [Cin,T,F], cache [Cin,Kt-1,F]) ->
(y, cache)``: a GEMM of the ``[Cout, Cin*Kt*Kf]`` weight with im2col columns
(``conv2d_chunk``), or of the ``[Cout*Kf, Cin*Kt]`` weight with time-reversed
windows and then ``Kf`` strided adds (``conv_transpose2d_chunk``), once per
block of ``TIME_BLOCK`` frames, so the columns stay a few MB at any length.
The whole-sequence forward is the chunk from a zero cache, ``chunk(state, x)``
continues a stream and ``step`` is its T=1 case. The tape's backward walks the
same blocks with one column buffer per call: a conv's input gradient is the
deconv's GEMM and ``Kf`` adds applied to ``g``, a deconv's is a strided conv of
``g`` whose columns also give its weight gradient. ``ConvTranspose2d``
stores its weight in step order ``[Cout, Kf, Cin, Kt]`` behind the logical
``[Cout, Cin, Kt, Kf]`` view, so its matrix is a free reshape.

:func:`stacked` layers (gated pairs, the mask-head planes) own one weight and
bias whose row blocks are the parts' registered tensors. An unregistered
layer over the stacked arrays runs them as one op, step and cache, and
:func:`stacked_op` splits its gradients back into the parts. No weight copy
is cached: loading, stage zeroing and the optimizer write ``w.data`` in place.

Feature layouts: 1-D ``[C, T]``, 2-D ``[C, T, F]``, recurrent ``[T, D]``.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor, logistic, make_node
from .errors import ShapeMismatchError
from .params import ParamStore

TIME_BLOCK = 32  # frames per im2col block of the 2-D conv kernels


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
        dw = np.empty_like(wd)
        for i in range(k):
            dw[:, :, i] = g @ xp[:, i * dilation : i * dilation + t].T
        w.accumulate_grad(dw)
        b.accumulate_grad(g.sum(axis=1))
        if x.requires_grad:  # tap i reads x from pad - i*dilation frames back
            dx = wd[:, :, k - 1].T @ g
            for i in range(k - 1):
                lag = pad - i * dilation
                if lag < t:
                    dx[:, : t - lag] += wd[:, :, i].T @ g[:, lag:]
            x.accumulate_grad(dx)

    return make_node(y, (x, w, b), bw)


class Conv1d:
    """Dilated causal 1-D convolution over the time axis."""

    def __init__(self, store: ParamStore, name, cin, cout, kernel=1, dilation=1, out=(None, None),
                 gain=1.0):
        self.name = name
        self.cin, self.cout, self.kernel, self.dilation = cin, cout, kernel, dilation
        self.w = store.add(f"{name}.weight", (cout, cin, kernel), fan_in=cin * kernel, out=out[0],
                           gain=gain)
        self.b = store.add(f"{name}.bias", (cout,), zero=True, out=out[1])

    def op(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        return conv1d_op(x, w, b, self.dilation)

    def __call__(self, x: Tensor) -> Tensor:
        return self.op(x, self.w, self.b)

    def init_state(self, dtype=np.float64):
        return {"cache": np.zeros((self.cin, (self.kernel - 1) * self.dilation), dtype=dtype)}

    def step(self, state, frame):
        if self.kernel == 1:
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


def _time_blocks(t):
    for t0 in range(0, t, TIME_BLOCK):
        yield t0, min(TIME_BLOCK, t - t0)


def _copy_into(out, taps):
    """``taps`` as a ``[prod(shape[:-2]), prod(shape[-2:])]`` matrix in the head
    of the flat buffer ``out``, which the blocks of one backward reuse."""
    m = out[: taps.size].reshape(-1, taps.shape[-2] * taps.shape[-1])
    np.copyto(m.reshape(taps.shape), taps)
    return m


def _conv2d_cols(xp, t0, n, kt, kf, stride, out=None):
    """im2col of output frames ``t0 .. t0+n-1``: ``[Cin*Kt*Kf, n*Fo]``, row
    ``(c, i, j)`` and column ``(b, o)`` holding ``xp[c, t0+b+i, stride*o+j]``."""
    cin, _, fp = xp.shape
    fo = (fp - kf) // stride + 1
    sc, st, sf = xp.strides
    taps = as_strided(xp[:, t0:], (cin, kt, kf, n, fo), (sc, st, sf, st, stride * sf),
                      writeable=False)
    return taps.reshape(-1, n * fo) if out is None else _copy_into(out, taps)


def conv2d_chunk(x, cache, w, b, stride, pad):
    """x [Cin,T,F] following ``cache`` [Cin,Kt-1,F], w [Cout,Cin,Kt,Kf]
    -> (y [Cout,T,Fo], next cache): one GEMM per time block."""
    cout, _, kt, kf = w.shape
    t, f = x.shape[1], x.shape[2]
    fo = (f + 2 * pad - kf) // stride + 1
    xp = np.zeros((x.shape[0], kt - 1 + t, f + 2 * pad), dtype=x.dtype)  # [cache; x], padded
    xp[:, : kt - 1, pad : pad + f] = cache
    xp[:, kt - 1 :, pad : pad + f] = x
    wmat = w.reshape(cout, -1)
    y = np.empty((cout, t * fo), dtype=x.dtype)
    for t0, n in _time_blocks(t):
        yb = y[:, t0 * fo : (t0 + n) * fo]
        np.matmul(wmat, _conv2d_cols(xp, t0, n, kt, kf, stride), out=yb)
        yb += b[:, None]
    return y.reshape(cout, t, fo), xp[:, t:, pad : pad + f]


def conv2d_forward(x, w, b, stride, pad):
    """:func:`conv2d_chunk` from a zero cache."""
    cache = np.zeros((x.shape[0], w.shape[2] - 1, x.shape[2]), dtype=x.dtype)
    return conv2d_chunk(x, cache, w, b, stride, pad)


def conv2d_op(x: Tensor, w: Tensor, b: Tensor, stride: int, pad: int) -> Tensor:
    if x.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"conv2d: input channels {x.data.shape[0]} != weight {w.data.shape[1]}")
    y = conv2d_forward(x.data, w.data, b.data, stride, pad)[0]
    xd, wd = x.data, w.data

    def bw(g):
        # per block: dW from the recomputed columns; dx is the transposed conv of
        # g, i.e. the deconv kernel's GEMM on g's time-reversed windows + Kf adds
        cout, cin, kt, kf = wd.shape
        t, f = xd.shape[1], xd.shape[2]
        fo = g.shape[2]
        xp = np.zeros((cin, kt - 1 + t, f + 2 * pad), dtype=xd.dtype)  # as the forward's
        xp[:, kt - 1 :, pad : pad + f] = xd
        gm = g.reshape(cout, -1)
        dw = np.zeros((cout, cin * kt * kf), dtype=wd.dtype)
        active = x.requires_grad
        block = min(TIME_BLOCK, t) * fo
        xcols = np.empty(cin * kt * kf * block, dtype=xd.dtype)  # buffers reused by every block
        if active:
            gp = np.zeros((cout, t + kt - 1, fo), dtype=g.dtype)  # frames past the end: zero
            gp[:, :t] = g
            wmat_t = wd.transpose(1, 3, 0, 2).reshape(cin * kf, cout * kt)
            scatter = _deconv_scatter(fo, kf, stride, pad, f)
            dx = np.zeros_like(xd)
            gcols = np.empty(cout * kt * block, dtype=g.dtype)
            dcols = np.empty(cin * kf * block, dtype=g.dtype)
        for t0, n in _time_blocks(t):
            cols = _conv2d_cols(xp, t0, n, kt, kf, stride, out=xcols)
            dw += gm[:, t0 * fo : (t0 + n) * fo] @ cols.T
            if active:
                taps = np.matmul(wmat_t, _deconv_cols(gp, t0, n, kt, out=gcols),
                                 out=dcols[: cin * kf * n * fo].reshape(cin * kf, n * fo))
                taps = taps.reshape(cin, kf, n, fo)
                for j, in_bins, out_bins in scatter:
                    dx[:, t0 : t0 + n, in_bins] += taps[:, j, :, out_bins]
        w.accumulate_grad(dw.reshape(wd.shape))
        b.accumulate_grad(g.sum(axis=(1, 2)))
        if active:
            x.accumulate_grad(dx)

    return make_node(y, (x, w, b), bw)


class Conv2d:
    """2-D convolution, causal on the time axis, strided on frequency."""

    def __init__(self, store, name, cin, cout, kernel=(2, 3), stride=1, pad=None, out=(None, None)):
        self.name = name
        self.cin, self.cout = cin, cout
        self.kt, self.kf = kernel
        self.stride = stride
        self.pad = (self.kf - 1) // 2 if pad is None else pad
        self.w = store.add(f"{name}.weight", (cout, cin, *kernel), fan_in=cin * self.kt * self.kf,
                           out=out[0])
        self.b = store.add(f"{name}.bias", (cout,), zero=True, out=out[1])

    def out_freq(self, f):
        return (f + 2 * self.pad - self.kf) // self.stride + 1

    def op(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        return conv2d_op(x, w, b, self.stride, self.pad)

    def __call__(self, x: Tensor) -> Tensor:
        return self.op(x, self.w, self.b)

    def init_state(self, freq, dtype=np.float64):
        return {"cache": np.zeros((self.cin, self.kt - 1, freq), dtype=dtype)}

    def chunk(self, state, x):
        """[Cin,T,F] frames that follow those already seen -> [Cout,T,Fo]."""
        y, state["cache"] = conv2d_chunk(x, state["cache"], self.w.data, self.b.data,
                                         self.stride, self.pad)
        return y

    def step(self, state, frame):
        return self.chunk(state, frame[:, None])[:, 0]

    def macs_per_frame(self, in_freq):
        return self.cin * self.cout * self.kt * self.kf * self.out_freq(in_freq)


# ---------------------------------------------------------------------------
# transposed 2-D convolution (frequency upsampling), causal in time


def _deconv_cols(xp, t0, n, kt, out=None):
    """Time-reversed windows of output frames ``t0 .. t0+n-1``: ``[Cin*Kt, n*F]``,
    row ``(c, i)`` and column ``(b, f)`` holding ``xp[c, t0+b+Kt-1-i, f]``."""
    cin, _, f = xp.shape
    sc, st, sf = xp.strides
    taps = as_strided(xp[:, t0 + kt - 1 :], (cin, kt, n, f), (sc, -st, st, sf), writeable=False)
    return taps.reshape(-1, n * f) if out is None else _copy_into(out, taps)


def _deconv_scatter(f, kf, stride, pad, out_freq):
    """Per frequency tap ``j``: the output bins ``stride*f + j - pad`` that land
    in ``[0, out_freq)``, and the input bins ``f`` they come from."""
    taps = []
    for j in range(kf):
        f0 = max(0, -((j - pad) // stride))
        f1 = min(f, (out_freq - 1 + pad - j) // stride + 1)
        if f1 > f0:
            q0 = stride * f0 + j - pad
            taps.append((j, slice(q0, q0 + stride * (f1 - f0 - 1) + 1, stride), slice(f0, f1)))
    return taps


def conv_transpose2d_chunk(x, cache, w, b, stride, pad, out_freq):
    """x [Cin,T,F] following ``cache`` [Cin,Kt-1,F] -> (y [Cout,T,out_freq], next
    cache): per time block, one GEMM, then tap ``j`` of input bin ``f`` is added
    to output bin ``stride*f + j - pad``. Bins past the span hold the bias only."""
    cout, _, kt, kf = w.shape
    t, f = x.shape[1], x.shape[2]
    xp = np.concatenate([cache, x], axis=1)
    wmat = w.transpose(0, 3, 1, 2).reshape(cout * kf, -1)  # free in step order
    scatter = _deconv_scatter(f, kf, stride, pad, out_freq)
    y = np.empty((cout, t, out_freq), dtype=x.dtype)
    y[...] = b[:, None, None]
    for t0, n in _time_blocks(t):
        contrib = (wmat @ _deconv_cols(xp, t0, n, kt)).reshape(cout, kf, n, f)
        for j, out_bins, in_bins in scatter:
            y[:, t0 : t0 + n, out_bins] += contrib[:, j, :, in_bins]
    return y, xp[:, t:]


def conv_transpose2d_forward(x, w, b, stride, pad, out_freq):
    """:func:`conv_transpose2d_chunk` from a zero cache."""
    cache = np.zeros((x.shape[0], w.shape[2] - 1, x.shape[2]), dtype=x.dtype)
    return conv_transpose2d_chunk(x, cache, w, b, stride, pad, out_freq)


def conv_transpose2d_op(x: Tensor, w: Tensor, b: Tensor, stride, pad, out_freq) -> Tensor:
    if x.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"deconv2d: input channels {x.data.shape[0]} != weight {w.data.shape[1]}")
    y = conv_transpose2d_forward(x.data, w.data, b.data, stride, pad, out_freq)[0]
    xd, wd = x.data, w.data

    def bw(g):
        # the input gradient is a strided conv of g: per block, one set of
        # im2col columns of g serves dW and dx, each one GEMM
        cout, cin, kt, kf = wd.shape
        t, f = xd.shape[1], xd.shape[2]
        span = min(out_freq, stride * (f - 1) + kf - pad)  # bins the taps reach
        # zero: frames past the end, bins left of 0 and bins the output trimmed away
        gp = np.zeros((cout, t + kt - 1, stride * (f - 1) + kf), dtype=g.dtype)
        gp[:, :t, pad : pad + span] = g[:, :, :span]
        dw = np.zeros((cout * kt * kf, cin), dtype=wd.dtype)
        active = x.requires_grad
        if active:
            wmat_t = wd.transpose(1, 0, 2, 3).reshape(cin, -1)
            dx = np.empty_like(xd)
        buf = np.empty(cout * kt * kf * min(TIME_BLOCK, t) * f, dtype=g.dtype)
        for t0, n in _time_blocks(t):
            cols = _conv2d_cols(gp, t0, n, kt, kf, stride, out=buf)
            dw += cols @ xd[:, t0 : t0 + n].reshape(cin, -1).T
            if active:
                np.matmul(wmat_t, cols, out=dx[:, t0 : t0 + n].reshape(cin, -1))
        w.accumulate_grad(dw.reshape(cout, kt, kf, cin).transpose(0, 3, 1, 2))
        b.accumulate_grad(g.sum(axis=(1, 2)))
        if active:
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
        w = out[0]
        if w is None:  # stored in step order [Cout, Kf, Cin, Kt], viewed as [Cout, Cin, Kt, Kf]
            w = np.empty((cout, self.kf, cin, self.kt), dtype=store.dtype).transpose(0, 2, 3, 1)
        self.w = store.add(f"{name}.weight", (cout, cin, *kernel), fan_in=cin * self.kt * self.kf,
                           out=w)
        self.b = store.add(f"{name}.bias", (cout,), zero=True, out=out[1])

    def natural_out_freq(self, f):
        return self.stride * (f - 1) + self.kf - 2 * self.pad

    def op(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        out_freq = self.out_freq or self.natural_out_freq(x.data.shape[2])
        return conv_transpose2d_op(x, w, b, self.stride, self.pad, out_freq)

    def __call__(self, x: Tensor) -> Tensor:
        return self.op(x, self.w, self.b)

    def init_state(self, freq, dtype=np.float64):
        return {"cache": np.zeros((self.cin, self.kt - 1, freq), dtype=dtype)}

    def chunk(self, state, x):
        """[Cin,T,F] frames that follow those already seen -> [Cout,T,out_freq]."""
        out_freq = self.out_freq or self.natural_out_freq(x.shape[2])
        y, state["cache"] = conv_transpose2d_chunk(x, state["cache"], self.w.data, self.b.data,
                                                   self.stride, self.pad, out_freq)
        return y

    def step(self, state, frame):
        return self.chunk(state, frame[:, None])[:, 0]

    def macs_per_frame(self, in_freq):
        return self.cin * self.cout * self.kt * self.kf * in_freq


# ---------------------------------------------------------------------------
# stacked layers: several same-shape layers as row blocks of one weight


class _Unregistered:
    """Store stand-in that allocates a stacked layer's arrays and registers nothing."""

    def __init__(self, dtype):
        self.dtype = dtype

    def add(self, name, shape, out=None, **init):
        return Tensor(np.empty(shape, dtype=self.dtype) if out is None else out)


def stacked(cls, store, name, part_names, cin, cout, *args):
    """``(parts, whole)``: ``whole`` is an unregistered ``cls`` layer with
    ``len(part_names)*cout`` outputs; part ``k`` is registered under
    ``part_names[k]`` over a view of its rows ``[k*cout:(k+1)*cout]``."""
    whole = cls(_Unregistered(store.dtype), name, cin, len(part_names) * cout, *args)
    w, b = whole.w.data, whole.b.data
    rows = [slice(k * cout, (k + 1) * cout) for k in range(len(part_names))]
    parts = [cls(store, n, cin, cout, *args, out=(w[r], b[r])) for n, r in zip(part_names, rows)]
    return parts, whole


def stacked_op(whole, parts, x: Tensor) -> Tensor:
    """``whole``'s op on the tape, its weight gradients split into ``parts``."""
    w = ad.concat([p.w for p in parts], data=whole.w.data)
    b = ad.concat([p.b for p in parts], data=whole.b.data)
    return whole.op(x, w, b)


def gate_halves(y):
    """``lin * sigmoid(gate)`` of a fresh stacked pair output ``[lin; gate]``,
    computed in place: the result is a view of ``y``'s first half."""
    c = y.shape[0] // 2
    lin, gate = y[:c], y[c:]
    lin *= logistic(gate, out=gate)
    return lin


def gate_op(y: Tensor) -> Tensor:
    """:func:`gate_halves` on the tape; off it, the fresh op output ``y`` is gated in place."""
    if not ad.recording((y,)):
        return Tensor(gate_halves(y.data))
    yd = y.data
    c = yd.shape[0] // 2
    lin, s = yd[:c], logistic(yd[c:])

    def bw(g):
        dy = np.empty_like(yd)
        gs = np.multiply(g, s, out=dy[:c])
        dgate = np.subtract(1.0, s, out=dy[c:])
        dgate *= lin
        dgate *= gs
        y.accumulate_grad(dy)

    return make_node(lin * s, (y,), bw)


class _Gated:
    def __init__(self, cls, store, name, cin, cout, *args):
        self.name = name
        (self.lin, self.gate), self.pair = stacked(
            cls, store, name, (f"{name}.lin", f"{name}.gate"), cin, cout, *args)

    def __call__(self, x: Tensor) -> Tensor:
        return gate_op(stacked_op(self.pair, (self.lin, self.gate), x))

    def init_state(self, freq, dtype=np.float64):
        return self.pair.init_state(freq, dtype)

    def chunk(self, state, x):
        return gate_halves(self.pair.chunk(state, x))

    def step(self, state, frame):
        return gate_halves(self.pair.step(state, frame))



class GatedConv2d(_Gated):
    def __init__(self, store, name, cin, cout, kernel=(2, 3), stride=1, pad=None):
        super().__init__(Conv2d, store, name, cin, cout, kernel, stride, pad)


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
        # dx = gamma * inv * (g - mean(g) - xh * mean(g * xh)), in one buffer
        tmp = np.multiply(g, xh)
        g_xh = tmp.sum(axis=axes, keepdims=True)
        g_sum = g.sum(axis=axes, keepdims=True)
        gamma.accumulate_grad(g_xh.reshape(-1))
        beta.accumulate_grad(g_sum.reshape(-1))
        if x.requires_grad:
            dx = np.multiply(xh, g_xh / -n, out=tmp)
            dx += g
            dx -= g_sum / n
            dx *= gamma.data.reshape(gshape) * inv
            x.accumulate_grad(dx)

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

    def _frozen(self, ndim):
        """Per-channel ``1/std``, scale and offset of the frozen affine, for ``ndim``-D input."""
        gshape = (-1,) + (1,) * (ndim - 1)
        inv = 1.0 / np.sqrt(self.run_var + self.eps)
        off = self.beta.data - self.gamma.data * inv * self.run_mean
        return inv.reshape(gshape), (self.gamma.data * inv).reshape(gshape), off.reshape(gshape)

    def _frozen_affine(self, x: Tensor):
        gamma, beta, run_mean = self.gamma, self.beta, self.run_mean
        xd = x.data
        inv, w, off = self._frozen(xd.ndim)

        def bw(g):
            axes = tuple(range(1, xd.ndim))
            if x.requires_grad:
                x.accumulate_grad(g * w)
            gamma.accumulate_grad((g * (xd - run_mean.reshape(inv.shape)) * inv).sum(axis=axes))
            beta.accumulate_grad(g.sum(axis=axes))

        return make_node(w * xd + off, (x, gamma, beta), bw)

    def step(self, state, frame):
        _, w, off = self._frozen(frame.ndim)
        return w * frame + off


# ---------------------------------------------------------------------------
# PReLU


class PReLU:
    def __init__(self, store, name, channels, init_slope=0.25):
        self.name = name
        self.alpha = store.add_full(f"{name}.alpha", (channels,), init_slope)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.prelu(x, self.alpha)

    def step(self, state, frame):
        slope = self.alpha.data.reshape((-1,) + (1,) * (frame.ndim - 1))
        return np.where(frame > 0, frame, slope * frame)


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
            if x.requires_grad:
                x.accumulate_grad(g @ wd.T)
            w.accumulate_grad(xd.T @ g)
            b.accumulate_grad(g.sum(axis=0))

        return make_node(xd @ wd + self.b.data, (x, w, b), bw)

    def step(self, state, vec):
        return vec @ self.w.data + self.b.data

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
        if x.requires_grad:
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

    def step(self, state, frame):
        gshape = (-1,) + (1,) * (frame.ndim - 1)
        return self.w.data.reshape(gshape) * frame + self.b.data.reshape(gshape)


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
            sig = logistic(gate)
            i_, f_, o_ = sig[:hid], sig[hid : 2 * hid], sig[3 * hid :]
            g_ = np.tanh(gate[2 * hid : 3 * hid])
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
        wh_t = wl[:, din:].T
        iv, fv, gv, ov, tc = cache["i"], cache["f"], cache["g"], cache["o"], cache["tc"]
        # local derivatives for all steps at once: the i, f, g gate gradients
        # are dc times these, the o gate's is dh times its own, dc gets dh*dc_dh
        dc_gates = np.stack([gv * iv * (1.0 - iv), cache["c_prev"] * fv * (1.0 - fv),
                             iv * (1.0 - gv * gv)], axis=1)
        dh_o = tc * ov * (1.0 - ov)
        dc_dh = ov * (1.0 - tc * tc)
        dgates = np.empty((t, 4 * hid), dtype=inp.dtype)
        dg_cell = dgates[:, : 3 * hid].reshape(t, 3, hid)
        dg_o = dgates[:, 3 * hid :]
        dh_rec = np.zeros(hid, dtype=inp.dtype)
        dc_rec = np.zeros(hid, dtype=inp.dtype)
        for ti in range(t - 1, -1, -1):
            dh = dh_seq[ti] + dh_rec
            dc = dh * dc_dh[ti]
            dc += dc_rec
            np.multiply(dc_gates[ti], dc, out=dg_cell[ti])
            np.multiply(dh_o[ti], dh, out=dg_o[ti])
            dc_rec = dc * fv[ti]
            dh_rec = wh_t @ dgates[ti]
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
            if x.requires_grad:
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
            sig = logistic(gate)
            i_, f_, o_ = sig[:hid], sig[hid : 2 * hid], sig[3 * hid :]
            g_ = np.tanh(gate[2 * hid : 3 * hid])
            state["c"][l] = f_ * state["c"][l] + i_ * g_
            state["h"][l] = o_ * np.tanh(state["c"][l])
            inp = state["h"][l]
        return inp.copy()

    @property
    def macs_per_frame(self):
        total = 0
        for l in range(self.layers):
            d = self.din if l == 0 else self.hidden
            total += 4 * self.hidden * (d + self.hidden)
        return total
