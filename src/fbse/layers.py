"""Layer zoo: dilated causal 1-D conv, gated 2-D conv/deconv, instance norm,
multi-layer LSTM, linear, PReLU, per-channel affine.

Every layer has a whole-sequence ``__call__(Tensor) -> Tensor`` that records
the reverse-mode tape (see :mod:`fbse.autodiff`), and ``step(state, frame)``
on plain arrays for the streaming runtime.

Every conv and LSTM layer has one chunk kernel, ``(x, cache) -> (y, cache)``
over frames that follow those already seen, where a ``None`` cache is a zero
one: ``__call__(x)`` runs it from ``None`` on the tape, ``chunk(state, x)``
continues a stream and ``step`` is its T=1 case; ``__call__(x, state)`` is
``Tensor(chunk(state, x.data))``, off the tape, and so the offline forward
runs block by block. A stream's state is one flat dict that each stateful
layer owns a slot of, ``state[layer]``, filled from the layer's first input;
a kernel-1 ``Conv1d`` keeps none.
``lstm_chunk`` makes one input GEMM per chunk and one recurrent GEMV per
frame. A conv caches exactly the ``(kernel-1)*dilation`` past frames it reads
(copied after a multi-frame call, so no view pins that call's buffer) and
makes one GEMM per block of ``TIME_BLOCK`` frames, over strided views of
``[cache; x]`` (built by the ``np.ndarray`` constructor; ``as_strided`` costs
five Python calls): the ``[Cout, Cin*K]`` weight times im2col columns, dilated
in time (``conv1d_chunk``; kernel 1 multiplies ``x`` itself) or strided in
frequency (``conv2d_chunk``), or the ``[Cout*Kf, Cin*Kt]`` weight, stored in
that order, times time-reversed windows and then ``Kf`` strided adds
(``conv_transpose2d_chunk``). The backward walks the same blocks: the input
gradient of a 1-D conv is one ``W^T g`` GEMM and ``K`` shifted adds, of a 2-D
conv the deconv's GEMM and adds on ``g``, of a deconv a strided conv of ``g``
whose columns also give dW.

:func:`stacked` layers (gated pairs, the mask-head planes) own one weight and
bias whose row blocks are the parts' registered tensors. An unregistered
layer over the stacked arrays runs them as one op, step and cache, and
:func:`stacked_op` splits its gradients back into the parts. No weight copy
is cached: loading, stage zeroing and the optimizer write ``w.data`` in place.

Feature layouts: 1-D ``[C, T]``, 2-D ``[C, T, F]``, recurrent ``[T, D]``.
"""

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, logistic, make_node, prelu_array
from .errors import ShapeMismatchError
from .params import ParamStore

TIME_BLOCK = 32  # frames per im2col block of the conv kernels


# ---------------------------------------------------------------------------
# dilated causal 1-D convolution


def _conv1d_cols(x, cache, k, d):
    """``xp`` = ``[cache; x]`` (a ``None`` cache is zeros) and its dilated
    im2col, the ``[Cin, K, T]`` view of ``xp`` whose ``[c, i, t]`` is ``xp[c, t + i*d]``."""
    if cache is None:
        cache = np.zeros((x.shape[0], (k - 1) * d), dtype=x.dtype)
    xp = np.concatenate([cache, x], axis=1)
    sc, st = xp.strides
    return xp, np.ndarray((x.shape[0], k, x.shape[1]), xp.dtype, xp, 0, (sc, d * st, st))


def conv1d_chunk(x, cache, w, b, d):
    """x [Cin,T] following ``cache`` [Cin,(K-1)*d] or None, w [Cout,Cin,K] -> (y [Cout,T],
    next cache): per time block, one GEMM of the ``[Cout, Cin*K]`` weight with
    :func:`_conv1d_cols`. For K=1 the columns are ``x`` and ``cache`` passes through."""
    cout, cin, k = w.shape
    if k == 1:
        y = w[:, :, 0] @ x
    else:
        (xp, taps), wmat, t = _conv1d_cols(x, cache, k, d), w.reshape(cout, -1), x.shape[1]
        y = np.empty((cout, t), dtype=x.dtype)
        for t0 in range(0, t, TIME_BLOCK):
            blk = slice(t0, t0 + TIME_BLOCK)
            np.matmul(wmat, taps[:, :, blk].reshape(cin * k, -1), out=y[:, blk])
        cache = xp[:, t:] if t == 1 else xp[:, t:].copy()
    y += b[:, None]
    return y, cache


def conv1d_forward(x, w, b, dilation):
    """:func:`conv1d_chunk` from a zero cache."""
    return conv1d_chunk(x, None, w, b, dilation)


def conv1d_op(x: Tensor, w: Tensor, b: Tensor, dilation: int) -> Tensor:
    if x.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatchError(
            f"conv1d: input channels {x.data.shape[0]} != weight {w.data.shape[1]}")
    y = conv1d_forward(x.data, w.data, b.data, dilation)[0]
    xd, wd = x.data, w.data

    def bw(g):  # dW from the forward's columns, rebuilt; dx adds W^T g's K tap rows at their lags
        (cout, cin, k), t = wd.shape, xd.shape[1]
        pad = (k - 1) * dilation
        taps = _conv1d_cols(xd, None, k, dilation)[1]
        dw = np.zeros((cout, cin * k), dtype=wd.dtype)
        for t0 in range(0, t, TIME_BLOCK):
            blk = slice(t0, t0 + TIME_BLOCK)
            dw += g[:, blk] @ taps[:, :, blk].reshape(cin * k, -1).T
        w.accumulate_grad(dw.reshape(wd.shape))
        b.accumulate_grad(g.sum(axis=1))
        if x.requires_grad:  # tap i of output frame s read input frame s - (pad - i*d)
            dtaps = (wd.reshape(cout, -1).T @ g).reshape(cin, k, t)
            dx = dtaps[:, k - 1].copy()
            for lag in range(pad, 0, -dilation):
                dx[:, : max(t - lag, 0)] += dtaps[:, k - 1 - lag // dilation, lag:]
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

    def __call__(self, x: Tensor, state=None) -> Tensor:
        return self.op(x, self.w, self.b) if state is None else Tensor(self.chunk(state, x.data))

    def chunk(self, state, x):
        """[Cin,T] frames that follow those already seen -> [Cout,T]; the cache
        is ``state[self]``, and a kernel-1 layer keeps none."""
        if self.kernel == 1:
            return conv1d_chunk(x, None, self.w.data, self.b.data, self.dilation)[0]
        y, state[self] = conv1d_chunk(x, state[self] if self in state else None, self.w.data,
                                      self.b.data, self.dilation)
        return y

    def step(self, state, frame):
        return self.chunk(state, frame[:, None])[:, 0]

    @property
    def macs_per_frame(self):
        return self.cin * self.cout * self.kernel


# ---------------------------------------------------------------------------
# 2-D convolution: causal in time, strided/padded along frequency


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
    taps = np.ndarray((cin, kt, kf, n, fo), xp.dtype, xp, t0 * st, (sc, st, sf, st, stride * sf))
    return taps.reshape(-1, n * fo) if out is None else _copy_into(out, taps)


def conv2d_chunk(x, cache, w, b, stride, pad):
    """x [Cin,T,F] following ``cache`` [Cin,Kt-1,F] or None, w [Cout,Cin,Kt,Kf]
    -> (y [Cout,T,Fo], next cache): one GEMM per time block."""
    cout, _, kt, kf = w.shape
    t, f = x.shape[1], x.shape[2]
    fo = (f + 2 * pad - kf) // stride + 1
    xp = np.zeros((x.shape[0], kt - 1 + t, f + 2 * pad), dtype=x.dtype)  # [cache; x], padded
    if cache is not None:
        xp[:, : kt - 1, pad : pad + f] = cache
    xp[:, kt - 1 :, pad : pad + f] = x
    wmat = w.reshape(cout, -1)
    y = np.empty((cout, t * fo), dtype=x.dtype)
    for t0 in range(0, t, TIME_BLOCK):
        n = min(TIME_BLOCK, t - t0)
        yb = y[:, t0 * fo : (t0 + n) * fo]
        np.matmul(wmat, _conv2d_cols(xp, t0, n, kt, kf, stride), out=yb)
        yb += b[:, None]
    cache = xp[:, t:, pad : pad + f]
    return y.reshape(cout, t, fo), cache if t == 1 else cache.copy()


def conv2d_forward(x, w, b, stride, pad):
    """:func:`conv2d_chunk` from a zero cache."""
    return conv2d_chunk(x, None, w, b, stride, pad)


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
        for t0 in range(0, t, TIME_BLOCK):
            n = min(TIME_BLOCK, t - t0)
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

    def __call__(self, x: Tensor, state=None) -> Tensor:
        return self.op(x, self.w, self.b) if state is None else Tensor(self.chunk(state, x.data))

    def chunk(self, state, x):
        """[Cin,T,F] frames that follow those already seen -> [Cout,T,Fo]."""
        y, state[self] = conv2d_chunk(x, state[self] if self in state else None, self.w.data,
                                      self.b.data, self.stride, self.pad)
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
    taps = np.ndarray((cin, kt, n, f), xp.dtype, xp, (t0 + kt - 1) * st, (sc, -st, st, sf))
    return taps.reshape(-1, n * f) if out is None else _copy_into(out, taps)


@functools.lru_cache
def _deconv_scatter(f, kf, stride, pad, out_freq):
    """Per frequency tap ``j``: the output bins ``stride*f + j - pad`` that land
    in ``[0, out_freq)``, and the input bins ``f`` they come from; built once per shape."""
    taps = []
    for j in range(kf):
        f0 = max(0, -((j - pad) // stride))
        f1 = min(f, (out_freq - 1 + pad - j) // stride + 1)
        if f1 > f0:
            q0 = stride * f0 + j - pad
            taps.append((j, slice(q0, q0 + stride * (f1 - f0 - 1) + 1, stride), slice(f0, f1)))
    return tuple(taps)


def conv_transpose2d_chunk(x, cache, w, b, stride, pad, out_freq):
    """x [Cin,T,F] following ``cache`` [Cin,Kt-1,F] or None -> (y [Cout,T,out_freq],
    next cache): per time block, one GEMM, then tap ``j`` of input bin ``f`` is added
    to output bin ``stride*f + j - pad``. Bins past the span hold the bias only."""
    cout, _, kt, kf = w.shape
    t, f = x.shape[1], x.shape[2]
    if cache is None:
        cache = np.zeros((x.shape[0], kt - 1, f), dtype=x.dtype)
    xp = np.concatenate([cache, x], axis=1)
    wmat = w.transpose(0, 3, 1, 2).reshape(cout * kf, -1)  # free in step order
    scatter = _deconv_scatter(f, kf, stride, pad, out_freq)
    y = np.empty((cout, t, out_freq), dtype=x.dtype)
    y[...] = b[:, None, None]
    for t0 in range(0, t, TIME_BLOCK):
        n = min(TIME_BLOCK, t - t0)
        contrib = (wmat @ _deconv_cols(xp, t0, n, kt)).reshape(cout, kf, n, f)
        for j, out_bins, in_bins in scatter:
            y[:, t0 : t0 + n, out_bins] += contrib[:, j, :, in_bins]
    return y, xp[:, t:] if t == 1 else xp[:, t:].copy()


def conv_transpose2d_forward(x, w, b, stride, pad, out_freq):
    """:func:`conv_transpose2d_chunk` from a zero cache."""
    return conv_transpose2d_chunk(x, None, w, b, stride, pad, out_freq)


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
        for t0 in range(0, t, TIME_BLOCK):
            n = min(TIME_BLOCK, t - t0)
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

    def __call__(self, x: Tensor, state=None) -> Tensor:
        return self.op(x, self.w, self.b) if state is None else Tensor(self.chunk(state, x.data))

    def chunk(self, state, x):
        """[Cin,T,F] frames that follow those already seen -> [Cout,T,out_freq]."""
        out_freq = self.out_freq or self.natural_out_freq(x.shape[2])
        y, state[self] = conv_transpose2d_chunk(x, state[self] if self in state else None,
                                                self.w.data, self.b.data, self.stride, self.pad,
                                                out_freq)
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


def stacked_op(whole, parts, x: Tensor, state=None) -> Tensor:
    """``whole``'s op on the tape, its weight gradients split into ``parts``;
    given a stream ``state``, ``whole(x, state)`` off it."""
    if state is not None:
        return whole(x, state)
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

    def __call__(self, x: Tensor, state=None) -> Tensor:
        return gate_op(stacked_op(self.pair, (self.lin, self.gate), x, state))

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


class InstanceNorm:
    """Per-channel zero-mean/unit-variance over all non-channel axes, then
    affine: by the utterance's statistics while training, which also update
    the running ones, and by the frozen running statistics at inference (the
    streaming path is strictly causal and per-frame)."""

    def __init__(self, store, name, channels, eps=1e-5, decay=0.99):
        self.name = name
        self.eps = eps
        self.decay = decay
        self.gamma = store.add_full(f"{name}.gamma", (channels,), 1.0)
        self.beta = store.add(f"{name}.beta", (channels,), zero=True)
        self.run_mean = store.add_buffer(f"{name}.run_mean", (channels,), 0.0)
        self.run_var = store.add_buffer(f"{name}.run_var", (channels,), 1.0)

    def __call__(self, x: Tensor, training=False) -> Tensor:
        if not training:
            return self._frozen_affine(x)
        xd, gamma, beta = x.data, self.gamma, self.beta
        axes = tuple(range(1, xd.ndim))
        mu = xd.mean(axis=axes, keepdims=True)
        var = xd.var(axis=axes, keepdims=True)
        for run, stat in ((self.run_mean, mu), (self.run_var, var)):
            run *= self.decay
            run += (1 - self.decay) * stat.reshape(-1)
        inv = 1.0 / np.sqrt(var + self.eps)
        xh = (xd - mu) * inv
        gshape = (-1,) + (1,) * (xd.ndim - 1)
        y = gamma.data.reshape(gshape) * xh + beta.data.reshape(gshape)
        n = xd.size // xd.shape[0]

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

    def _frozen(self):
        """Per-channel ``1/std``, scale and offset of the frozen affine (``x.T``'s last axis)."""
        inv = 1.0 / np.sqrt(self.run_var + self.eps)
        return inv, self.gamma.data * inv, self.beta.data - self.gamma.data * inv * self.run_mean

    def _frozen_affine(self, x: Tensor):
        gamma, beta, run_mean = self.gamma, self.beta, self.run_mean
        xd = x.data
        inv, w, off = self._frozen()

        def bw(g):
            axes = tuple(range(1, xd.ndim))
            if x.requires_grad:
                x.accumulate_grad((g.T * w).T)
            gamma.accumulate_grad((g.T * (xd.T - run_mean) * inv).T.sum(axis=axes))
            beta.accumulate_grad(g.sum(axis=axes))

        return make_node((xd.T * w + off).T, (x, gamma, beta), bw)

    def step(self, state, frame):
        _, w, off = self._frozen()
        return (frame.T * w + off).T


# ---------------------------------------------------------------------------
# PReLU


class PReLU:
    def __init__(self, store, name, channels, init_slope=0.25):
        self.name = name
        self.alpha = store.add_full(f"{name}.alpha", (channels,), init_slope)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.prelu(x, self.alpha)

    def step(self, state, frame):
        return prelu_array(frame, self.alpha.data)


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
    xd = x.data  # the per-channel vectors broadcast over the last axis of x.T

    def bw(g):
        axes = tuple(range(1, xd.ndim))
        if x.requires_grad:
            x.accumulate_grad((g.T * w.data).T)
        w.accumulate_grad((g * xd).sum(axis=axes))
        b.accumulate_grad(g.sum(axis=axes))

    return make_node((xd.T * w.data + b.data).T, (x, w, b), bw)


class ChannelAffine:
    """One scalar gain and bias per channel (kernel-1 conv on a single plane)."""

    def __init__(self, store, name, channels):
        self.name = name
        self.w = store.add(f"{name}.weight", (channels,), uniform_bound=1.0)
        self.b = store.add(f"{name}.bias", (channels,), zero=True)

    def __call__(self, x: Tensor) -> Tensor:
        return channel_affine_op(x, self.w, self.b)

    def step(self, state, frame):
        return (frame.T * self.w.data + self.b.data).T


# ---------------------------------------------------------------------------
# multi-layer LSTM


def lstm_chunk(x, state, weights, biases, caches=None):
    """x [T, D] following the frames that left ``state`` = (h [L, H], c [L, H])
    -> y [T, H], advancing h and c in place. Per layer: one input GEMM, then per
    frame one recurrent GEMV whose gate activations overwrite the pre-activations.
    A ``caches`` list receives each layer's record for :func:`lstm_seq_backward`."""
    for l, (wl, bl) in enumerate(zip(weights, biases)):
        t, hid = x.shape[0], bl.shape[0] // 4
        wh, acts = wl[:, -hid:], x @ wl[:, :-hid].T + bl  # acts [T, 4H]: i, f, g, o
        hs = np.empty((t + 1, hid), dtype=x.dtype)  # row 0 is the carried h
        hs[0], c = state[0][l], state[1][l]
        cs = None if caches is None else np.repeat(c[None], t + 1, axis=0)  # c after frame ti-1
        for ti in range(t):
            a = acts[ti]
            a += wh @ hs[ti]
            g = np.tanh(a[2 * hid : 3 * hid])
            logistic(a, out=a)
            a[2 * hid : 3 * hid] = g
            c = a[hid : 2 * hid] * c + a[:hid] * g
            np.multiply(a[3 * hid :], np.tanh(c), out=hs[ti + 1])
            if cs is not None:
                cs[ti + 1] = c
        state[0][l], state[1][l] = hs[t], c
        if caches is not None:
            caches.append({"inp": x, "h_prev": hs[:-1], "c_prev": cs[:-1], "tc": np.tanh(cs[1:]),
                           "din": wl.shape[1] - hid, "hid": hid,
                           **{k: acts[:, j * hid : (j + 1) * hid] for j, k in enumerate("ifgo")}})
        x = hs[1:]
    return x


def lstm_seq_forward(x, weights, biases):
    """:func:`lstm_chunk` from a zero state -> (y [T, H], its tape caches, or
    None with gradients off)."""
    state = np.zeros((2, len(weights), biases[0].shape[0] // 4), dtype=x.dtype)
    caches = [] if ad.grad_enabled() else None
    return lstm_chunk(x, state, weights, biases, caches), caches


def lstm_seq_backward(g_out, caches, weights):
    """Backprop through time for the stacked forward above."""
    dws, dbs = [], []
    dh_seq = g_out
    for cache, wl in zip(reversed(caches), reversed(weights)):
        inp, din, hid = cache["inp"], cache["din"], cache["hid"]
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
        dh_rec, dc_rec = np.zeros((2, hid), dtype=inp.dtype)
        for ti in range(t - 1, -1, -1):
            dh = dh_seq[ti] + dh_rec
            dc = dh * dc_dh[ti]
            dc += dc_rec
            np.multiply(dc_gates[ti], dc, out=dg_cell[ti])
            np.multiply(dh_o[ti], dh, out=dg_o[ti])
            dc_rec = dc * fv[ti]
            dh_rec = wh_t @ dgates[ti]
        dws.append(dgates.T @ np.concatenate([inp, cache["h_prev"]], axis=1))
        dbs.append(dgates.sum(axis=0))
        dh_seq = dgates @ wl[:, :din]
    return dh_seq, list(reversed(dws)), list(reversed(dbs))


class Lstm:
    """Stacked unidirectional LSTM over [T, D] sequences."""

    def __init__(self, store, name, din, hidden, layers):
        self.name = name
        self.hidden, self.layers = hidden, layers
        bound = 1.0 / np.sqrt(hidden)
        self.ws, self.bs = [], []
        for l in range(layers):
            d = din if l == 0 else hidden
            self.ws.append(store.add(f"{name}.l{l}.weight", (4 * hidden, d + hidden),
                                     uniform_bound=bound))
            # zero biases keep the whole graph silence-preserving at init
            self.bs.append(store.add(f"{name}.l{l}.bias", (4 * hidden,), zero=True))

    def __call__(self, x: Tensor, state=None) -> Tensor:
        if state is not None:
            return Tensor(self.chunk(state, x.data))
        ws, bs = self.ws, self.bs
        weights = [w.data for w in ws]
        y, caches = lstm_seq_forward(x.data, weights, [b.data for b in bs])

        def bw(g):
            dx, dws, dbs = lstm_seq_backward(g, caches, weights)
            x.accumulate_grad(dx)
            for p, dp in zip(ws + bs, dws + dbs):
                p.accumulate_grad(dp)

        return make_node(y, (x, *ws, *bs), bw)

    def chunk(self, state, x):
        """[T, D] frames that follow those already seen -> [T, H]; h and c are
        ``state[self]``, [2, L, H]."""
        if self not in state:
            state[self] = np.zeros((2, self.layers, self.hidden), dtype=x.dtype)
        return lstm_chunk(x, state[self], [w.data for w in self.ws], [b.data for b in self.bs])

    def step(self, state, vec):
        return self.chunk(state, vec[None])[0]

    @property
    def macs_per_frame(self):
        return sum(w.data.size for w in self.ws)
