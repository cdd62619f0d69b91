"""Layer zoo against naive oracles: loop convolutions, hand-unrolled LSTM
gates, two-pass normalization statistics, finite differences."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbse import autodiff as ad
from fbse import gradcheck, layers, model, training
from fbse.autodiff import Tensor
from fbse.errors import CheckpointError, ShapeMismatchError
from fbse.params import CHECKPOINT_MAGIC, ParamStore


def naive_causal_conv1d(x, w, b, d):
    cout, cin, k = w.shape
    t = x.shape[1]
    y = np.zeros((cout, t))
    for o in range(cout):
        for ti in range(t):
            acc = b[o]
            for c in range(cin):
                for i in range(k):
                    src = ti - (k - 1 - i) * d
                    if src >= 0:
                        acc += w[o, c, i] * x[c, src]
            y[o, ti] = acc
    return y


def naive_conv2d(x, w, b, stride, pad):
    cout, cin, kt, kf = w.shape
    _, t, f = x.shape
    fo = (f + 2 * pad - kf) // stride + 1
    xp = np.pad(x, ((0, 0), (kt - 1, 0), (pad, pad)))
    y = np.zeros((cout, t, fo))
    for o in range(cout):
        for ti in range(t):
            for fi in range(fo):
                acc = b[o]
                for c in range(cin):
                    for i in range(kt):
                        for j in range(kf):
                            acc += w[o, c, i, j] * xp[c, ti + i, fi * stride + j]
                y[o, ti, fi] = acc
    return y


class TestConv1d:
    def test_kernel1_identity_weights(self):
        store = ParamStore(0)
        layer = layers.Conv1d(store, "c", 3, 3, kernel=1)
        layer.w.data[...] = np.eye(3)[:, :, None]
        x = Tensor(np.random.default_rng(0).standard_normal((3, 7)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_impulse_response_offsets(self):
        store = ParamStore(0)
        layer = layers.Conv1d(store, "c", 1, 1, kernel=3, dilation=2)
        layer.w.data[0, 0] = [7.0, 5.0, 3.0]
        x = np.zeros((1, 8))
        x[0, 0] = 1.0
        y = layer(Tensor(x)).data[0]
        # causal: current tap at offset 0, earlier taps at dilation spacing
        assert y[0] == 3.0 and y[2] == 5.0 and y[4] == 7.0
        assert not y[[1, 3, 5, 6, 7]].any()

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        store = ParamStore(1)
        layer = layers.Conv1d(store, "c", 4, 5, kernel=3, dilation=5)
        x = rng.standard_normal((4, 20))
        ref = naive_causal_conv1d(x, layer.w.data, layer.b.data, 5)
        np.testing.assert_allclose(layer(Tensor(x)).data, ref, atol=1e-10)

    def test_channel_mismatch(self):
        layer = layers.Conv1d(ParamStore(0), "c", 4, 5, kernel=3)
        with pytest.raises(ShapeMismatchError):
            layer(Tensor(np.zeros((3, 10))))

    def test_causality_by_perturbation(self):
        rng = np.random.default_rng(2)
        store = ParamStore(2)
        layer = layers.Conv1d(store, "c", 2, 2, kernel=3, dilation=4)
        x = rng.standard_normal((2, 30))
        y0 = layer(Tensor(x)).data
        x2 = x.copy()
        x2[:, 17] += 1.0
        y1 = layer(Tensor(x2)).data
        assert np.array_equal(y0[:, :17], y1[:, :17])
        assert not np.array_equal(y0[:, 17:], y1[:, 17:])


class TestConv2d:
    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        store = ParamStore(3)
        layer = layers.Conv2d(store, "c", 2, 3, kernel=(2, 3), stride=2)
        x = rng.standard_normal((2, 5, 9))
        ref = naive_conv2d(x, layer.w.data, layer.b.data, 2, layer.pad)
        np.testing.assert_allclose(layer(Tensor(x)).data, ref, atol=1e-10)

    def test_gated_saturated_gate_passes_linear_branch(self):
        rng = np.random.default_rng(4)
        store = ParamStore(4)
        layer = layers.GatedConv2d(store, "g", 2, 2, kernel=(2, 3), stride=1)
        layer.gate.w.data[...] = 0.0
        layer.gate.b.data[...] = 40.0  # sigmoid saturates to 1
        x = Tensor(rng.standard_normal((2, 4, 7)))
        lin = layer.lin(Tensor(x.data)).data
        np.testing.assert_allclose(layer(x).data, lin, rtol=1e-12)

    def test_gated_zero_input_zero_bias(self):
        layer = layers.GatedConv2d(ParamStore(5), "g", 2, 2)
        out = layer(Tensor(np.zeros((2, 4, 7))))
        assert not out.data.any()


class TestConvTranspose2d:
    def test_shapes_invert_encoder_ladder(self):
        # mirror of the strided analysis sizes used by the U-net on 161 bins
        store = ParamStore(0)
        sizes = [161, 81, 41, 21, 11]
        for lvl in range(4):
            kernel = (2, 5) if lvl == 3 else (2, 3)
            down = layers.Conv2d(store, f"d{lvl}", 1, 1, kernel, stride=2)
            assert down.out_freq(sizes[lvl]) == sizes[lvl + 1]
            up = layers.ConvTranspose2d(store, f"u{lvl}", 1, 1, kernel, stride=2)
            assert up.natural_out_freq(sizes[lvl + 1]) == sizes[lvl]

    def test_zero_input_zero_output(self):
        layer = layers.ConvTranspose2d(ParamStore(1), "t", 3, 2, (2, 3), stride=2, out_freq=9)
        assert not layer(Tensor(np.zeros((3, 4, 5)))).data.any()

    def test_adjoint_of_conv2d(self):
        # <conv(x), y> == <x, conv_T(y)> when sharing one kernel and no bias
        rng = np.random.default_rng(6)
        store = ParamStore(6)
        conv = layers.Conv2d(store, "c", 3, 2, kernel=(2, 3), stride=2)
        x = rng.standard_normal((3, 6, 9))
        fwd = layers.conv2d_forward(x, conv.w.data, np.zeros(2), 2, conv.pad)[0]
        y = rng.standard_normal(fwd.shape)
        # scatter y back through the transpose with the flipped kernel layout
        wt = np.moveaxis(conv.w.data, 0, 1)  # [Cin, Cout, kt, kf] roles swapped
        back = layers.conv_transpose2d_forward(
            y[:, ::-1, :][:, :, :], np.ascontiguousarray(wt[:, :, ::-1, :]),
            np.zeros(3), 2, conv.pad, 9)[0][:, ::-1, :]
        assert np.isclose(np.sum(fwd * y), np.sum(x * back), rtol=1e-10)


class TestInstanceNorm:
    def test_constant_channel_is_zero_before_affine(self):
        store = ParamStore(0)
        norm = layers.InstanceNorm(store, "n", 2)
        x = Tensor(np.full((2, 5, 4), 3.7))
        out = norm(x, training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(7)
        norm = layers.InstanceNorm(ParamStore(7), "n", 3)
        x = Tensor(rng.standard_normal((3, 10, 8)) * 4 + 2)
        out = norm(x, training=True).data
        for c in range(3):
            assert abs(out[c].mean()) < 1e-6
            assert abs(out[c].var() - 1.0) < 1e-4

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        norm = layers.InstanceNorm(ParamStore(8), "n", 2)
        norm.gamma.data[...] = [1.5, 0.5]
        norm.beta.data[...] = [0.1, -0.2]
        x = rng.standard_normal((2, 6, 5))
        out = norm(Tensor(x), training=True).data
        for c in range(2):
            mu = x[c].mean()
            var = ((x[c] - mu) ** 2).mean()
            ref = norm.gamma.data[c] * (x[c] - mu) / np.sqrt(var + norm.eps) + norm.beta.data[c]
            np.testing.assert_allclose(out[c], ref, atol=1e-8)

    def test_eval_uses_frozen_stats(self):
        rng = np.random.default_rng(9)
        norm = layers.InstanceNorm(ParamStore(9), "n", 2)
        norm.run_mean[...] = [1.0, -1.0]
        norm.run_var[...] = [4.0, 0.25]
        x = rng.standard_normal((2, 3, 4))
        out = norm(Tensor(x), training=False).data
        ref = np.stack([(x[0] - 1.0) / np.sqrt(4.0 + norm.eps),
                        (x[1] + 1.0) / np.sqrt(0.25 + norm.eps)])
        np.testing.assert_allclose(out, ref, atol=1e-10)


def hand_lstm_step(x, h, c, w, b):
    hid = h.size
    gates = w @ np.concatenate([x, h]) + b
    i = 1 / (1 + np.exp(-gates[:hid]))
    f = 1 / (1 + np.exp(-gates[hid : 2 * hid]))
    g = np.tanh(gates[2 * hid : 3 * hid])
    o = 1 / (1 + np.exp(-gates[3 * hid :]))
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2


class TestLstm:
    def test_zero_weights_zero_output(self):
        store = ParamStore(0)
        lstm = layers.Lstm(store, "l", 3, 4, 2)
        for w in lstm.ws:
            w.data[...] = 0.0
        out = lstm(Tensor(np.random.default_rng(0).standard_normal((6, 3))))
        assert not out.data.any()

    def test_matches_hand_unrolled_gates(self):
        rng = np.random.default_rng(10)
        store = ParamStore(10)
        lstm = layers.Lstm(store, "l", 3, 4, 2)
        for b in lstm.bs:
            b.data[...] = rng.uniform(-0.2, 0.2, b.data.shape)
        x = rng.standard_normal((5, 3))
        out = lstm(Tensor(x)).data
        h = [np.zeros(4), np.zeros(4)]
        c = [np.zeros(4), np.zeros(4)]
        ref = np.zeros((5, 4))
        for t in range(5):
            inp = x[t]
            for l in range(2):
                h[l], c[l] = hand_lstm_step(inp, h[l], c[l], lstm.ws[l].data, lstm.bs[l].data)
                inp = h[l]
            ref[t] = h[-1]
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_backward_matches_per_step_reference(self):
        rng = np.random.default_rng(12)
        lstm = layers.Lstm(ParamStore(12), "l", 3, 4, 2)
        weights = [w.data for w in lstm.ws]
        biases = [rng.uniform(-0.2, 0.2, b.data.shape) for b in lstm.bs]
        x = rng.standard_normal((7, 3))
        y, caches = layers.lstm_seq_forward(x, weights, biases)
        g = rng.standard_normal(y.shape)
        dx, dws, dbs = layers.lstm_seq_backward(g, caches, weights)
        # backprop through time one step and one gate at a time
        dh_seq, ref_dws, ref_dbs = g, [], []
        for cache, wl in zip(reversed(caches), reversed(weights)):
            din, hid = cache["din"], cache["hid"]
            i_, f_, g_, o_, tc = (cache[k] for k in ("i", "f", "g", "o", "tc"))
            dgates = np.zeros((len(x), 4 * hid))
            dh_rec, dc_rec = np.zeros(hid), np.zeros(hid)
            for t in reversed(range(len(x))):
                dh = dh_seq[t] + dh_rec
                dc = dc_rec + dh * o_[t] * (1.0 - tc[t] ** 2)
                dgates[t] = np.concatenate([dc * g_[t] * i_[t] * (1.0 - i_[t]),
                                            dc * cache["c_prev"][t] * f_[t] * (1.0 - f_[t]),
                                            dc * i_[t] * (1.0 - g_[t] ** 2),
                                            dh * tc[t] * o_[t] * (1.0 - o_[t])])
                dc_rec = dc * f_[t]
                dh_rec = wl[:, din:].T @ dgates[t]
            ref_dws.insert(0, dgates.T @ np.concatenate([cache["inp"], cache["h_prev"]], axis=1))
            ref_dbs.insert(0, dgates.sum(axis=0))
            dh_seq = dgates @ wl[:, :din]
        for got, want in zip([dx, *dws, *dbs], [dh_seq, *ref_dws, *ref_dbs]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_truncation_reproduces_prefix(self):
        rng = np.random.default_rng(11)
        lstm = layers.Lstm(ParamStore(11), "l", 3, 5, 3)
        x = rng.standard_normal((9, 3))
        full = lstm(Tensor(x)).data
        short = lstm(Tensor(x[:4])).data
        np.testing.assert_array_equal(full[:4], short)


class TestGradients:
    @pytest.mark.parametrize("name", sorted(gradcheck.LAYER_CHECKS))
    def test_layer_fd(self, name):
        for seed in range(3):
            res = gradcheck.LAYER_CHECKS[name](seed)
            assert res.passed, f"{name} seed {seed}: rel err {res.max_rel_err:.2e}"

    def test_prelu_and_affine_fd(self):
        rng = np.random.default_rng(12)
        store = ParamStore(12)
        pr = layers.PReLU(store, "p", 3)
        aff = layers.ChannelAffine(store, "a", 3)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        probe = rng.standard_normal((3, 4, 5))

        def forward():
            return ad.sum_all(ad.mul(aff(pr(x)), Tensor(probe)))

        err, ok = gradcheck.fd_compare(forward, [pr.alpha, aff.w, aff.b, x])
        assert ok, err

    def test_linear_fd(self):
        rng = np.random.default_rng(13)
        lin = layers.Linear(ParamStore(13), "l", 4, 3)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        probe = rng.standard_normal((6, 3))
        err, ok = gradcheck.fd_compare(
            lambda: ad.sum_all(ad.mul(lin(x), Tensor(probe))), [lin.w, lin.b, x])
        assert ok, err


_TB = layers.TIME_BLOCK


class TestConvAdjoint:
    """Each conv op is linear in x and in w, so its backward must be the exact
    adjoint: <dx, u> = <g, op(u, w, 0)> and <dW, v> = <g, op(x, v, 0)> up to
    rounding, across time blocks and with trimmed or zero-padded bins."""

    CASES = {
        "conv1d_k3_d2": (lambda x, w, b: layers.conv1d_op(x, w, b, 2), (3, 11), (4, 3, 3)),
        "conv2d_k2x5_s2": (lambda x, w, b: layers.conv2d_op(x, w, b, 2, 2),
                           (3, 2 * _TB + 5, 17), (4, 3, 2, 5)),
        "conv2d_k2x3_s1": (lambda x, w, b: layers.conv2d_op(x, w, b, 1, 1),
                           (3, 2 * _TB + 5, 17), (4, 3, 2, 3)),
        "deconv_k2x3_trim": (lambda x, w, b: layers.conv_transpose2d_op(x, w, b, 2, 1, 8),
                             (3, 2 * _TB + 5, 5), (4, 3, 2, 3)),
        "deconv_k2x5_zero_pad": (lambda x, w, b: layers.conv_transpose2d_op(x, w, b, 2, 2, 12),
                                 (3, 2 * _TB + 5, 5), (4, 3, 2, 5)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_backward_is_the_adjoint(self, name):
        op, x_shape, w_shape = self.CASES[name]
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
        y = op(x, w, b)
        g = rng.standard_normal(y.data.shape)
        y.backward(g)
        zero = Tensor(np.zeros(w_shape[0]))
        u, v = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        for grad, probe, image in ((x.grad, u, op(Tensor(u), w, zero).data),
                                   (w.grad, v, op(x, Tensor(v), zero).data)):
            got, want = np.vdot(grad, probe), np.vdot(g, image)
            scale = np.vdot(np.abs(g), np.abs(image))
            assert abs(got - want) <= 1e-12 * scale, (got, want)
        np.testing.assert_allclose(b.grad, g.reshape(w_shape[0], g.shape[1], -1).sum(axis=(1, 2)))


class TestDeterminismAndInit:
    def test_same_seed_same_store(self):
        def build(seed):
            store = ParamStore(seed)
            layers.Conv1d(store, "a", 3, 4, kernel=3)
            layers.Lstm(store, "b", 4, 5, 2)
            return store

        s1, s2 = build(42), build(42)
        for name in s1.params:
            assert np.array_equal(s1.params[name].data, s2.params[name].data)
        s3 = build(43)
        assert any(not np.array_equal(s1.params[n].data, s3.params[n].data) for n in s1.params)

    def test_param_count_arithmetic(self):
        store = ParamStore(0)
        conv = layers.Conv1d(store, "c", 16, 32, kernel=3)
        assert conv.param_count == 3 * 16 * 32 + 32
        assert store.total_count == conv.param_count

    def test_init_order_independent(self):
        s1 = ParamStore(7)
        a1 = s1.add("alpha", (4, 4), fan_in=4)
        b1 = s1.add("beta", (3,), fan_in=3)
        s2 = ParamStore(7)
        b2 = s2.add("beta", (3,), fan_in=3)
        a2 = s2.add("alpha", (4, 4), fan_in=4)
        assert np.array_equal(a1.data, a2.data) and np.array_equal(b1.data, b2.data)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        store = ParamStore(3)
        layers.Conv1d(store, "conv", 3, 4, kernel=3)
        norm = layers.InstanceNorm(store, "norm", 4)
        norm.run_mean[...] = np.random.default_rng(0).standard_normal(4)
        path = tmp_path / "ckpt.bin"
        store.save(path)

        store2 = ParamStore(99)
        layers.Conv1d(store2, "conv", 3, 4, kernel=3)
        norm2 = layers.InstanceNorm(store2, "norm", 4)
        store2.load(path)
        for name in store.params:
            assert np.array_equal(store.params[name].data, store2.params[name].data)
        assert np.array_equal(norm.run_mean, norm2.run_mean)

    def test_corrupt_and_mismatched_rejected(self, tmp_path):
        from fbse.errors import CheckpointError

        store = ParamStore(0)
        layers.Conv1d(store, "conv", 3, 4, kernel=3)
        path = tmp_path / "ckpt.bin"
        store.save(path)

        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            store.load(bad)

        other = ParamStore(0)
        layers.Conv1d(other, "different_name", 3, 4, kernel=3)
        with pytest.raises(CheckpointError):
            other.load(path)

        raw = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8
        hlen = int.from_bytes(raw[len(CHECKPOINT_MAGIC) : start], "little")
        header, blob = json.loads(raw[start : start + hlen]), raw[start + hlen :]

        def entry_with(**fields):
            h = json.loads(json.dumps(header))
            h["tensors"][0].update(fields)
            return h

        malformed = [
            {k: v for k, v in header.items() if k != "tensors"},  # no tensor table
            [header],  # header is a list, not an object
            entry_with(dtype="bogus"),
            entry_with(dtype="<U1"),  # parses, but is not a number
            entry_with(shape=[5, 5]),  # disagrees with nbytes
            entry_with(offset=-8),
        ]
        for h in malformed:
            text = json.dumps(h).encode()
            bad.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(8, "little") + text + blob)
            with pytest.raises(CheckpointError):
                store.load(bad)

    def test_save_load_save_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.Enhancer(model.ModelConfig.tiny(), seed=5).store.save(first)
        other = model.Enhancer(model.ModelConfig.tiny(), seed=5)
        for t in other.store.params.values():
            t.data[...] = 0.0
        for a in other.store.buffers.values():
            a[...] = 0.0
        other.store.load(first)
        other.store.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_tiny_checkpoint_layout_pinned(self, tmp_path):
        # names, shapes and order of every tensor, as written before the gated
        # pairs were stacked, and the whole seed-0 file since the residual
        # branches' pw_out init was scaled by 1/sqrt(stack depth)
        store = model.Enhancer(model.ModelConfig.tiny(), seed=0).store
        table = [[n, list(t.data.shape)] for n, t in store.params.items()]
        table += [[n, list(a.shape)] for n, a in store.buffers.items()]
        assert len(table) == 218
        digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
        assert digest == "a4040ccffa67e8ad10d48aca67ee66338bed462acc52b92c9c014131cb73cf78"
        path = tmp_path / "tiny.ckpt"
        store.save(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "00a75b526e4b846ebdf772fde0bb5b554eaef34bc23092c5c4f00c4896dce8b0"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)
_ENTRY_KEYS = ("name", "kind", "shape", "dtype", "offset", "nbytes")


@st.composite
def _checkpoint_headers(draw, header):
    """Any JSON value, or the real header with fuzzed fields and entries."""
    if draw(st.booleans()):
        return draw(_JSON)
    names = [e["name"] for e in header["tensors"]]
    h = json.loads(json.dumps(header))
    for key in draw(st.lists(st.sampled_from(["version", "seed", "dtype", "tensors"]),
                             max_size=2)):
        h[key] = draw(_JSON)
    if isinstance(h.get("tensors"), list):
        for e in h["tensors"]:
            if isinstance(e, dict):
                for key in draw(st.lists(st.sampled_from(_ENTRY_KEYS), max_size=2)):
                    e[key] = draw(_JSON | st.sampled_from(names) | st.sampled_from(
                        ["<f8", "<f4", "<i2", "|u1", ">f8", "<c16", "|b1", "V8", "O"]))
    return h


class TestCheckpointHeaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_json_header_loads_or_raises_checkpoint_error(self, tmp_path_factory, data):
        store = ParamStore(0)
        layers.GatedConvTranspose2d(store, "gd", 2, 2, kernel=(2, 3), stride=2)
        layers.InstanceNorm(store, "n", 2)
        path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        store.save(path)
        raw = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8
        hlen = int.from_bytes(raw[len(CHECKPOINT_MAGIC) : start], "little")
        header, blob = json.loads(raw[start : start + hlen]), raw[start + hlen :]
        text = json.dumps(data.draw(_checkpoint_headers(header))).encode()
        path.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(8, "little") + text + blob)
        try:
            store.load(path)
        except CheckpointError:
            pass


def _gated_layers(obj, seen=None):
    """Every gated layer and gated TCN block reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (np.ndarray, Tensor, ParamStore)):
        return []
    seen.add(id(obj))
    if isinstance(obj, (layers._Gated, model.GatedTcnBlock)):
        return [obj]
    children = obj if isinstance(obj, (list, tuple)) else getattr(obj, "__dict__", {}).values()
    return [g for child in children for g in _gated_layers(child, seen)]


def _halves_and_pair(layer):
    if isinstance(layer, model.GatedTcnBlock):
        return layer.dil_lin, layer.dil_gate, layer.dil
    return layer.lin, layer.gate, layer.pair


def _assert_pair_tied(layer):
    lin, gate, pair = _halves_and_pair(layer)
    c = lin.cout
    for half, rows in ((lin, slice(None, c)), (gate, slice(c, None))):
        assert np.shares_memory(half.w.data, pair.w.data)
        assert np.shares_memory(half.b.data, pair.b.data)
        assert np.array_equal(pair.w.data[rows], half.w.data)
        assert np.array_equal(pair.b.data[rows], half.b.data)


def _assert_step_equals_call(layer, rng, freq=7, frames=6):
    if isinstance(layer, model.GatedTcnBlock):
        x = rng.standard_normal((layer.pw_in.cin, frames))
        state = layer.init_state(np.float64)
    else:
        x = rng.standard_normal((layer.lin.cin, frames, freq))
        state = layer.init_state(freq)
    stepped = np.stack([layer.step(state, x[:, t]) for t in range(frames)], axis=1)
    np.testing.assert_allclose(stepped, layer(Tensor(x)).data, atol=1e-12)


class TestStackedGatedPairs:
    """lin/gate tensors are views of their pair's stacked arrays, and stay so."""

    def test_deconv_weight_stored_in_step_order(self):
        layer = layers.GatedConvTranspose2d(ParamStore(0), "d", 3, 2, kernel=(2, 3), stride=2)
        for conv in (layer.lin, layer.gate, layer.pair):
            assert conv.w.data.transpose(0, 3, 1, 2).flags.c_contiguous
        assert layer.pair.w.data.shape == (4, 3, 2, 3)

    def test_views_survive_load_adam_and_zero_stage(self, tmp_path):
        rng = np.random.default_rng(0)
        m = model.Enhancer(model.ModelConfig.tiny(), seed=0)
        gated = _gated_layers(m)
        assert len(gated) == 14

        def check():
            for layer in gated:
                _assert_pair_tied(layer)
                _assert_step_equals_call(layer, rng)

        check()
        path = tmp_path / "other.ckpt"
        model.Enhancer(model.ModelConfig.tiny(), seed=1).store.save(path)
        before = [_halves_and_pair(g)[2].w.data.copy() for g in gated]
        m.store.load(path)
        assert all(not np.array_equal(_halves_and_pair(g)[2].w.data, b)
                   for g, b in zip(gated, before))
        check()

        for p in m.store.params.values():
            p.grad = rng.standard_normal(p.data.shape)
        before = [_halves_and_pair(g)[2].w.data.copy() for g in gated]
        training.adam_step(m.store.params, training.AdamState(), lr=1e-2)
        assert all(not np.array_equal(_halves_and_pair(g)[2].w.data, b)
                   for g, b in zip(gated, before))
        check()

        m.zero_stage("stage2")
        zeroed = _gated_layers(m.comp)
        assert zeroed and all(not _halves_and_pair(g)[2].w.data.any() for g in zeroed)
        check()


def _directional_fd(forward, tensors, rng, h=1e-6):
    """Central difference of ``forward()`` along one random direction of ``tensors``."""
    dirs = [rng.standard_normal(t.data.shape) for t in tensors]
    values = []
    for sign in (1.0, -1.0):
        for t, d in zip(tensors, dirs):
            t.data += sign * h * d
        values.append(float(forward().data))
        for t, d in zip(tensors, dirs):
            t.data -= sign * h * d
    return (values[0] - values[1]) / (2 * h), dirs


class TestStackedBackward:
    """Stacked ops put their gradients into the registered part tensors, and
    the blocked 2-D conv backward holds across time-block boundaries."""

    @pytest.mark.parametrize("gated", [
        lambda s: layers.GatedConv2d(s, "g", 3, 4, (2, 5), stride=2),
        lambda s: layers.GatedConvTranspose2d(s, "g", 3, 4, (2, 3), stride=2, out_freq=8),
    ], ids=["gconv2d-k2x5-s2", "gdeconv-trim"])
    def test_gated_pair_grads_land_in_lin_and_gate(self, gated):
        rng = np.random.default_rng(21)
        layer = gated(ParamStore(21))
        freq = 17 if isinstance(layer, layers.GatedConv2d) else 5
        x = Tensor(rng.standard_normal((3, 2 * layers.TIME_BLOCK + 5, freq)), requires_grad=True)
        probe = rng.standard_normal(layer(x).data.shape)
        tensors = [layer.lin.w, layer.lin.b, layer.gate.w, layer.gate.b, x]

        def grads(forward):
            for t in tensors:
                t.grad = None
            forward().backward()
            return [t.grad.copy() for t in tensors]

        stacked = grads(lambda: ad.sum_all(ad.mul(layer(x), Tensor(probe))))
        # the two halves run as separate layers over the same registered tensors
        halves = grads(lambda: ad.sum_all(ad.mul(
            ad.mul(layer.lin(x), ad.sigmoid(layer.gate(x))), Tensor(probe))))
        for got, want in zip(stacked, halves):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert layer.pair.w.grad is None and layer.pair.b.grad is None

        fd, dirs = _directional_fd(lambda: ad.sum_all(ad.mul(layer(x), Tensor(probe))),
                                   tensors, rng)
        analytic = sum(float(np.sum(g * d)) for g, d in zip(stacked, dirs))
        assert abs(analytic - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_mask_head_grads_land_in_planes(self):
        rng = np.random.default_rng(22)
        head = model.MaskHead(ParamStore(22), "h", in_dim=8, bins=161)
        feat = Tensor(rng.standard_normal((8, 9)), requires_grad=True)
        probes = [rng.standard_normal((9, 161)) for _ in range(6)]
        tensors = [t for conv in head.convs for t in (conv.w, conv.b)] + [feat]

        def grads(planes):
            for t in tensors:
                t.grad = None
            loss = ad.sum_all(ad.mul(planes[0], Tensor(probes[0])))
            for p, probe in zip(planes[1:], probes[1:]):
                loss = ad.add(loss, ad.sum_all(ad.mul(p, Tensor(probe))))
            loss.backward()
            return [t.grad.copy() for t in tensors]

        stacked = grads([p for pair in head(feat) for p in pair])
        separate = grads([ad.tanh(ad.moveaxis(conv(feat), 0, 1)) for conv in head.convs])
        for got, want in zip(stacked, separate):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestConvMemory:
    def test_gated_conv2d_peak_does_not_grow_with_length(self):
        # x is allocated before tracing; the forward holds its padded copy and the
        # pair's stacked [2*Cout, T, F] output, gated in place. Anything above
        # that is the per-block column buffer, which must not grow with T.
        import tracemalloc

        def excess(t):
            layer = layers.GatedConv2d(ParamStore(0), "g", 64, 64, (2, 3))
            x = Tensor(np.random.default_rng(0).standard_normal((64, t, 81)))
            tracemalloc.start()
            try:
                with ad.no_grad():
                    out = layer(x).data
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - x.data.nbytes - 2 * out.nbytes

        small, large = excess(layers.TIME_BLOCK), excess(16 * layers.TIME_BLOCK)
        assert large <= 1.1 * small, (small, large)
