"""Central finite-difference verification of every layer's backward pass.

Each check builds a small randomly-initialized layer, projects its output to
a scalar against a fixed random probe, and compares analytic gradients of all
parameters and the input against central differences (h=1e-5, float64).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers, training
from .autodiff import Tensor
from .params import ParamStore

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_ESCAPE = 1e-9


@dataclass
class CheckResult:
    name: str
    seed: int
    max_rel_err: float
    passed: bool


def fd_compare(forward, tensors, h=FD_STEP, rel_tol=REL_TOL):
    """Max relative error between analytic grads of ``tensors`` and central FD.

    ``forward()`` must rebuild the graph and return a scalar Tensor.
    """
    for t in tensors:
        t.grad = None
    forward().backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    worst = 0.0
    for t, g in zip(tensors, analytic):
        for idx in np.ndindex(t.data.shape):  # in place: t.data may be a strided view
            orig = t.data[idx]
            t.data[idx] = orig + h
            fp = float(forward().data)
            t.data[idx] = orig - h
            fm = float(forward().data)
            t.data[idx] = orig
            fd = (fp - fm) / (2.0 * h)
            diff = abs(g[idx] - fd)
            if diff <= ABS_ESCAPE:
                continue
            worst = max(worst, diff / max(abs(g[idx]), abs(fd), ABS_ESCAPE))
    return worst, worst <= rel_tol


def _probe_scalar(out, probe):
    return ad.sum_all(ad.mul(out, Tensor(probe)))


def check_conv1d(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    layer = layers.Conv1d(store, "conv", cin=3, cout=4, kernel=3, dilation=2)
    x = Tensor(rng.standard_normal((3, 9)), requires_grad=True)
    probe = rng.standard_normal((4, 9))
    err, ok = fd_compare(lambda: _probe_scalar(layer(x), probe),
                         [layer.w, layer.b, x])
    return CheckResult("conv1d", seed, err, ok)


def check_pointwise(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    layer = layers.Conv1d(store, "pw", cin=5, cout=3, kernel=1)
    x = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    probe = rng.standard_normal((3, 7))
    err, ok = fd_compare(lambda: _probe_scalar(layer(x), probe),
                         [layer.w, layer.b, x])
    return CheckResult("pointwise", seed, err, ok)


def check_gconv2d(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    layer = layers.GatedConv2d(store, "gc", cin=2, cout=3, kernel=(2, 3), stride=2)
    x = Tensor(rng.standard_normal((2, 4, 9)), requires_grad=True)
    probe = rng.standard_normal((3, 4, layer.out_freq(9)))
    tensors = [layer.lin.w, layer.lin.b, layer.gate.w, layer.gate.b, x]
    err, ok = fd_compare(lambda: _probe_scalar(layer(x), probe), tensors)
    return CheckResult("gconv2d", seed, err, ok)


def check_gdeconv2d(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    layer = layers.GatedConvTranspose2d(store, "gd", cin=3, cout=2, kernel=(2, 3),
                                        stride=2, out_freq=9)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    probe = rng.standard_normal((2, 4, 9))
    tensors = [layer.lin.w, layer.lin.b, layer.gate.w, layer.gate.b, x]
    err, ok = fd_compare(lambda: _probe_scalar(layer(x), probe), tensors)
    return CheckResult("gdeconv2d", seed, err, ok)


def check_instance_norm(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    layer = layers.InstanceNorm(store, "in", channels=3)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    probe = rng.standard_normal((3, 4, 5))
    err, ok = fd_compare(lambda: _probe_scalar(layer(x, training=True), probe),
                         [layer.gamma, layer.beta, x])
    return CheckResult("instance_norm", seed, err, ok)


def check_lstm(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    layer = layers.Lstm(store, "lstm", din=3, hidden=4, layers=2)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    probe = rng.standard_normal((5, 4))
    tensors = [*layer.ws, *layer.bs, x]
    err, ok = fd_compare(lambda: _probe_scalar(layer(x), probe), tensors)
    return CheckResult("lstm", seed, err, ok)


def check_cmse_loss(seed):
    rng = np.random.default_rng(seed)
    cfg = training.LossConfig()
    # keep magnitudes away from the non-differentiable zero of |.|**c
    est = [(Tensor(rng.uniform(0.2, 1.0, (3, 5)) * rng.choice([-1, 1], (3, 5)),
                   requires_grad=True),
            Tensor(rng.uniform(0.2, 1.0, (3, 5)) * rng.choice([-1, 1], (3, 5)),
                   requires_grad=True))
           for _ in range(3)]
    ref = [(rng.uniform(0.2, 1.0, (3, 5)), rng.uniform(0.2, 1.0, (3, 5)))
           for _ in range(3)]
    tensors = [t for pair in est for t in pair]
    err, ok = fd_compare(lambda: training.cmse_loss_op(est, ref, cfg), tensors)
    return CheckResult("cmse_loss", seed, err, ok)


LAYER_CHECKS = {
    "conv1d": check_conv1d,
    "gconv2d": check_gconv2d,
    "gdeconv2d": check_gdeconv2d,
    "instance_norm": check_instance_norm,
    "lstm": check_lstm,
    "pointwise": check_pointwise,
    "cmse_loss": check_cmse_loss,
}


def run_all(seeds=range(3)):
    """Run every registered check for every seed; returns CheckResult list."""
    return [fn(seed) for name, fn in LAYER_CHECKS.items() for seed in seeds]
