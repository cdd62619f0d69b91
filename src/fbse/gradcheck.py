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


def _layer_check(name, build, in_shape, params, **call):
    """FD check of ``build(store)`` on a random ``in_shape`` input: its
    ``params(layer)`` tensors and the input, through a random output probe."""

    def check(seed):
        rng = np.random.default_rng(seed)
        layer = build(ParamStore(seed))
        x = Tensor(rng.standard_normal(in_shape), requires_grad=True)
        probe = rng.standard_normal(layer(x, **call).data.shape)
        err, ok = fd_compare(lambda: _probe_scalar(layer(x, **call), probe), [*params(layer), x])
        return CheckResult(name, seed, err, ok)

    return check


def _wb(layer):
    return [layer.w, layer.b]


def _gated(layer):
    return [layer.lin.w, layer.lin.b, layer.gate.w, layer.gate.b]


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
    "conv1d": _layer_check("conv1d", lambda s: layers.Conv1d(s, "conv", 3, 4, 3, 2), (3, 9), _wb),
    "gconv2d": _layer_check("gconv2d", lambda s: layers.GatedConv2d(s, "gc", 2, 3, (2, 3), 2),
                            (2, 4, 9), _gated),
    "gconv2d_k5": _layer_check(
        "gconv2d_k5", lambda s: layers.GatedConv2d(s, "gc", 2, 3, (2, 5), 2), (2, 4, 11), _gated),
    "gdeconv2d": _layer_check(
        "gdeconv2d", lambda s: layers.GatedConvTranspose2d(s, "gd", 3, 2, (2, 3), 2, out_freq=9),
        (3, 4, 5), _gated),
    # out_freq 8 trims the natural 9 bins
    "gdeconv2d_trim": _layer_check(
        "gdeconv2d_trim",
        lambda s: layers.GatedConvTranspose2d(s, "gd", 3, 2, (2, 3), 2, out_freq=8), (3, 4, 5),
        _gated),
    "instance_norm": _layer_check("instance_norm", lambda s: layers.InstanceNorm(s, "in", 3),
                                  (3, 4, 5), lambda n: [n.gamma, n.beta], training=True),
    "lstm": _layer_check("lstm", lambda s: layers.Lstm(s, "lstm", 3, 4, 2), (5, 3),
                         lambda l: [*l.ws, *l.bs]),
    "pointwise": _layer_check("pointwise", lambda s: layers.Conv1d(s, "pw", 5, 3, 1), (5, 7), _wb),
    "cmse_loss": check_cmse_loss,
}


def run_all(seeds=range(3)):
    """Run every registered check for every seed; returns CheckResult list."""
    return [fn(seed) for name, fn in LAYER_CHECKS.items() for seed in seeds]
