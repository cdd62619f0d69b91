"""Tape mechanics: accumulation, release semantics, linearity."""

import numpy as np
import pytest

from fbse import autodiff as ad
from fbse.autodiff import Tensor
from fbse.errors import ShapeMismatchError, StaleGraphError


def test_add_mul_chain():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    out = ad.sum_all(ad.mul(ad.add(a, b), b))
    out.backward()
    np.testing.assert_allclose(a.grad, [3.0, 4.0])
    np.testing.assert_allclose(b.grad, [1.0 + 2 * 3.0, 2.0 + 2 * 4.0])


def test_grad_accumulates_over_fanout():
    a = Tensor(np.array([2.0]), requires_grad=True)
    out = ad.sum_all(ad.add(a, a))
    out.backward()
    np.testing.assert_allclose(a.grad, [2.0])


def test_second_backward_raises_stale_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    out = ad.sum_all(ad.sigmoid(a))
    out.backward()
    with pytest.raises(StaleGraphError):
        out.backward()


def test_backward_without_graph_raises():
    with pytest.raises(StaleGraphError):
        Tensor(np.ones(2)).backward()


def test_zero_upstream_grad_gives_zero_param_grads():
    a = Tensor(np.random.default_rng(0).standard_normal(5), requires_grad=True)
    out = ad.tanh(a)
    out.backward(np.zeros(5))
    np.testing.assert_array_equal(a.grad, np.zeros(5))


def test_backward_linearity_in_upstream():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4)
    g = rng.standard_normal(4)

    def run(seed_grad):
        a = Tensor(x.copy(), requires_grad=True)
        out = ad.mul(ad.sigmoid(a), ad.tanh(a))
        out.backward(seed_grad)
        return a.grad

    np.testing.assert_allclose(run(2.5 * g), 2.5 * run(g), rtol=1e-12)


def test_no_grad_suppresses_tape():
    a = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        out = ad.sigmoid(a)
    assert out._backward_fn is None and not out.requires_grad


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.ones(2)), Tensor(np.ones(3)))


def test_concat_narrow_round_trip_grads():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(3.0).reshape(1, 3), requires_grad=True)
    cat = ad.concat([a, b], axis=0)
    piece = ad.narrow(cat, 0, 1, 3)
    ad.sum_all(piece).backward()
    np.testing.assert_allclose(a.grad, [[0, 0, 0], [1, 1, 1]])
    np.testing.assert_allclose(b.grad, [[1, 1, 1]])


def test_reshape_moveaxis_grads():
    a = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4)), requires_grad=True)
    out = ad.sum_all(ad.square(ad.reshape(ad.moveaxis(a, 0, 2), (12, 2))))
    out.backward()
    np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5))

    def run():
        a = Tensor(x.copy(), requires_grad=True)
        out = ad.sum_all(ad.mul(ad.tanh(a), ad.sigmoid(a)))
        out.backward()
        return out.data.copy(), a.grad.copy()

    (v1, g1), (v2, g2) = run(), run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_logistic_matches_expit_everywhere():
    from scipy.special import expit

    x = np.concatenate([np.linspace(-800.0, 800.0, 160001), [np.inf, -np.inf, np.nan]])
    before = x.copy()
    got = ad.logistic(x)
    np.testing.assert_array_equal(x, before)  # a new buffer unless ``out`` is given
    assert np.isnan(got[-1]) and got[-3] == 1.0 and got[-2] == 0.0
    np.testing.assert_allclose(got, expit(x), rtol=0, atol=5e-16)
    assert ad.logistic(x.astype(np.float32)).dtype == np.float32
    y = x.copy()
    assert ad.logistic(y, out=y) is y and np.array_equal(y, got, equal_nan=True)
    np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data, got)
