"""Adam optimizer tests against a textbook reference implementation."""

import numpy as np
import pytest

from factfusion.autograd import GraphError, Tensor
from factfusion.optim import Adam


def adam_reference(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba update rule, written independently for oracle use."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestUpdateRule:
    def test_single_step_matches_reference(self):
        p = Tensor.param([1.0, -2.0, 0.5], dtype=np.float64)
        grads = [np.array([2.0, -1.0, 0.25])]
        expected = adam_reference(p.data, grads, lr=0.1)
        opt = Adam([{"params": [p], "lr": 0.1}])
        p.grad = grads[0].copy()
        opt.step()
        np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-14)

    def test_first_step_moves_by_roughly_lr_times_sign(self):
        # With zero-initialized moments the bias-corrected first update is
        # g / (|g| + eps), i.e. nearly sign(g), independent of |g|.
        p = Tensor.param([5.0, -5.0], dtype=np.float64)
        opt = Adam([{"params": [p], "lr": 0.01}])
        p.grad = np.array([1e3, -1e-3])
        opt.step()
        np.testing.assert_allclose(p.data, [5.0 - 0.01, -5.0 + 0.01], atol=1e-6)

    def test_multi_step_matches_reference(self):
        rng = np.random.default_rng(7)
        theta0 = rng.standard_normal((2, 3))
        grads = [rng.standard_normal((2, 3)) for _ in range(5)]
        p = Tensor.param(theta0, dtype=np.float64)
        opt = Adam([{"params": [p], "lr": 0.05}])
        for g in grads:
            p.grad = g.copy()
            opt.step()
        expected = adam_reference(theta0, grads, lr=0.05)
        np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-12)

    def test_moments_persist_across_steps(self):
        # Two steps with opposite gradients do not cancel: momentum decays.
        p = Tensor.param([0.0], dtype=np.float64)
        opt = Adam([{"params": [p], "lr": 0.1}])
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([-1.0])
        opt.step()
        expected = adam_reference([0.0], [[1.0], [-1.0]], lr=0.1)
        np.testing.assert_allclose(p.data, expected, atol=1e-14)
        assert p.data[0] != 0.0

    def test_float32_param_stays_float32(self):
        p = Tensor.param([1.0, 2.0], dtype=np.float32)
        assert p.dtype == np.float32
        opt = Adam([{"params": [p], "lr": 0.1}])
        p.grad = np.ones(2, dtype=np.float32)
        opt.step()
        assert p.dtype == np.float32


class TestGroups:
    def test_per_group_learning_rates(self):
        slow = Tensor.param([0.0], dtype=np.float64)
        fast = Tensor.param([0.0], dtype=np.float64)
        opt = Adam(
            [
                {"params": [slow], "lr": 1e-3},
                {"params": [fast], "lr": 1e-1},
            ]
        )
        slow.grad = np.array([1.0])
        fast.grad = np.array([1.0])
        opt.step()
        # First step is ~ -lr * sign(g) for each group.
        np.testing.assert_allclose(slow.data, [-1e-3], atol=1e-9)
        np.testing.assert_allclose(fast.data, [-1e-1], atol=1e-7)

    def test_missing_grad_error_names_group_param_and_shape(self):
        a = Tensor.param(np.zeros((2, 2)))
        b = Tensor.param(np.zeros(3))
        opt = Adam([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.1}])
        a.grad = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(GraphError) as err:
            opt.step()
        msg = str(err.value)
        assert "group 1" in msg
        assert "param 0" in msg
        assert "(3,)" in msg


class TestBookkeeping:
    def test_step_count_increments(self):
        p = Tensor.param([0.0])
        opt = Adam([{"params": [p], "lr": 0.1}])
        assert opt.step_count == 0
        for i in range(3):
            p.grad = np.ones(1, dtype=np.float32)
            opt.step()
            assert opt.step_count == i + 1

    def test_zero_grad_clears_all_groups(self):
        a = Tensor.param([0.0])
        b = Tensor.param([0.0])
        opt = Adam([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.2}])
        a.grad = np.ones(1, dtype=np.float32)
        b.grad = np.ones(1, dtype=np.float32)
        opt.zero_grad()
        assert a.grad is None and b.grad is None

    def test_rejects_nonpositive_lr(self):
        p = Tensor.param([0.0])
        with pytest.raises(ValueError):
            Adam([{"params": [p], "lr": 0.0}])
        with pytest.raises(ValueError):
            Adam([{"params": [p], "lr": -1.0}])

    def test_rejects_frozen_tensor(self):
        frozen = Tensor.constant([1.0])
        with pytest.raises(ValueError):
            Adam([{"params": [frozen], "lr": 0.1}])


class TestConvergence:
    def test_minimizes_shifted_quadratic(self):
        theta = Tensor.param([10.0], dtype=np.float64)
        opt = Adam([{"params": [theta], "lr": 0.3}])
        for _ in range(400):
            opt.zero_grad()
            diff = theta + Tensor.constant([-3.0], dtype=np.float64)
            loss = (diff * diff).sum()
            loss.backward()
            opt.step()
        assert abs(theta.data[0] - 3.0) < 1e-2

    def test_fits_tiny_linear_regression(self):
        rng = np.random.default_rng(0)
        x = Tensor.constant(rng.standard_normal((32, 1)), dtype=np.float64)
        y = Tensor.constant(2.0 * x.data + 0.5, dtype=np.float64)
        w = Tensor.param([[0.0]], dtype=np.float64)
        b = Tensor.param([0.0], dtype=np.float64)
        opt = Adam([{"params": [w, b], "lr": 0.1}])
        first = None
        for _ in range(300):
            opt.zero_grad()
            pred = x @ w + b
            err = pred - y
            loss = (err * err).mean()
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-4 < first
        assert abs(w.data[0, 0] - 2.0) < 0.01
        assert abs(b.data[0] - 0.5) < 0.01
