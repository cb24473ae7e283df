"""Classifier head and loss oracles (brute-force contrastive reference)."""

import numpy as np
import pytest

from factfusion.autograd import ShapeError, Tensor
from factfusion.classifier import (
    ClassifierHead,
    LossConfig,
    cross_entropy,
    supcon_loss,
    total_loss,
)

LN5 = 1.6094379124341003746


def supcon_reference(hidden, labels, tau):
    """Double-loop supervised contrastive loss, written independently."""
    h = np.asarray(hidden, dtype=np.float64)
    labels = np.asarray(labels)
    n = h.shape[0]
    z = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)
    losses = []
    for i in range(n):
        positives = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not positives:
            continue
        denom = sum(np.exp(z[i] @ z[k] / tau) for k in range(n) if k != i)
        total = 0.0
        for p in positives:
            total += np.log(np.exp(z[i] @ z[p] / tau) / denom)
        losses.append(-total / len(positives))
    return float(np.mean(losses)) if losses else 0.0


class TestClassifierHead:
    def test_probabilities_normalised(self):
        head = ClassifierHead(6, 4, 5, np.random.default_rng(0))
        x = Tensor.constant(np.random.default_rng(1).standard_normal((3, 6)))
        probs, hidden = head(x)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)
        assert probs.shape == (3, 5)
        assert hidden.shape == (3, 4)

    def test_no_biases(self):
        head = ClassifierHead(6, 4, 5, np.random.default_rng(0))
        assert set(head.parameters()) == {"head.Wz1", "head.Wz2"}
        # Zero input must map to uniform probabilities: no bias anywhere.
        probs, hidden = head(Tensor.constant(np.zeros((2, 6), dtype=np.float32)))
        np.testing.assert_allclose(probs.data, 0.2, atol=1e-7)
        np.testing.assert_array_equal(hidden.data, 0.0)

    def test_hidden_is_relu_of_projection(self):
        head = ClassifierHead(3, 4, 5, np.random.default_rng(2))
        x = Tensor.constant(np.random.default_rng(3).standard_normal((2, 3)))
        _, hidden = head(x)
        expected = np.maximum(x.data @ head.Wz1.data, 0.0)
        np.testing.assert_allclose(hidden.data, expected, rtol=1e-6)

    def test_width_mismatch(self):
        head = ClassifierHead(6, 4, 5, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="width 6"):
            head(Tensor.constant(np.zeros((2, 7), dtype=np.float32)))

    def test_dropout_only_in_training(self):
        head = ClassifierHead(6, 32, 5, np.random.default_rng(0), dropout_rate=0.5)
        x = Tensor.constant(np.random.default_rng(1).standard_normal((2, 6)))
        _, h_eval = head(x)
        _, h_train = head(x, rng=np.random.default_rng(2))
        assert (h_train.data == 0).sum() > (h_eval.data == 0).sum()


class TestCrossEntropy:
    def test_uniform_is_ln5(self):
        probs = Tensor.constant(np.full((4, 5), 0.2))
        labels = np.array([0, 1, 2, 3])
        assert cross_entropy(probs, labels).item() == pytest.approx(LN5, abs=1e-6)

    def test_perfect_prediction_is_zero(self):
        probs = Tensor.constant(np.eye(5)[[1, 3]])
        assert cross_entropy(probs, np.array([1, 3])).item() == pytest.approx(0.0)

    def test_confidently_wrong_is_clamped_finite(self):
        probs = Tensor.constant(np.eye(5)[[1]])
        loss = cross_entropy(probs, np.array([0])).item()
        assert loss == pytest.approx(-np.log(1e-12), rel=1e-6)

    def test_hand_case(self):
        probs = Tensor.constant(np.array([[0.7, 0.1, 0.1, 0.05, 0.05]]))
        expected = -np.log(0.7)
        assert cross_entropy(probs, np.array([0])).item() == pytest.approx(expected, rel=1e-6)

    def test_mean_over_batch(self):
        probs = Tensor.constant(np.array([[0.5, 0.5, 0, 0, 0], [0.25, 0.75, 0, 0, 0]]))
        expected = (-np.log(0.5) - np.log(0.75)) / 2
        assert cross_entropy(probs, np.array([0, 1])).item() == pytest.approx(expected, rel=1e-6)

    def test_shape_error(self):
        probs = Tensor.constant(np.full((3, 5), 0.2))
        with pytest.raises(ShapeError):
            cross_entropy(probs, np.array([0, 1]))

    def test_gradient_direction(self):
        raw = Tensor.param(np.zeros((1, 5)), dtype=np.float64)
        from factfusion.autograd import softmax

        probs = softmax(raw, axis=-1)
        cross_entropy(probs, np.array([2])).backward()
        # Gradient of CE(softmax) at uniform: p - onehot.
        expected = np.full(5, 0.2)
        expected[2] -= 1.0
        np.testing.assert_allclose(raw.grad[0], expected, atol=1e-7)


class TestSupConOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        hidden = rng.standard_normal((n, 5))
        labels = rng.integers(0, 3, size=n)
        got = supcon_loss(Tensor.constant(hidden, dtype=np.float64), labels).item()
        want = supcon_reference(hidden, labels, tau=0.3)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.1, 0.3, 1.0, 3.0])
    def test_matches_brute_force_across_tau(self, tau):
        rng = np.random.default_rng(77)
        hidden = rng.standard_normal((7, 4))
        labels = np.array([0, 0, 1, 1, 1, 2, 0])
        got = supcon_loss(Tensor.constant(hidden, dtype=np.float64), labels, tau=tau).item()
        want = supcon_reference(hidden, labels, tau)
        assert got == pytest.approx(want, abs=1e-6)

    def test_all_distinct_labels_is_zero(self):
        rng = np.random.default_rng(0)
        hidden = Tensor.constant(rng.standard_normal((4, 3)))
        assert supcon_loss(hidden, np.array([0, 1, 2, 3])).item() == 0.0

    def test_two_identical_positives(self):
        # Two coincident same-label points and nothing else: the positive
        # captures the whole denominator, so the loss is exactly zero.
        hidden = Tensor.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert supcon_loss(hidden, np.array([4, 4])).item() == pytest.approx(0.0, abs=1e-7)

    def test_anchors_without_positives_are_skipped(self):
        rng = np.random.default_rng(1)
        hidden = rng.standard_normal((5, 4))
        labels = np.array([0, 0, 1, 2, 3])  # only two anchors have positives
        got = supcon_loss(Tensor.constant(hidden, dtype=np.float64), labels).item()
        want = supcon_reference(hidden, labels, 0.3)
        assert got == pytest.approx(want, abs=1e-6)

    def test_scale_invariance_of_hidden(self):
        # The loss sees only normalised directions.
        rng = np.random.default_rng(2)
        hidden = rng.standard_normal((6, 4))
        labels = np.array([0, 1, 0, 1, 2, 2])
        a = supcon_loss(Tensor.constant(hidden, dtype=np.float64), labels).item()
        b = supcon_loss(Tensor.constant(hidden * 37.5, dtype=np.float64), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        hidden = rng.standard_normal((6, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        labels = np.array([0, 1, 0, 1, 2, 2])
        a = supcon_loss(Tensor.constant(hidden, dtype=np.float64), labels).item()
        b = supcon_loss(Tensor.constant(hidden @ q, dtype=np.float64), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="two"):
            supcon_loss(Tensor.constant(np.ones((1, 3))), np.array([0]))

    def test_gradient_matches_finite_differences(self):
        from factfusion.gradcheck import check_gradients

        rng = np.random.default_rng(4)
        hidden = Tensor.param(rng.standard_normal((5, 4)), dtype=np.float64)
        labels = np.array([0, 1, 0, 1, 1])
        check_gradients(
            lambda: supcon_loss(hidden, labels), {"hidden": hidden}, rtol=1e-5
        )


class TestTotalLoss:
    def make_batch(self, seed=0, n=6):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, 5))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = Tensor.constant(e / e.sum(axis=1, keepdims=True), dtype=np.float64)
        hidden = Tensor.constant(rng.standard_normal((n, 4)), dtype=np.float64)
        labels = rng.integers(0, 3, size=n)
        return probs, hidden, labels

    def test_alpha_one_returns_cross_entropy_object(self):
        probs, hidden, labels = self.make_batch()
        parts = total_loss(probs, hidden, labels, LossConfig(alpha=1.0))
        assert parts.total is parts.cross_entropy
        assert parts.contrastive.item() == 0.0
        assert parts.total.item() == cross_entropy(probs, labels).item()

    def test_alpha_zero_is_pure_contrastive(self):
        probs, hidden, labels = self.make_batch()
        parts = total_loss(probs, hidden, labels, LossConfig(alpha=0.0))
        assert parts.total.item() == pytest.approx(
            supcon_loss(hidden, labels).item(), abs=1e-9
        )

    def test_mix_arithmetic(self):
        probs, hidden, labels = self.make_batch()
        cfg = LossConfig(alpha=0.7, tau=0.3)
        parts = total_loss(probs, hidden, labels, cfg)
        expected = 0.7 * parts.cross_entropy.item() + 0.3 * parts.contrastive.item()
        assert parts.total.item() == pytest.approx(expected, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            LossConfig(alpha=1.5)
        with pytest.raises(ValueError, match="tau"):
            LossConfig(tau=0.0)

    @pytest.mark.parametrize("tau", [float("inf"), float("nan")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            LossConfig(tau=tau)

    def test_alpha_one_skips_batch_size_restriction(self):
        # Pure CE must work on a single sample even though SCL cannot.
        probs = Tensor.constant(np.full((1, 5), 0.2))
        hidden = Tensor.constant(np.ones((1, 4)))
        parts = total_loss(probs, hidden, np.array([2]), LossConfig(alpha=1.0))
        assert parts.total.item() == pytest.approx(LN5, abs=1e-6)
