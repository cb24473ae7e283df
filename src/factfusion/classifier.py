"""Classification head and the training losses.

    hidden = ReLU(x W1)          probs = softmax(hidden W2)

Training mixes cross entropy on the class probabilities with a supervised
contrastive term computed on the L2-normalised hidden representations:

    L = alpha * CE + (1 - alpha) * SCL

alpha defaults to 1.0 (pure cross entropy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autograd import (
    ShapeError,
    Tensor,
    clamp,
    dropout,
    exp,
    getitem,
    log,
    matmul,
    mean,
    power,
    relu,
    softmax,
    sqrt,
    tensor_sum,
    transpose,
)
from .embedding import glorot_uniform


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 1.0
    tau: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")


@dataclass
class LossParts:
    total: Tensor
    cross_entropy: Tensor
    contrastive: Tensor


class ClassifierHead:
    """Two-layer head without biases; exposes the hidden layer for SCL."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        n_classes: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.1,
        dtype=np.float32,
    ):
        self.in_dim = in_dim
        self.dropout_rate = dropout_rate
        self.Wz1 = Tensor.param(glorot_uniform(rng, in_dim, hidden_dim, dtype))
        self.Wz2 = Tensor.param(glorot_uniform(rng, hidden_dim, n_classes, dtype))

    def __call__(
        self, x: Tensor, rng: Optional[np.random.Generator] = None
    ) -> tuple[Tensor, Tensor]:
        """Class probabilities and hidden states; dropout draws from rng if given."""
        if x.shape[-1] != self.in_dim:
            raise ShapeError(
                f"classifier expected width {self.in_dim}, got {x.shape}"
            )
        hidden = relu(matmul(x, self.Wz1))
        hidden = dropout(hidden, self.dropout_rate, rng)
        probs = softmax(matmul(hidden, self.Wz2), axis=-1)
        return probs, hidden

    def parameters(self) -> dict[str, Tensor]:
        return {"head.Wz1": self.Wz1, "head.Wz2": self.Wz2}


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes.

    Probabilities are floored at 1e-12 before the log so that a confidently
    wrong prediction yields a large finite loss instead of an infinity.
    """
    labels = np.asarray(labels)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ShapeError(
            f"cross_entropy: probs {probs.shape} incompatible with labels {labels.shape}"
        )
    picked = getitem(probs, (np.arange(labels.shape[0]), labels))
    return mean(-log(clamp(picked, lo=1e-12)))


def supcon_loss(hidden: Tensor, labels: np.ndarray, tau: float = 0.3) -> Tensor:
    """Supervised contrastive loss over L2-normalised hidden vectors.

    For each anchor the within-batch samples sharing its label are positives;
    anchors without any positive are skipped. The row maximum is subtracted
    from the similarity logits as a detached constant for numerical stability,
    which leaves the loss value and its gradient unchanged.
    """
    labels = np.asarray(labels)
    n = hidden.shape[0]
    if hidden.ndim != 2 or labels.shape != (n,):
        raise ShapeError(
            f"supcon_loss: hidden {hidden.shape} incompatible with labels {labels.shape}"
        )
    if n < 2:
        raise ValueError("supervised contrastive loss needs at least two samples")

    norms = clamp(sqrt(tensor_sum(hidden * hidden, axis=1, keepdims=True)), lo=1e-12)
    z = hidden * power(norms, -1.0)
    sims = matmul(z, transpose(z)) * (1.0 / tau)
    shifted = sims - Tensor.constant(
        sims.data.max(axis=1, keepdims=True), dtype=sims.dtype
    )

    off_diag = 1.0 - np.eye(n, dtype=hidden.data.dtype)
    denom = tensor_sum(exp(shifted) * Tensor.constant(off_diag), axis=1, keepdims=True)
    log_prob = shifted - log(denom)

    positives = (labels[:, None] == labels[None, :]) & (off_diag > 0)
    counts = positives.sum(axis=1)
    anchors = np.flatnonzero(counts > 0)
    if anchors.size == 0:
        return Tensor.constant(np.asarray(0.0, dtype=hidden.data.dtype))

    pos_mask = Tensor.constant(positives.astype(hidden.data.dtype))
    per_row = tensor_sum(log_prob * pos_mask, axis=1) * Tensor.constant(
        -1.0 / np.maximum(counts, 1).astype(hidden.data.dtype)
    )
    return mean(getitem(per_row, anchors))


def total_loss(
    probs: Tensor,
    hidden: Tensor,
    labels: np.ndarray,
    config: LossConfig = LossConfig(),
) -> LossParts:
    """alpha-weighted loss mix; alpha of exactly 1 bypasses the SCL term."""
    ce = cross_entropy(probs, labels)
    if config.alpha >= 1.0:
        zero = Tensor.constant(np.asarray(0.0, dtype=probs.data.dtype))
        return LossParts(total=ce, cross_entropy=ce, contrastive=zero)
    scl = supcon_loss(hidden, labels, tau=config.tau)
    total = ce * config.alpha + scl * (1.0 - config.alpha)
    return LossParts(total=total, cross_entropy=ce, contrastive=scl)
