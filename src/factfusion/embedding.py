"""Per-stream embedding layers and the adapter-augmented backbone tail.

Four streams (CT, CI, DT, DI: claim/document x text/image) each own an
affine-plus-ReLU projection from backbone width to the shared model width d.
Image streams first pass through a backbone tail: a frozen-or-trainable
feed-forward layer summed with a small adapter branch (W x + b) + v, the
parameter-efficient finetuning site.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .autograd import ShapeError, Tensor, add, feed_forward, matmul, relu
from .data import STREAMS

TAIL_MODES = ("adapter_only", "all", "frozen")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


class StreamEmbedder:
    """E = ReLU(X W + b) applied per sequence position; one per stream."""

    def __init__(
        self,
        stream_id: str,
        backbone_dim: int,
        d: int,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        if stream_id not in STREAMS:
            raise ValueError(f"unknown stream id {stream_id!r}")
        self.stream_id = stream_id
        self.backbone_dim = backbone_dim
        self.d = d
        self.W = Tensor.param(glorot_uniform(rng, backbone_dim, d, dtype))
        self.b = Tensor.param(np.zeros(d, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.backbone_dim:
            raise ShapeError(
                f"stream {self.stream_id}: expected [seq x {self.backbone_dim}], "
                f"got {x.shape}"
            )
        return relu(add(matmul(x, self.W), self.b))

    def parameters(self) -> dict[str, Tensor]:
        sid = self.stream_id
        return {f"embed.{sid}.W": self.W, f"embed.{sid}.b": self.b}


class BackboneTail:
    """Feed-forward tail plus adapter: out = FFN(x) + (W x + b) + v.

    trainable_scope:
      adapter_only - FFN frozen, adapter trains (the few-parameter regime)
      all          - FFN and adapter both train
      frozen       - FFN frozen, adapter disabled entirely (baseline)

    The FFN inner width is 2*backbone_dim capped at 512. Adapter parameters
    start at zero so the tail initially equals its FFN.

    The FFN stands in for the final layer of a backbone pretrained on a
    different domain, so its representation is deliberately imperfect: inner
    biases start negative (scaled by the Glorot limit of W1), leaving most
    ReLU units inactive. A frozen tail therefore discards part of its input,
    which the adapter's linear bypass can restore during training.
    """

    def __init__(
        self,
        backbone_dim: int,
        rng: np.random.Generator,
        trainable_scope: str = "adapter_only",
        dtype=np.float32,
    ):
        if trainable_scope not in TAIL_MODES:
            raise ValueError(
                f"trainable_scope must be one of {TAIL_MODES}, got {trainable_scope!r}"
            )
        self.backbone_dim = backbone_dim
        self.trainable_scope = trainable_scope
        inner = min(2 * backbone_dim, 512)
        ffn_trainable = trainable_scope == "all"
        limit = np.sqrt(6.0 / (backbone_dim + inner))
        self.W1 = Tensor(glorot_uniform(rng, backbone_dim, inner, dtype), requires_grad=ffn_trainable)
        self.b1 = Tensor(
            -rng.uniform(limit, 3.0 * limit, size=inner).astype(dtype),
            requires_grad=ffn_trainable,
        )
        self.W2 = Tensor(glorot_uniform(rng, inner, backbone_dim, dtype), requires_grad=ffn_trainable)
        self.b2 = Tensor(np.zeros(backbone_dim, dtype=dtype), requires_grad=ffn_trainable)
        use_adapter = trainable_scope != "frozen"
        self.adapter_W = Tensor(
            np.zeros((backbone_dim, backbone_dim), dtype=dtype), requires_grad=use_adapter
        )
        self.adapter_b = Tensor(np.zeros(backbone_dim, dtype=dtype), requires_grad=use_adapter)
        self.adapter_v = Tensor(np.zeros(backbone_dim, dtype=dtype), requires_grad=use_adapter)

    @property
    def use_adapter(self) -> bool:
        return self.trainable_scope != "frozen"

    def ffn(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.W1, self.b1, self.W2, self.b2, 0.0)

    def adapter(self, x: Tensor) -> Tensor:
        return add(add(matmul(x, self.adapter_W), self.adapter_b), self.adapter_v)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.backbone_dim:
            raise ShapeError(
                f"backbone tail: expected [seq x {self.backbone_dim}], got {x.shape}"
            )
        out = self.ffn(x)
        if self.use_adapter:
            out = add(out, self.adapter(x))
        return out

    def parameters(self) -> dict[str, Tensor]:
        entries = {
            "ffn.W1": self.W1,
            "ffn.b1": self.b1,
            "ffn.W2": self.W2,
            "ffn.b2": self.b2,
        }
        if self.use_adapter:
            entries.update(
                {
                    "adapter.W": self.adapter_W,
                    "adapter.b": self.adapter_b,
                    "adapter.v": self.adapter_v,
                }
            )
        return entries

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if v.requires_grad}

    def trainable_count(self) -> int:
        return sum(p.data.size for p in self.trainable_parameters().values())
