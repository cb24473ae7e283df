"""Adam optimizer with per-group learning rates."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autograd import GraphError, Tensor

ParamGroup = dict  # {"params": Sequence[Tensor], "lr": float}

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; β1=0.9, β2=0.999, eps=1e-8.

    Takes a list of {"params": [...], "lr": ...} groups, each with its own
    positive learning rate. Only tensors with requires_grad=True may be
    registered.
    """

    def __init__(self, groups: Sequence[ParamGroup]):
        self.groups = [
            {"params": list(g["params"]), "lr": float(g["lr"])} for g in groups
        ]
        for g in self.groups:
            if g["lr"] <= 0:
                raise ValueError(f"learning rate must be positive, got {g['lr']}")
            for p in g["params"]:
                if not isinstance(p, Tensor) or not p.requires_grad:
                    raise ValueError("optimizer accepts only requires_grad tensors")
        self.step_count = 0
        self._m = [
            [np.zeros_like(p.data) for p in g["params"]] for g in self.groups
        ]
        self._v = [
            [np.zeros_like(p.data) for p in g["params"]] for g in self.groups
        ]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for gi, group in enumerate(self.groups):
            lr = group["lr"]
            for pi, p in enumerate(group["params"]):
                if p.grad is None:
                    raise GraphError(
                        "optimizer step with missing gradient "
                        f"(group {gi}, param {pi}, shape {p.shape})"
                    )
                g = p.grad
                m = self._m[gi][pi]
                v = self._v[gi][pi]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * (g * g)
                update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
                p.data = p.data - lr * update.astype(p.data.dtype, copy=False)

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group["params"]:
                p.grad = None
