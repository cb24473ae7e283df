"""Run configuration shared by the CLI, the training loop and the scripts.

Defaults are the full-scale reference settings; desk-scale experiments
override d, heads and epochs. Precedence when assembling a config: built-in
defaults, then a JSON config file, then explicit command-line flags.

The stock pairing d=256 / heads=12 is kept verbatim for auditing even though
256 is not divisible by 12: head-split attention cannot realize it, so
building a model with it fails. Construction-time validation therefore
checks types and ranges only; the divisibility constraint is enforced where a
model is actually assembled.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .embedding import TAIL_MODES
from .fusion import AGGREGATIONS

# The value types each field annotation accepts; bool only where it says bool.
_ACCEPTS = {"int": int, "float": (int, float), "bool": bool, "str": str,
            "Optional[str]": (str, type(None))}


@dataclass
class RunConfig:
    d: int = 256
    ff_inner: int = 512
    heads: int = 12
    d_m: int = 128
    dropout: float = 0.1
    max_seq_len: int = 512
    batch_size: int = 24
    learning_rate: float = 5e-5
    tail_learning_rate: float = 1e-5
    epochs: int = 15
    seed: int = 42
    alpha: float = 1.0
    tau: float = 0.3
    aggregation: str = "mean"
    adapter_scope: str = "adapter_only"
    tail_text_streams: bool = False
    full_width_scaling: bool = False
    text_only: bool = False
    train_manifest: Optional[str] = None
    val_manifest: Optional[str] = None
    out_dir: str = "runs"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _ACCEPTS[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.d < 1 or self.heads < 1 or self.d_m < 1 or self.ff_inner < 1:
            raise ValueError("d, heads, d_m and ff_inner must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.batch_size < 1 or self.epochs < 1 or self.max_seq_len < 1:
            raise ValueError("batch_size, epochs and max_seq_len must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in ("learning_rate", "tail_learning_rate", "tau"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.adapter_scope not in TAIL_MODES:
            raise ValueError(f"unknown adapter_scope {self.adapter_scope!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Defaults overridden by the fields of a JSON object file."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON ({err})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config file must hold a JSON object")
        return cls().updated(**data)

    def updated(self, **overrides) -> "RunConfig":
        """New config with the given fields replaced; None values are skipped."""
        known = set(self.field_names())
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        clean = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **clean)
