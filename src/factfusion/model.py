"""The full verification network.

Four input streams — claim text (CT), claim image (CI), document text (DT),
document image (DI) — arrive as backbone embedding sequences. Image streams
pass through the adapter-augmented backbone tail (tail_text_streams extends
it to the text streams), every stream through its own embedding layer, all
pairs through the co-attention stack, and the concatenated fusion vector
(plus the 32 statistical text features) through the classifier head. A
batch runs as one pass: each stream's samples are packed row-wise into one
tensor, so every layer but the per-sample attention core runs once per batch.

The text-only ablation keeps just CT/DT, their single pairing, and drops the
feature vector; without tail_text_streams it therefore has no tail at all.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autograd import ShapeError, Tensor, concat
from .classifier import ClassifierHead
from .config import RunConfig
from .data import LABELS
from .embedding import BackboneTail, StreamEmbedder
from .features import FEATURE_DIM, SCALER_ENTRIES, FeatureScaler
from .fusion import STREAM_ORDER, FusionStack
from .tensor_io import FormatError, read_checkpoint, write_checkpoint

TEXT_STREAMS = ("CT", "DT")
IMAGE_STREAMS = ("CI", "DI")


class VerificationModel:
    def __init__(
        self,
        config: RunConfig,
        backbone_dim: int,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ):
        self.config = config
        self.backbone_dim = backbone_dim
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.streams = TEXT_STREAMS if config.text_only else STREAM_ORDER
        self.use_features = not config.text_only
        tailed = IMAGE_STREAMS + (TEXT_STREAMS if config.tail_text_streams else ())
        self.tail_streams = tuple(s for s in self.streams if s in tailed)
        self.tail = (
            BackboneTail(
                backbone_dim, rng, trainable_scope=config.adapter_scope, dtype=dtype
            )
            if self.tail_streams
            else None
        )
        self.embedders = {
            s: StreamEmbedder(s, backbone_dim, config.d, rng, dtype=dtype)
            for s in self.streams
        }
        self.fusion = FusionStack(
            config.d,
            config.heads,
            config.ff_inner,
            rng,
            dropout_rate=config.dropout,
            full_width_scaling=config.full_width_scaling,
            streams=self.streams,
            aggregation=config.aggregation,
            dtype=dtype,
        )
        self.feature_dim = FEATURE_DIM if self.use_features else 0
        self.in_dim = self.fusion.vector_width() + self.feature_dim
        self.head = ClassifierHead(
            self.in_dim, config.d_m, len(LABELS), rng,
            dropout_rate=config.dropout, dtype=dtype,
        )

    def forward_batch(
        self,
        batch: Sequence[dict],
        features: Optional[np.ndarray] = None,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[Tensor, Tensor]:
        """Class probabilities and classifier hidden states for a batch.

        Each sample maps stream ids to [rows x backbone_dim] arrays or
        tensors; the row counts may differ between samples and streams.
        training turns dropout on, drawn from rng, which it then needs;
        every layer below takes only the generator, None meaning no dropout.
        """
        if training and rng is None:
            raise ValueError("training-mode forward_batch needs an explicit dropout rng")
        rng = rng if training else None
        rows = {s: [sample[s].shape[0] for sample in batch] for s in self.streams}
        embedded = {}
        for s in self.streams:
            x = concat([sample[s] for sample in batch], axis=0)
            if s in self.tail_streams:
                x = self.tail(x)
            embedded[s] = self.embedders[s](x)
        fused = self.fusion.fuse(embedded, rng=rng, rows=rows)
        vec = fused.concatenated()
        if self.use_features:
            if features is None:
                raise ValueError(
                    f"model expects a {FEATURE_DIM}-wide feature vector per sample"
                )
            feat = Tensor.constant(np.asarray(features), dtype=vec.dtype)
            vec = concat([vec, feat], axis=1)
        return self.head(vec, rng)

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.tail.parameters()) if self.tail is not None else {}
        for emb in self.embedders.values():
            out.update(emb.parameters())
        out.update(self.fusion.parameters())
        out.update(self.head.parameters())
        return out

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if v.requires_grad}

    def param_groups(self) -> list:
        """Two optimizer groups: backbone tail at its own rate, rest at the primary."""
        tail = (
            list(self.tail.trainable_parameters().values())
            if self.tail is not None
            else []
        )
        tail_ids = {id(p) for p in tail}
        rest = [
            p for p in self.trainable_parameters().values() if id(p) not in tail_ids
        ]
        groups = []
        if tail:
            groups.append({"params": tail, "lr": self.config.tail_learning_rate})
        groups.append({"params": rest, "lr": self.config.learning_rate})
        return groups

    def save(self, path, scaler: Optional[FeatureScaler], meta: dict) -> None:
        """One checkpoint with the parameters, the scaler's entries and metadata.

        The metadata object is meta plus this model's resolved config under
        "config", so the file alone rebuilds the model.
        """
        entries = {name: t.data for name, t in self.parameters().items()}
        if scaler is not None:
            entries.update(scaler.entries())
        write_checkpoint(path, entries, {**meta, "config": self.config.to_dict()})

    def load_state(self, entries: dict) -> None:
        """Load every parameter; a checkpoint may also carry the feature scaler.

        Every name, shape and value is checked before any parameter is
        assigned, so a rejected checkpoint (a NaN or inf in any parameter
        included) leaves the model as it was. Any other entry (a stale or
        misspelt parameter name, say) raises ValueError rather than being
        ignored.
        """
        params = self.parameters()
        for name in entries:
            if name not in params and name not in SCALER_ENTRIES:
                raise ValueError(f"checkpoint has unexpected entry {name!r}")
        loaded = {}
        for name, param in params.items():
            if name not in entries:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            stored = np.asarray(entries[name])
            if stored.shape != param.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: checkpoint shape {stored.shape} does not "
                    f"match model shape {param.data.shape}"
                )
            if not np.isfinite(stored).all():
                raise ValueError(f"parameter {name!r} holds a non-finite value")
            loaded[name] = stored.astype(param.data.dtype, copy=True)
        for name, param in params.items():
            param.data = loaded[name]

    @classmethod
    def from_checkpoint(
        cls, path
    ) -> tuple["VerificationModel", Optional[FeatureScaler], dict]:
        """The saved model, its feature scaler (None if text-only) and metadata.

        The metadata is what save was given, without the config. backbone_dim
        is the row count of embed.CT.W, which every variant has. A version-1
        checkpoint carries no metadata: its config comes from the .meta.json
        file beside it, which must hold a JSON object.
        """
        entries, meta = read_checkpoint(path)
        if meta is None:
            sidecar = Path(f"{path}.meta.json")
            try:
                meta = json.loads(sidecar.read_text(encoding="utf-8"))
            except ValueError as err:
                raise FormatError(f"{sidecar}: not a JSON object ({err})") from None
            if not isinstance(meta, dict):
                raise FormatError(f"{sidecar}: a JSON {type(meta).__name__}, not an object")
            meta.pop("backbone_dim", None)
        stored = meta.pop("config", None)
        if isinstance(stored, dict):
            stored.pop("checkpoint", None)  # a removed field, null in older files
        try:
            config = RunConfig(**stored)
        except (TypeError, ValueError) as err:
            raise FormatError(f"{path}: no valid config in the metadata ({err})") from None
        embed = entries.get("embed.CT.W")
        if embed is None or embed.ndim != 2:
            raise ValueError(f"{path}: no [backbone_dim x d] parameter 'embed.CT.W'")
        model = cls(config, embed.shape[0])
        model.load_state(entries)
        scaler = FeatureScaler.from_entries(entries) if model.use_features else None
        return model, scaler, meta
