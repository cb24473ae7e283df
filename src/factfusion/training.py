"""Training loop and checkpoint evaluation.

Batches are built by sorting samples by their longest stream and chunking;
only the chunk order is reshuffled each epoch, with the run seed. Two
optimizer groups run at different rates: the backbone tail at
tail_learning_rate, everything else at learning_rate. Per-step loss
components are appended to a JSON-lines log, and the checkpoint with the best
validation weighted F1 is kept, as one self-describing checkpoint file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .autograd import no_grad
from .classifier import LossConfig, total_loss
from .config import RunConfig
from .data import LABEL_TO_INDEX, DatasetManifest, ingest, load_manifest
from .ensemble import ProbMatrix, check_ids
from .features import FeatureScaler, extract_corpus
from .metrics import confusion_matrix, weighted_f1_of
from .model import VerificationModel
from .optim import Adam

ManifestLike = Union[str, Path, DatasetManifest]


@dataclass
class TrainResult:
    checkpoint: str
    prob_matrix: ProbMatrix
    best_f1: float
    best_epoch: int
    history: list
    log_path: str


@dataclass
class EvalResult:
    prob_matrix: ProbMatrix
    f1: Optional[float] = None
    per_class: Optional[np.ndarray] = None
    confusion: Optional[np.ndarray] = None


def _resolve(manifest: ManifestLike) -> DatasetManifest:
    if manifest is None:
        raise ValueError("no manifest given (set train/val manifest paths)")
    if isinstance(manifest, DatasetManifest):
        return manifest
    return load_manifest(manifest)


def _sorted_chunks(data: list, batch_size: int) -> list:
    order = sorted(
        range(len(data)),
        key=lambda i: (max(a.shape[0] for a in data[i].values()), i),
    )
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def _predict_probs(
    model: VerificationModel,
    data: list,
    features: Optional[np.ndarray],
    batch_size: int,
) -> np.ndarray:
    out = []
    with no_grad():
        for start in range(0, len(data), batch_size):
            stop = start + batch_size
            feats = features[start:stop] if features is not None else None
            probs, _ = model.forward_batch(data[start:stop], feats, training=False)
            out.append(probs.data.astype(np.float64))
    return np.vstack(out)


def _load_split(
    man: DatasetManifest, max_seq_len: int, scaler=None, fit=False, width=None
) -> tuple:
    """A manifest's stream dicts, its features scaled by scaler or by one fit
    on them, and that scaler.

    Every sample must have the backbone width given, or else its first
    sample's; a ValueError names the split and the first that differs.
    """
    data = list(ingest(man, max_seq_len))
    for sid, sample in zip(man.sample_ids(), data):
        got = sample["CI"].shape[1]
        width = width or got
        if got != width:
            raise ValueError(
                f"{man.split} split: sample {sid!r} has backbone width {got}, "
                f"but the model takes {width}"
            )
    feats = None
    if fit or scaler is not None:
        raw = extract_corpus(man.records)
        if fit:
            # Scale with the checkpoint's copy, so evaluate reproduces val_probs.
            scaler = FeatureScaler.fit(raw).as_stored()
        feats = scaler.transform(raw)
    return data, feats, scaler


def _score(model, man: DatasetManifest, data: list, feats, model_id: str) -> EvalResult:
    """The model's probabilities on a split, with their F1 if all are labeled."""
    probs = _predict_probs(model, data, feats, model.config.batch_size)
    matrix = ProbMatrix(model_id=model_id, sample_ids=man.sample_ids(), probs=probs)
    if any(rec.label is None for rec in man.records):
        return EvalResult(prob_matrix=matrix)
    conf = confusion_matrix(man.labels(), probs.argmax(axis=1), len(LABEL_TO_INDEX))
    f1, per_class = weighted_f1_of(conf)
    return EvalResult(prob_matrix=matrix, f1=float(f1), per_class=per_class, confusion=conf)


def _train_step(
    model: VerificationModel,
    optimizer: Adam,
    batch: list,
    feats: Optional[np.ndarray],
    labels: np.ndarray,
    loss_cfg: LossConfig,
    rng: np.random.Generator,
    where: str,
) -> dict:
    """One forward, backward and Adam step; returns the loss parts as floats.

    The step's graph lives only in this frame, so it is freed when the step
    returns: the next forward, validation and the checkpoint write never
    hold it beside their own arrays.
    """
    probs, hidden = model.forward_batch(batch, feats, training=True, rng=rng)
    parts = total_loss(probs, hidden, labels, loss_cfg)
    values = {
        "total": float(parts.total.data),
        "ce": float(parts.cross_entropy.data),
        "supcon": float(parts.contrastive.data),
    }
    if not np.isfinite(values["total"]):
        raise RuntimeError(
            f"non-finite loss at {where}: total={values['total']}, "
            f"ce={values['ce']}, supcon={values['supcon']}"
        )
    optimizer.zero_grad()
    parts.total.backward()
    optimizer.step()
    return values


def train(
    config: RunConfig,
    train_manifest: Optional[ManifestLike] = None,
    val_manifest: Optional[ManifestLike] = None,
    run_dir: Optional[str] = None,
    model_id: Optional[str] = None,
) -> TrainResult:
    train_man = _resolve(train_manifest if train_manifest is not None else config.train_manifest)
    val_man = _resolve(val_manifest if val_manifest is not None else config.val_manifest)
    if not train_man.records or not val_man.records:
        raise ValueError("training needs non-empty train and validation manifests")
    run_path = Path(run_dir if run_dir is not None else config.out_dir)
    run_path.mkdir(parents=True, exist_ok=True)
    model_id = model_id or f"seed{config.seed}"
    check_ids(model_id, val_man.sample_ids(), f"{val_man.split} split")

    train_data, train_feats, scaler = _load_split(
        train_man, config.max_seq_len, fit=not config.text_only
    )
    backbone_dim = train_data[0]["CI"].shape[1]
    val_data, val_feats, _ = _load_split(val_man, config.max_seq_len, scaler, width=backbone_dim)
    train_labels = train_man.labels()
    val_man.labels()  # an unlabeled val sample fails here, not at validation

    init_ss, drop_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(3)
    model = VerificationModel(config, backbone_dim, rng=np.random.default_rng(init_ss))
    dropout_rng = np.random.default_rng(drop_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    optimizer = Adam(model.param_groups())
    loss_cfg = LossConfig(alpha=config.alpha, tau=config.tau)
    # A stranded 1-sample batch cannot form contrastive pairs; it trains on
    # cross entropy alone.
    ce_only = LossConfig(alpha=1.0, tau=config.tau)

    chunks = _sorted_chunks(train_data, config.batch_size)
    ckpt_path = run_path / "checkpoint.pcfc"
    log_path = run_path / "train_log.jsonl"
    history = []
    best, best_epoch = None, -1
    step = 0

    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(1, config.epochs + 1):
            order = list(range(len(chunks)))
            shuffle_rng.shuffle(order)
            epoch_total = 0.0
            for ci in order:
                chunk = chunks[ci]
                batch = [train_data[i] for i in chunk]
                feats = train_feats[chunk] if train_feats is not None else None
                cfg = loss_cfg if len(chunk) > 1 else ce_only
                values = _train_step(
                    model, optimizer, batch, feats, train_labels[chunk], cfg,
                    dropout_rng, f"epoch {epoch} step {step}",
                )
                log.write(json.dumps({"epoch": epoch, "step": step, **values}) + "\n")
                epoch_total += values["total"] * len(chunk)
                step += 1

            scores = _score(model, val_man, val_data, val_feats, model_id)
            history.append(
                {
                    "epoch": epoch,
                    "train_loss": epoch_total / len(train_data),
                    "val_f1": scores.f1,
                }
            )
            if best is None or scores.f1 > best.f1:
                best, best_epoch = scores, epoch
                model.save(ckpt_path, scaler, _write_meta(best_epoch, best.f1))

    best.prob_matrix.save(run_path / "val_probs.csv")
    return TrainResult(
        checkpoint=str(ckpt_path),
        prob_matrix=best.prob_matrix,
        best_f1=best.f1,
        best_epoch=best_epoch,
        history=history,
        log_path=str(log_path),
    )


def _write_meta(epoch: int, f1: float) -> dict:
    """The checkpoint metadata of a best epoch; model.save adds the config."""
    return {"best_epoch": epoch, "best_f1": f1}


def evaluate(
    checkpoint: Union[str, Path],
    manifest: ManifestLike,
    model_id: Optional[str] = None,
) -> EvalResult:
    ckpt = Path(checkpoint)
    if not ckpt.is_file():
        raise FileNotFoundError(f"missing checkpoint file {ckpt}")
    model, scaler, _ = VerificationModel.from_checkpoint(ckpt)

    man = _resolve(manifest)
    if not man.records:
        raise ValueError("cannot evaluate an empty manifest")
    model_id = model_id or ckpt.stem
    check_ids(model_id, man.sample_ids(), f"{man.split} split")
    data, feats, _ = _load_split(man, model.config.max_seq_len, scaler, width=model.backbone_dim)
    return _score(model, man, data, feats, model_id)
