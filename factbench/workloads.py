"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Each workload object offers
    setup(dir)   generate the inputs under dir (timed as setup_s)
    warm_up()    one uncounted operation (a small one where a full one
                 is long), so lazy set-up and the allocator's first growth
                 fall outside the timed loop
    run()        one timed operation: (items done, problems per checked
                 operation), where an empty problem list means it passed
and records an arithmetic fingerprint of its first operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Entry points are called through their modules (data.synthesize,
# training.train, ...) so that tracing shims installed there are seen.
from factfusion import data, ensemble, training
from factfusion.config import RunConfig
from factfusion.data import CLASS_RECIPES, LABELS, DatasetManifest, RawSample, load_manifest
from factfusion.ensemble import ROW_SUM_TOL, ProbMatrix, blend, predict
from factfusion.metrics import weighted_f1
from factfusion.tensor_io import write_tensor

N_CLASSES = len(LABELS)
TUNE_VARIANTS = ("weighted", "power", "unified")
SOLVER = dict(learning_rate=2e-3, tail_learning_rate=2e-3, epochs=1, batch_size=24)
DESK = dict(d=64, heads=4, ff_inner=128, d_m=32, max_seq_len=64, **SOLVER)
WIDE = dict(d=128, heads=8, ff_inner=256, d_m=64, max_seq_len=128, **SOLVER)
DESK_BACKBONE, WIDE_BACKBONE = 32, 64

SCALES = {
    "full": dict(train_per_class=100, val_per_class=20, eval_samples=100,
                 eval_rows=(16, 128), tune_samples=100, tune_budget=130_000),
    # For the benchmark's own self-check only.
    "tiny": dict(train_per_class=2, val_per_class=1, eval_samples=10,
                 eval_rows=(4, 12), tune_samples=20, tune_budget=3_000),
}

_WORDS = ("the", "a", "of", "glacier", "reactor", "ballot", "orbit", "harvest",
          "merger", "not", "false", "@desk", "http://wire.example/x", "2019", "!")


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _subset(manifest: DatasetManifest, n: int) -> DatasetManifest:
    return DatasetManifest(manifest.split, manifest.embedding_dir, manifest.records[:n])


def check_probs(probs: np.ndarray, n_rows: int) -> list:
    """Problems with a probability block: shape, range, finiteness, row sums."""
    if probs.shape != (n_rows, N_CLASSES):
        return [f"probability block {probs.shape}, expected ({n_rows}, {N_CLASSES})"]
    problems = []
    if not np.isfinite(probs).all():
        problems.append("non-finite probabilities")
    elif probs.min() < 0.0 or probs.max() > 1.0:
        problems.append("probabilities outside [0, 1]")
    elif np.abs(probs.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        problems.append("probability rows do not sum to 1")
    return problems


def write_ragged_split(out: Path, split: str, n: int, rows: tuple, width: int,
                       seed_seq: np.random.SeedSequence) -> Path:
    """A labeled split whose four streams each hold rows[0]..rows[1] rows.

    The stream lengths are a seeded shuffle of evenly spaced lengths over
    that range, so every seed does the same total work in a different
    order. Streams follow data.CLASS_RECIPES: claim and document share,
    negate or ignore a per-sample latent, plus noise. Returns the manifest
    path.
    """
    rng = np.random.default_rng(seed_seq)
    lengths = rng.permutation(np.linspace(rows[0], rows[1], 4 * n).round().astype(int))
    emb_dir = out / "embeddings"
    emb_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(n):
        label = LABELS[i % N_CLASSES]
        text_rel, image_rel = CLASS_RECIPES[label]
        claim_text, claim_image, other_text, other_image = rng.standard_normal((4, width))
        doc_text = {"shared": claim_text, "negated": -claim_text}.get(text_rel, other_text)
        doc_image = claim_image if image_rel == "shared" else other_image
        sid = f"{split}{i:05d}"
        refs = {}
        for j, (stream, latent) in enumerate((("CT", claim_text), ("CI", claim_image),
                                              ("DT", doc_text), ("DI", doc_image))):
            length = int(lengths[4 * i + j])
            seq = latent / math.sqrt(width) + rng.normal(0.0, 0.05, (length, width))
            refs[stream] = f"{sid}.{stream}.pcft"
            write_tensor(emb_dir / refs[stream], seq.astype(np.float32))
        text = [" ".join(rng.choice(_WORDS, int(rng.integers(3, 12)))) for _ in range(4)]
        records.append(RawSample(
            sample_id=sid, claim_text=text[0], claim_ocr=text[1], doc_text=text[2],
            doc_ocr=text[3], claim_image_embedding_ref=refs["CI"],
            doc_image_embedding_ref=refs["DI"], claim_text_embedding_ref=refs["CT"],
            doc_text_embedding_ref=refs["DT"], label=label,
        ))
    path = out / f"{split}.jsonl"
    data.write_manifest(DatasetManifest(split, "embeddings", records), path)
    return path


class TrainDesk:
    """training.train at the desk config on a data.synthesize split."""

    throughput_name = "train_samples_per_s"

    def __init__(self, seed: int, sizes: dict, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.config = RunConfig(**DESK, seed=seed)
        self.fingerprint = None

    def setup(self, out: Path) -> None:
        s = self.sizes
        self.train_man = data.synthesize(s["train_per_class"], DESK_BACKBONE, self.seed, out, "train")
        self.val_man = data.synthesize(s["val_per_class"], DESK_BACKBONE, self.seed, out, "val")

    def warm_up(self) -> None:
        training.train(self.config, _subset(self.train_man, 24), _subset(self.val_man, 5),
                       run_dir=self.work / "warm-up")

    def run(self):
        run_dir = self.work / "train"
        result = training.train(self.config, self.train_man, self.val_man, run_dir=run_dir)
        with open(result.log_path, encoding="utf-8") as log:
            losses = [json.loads(line)["total"] for line in log]
        problems = []
        if not losses or not all(math.isfinite(x) for x in losses):
            problems.append(f"non-finite or missing losses: {losses[:5]}")
        try:
            saved = ProbMatrix.load(run_dir / "val_probs.csv")
        except ValueError as err:
            problems.append(f"val_probs.csv does not reload: {err}")
        else:
            problems += check_probs(saved.probs, len(self.val_man.records))
            if saved.sample_ids != self.val_man.sample_ids():
                problems.append("val_probs.csv sample ids differ from the manifest")
        if self.fingerprint is None:
            self.fingerprint = {
                "step_losses": losses,
                "loss_digest": digest(np.array(losses)),
                "best_val_f1": result.best_f1,
            }
        return self.config.epochs * len(self.train_man.records), [problems]


class EvalWide:
    """training.evaluate of a wide checkpoint on ragged 16-128-row streams."""

    throughput_name = "eval_samples_per_s"

    def __init__(self, seed: int, sizes: dict, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.config = RunConfig(**WIDE, seed=seed)
        self.fingerprint = None

    def setup(self, out: Path) -> None:
        s = self.sizes
        keys = np.random.SeedSequence(self.seed).spawn(3)
        self.manifest = write_ragged_split(
            out / "eval", "eval", s["eval_samples"], s["eval_rows"], WIDE_BACKBONE, keys[0])
        ckpt_train = write_ragged_split(
            out / "ckpt", "train", N_CLASSES, s["eval_rows"], WIDE_BACKBONE, keys[1])
        ckpt_val = write_ragged_split(
            out / "ckpt", "val", N_CLASSES, s["eval_rows"], WIDE_BACKBONE, keys[2])
        self.checkpoint = training.train(self.config, ckpt_train, ckpt_val, run_dir=out / "run").checkpoint
        self.labels = load_manifest(self.manifest).labels()

    def warm_up(self) -> None:
        self.run()

    def run(self):
        result = training.evaluate(self.checkpoint, self.manifest)
        probs = result.prob_matrix.probs
        problems = check_probs(probs, len(self.labels))
        if not problems:
            f1, _ = weighted_f1(self.labels, probs.argmax(axis=1), N_CLASSES)
            if f1 != result.f1:
                problems.append(f"EvalResult.f1 {result.f1!r} != recomputed {f1!r}")
        if self.fingerprint is None:
            self.fingerprint = {"probs_digest": digest(probs), "f1": result.f1}
        return len(self.labels), [problems]


class TuneDesk:
    """ensemble.tune for three variants over three seeded probability matrices."""

    throughput_name = "tune_evals_per_s"

    def __init__(self, seed: int, sizes: dict, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.fingerprint = None

    def setup(self, out: Path) -> None:
        """Three members of falling quality, kept in memory: no file I/O, so
        tuning alone is measured."""
        n = self.sizes["tune_samples"]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3]))
        self.labels = rng.permutation(np.arange(n) % N_CLASSES)
        ids = [f"val{i:05d}" for i in range(n)]
        self.mats = []
        for m, strength in enumerate((1.8, 1.4, 1.0)):
            logits = rng.standard_normal((n, N_CLASSES)) + strength * np.eye(N_CLASSES)[self.labels]
            probs = np.exp(logits)
            self.mats.append(ProbMatrix(f"member{m}", ids, probs / probs.sum(axis=1, keepdims=True)))

    def warm_up(self) -> None:
        for variant in TUNE_VARIANTS:
            ensemble.tune(self.mats, self.labels, variant=variant, budget=2_000, seed=self.seed)

    def run(self):
        evaluations, outcomes, tuned = 0, [], {}
        for variant in TUNE_VARIANTS:
            result = ensemble.tune(self.mats, self.labels, variant=variant,
                                   budget=self.sizes["tune_budget"], seed=self.seed)
            evaluations += result.evaluations
            f1, _ = weighted_f1(self.labels, predict(blend(self.mats, result.spec)), N_CLASSES)
            outcomes.append([] if f1 == result.f1 else
                            [f"{variant}: blend F1 {f1!r} != tuned F1 {result.f1!r}"])
            tuned[variant] = {"f1": result.f1, "weights": result.spec.weights,
                              "powers": result.spec.powers}
        if self.fingerprint is None:
            self.fingerprint = tuned
        return evaluations, outcomes


WORKLOADS = {"train-desk": TrainDesk, "eval-wide": EvalWide, "tune-desk": TuneDesk}


def make(name: str, seed: int, scale: str, work: Path):
    return WORKLOADS[name](seed, SCALES[scale], work)
