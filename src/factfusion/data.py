"""Samples, manifests, ingestion and the synthetic dataset generator.

A sample carries four text fields (claim/document text and OCR) and
references to embedding sequence files for the four input streams, claim
text (CT), claim image (CI), document text (DT) and document image (DI).
Every stream is read from its file; all four refs are required. Manifests
are JSON-lines files: the first line is a header object with the split name
and the embedding directory, each following line one sample record with
fields named exactly as RawSample.

The synthetic generator plants a recoverable signal: each sample draws a text
prototype and an image prototype from small per-seed dictionaries, and the
five classes differ in whether the claim/document streams share, ignore or
negate those prototypes:

    support_text            text shared,  images unrelated
    support_multimodal      text shared,  images shared
    insufficient_text       text unrelated, images unrelated
    insufficient_multimodal text unrelated, images shared
    refute                  document text negates the claim prototype

Text strings echo the same relation (shared topic words, unrelated topics
plus URLs/mentions, or contradiction markers), so the statistical features
correlate with the text-side relation only — the image-side signal lives
exclusively in the embedding files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .tensor_io import read_tensor, write_lines, write_tensor

LABELS = (
    "support_text",
    "support_multimodal",
    "insufficient_text",
    "insufficient_multimodal",
    "refute",
)
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}

# Stream id -> the RawSample field holding its embedding ref, in the fixed
# stream order every layer uses.
STREAM_REFS = {
    "CT": "claim_text_embedding_ref",
    "CI": "claim_image_embedding_ref",
    "DT": "doc_text_embedding_ref",
    "DI": "doc_image_embedding_ref",
}
STREAMS = tuple(STREAM_REFS)

# (text relation, image relation) per class; the generator's ground truth.
CLASS_RECIPES = {
    "support_text": ("shared", "unrelated"),
    "support_multimodal": ("shared", "shared"),
    "insufficient_text": ("unrelated", "unrelated"),
    "insufficient_multimodal": ("unrelated", "shared"),
    "refute": ("negated", "unrelated"),
}

N_PROTOTYPES = 8

_TOPIC_WORDS = (
    "glacier summit ridge basin meadow",
    "reactor turbine grid voltage cable",
    "vaccine trial cohort dosage antibody",
    "senate ballot motion quorum veto",
    "striker midfield corner penalty fixture",
    "asteroid orbit probe lander telemetry",
    "harvest drought irrigation soil yield",
    "merger audit equity dividend ledger",
)
_STOPWORD_FILL = ("the", "a", "of", "and", "in", "to", "was", "is")
_CONTRADICTION_WORDS = ("not", "never", "false", "denies", "contrary")
_URLS = ("http://news.example/a", "https://wire.example/b", "http://feed.example/c")
_MENTIONS = ("@newsdesk", "@factcheck", "@observer")


@dataclass
class RawSample:
    sample_id: str
    claim_text: str = ""
    claim_ocr: str = ""
    doc_text: str = ""
    doc_ocr: str = ""
    claim_image_embedding_ref: str = ""
    doc_image_embedding_ref: str = ""
    claim_text_embedding_ref: str = ""
    doc_text_embedding_ref: str = ""
    label: Optional[str] = None

    def __post_init__(self):
        bad = [k for k, v in vars(self).items() if k != "label" and not isinstance(v, str)]
        if bad:
            raise ValueError(
                f"sample {self.sample_id!r}: not a string: {', '.join(bad)}"
            )
        if self.label is not None and self.label not in LABELS:
            raise ValueError(
                f"sample {self.sample_id}: unknown label {self.label!r}"
            )


@dataclass
class DatasetManifest:
    split: str
    embedding_dir: str
    records: list = field(default_factory=list)

    def labels(self) -> np.ndarray:
        missing = [r.sample_id for r in self.records if r.label is None]
        if missing:
            raise ValueError(f"unlabeled samples: {missing[:3]}")
        return np.array([LABEL_TO_INDEX[r.label] for r in self.records])

    def sample_ids(self) -> list:
        return [r.sample_id for r in self.records]


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [json.dumps({"split": manifest.split, "embedding_dir": manifest.embedding_dir})]
    for rec in manifest.records:
        lines.append(json.dumps(asdict(rec)))
    write_lines(path, lines)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    lines = [
        (i, l) for i, l in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if l.strip()
    ]
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or not all(
        isinstance(header.get(k), str) for k in ("split", "embedding_dir")
    ):
        raise ValueError(
            f"{path}: first line must be a JSON object with string split and embedding_dir"
        )
    emb_dir = Path(header["embedding_dir"])
    if not emb_dir.is_absolute():
        emb_dir = path.parent / emb_dir
    records, first_line = [], {}
    for i, line in lines[1:]:
        try:
            records.append(RawSample(**json.loads(line)))
        except (ValueError, TypeError) as err:
            raise ValueError(f"{path}:{i}: bad sample record ({err})") from None
        sample_id = records[-1].sample_id
        if sample_id in first_line:
            raise ValueError(
                f"{path}:{i}: sample id {sample_id!r} repeats line {first_line[sample_id]}"
            )
        first_line[sample_id] = i
    return DatasetManifest(split=header["split"], embedding_dir=str(emb_dir), records=records)


def _load_ref(emb_dir: Path, ref: Optional[str], sample_id: str, stream: str) -> np.ndarray:
    if not ref or not isinstance(ref, str):
        raise ValueError(f"sample {sample_id}: no {stream} embedding ref")
    path = emb_dir / ref
    if not path.is_file():
        raise ValueError(f"sample {sample_id}: missing {stream} embedding file {path}")
    arr = read_tensor(path)
    if arr.ndim != 2:
        raise ValueError(
            f"sample {sample_id}: {stream} embedding has rank {arr.ndim}, expected 2"
        )
    if arr.shape[0] == 0:
        raise ValueError(f"sample {sample_id}: {stream} embedding has no rows")
    if arr.shape[1] == 0:
        raise ValueError(f"sample {sample_id}: {stream} embedding has no columns")
    if not np.isfinite(arr).all():
        raise ValueError(
            f"sample {sample_id}: {stream} embedding holds a non-finite value"
        )
    return arr


def ingest(manifest: DatasetManifest, max_seq_len: int = 512) -> Iterator[dict]:
    """Yield each sample's {stream: array} dict, in manifest order.

    Item i belongs to manifest.records[i]; every array is truncated to
    max_seq_len rows. Every stream, in STREAMS order, is read from the file
    its ref names. A missing or empty ref, a missing file, a stream with no
    rows, no columns or a non-finite value, and streams of different widths
    are rejected with a ValueError naming the sample.
    """
    emb_dir = Path(manifest.embedding_dir)
    for rec in manifest.records:
        streams = {
            stream: _load_ref(emb_dir, getattr(rec, field), rec.sample_id, stream)
            for stream, field in STREAM_REFS.items()
        }
        widths = {s: a.shape[1] for s, a in streams.items()}
        if len(set(widths.values())) > 1:
            raise ValueError(
                f"sample {rec.sample_id}: stream widths disagree: {widths}"
            )
        yield {s: a[:max_seq_len] for s, a in streams.items()}


def _prototype_bank(seed: int, d_backbone: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed unit prototype dictionaries, shared by all splits of one seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    text = rng.standard_normal((N_PROTOTYPES, d_backbone))
    image = rng.standard_normal((N_PROTOTYPES, d_backbone))
    text /= np.linalg.norm(text, axis=1, keepdims=True)
    image /= np.linalg.norm(image, axis=1, keepdims=True)
    return text.astype(np.float32), image.astype(np.float32)


def _sequence(rng, latent: np.ndarray, noise: float = 0.15) -> np.ndarray:
    length = int(rng.integers(4, 11))
    rows = latent[None, :] + rng.normal(0.0, noise, size=(length, latent.shape[0]))
    return rows.astype(np.float32)


def _topic_phrase(rng, topic: int) -> tuple[list, list]:
    """The topic's words, shuffled, and 3-5 of them followed by two stopwords."""
    words = _TOPIC_WORDS[topic].split()
    rng.shuffle(words)
    picked = words[: int(rng.integers(3, 6))]
    fill = [str(_STOPWORD_FILL[int(rng.integers(len(_STOPWORD_FILL)))]) for _ in range(2)]
    return words, picked + fill


def _compose_text(rng, topic: int, relation: str, base_topic: int) -> tuple[str, str]:
    """Document text + OCR echoing the text relation of the sample."""
    _, parts = _topic_phrase(rng, topic)
    if relation == "negated":
        marks = list(_CONTRADICTION_WORDS)
        rng.shuffle(marks)
        parts = marks[:2] + parts + ["false!"]
    elif relation == "unrelated":
        parts.append(str(_URLS[int(rng.integers(len(_URLS)))]))
        if rng.random() < 0.7:
            parts.append(str(_MENTIONS[int(rng.integers(len(_MENTIONS)))]))
    rng.shuffle(parts)
    text = " ".join(parts)
    ocr_words = list(_TOPIC_WORDS[base_topic].split())[:2]
    if rng.random() < 0.5:
        ocr_words.append(str(int(rng.integers(1900, 2030))))
    return text, " ".join(ocr_words)


def _claim_text(rng, topic: int) -> tuple[str, str]:
    words, parts = _topic_phrase(rng, topic)
    rng.shuffle(parts)
    ocr = " ".join(words[:2])
    return " ".join(parts) + ".", ocr


def synthesize(
    n_per_class: int,
    d_backbone: int,
    seed: int,
    out_dir,
    split: str = "train",
) -> DatasetManifest:
    """Generate a balanced split and write its embeddings and manifest.

    The prototype dictionaries depend only on the seed, so splits generated
    with the same seed share them and a model trained on one generalizes to
    the other.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if d_backbone < 1:
        raise ValueError("d_backbone must be at least 1")
    out_dir = Path(out_dir)
    emb_dir = out_dir / "embeddings"
    emb_dir.mkdir(parents=True, exist_ok=True)

    text_protos, image_protos = _prototype_bank(seed, d_backbone)
    split_key = int.from_bytes(
        hashlib.sha256(split.encode("utf-8")).digest()[:4], "little"
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, split_key]))

    records = []
    counter = 0
    for _ in range(n_per_class):
        for label in LABELS:
            text_rel, image_rel = CLASS_RECIPES[label]
            sid = f"{split}{counter:05d}"
            counter += 1

            t_idx = int(rng.integers(N_PROTOTYPES))
            i_idx = int(rng.integers(N_PROTOTYPES))
            t_claim = text_protos[t_idx]
            i_claim = image_protos[i_idx]
            if text_rel == "shared":
                t_doc, doc_topic = t_claim, t_idx
            elif text_rel == "negated":
                t_doc, doc_topic = -t_claim, t_idx
            else:
                other = int((t_idx + 1 + rng.integers(N_PROTOTYPES - 1)) % N_PROTOTYPES)
                t_doc, doc_topic = text_protos[other], other
            if image_rel == "shared":
                i_doc = i_claim
            else:
                other = int((i_idx + 1 + rng.integers(N_PROTOTYPES - 1)) % N_PROTOTYPES)
                i_doc = image_protos[other]

            claim_text, claim_ocr = _claim_text(rng, t_idx)
            doc_text, doc_ocr = _compose_text(rng, doc_topic, text_rel, t_idx)

            refs = {}
            for stream, latent in zip(STREAMS, (t_claim, i_claim, t_doc, i_doc)):
                ref = f"{sid}.{stream}.pcft"
                write_tensor(emb_dir / ref, _sequence(rng, latent))
                refs[STREAM_REFS[stream]] = ref

            records.append(
                RawSample(
                    sample_id=sid,
                    claim_text=claim_text,
                    claim_ocr=claim_ocr,
                    doc_text=doc_text,
                    doc_ocr=doc_ocr,
                    label=label,
                    **refs,
                )
            )

    # The file stores the embedding dir relative to the manifest so the
    # directory can be moved wholesale; the returned object is resolved.
    manifest = DatasetManifest(split=split, embedding_dir="embeddings", records=records)
    write_manifest(manifest, out_dir / f"{split}.jsonl")
    manifest.embedding_dir = str(emb_dir.resolve())
    return manifest
