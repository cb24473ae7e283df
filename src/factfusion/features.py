"""Explicit text statistics for each sample: 8 stats over 4 text fields.

Counting rules (all applied to the raw string):

  * a word is a maximal non-whitespace run,
  * a URL token starts with "http://", "https://", or "www." (case-insensitive),
  * a mention token starts with "@" followed by at least one word character,
  * every token is classified into exactly one bucket (url, mention, plain);
    stopword and punctuation statistics scan plain tokens only, so the "@"
    of a mention or the "://" of a URL is never double-counted as style
    punctuation,
  * character and digit counts scan the whole string; word count and mean
    word length cover all tokens.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from . import tensor_io

FIELD_ORDER = ("claim_text", "doc_text", "claim_ocr", "doc_ocr")
STAT_NAMES = (
    "word_count",
    "char_count",
    "stopword_count",
    "mention_count",
    "url_count",
    "mean_word_length",
    "digit_count",
    "punctuation_count",
)
FEATURE_DIM = len(FIELD_ORDER) * len(STAT_NAMES)  # 32
# Checkpoint entry names of the fitted scaler's mean and std.
SCALER_ENTRIES = ("scaler.mean", "scaler.std")

STOPWORDS_SHA256 = "73804769a098558757cde89333e47b2c9a39733b3540dc724d1bd981f49943b8"

_PUNCT = set(string.punctuation)


def _load_stopwords() -> frozenset[str]:
    text = (
        resources.files(__package__)
        .joinpath("resources", "stopwords.txt")
        .read_text("utf-8")
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != STOPWORDS_SHA256:
        raise RuntimeError(
            f"stopword list checksum mismatch: {digest} != {STOPWORDS_SHA256}"
        )
    return frozenset(w for w in text.split("\n") if w)


STOPWORDS = _load_stopwords()


def _is_url(token: str) -> bool:
    lower = token.lower()
    return lower.startswith(("http://", "https://", "www."))


def _is_mention(token: str) -> bool:
    return len(token) > 1 and token[0] == "@" and (token[1].isalnum() or token[1] == "_")


def extract_field_features(text: str) -> np.ndarray:
    """The 8 statistics for one text field, in STAT_NAMES order."""
    tokens = text.split()
    word_count = len(tokens)
    char_count = len(text)
    digit_count = sum(c.isdigit() for c in text)
    stopword_count = 0
    mention_count = 0
    url_count = 0
    punctuation_count = 0
    for tok in tokens:
        if _is_url(tok):
            url_count += 1
        elif _is_mention(tok):
            mention_count += 1
        else:
            if tok.strip(string.punctuation).lower() in STOPWORDS:
                stopword_count += 1
            punctuation_count += sum(c in _PUNCT for c in tok)
    mean_word_length = (
        sum(len(t) for t in tokens) / word_count if word_count else 0.0
    )
    return np.array(
        [
            word_count,
            char_count,
            stopword_count,
            mention_count,
            url_count,
            mean_word_length,
            digit_count,
            punctuation_count,
        ],
        dtype=np.float64,
    )


def raw_feature_vector(sample) -> np.ndarray:
    """Pre-scaling 32-vector: fields in FIELD_ORDER, stats in STAT_NAMES order."""
    parts = [extract_field_features(getattr(sample, f)) for f in FIELD_ORDER]
    return np.concatenate(parts)


@dataclass
class FeatureScaler:
    """log(1+x) then z-score, with statistics frozen from the training split.

    Dimensions with zero variance map to 0 (std replaced by 1).
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, raw_vectors: Iterable[np.ndarray]) -> "FeatureScaler":
        mat = np.log1p(np.asarray(list(raw_vectors), dtype=np.float64))
        if mat.size == 0:
            raise ValueError("cannot fit scaler on an empty corpus")
        std = mat.std(axis=0)
        std[std < 1e-12] = 1.0
        return cls(mean=mat.mean(axis=0), std=std)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return (np.log1p(raw) - self.mean) / self.std

    def as_stored(self) -> "FeatureScaler":
        """This scaler with mean and std rounded to float32, as save stores them."""
        rounded = (a.astype(np.float32).astype(np.float64) for a in (self.mean, self.std))
        return FeatureScaler(*rounded)

    def save(self, path) -> None:
        tensor_io.write_checkpoint(path, self.entries(), {})

    @classmethod
    def load(cls, path) -> "FeatureScaler":
        entries, _ = tensor_io.read_checkpoint(path)
        return cls.from_entries(entries)

    @classmethod
    def from_entries(cls, entries: dict) -> "FeatureScaler":
        """The scaler held in checkpoint entries; ValueError names a bad entry."""
        arrays = []
        for name in SCALER_ENTRIES:
            if name not in entries:
                raise ValueError(f"checkpoint has no feature scaler entry {name!r}")
            arr = np.asarray(entries[name], dtype=np.float64)
            if arr.shape != (FEATURE_DIM,):
                raise ValueError(
                    f"scaler entry {name!r} has shape {arr.shape}, "
                    f"expected ({FEATURE_DIM},)"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"scaler entry {name!r} holds a non-finite value")
            arrays.append(arr)
        mean, std = arrays
        if (std <= 0).any():
            raise ValueError("scaler entry 'scaler.std' holds a std <= 0")
        return cls(mean=mean, std=std)

    def entries(self) -> dict[str, np.ndarray]:
        return dict(zip(SCALER_ENTRIES, (self.mean, self.std)))


def extract_corpus(samples: Sequence) -> np.ndarray:
    """Raw feature matrix [len(samples) x 32]; a FeatureScaler transforms it."""
    rows = [raw_feature_vector(s) for s in samples]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), FEATURE_DIM)
