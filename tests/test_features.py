"""Statistical text features: frozen hand-computed oracles and invariants."""

import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from importlib import resources as importlib_resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfusion.features import (
    FEATURE_DIM,
    FIELD_ORDER,
    STAT_NAMES,
    STOPWORDS,
    STOPWORDS_SHA256,
    FeatureScaler,
    extract_corpus,
    extract_field_features,
    raw_feature_vector,
)


def sample(**fields):
    base = {name: "" for name in FIELD_ORDER}
    base.update(fields)
    return SimpleNamespace(**base)


def stats(text):
    """Field statistics as a name->value dict for readable assertions."""
    return dict(zip(STAT_NAMES, extract_field_features(text)))


class TestFieldStats:
    def test_plain_sentence(self):
        s = stats("The cat sat.")
        assert s["word_count"] == 3
        assert s["char_count"] == 12
        assert s["stopword_count"] == 1  # "The"
        assert s["punctuation_count"] == 1
        assert s["mean_word_length"] == pytest.approx(10 / 3)

    def test_url_and_mention_buckets(self):
        s = stats("Go @a http://b.c now!")
        assert s["word_count"] == 4
        assert s["mention_count"] == 1
        assert s["url_count"] == 1
        # "@" and "://" belong to the mention/url buckets, so only the "!"
        # of the plain token contributes to punctuation.
        assert s["punctuation_count"] == 1
        assert s["stopword_count"] == 1  # "now"

    def test_stopword_run(self):
        assert stats("the of and")["stopword_count"] == 3

    def test_digits_span_whole_string(self):
        # Digits inside url/mention tokens still count: the scan is global.
        assert stats("@bob42 http://a1.b2 x3")["digit_count"] == 5

    def test_empty_string_is_all_zero(self):
        np.testing.assert_array_equal(extract_field_features(""), np.zeros(8))

    def test_whitespace_only_counts_chars_but_no_words(self):
        # char_count measures the whole string, including whitespace.
        vec = extract_field_features("   \t ")
        np.testing.assert_array_equal(vec, [0, 5, 0, 0, 0, 0, 0, 0])

    def test_single_bucket_per_token(self):
        # A mention that also looks like a URL is classified as URL first.
        s = stats("www.example.com")
        assert s["url_count"] == 1
        assert s["mention_count"] == 0
        s = stats("@www_fan")
        assert s["url_count"] == 0
        assert s["mention_count"] == 1

    def test_bare_at_is_plain(self):
        s = stats("@ x")
        assert s["mention_count"] == 0
        assert s["punctuation_count"] == 1  # the lone "@"

    def test_mentions_and_urls_count_as_words(self):
        s = sample(claim_text="hi @john see http://x.y now")
        vec = raw_feature_vector(s)
        by_name = dict(zip(STAT_NAMES, vec[:8]))
        assert by_name["word_count"] == 5  # mention and URL still counted
        assert by_name["mention_count"] == 1
        assert by_name["url_count"] == 1


# Hand-computed corpus. Each entry: (fields, {field: expected 8-tuple}).
# Expected values follow STAT_NAMES order: word, char, stopword, mention,
# url, mean word length, digit, punctuation. Divisions are left unevaluated
# so the expectations match the extractor bit for bit.
ORACLE_CORPUS = [
    ({}, {}),
    (
        {"claim_text": "The cat sat."},
        {"claim_text": (3, 12, 1, 0, 0, 10 / 3, 0, 1)},
    ),
    (
        {"claim_text": "Go @a http://b.c now!"},
        {"claim_text": (4, 21, 1, 1, 1, 4.5, 0, 1)},
    ),
    (
        {"doc_text": "the of and"},
        {"doc_text": (3, 10, 3, 0, 0, 8 / 3, 0, 0)},
    ),
    (
        {"claim_ocr": "Call 911 now"},
        {"claim_ocr": (3, 12, 1, 0, 0, 10 / 3, 3, 0)},
    ),
    (
        {"doc_ocr": "EST. 2024 c/o HQ"},
        {"doc_ocr": (4, 16, 0, 0, 0, 13 / 4, 4, 2)},
    ),
    (
        {
            "claim_text": "@alice @bob42 hi",
            "doc_text": "see www.x.org and http://y.z",
        },
        {
            "claim_text": (3, 16, 0, 2, 0, 14 / 3, 2, 0),
            "doc_text": (4, 28, 1, 0, 2, 25 / 4, 0, 0),
        },
    ),
    (
        {
            "claim_text": "Version 2.0 beats 1.9.9",
            "doc_ocr": "ISBN 978-3-16",
        },
        {
            "claim_text": (4, 23, 0, 0, 0, 5.0, 5, 3),
            "doc_ocr": (2, 13, 0, 0, 0, 6.0, 6, 2),
        },
    ),
    (
        {
            "claim_text": "No it is not true",
            "doc_text": "A dog! A cat?",
            "claim_ocr": "24 7",
            "doc_ocr": "ok",
        },
        {
            "claim_text": (5, 17, 4, 0, 0, 13 / 5, 0, 0),
            "doc_text": (4, 13, 2, 0, 0, 2.5, 0, 2),
            "claim_ocr": (2, 4, 0, 0, 0, 1.5, 3, 0),
            "doc_ocr": (1, 2, 0, 0, 0, 2.0, 0, 0),
        },
    ),
    (
        {
            "claim_text": "www.a.b www.c.d https://e.f",
            "doc_text": "@x @y @z w",
        },
        {
            "claim_text": (3, 27, 0, 0, 3, 25 / 3, 0, 0),
            "doc_text": (4, 10, 0, 3, 0, 7 / 4, 0, 0),
        },
    ),
]


def oracle_vector(expected_by_field):
    parts = []
    for field in FIELD_ORDER:
        parts.append(np.array(expected_by_field.get(field, (0.0,) * 8)))
    return np.concatenate(parts)


class TestOracleCorpus:
    @pytest.mark.parametrize("fields,expected", ORACLE_CORPUS)
    def test_raw_vector_matches_hand_computation(self, fields, expected):
        got = raw_feature_vector(sample(**fields))
        np.testing.assert_array_equal(got, oracle_vector(expected))

    def test_vector_width(self):
        assert FEATURE_DIM == 32
        assert raw_feature_vector(sample()).shape == (32,)

    def test_field_block_layout(self):
        # The doc_text block occupies positions 8..16.
        vec = raw_feature_vector(sample(doc_text="the of and"))
        assert vec[8] == 3
        np.testing.assert_array_equal(vec[:8], np.zeros(8))
        np.testing.assert_array_equal(vec[16:], np.zeros(16))

    def test_corpus_matrix(self):
        samples = [sample(**fields) for fields, _ in ORACLE_CORPUS]
        mat = extract_corpus(samples)
        assert mat.shape == (len(ORACLE_CORPUS), FEATURE_DIM)
        for row, (_, expected) in zip(mat, ORACLE_CORPUS):
            np.testing.assert_array_equal(row, oracle_vector(expected))

    def test_empty_corpus(self):
        assert extract_corpus([]).shape == (0, FEATURE_DIM)


class TestStopwordResource:
    def test_checksum_pins_the_list(self):
        blob = (
            importlib_resources.files("factfusion")
            .joinpath("resources/stopwords.txt")
            .read_bytes()
        )
        assert hashlib.sha256(blob).hexdigest() == STOPWORDS_SHA256

    def test_membership_spot_checks(self):
        for word in ("the", "of", "and", "a", "no", "not", "it", "is"):
            assert word in STOPWORDS
        for word in ("never", "cat", "true", "go", "hi"):
            assert word not in STOPWORDS

    def test_list_size(self):
        assert len(STOPWORDS) == 127

    def test_copy_under_another_name_loads_the_list(self, tmp_path):
        # The list is found through the importing package, not a fixed
        # name: a copy imported as ffcopy loads it with factfusion blocked.
        package = Path(__file__).resolve().parent.parent / "src" / "factfusion"
        shutil.copytree(package, tmp_path / "ffcopy",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = ("import sys; sys.modules['factfusion'] = None; "
                "import ffcopy.features as f; assert len(f.STOPWORDS) > 0")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestScaler:
    def test_transform_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        raws = [rng.integers(0, 40, size=FEATURE_DIM).astype(float) for _ in range(6)]
        scaler = FeatureScaler.fit(raws)
        mat = np.log1p(np.stack(raws))
        expected_mean = mat.mean(axis=0)
        expected_std = mat.std(axis=0)
        expected_std[expected_std < 1e-12] = 1.0
        np.testing.assert_allclose(scaler.mean, expected_mean)
        np.testing.assert_allclose(scaler.std, expected_std)
        out = scaler.transform(raws[0])
        np.testing.assert_allclose(out, (np.log1p(raws[0]) - expected_mean) / expected_std)

    def test_hand_case_two_points(self):
        # log1p maps 0 -> 0 and e-1 -> 1, so the scaled values are -1 and +1.
        lo = np.zeros(2)
        hi = np.array([math.e - 1.0, 0.0])  # second dim constant
        scaler = FeatureScaler.fit([lo, hi])
        np.testing.assert_allclose(scaler.transform(lo), [-1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(scaler.transform(hi), [1.0, 0.0], atol=1e-12)

    def test_zero_variance_dimension_maps_to_zero(self):
        scaler = FeatureScaler.fit([np.full(3, 7.0), np.full(3, 7.0)])
        np.testing.assert_array_equal(scaler.std, np.ones(3))
        np.testing.assert_array_equal(scaler.transform(np.full(3, 7.0)), np.zeros(3))

    def test_training_mean_maps_to_zero(self):
        rng = np.random.default_rng(5)
        raws = [rng.integers(0, 9, size=4).astype(float) for _ in range(5)]
        scaler = FeatureScaler.fit(raws)
        centered = np.expm1(np.log1p(np.stack(raws)).mean(axis=0))
        np.testing.assert_allclose(scaler.transform(centered), np.zeros(4), atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        scaler = FeatureScaler.fit([np.arange(32.0), np.arange(32.0) * 2])
        path = tmp_path / "scaler.pcfc"
        scaler.save(path)
        back = FeatureScaler.load(path)
        # On-disk format is float32, so compare at that precision.
        np.testing.assert_allclose(back.mean, scaler.mean, rtol=1e-6)
        np.testing.assert_allclose(back.std, scaler.std, rtol=1e-6)

    def test_as_stored_equals_the_reloaded_scaler(self, tmp_path):
        rng = np.random.default_rng(3)
        raws = [rng.integers(0, 40, size=FEATURE_DIM).astype(float) for _ in range(5)]
        scaler = FeatureScaler.fit(raws)
        scaler.save(tmp_path / "scaler.pcfc")
        back = FeatureScaler.load(tmp_path / "scaler.pcfc")
        stored = scaler.as_stored()
        np.testing.assert_array_equal(stored.mean, back.mean)
        np.testing.assert_array_equal(stored.std, back.std)
        assert not np.array_equal(stored.mean, scaler.mean)  # rounding did happen

    @pytest.mark.parametrize("missing", ["scaler.mean", "scaler.std"])
    def test_from_entries_names_a_missing_entry(self, missing):
        entries = {"scaler.mean": np.zeros(FEATURE_DIM), "scaler.std": np.ones(FEATURE_DIM)}
        del entries[missing]
        with pytest.raises(ValueError, match=f"no feature scaler entry '{missing}'"):
            FeatureScaler.from_entries(entries)

    @pytest.mark.parametrize(
        "name, shape", [("scaler.mean", (3,)), ("scaler.std", (FEATURE_DIM, 1)), ("scaler.std", ())]
    )
    def test_from_entries_names_a_misshapen_entry(self, name, shape):
        entries = {"scaler.mean": np.zeros(FEATURE_DIM), "scaler.std": np.ones(FEATURE_DIM)}
        entries[name] = np.ones(shape)
        with pytest.raises(ValueError, match=re.escape(f"{name!r} has shape {shape}")):
            FeatureScaler.from_entries(entries)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("scaler.mean", np.nan, "'scaler.mean' holds a non-finite value"),
            ("scaler.std", np.inf, "'scaler.std' holds a non-finite value"),
            ("scaler.std", 0.0, "'scaler.std' holds a std <= 0"),
            ("scaler.std", -1.0, "'scaler.std' holds a std <= 0"),
        ],
        ids=["nan-mean", "inf-std", "zero-std", "negative-std"],
    )
    def test_from_entries_names_a_bad_value(self, tmp_path, name, value, message):
        scaler = FeatureScaler.fit([np.arange(32.0), np.arange(32.0) * 2])
        getattr(scaler, name.split(".")[1])[5] = value
        scaler.save(tmp_path / "scaler.pcfc")
        with pytest.raises(ValueError, match=re.escape(message)):
            FeatureScaler.load(tmp_path / "scaler.pcfc")

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FeatureScaler.fit([])


_token = st.text(
    alphabet=st.characters(
        codec="ascii", categories=("Ll", "Lu", "Nd"), min_codepoint=48
    ),
    min_size=1,
    max_size=8,
)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(tokens=st.lists(_token, min_size=1, max_size=10), seed=st.integers(0, 999))
    def test_word_order_does_not_matter(self, tokens, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        np.testing.assert_array_equal(
            extract_field_features(" ".join(tokens)),
            extract_field_features(" ".join(shuffled)),
        )

    @settings(max_examples=60, deadline=None)
    @given(tokens=st.lists(_token, min_size=1, max_size=10))
    def test_appending_url_increments_url_and_word_counts(self, tokens):
        base = " ".join(tokens)
        before = dict(zip(STAT_NAMES, extract_field_features(base)))
        after = dict(zip(STAT_NAMES, extract_field_features(base + " http://x.y")))
        assert after["url_count"] == before["url_count"] + 1
        assert after["word_count"] == before["word_count"] + 1
        assert after["stopword_count"] == before["stopword_count"]
        assert after["mention_count"] == before["mention_count"]
        assert after["punctuation_count"] == before["punctuation_count"]

    @settings(max_examples=60, deadline=None)
    @given(token=_token)
    def test_every_token_lands_in_one_bucket(self, token):
        s = stats(token)
        assert s["word_count"] == 1
        assert s["url_count"] + s["mention_count"] in (0, 1)
