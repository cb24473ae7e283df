"""Synthetic dataset generator, manifests and stream ingestion."""

import json

import numpy as np
import pytest

from factfusion.data import (
    CLASS_RECIPES,
    LABELS,
    LABEL_TO_INDEX,
    DatasetManifest,
    STREAM_REFS,
    RawSample,
    ingest,
    load_manifest,
    synthesize,
    write_manifest,
)
from factfusion.tensor_io import read_tensor, write_tensor


class TestLabels:
    def test_five_classes(self):
        assert len(LABELS) == 5
        assert LABEL_TO_INDEX["support_text"] == 0
        assert LABEL_TO_INDEX["refute"] == 4

    def test_recipes_cover_all_labels(self):
        assert set(CLASS_RECIPES) == set(LABELS)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="sample s1.*unknown label"):
            RawSample(sample_id="s1", label="maybe")

    def test_non_string_text_rejected(self):
        with pytest.raises(ValueError, match="sample 's1': not a string: claim_text"):
            RawSample(sample_id="s1", claim_text=None)

    def test_unlabeled_allowed_until_labels_called(self):
        rec = RawSample(sample_id="s1")
        m = DatasetManifest(split="t", embedding_dir=".", records=[rec])
        with pytest.raises(ValueError, match="unlabeled"):
            m.labels()


class TestSynthesize:
    def test_balanced_and_ordered(self, tmp_path):
        m = synthesize(3, 8, 0, tmp_path, "train")
        assert len(m.records) == 15
        labels = [r.label for r in m.records]
        assert labels == list(LABELS) * 3
        by_class = np.bincount(m.labels(), minlength=5)
        assert by_class.tolist() == [3] * 5

    def test_bitwise_deterministic(self, tmp_path):
        a = synthesize(2, 8, 7, tmp_path / "a", "train")
        b = synthesize(2, 8, 7, tmp_path / "b", "train")
        for ra, rb in zip(a.records, b.records):
            da, db = ra.__dict__.copy(), rb.__dict__.copy()
            assert da == db
        for ra in a.records:
            for ref in (ra.claim_image_embedding_ref, ra.doc_image_embedding_ref):
                bytes_a = (tmp_path / "a" / "embeddings" / ref).read_bytes()
                bytes_b = (tmp_path / "b" / "embeddings" / ref).read_bytes()
                assert bytes_a == bytes_b

    def test_splits_differ_but_share_prototypes(self, tmp_path):
        tr = synthesize(2, 8, 7, tmp_path, "train")
        va = synthesize(2, 8, 7, tmp_path, "val")
        assert tr.records[0].claim_text != va.records[0].claim_text
        assert tr.records[0].sample_id.startswith("train")
        assert va.records[0].sample_id.startswith("val")

    def test_seed_changes_content(self, tmp_path):
        a = synthesize(1, 8, 1, tmp_path / "a", "train")
        b = synthesize(1, 8, 2, tmp_path / "b", "train")
        texts_a = [r.claim_text for r in a.records]
        texts_b = [r.claim_text for r in b.records]
        assert texts_a != texts_b

    def test_embedding_files_exist_with_width(self, tmp_path):
        m = synthesize(1, 12, 0, tmp_path, "train")
        for rec in m.records:
            for ref in (
                rec.claim_image_embedding_ref,
                rec.doc_image_embedding_ref,
                rec.claim_text_embedding_ref,
                rec.doc_text_embedding_ref,
            ):
                arr = read_tensor(tmp_path / "embeddings" / ref)
                assert arr.ndim == 2 and arr.shape[1] == 12
                assert 4 <= arr.shape[0] <= 10

    def test_rejects_empty_request(self, tmp_path):
        with pytest.raises(ValueError, match="n_per_class"):
            synthesize(0, 8, 0, tmp_path)
        with pytest.raises(ValueError, match="d_backbone"):
            synthesize(1, 0, 0, tmp_path)

    def test_text_relation_reflected_in_strings(self, tmp_path):
        m = synthesize(6, 8, 3, tmp_path, "train")
        neg_markers = {"not", "never", "false", "denies", "contrary", "false!"}
        for rec in m.records:
            tokens = set(rec.doc_text.split())
            if rec.label == "refute":
                assert tokens & neg_markers, rec.doc_text
            elif CLASS_RECIPES[rec.label][0] == "unrelated":
                assert any(t.startswith("http") for t in tokens), rec.doc_text


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        m = synthesize(2, 8, 0, tmp_path, "train")
        loaded = load_manifest(tmp_path / "train.jsonl")
        assert loaded.split == "train"
        assert [r.__dict__ for r in loaded.records] == [r.__dict__ for r in m.records]
        assert loaded.embedding_dir == str(tmp_path / "embeddings")

    def test_first_line_is_header(self, tmp_path):
        synthesize(1, 8, 0, tmp_path, "train")
        first = (tmp_path / "train.jsonl").read_text().splitlines()[0]
        header = json.loads(first)
        assert header == {"split": "train", "embedding_dir": "embeddings"}

    def test_record_field_names(self, tmp_path):
        synthesize(1, 8, 0, tmp_path, "train")
        line = (tmp_path / "train.jsonl").read_text().splitlines()[1]
        rec = json.loads(line)
        assert set(rec) == {
            "sample_id",
            "claim_text",
            "claim_ocr",
            "doc_text",
            "doc_ocr",
            "claim_image_embedding_ref",
            "doc_image_embedding_ref",
            "claim_text_embedding_ref",
            "doc_text_embedding_ref",
            "label",
        }

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty manifest"):
            load_manifest(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"split": "x"}\n')
        with pytest.raises(ValueError, match="embedding_dir"):
            load_manifest(path)

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"split": "x", "embedding_dir": "."}\n{"sample_id": "a", "bogus": 1}\n'
        )
        with pytest.raises(ValueError, match=":2:"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"sample_id": 7, "claim_text": None},
            {"sample_id": "a", "doc_ocr": ["x"]},
            {"sample_id": "a", "claim_image_embedding_ref": 3},
        ],
    )
    def test_non_string_field_names_line(self, tmp_path, fields):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"split": "x", "embedding_dir": "."}\n'
            + json.dumps({"sample_id": "ok"}) + "\n" + json.dumps(fields) + "\n"
        )
        bad = ", ".join(k for k, v in fields.items() if not isinstance(v, str))
        with pytest.raises(ValueError, match=f":3: .*not a string: {bad}"):
            load_manifest(path)

    def test_repeated_sample_id_names_both_lines(self, tmp_path):
        synthesize(1, 8, 0, tmp_path, "train")
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        # Blank lines are skipped but still counted in the line numbers.
        path.write_text("\n".join(lines[:2] + [""] + lines[2:] + [lines[2]]) + "\n")
        sample_id = json.loads(lines[2])["sample_id"]
        with pytest.raises(
            ValueError, match=f"train.jsonl:{len(lines) + 2}: sample id '{sample_id}' repeats line 4"
        ):
            load_manifest(path)

    @pytest.mark.parametrize("header", ["5", "not json", '{"split": 1, "embedding_dir": "."}'])
    def test_header_must_be_an_object_of_strings(self, tmp_path, header):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="bad.jsonl"):
            load_manifest(path)

    def test_relative_dir_resolved_against_manifest(self, tmp_path):
        sub = tmp_path / "deep"
        sub.mkdir()
        path = sub / "m.jsonl"
        write_manifest(DatasetManifest(split="t", embedding_dir="emb", records=[]), path)
        loaded = load_manifest(path)
        assert loaded.embedding_dir == str(sub / "emb")


class TestIngest:
    def test_round_trip_streams(self, tmp_path):
        m = synthesize(1, 8, 0, tmp_path, "train")
        for rec, streams in zip(m.records, ingest(m)):
            assert set(streams) == {"CI", "DI", "CT", "DT"}
            direct = read_tensor(
                tmp_path / "embeddings" / rec.claim_image_embedding_ref
            )
            np.testing.assert_array_equal(streams["CI"], direct)

    def test_truncates_to_max_seq_len(self, tmp_path):
        m = synthesize(1, 8, 0, tmp_path, "train")
        for streams in ingest(m, max_seq_len=3):
            for arr in streams.values():
                assert arr.shape[0] <= 3

    def test_missing_file_names_sample(self, tmp_path):
        m = synthesize(1, 8, 0, tmp_path, "train")
        victim = m.records[0]
        (tmp_path / "embeddings" / victim.claim_image_embedding_ref).unlink()
        with pytest.raises(ValueError, match=f"sample {victim.sample_id}"):
            list(ingest(m))

    def test_empty_stream_names_sample_and_stream(self, tmp_path):
        m = synthesize(1, 8, 0, tmp_path, "train")
        victim = m.records[2]
        write_tensor(
            tmp_path / "embeddings" / victim.doc_image_embedding_ref,
            np.zeros((0, 8), dtype=np.float32),
        )
        with pytest.raises(ValueError, match=f"sample {victim.sample_id}: DI .* no rows"):
            list(ingest(m))
        write_tensor(
            tmp_path / "embeddings" / victim.doc_image_embedding_ref,
            np.zeros((4, 0), dtype=np.float32),
        )
        with pytest.raises(ValueError, match=f"sample {victim.sample_id}: DI .* no columns"):
            list(ingest(m))

    def test_non_finite_embedding_names_sample_and_stream(self, tmp_path):
        m = synthesize(1, 8, 0, tmp_path, "train")
        victim = m.records[1]
        path = tmp_path / "embeddings" / victim.claim_text_embedding_ref
        arr = read_tensor(path)
        arr[-1, 3] = np.nan
        write_tensor(path, arr)
        with pytest.raises(ValueError, match=f"sample {victim.sample_id}: CT .* non-finite"):
            list(ingest(m))

    @pytest.mark.parametrize("missing", [None, ""])
    @pytest.mark.parametrize("stream", list(STREAM_REFS))
    def test_missing_ref_names_sample_and_stream(self, tmp_path, stream, missing):
        m = synthesize(1, 8, 0, tmp_path, "train")
        victim = m.records[3]
        setattr(victim, STREAM_REFS[stream], missing)
        with pytest.raises(ValueError, match=f"sample {victim.sample_id}: no {stream} "):
            list(ingest(m))


class TestSignalRecoverable:
    def test_nearest_prototype_baseline(self, tmp_path):
        """A trivial cosine rule on mean-pooled streams beats chance easily.

        Shared vs unrelated image streams are separable by claim/document
        cosine similarity; same for text. This guards the generator actually
        planting the advertised signal.
        """
        m = synthesize(20, 16, 9, tmp_path, "train")
        y = m.labels()
        feats = []
        for streams in ingest(m):
            pooled = {s: a.mean(axis=0) for s, a in streams.items()}

            def cos(a, b):
                return float(
                    np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-9)
                )

            feats.append(
                (cos(pooled["CT"], pooled["DT"]), cos(pooled["CI"], pooled["DI"]))
            )
        preds = []
        for text_cos, image_cos in feats:
            if text_cos < -0.5:
                preds.append(LABEL_TO_INDEX["refute"])
            elif text_cos > 0.5 and image_cos > 0.5:
                preds.append(LABEL_TO_INDEX["support_multimodal"])
            elif text_cos > 0.5:
                preds.append(LABEL_TO_INDEX["support_text"])
            elif image_cos > 0.5:
                preds.append(LABEL_TO_INDEX["insufficient_multimodal"])
            else:
                preds.append(LABEL_TO_INDEX["insufficient_text"])
        accuracy = float(np.mean(np.array(preds) == y))
        assert accuracy > 0.9
