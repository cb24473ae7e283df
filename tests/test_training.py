"""Training loop, checkpoint round trips and evaluation."""

import dataclasses
import json
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from factfusion import tensor_io, training
from factfusion.autograd import Tensor
from factfusion.config import RunConfig
from factfusion.data import STREAM_REFS, ingest, synthesize
from factfusion.features import extract_corpus
from factfusion.model import VerificationModel
from factfusion.tensor_io import read_checkpoint, write_tensor
from factfusion.training import evaluate, train

FIXTURES = Path(__file__).parent / "fixtures"

TINY = dict(
    d=16,
    heads=2,
    ff_inner=32,
    d_m=8,
    max_seq_len=16,
    batch_size=8,
    learning_rate=2e-3,
    tail_learning_rate=2e-3,
    epochs=3,
    seed=0,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    train_man = synthesize(3, 8, 21, root, "train")
    val_man = synthesize(2, 8, 21, root, "val")
    return train_man, val_man


@pytest.fixture(scope="module")
def run(dataset, tmp_path_factory):
    train_man, val_man = dataset
    out = tmp_path_factory.mktemp("run")
    cfg = RunConfig(**TINY)
    return cfg, out, train(cfg, train_man, val_man, run_dir=out, model_id="tiny")


@pytest.fixture(scope="module")
def text_only_run(dataset, tmp_path_factory):
    train_man, val_man = dataset
    out = tmp_path_factory.mktemp("text_only")
    return train(RunConfig(**{**TINY, "text_only": True}), train_man, val_man, run_dir=out)


@pytest.fixture(scope="module")
def wide_val(tmp_path_factory):
    """The val split of the dataset's seed, at backbone width 16, not 8."""
    return synthesize(2, 16, 21, tmp_path_factory.mktemp("widedata"), "val")


def _with_sample(man, index, tmp_path, width=None, sample_id=None):
    """A copy of man whose sample at index has 6-row streams of the given
    width, written under tmp_path, or the given sample id."""
    rec = man.records[index]
    changes = {}
    if width is not None:
        rng = np.random.default_rng(index)
        for stream, ref in STREAM_REFS.items():
            path = tmp_path / f"{rec.sample_id}.{stream}.pcft"
            write_tensor(path, rng.standard_normal((6, width)).astype(np.float32))
            changes[ref] = str(path)  # an absolute ref ignores embedding_dir
    if sample_id is not None:
        changes["sample_id"] = sample_id
    records = list(man.records)
    records[index] = dataclasses.replace(rec, **changes)
    return dataclasses.replace(man, records=records)


class TestTrain:
    def test_artifacts_written(self, run):
        _, out, result = run
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.pcfc", "train_log.jsonl", "val_probs.csv"
        ]
        assert result.checkpoint == str(out / "checkpoint.pcfc")

    def test_checkpoint_metadata(self, run):
        cfg, _, result = run
        _, meta = read_checkpoint(result.checkpoint)
        assert meta == {
            "best_epoch": result.best_epoch,
            "best_f1": result.best_f1,
            "config": cfg.to_dict(),
        }

    def test_each_save_is_one_rename(self, dataset, tmp_path, monkeypatch):
        train_man, val_man = dataset
        renames = []

        def recording(src, dst):
            renames.append(Path(dst).name)
            os.rename(src, dst)

        monkeypatch.setattr(tensor_io.os, "replace", recording)
        result = train(RunConfig(**TINY), train_man, val_man, run_dir=tmp_path)
        best, saves = -1.0, 0
        for h in result.history:
            if h["val_f1"] > best:
                best, saves = h["val_f1"], saves + 1
        # val_probs.csv, written once at the end, is replaced atomically too.
        assert saves >= 1
        assert renames == ["checkpoint.pcfc"] * saves + ["val_probs.csv"]

    def test_each_step_graph_is_freed_before_the_next_forward(
        self, dataset, tmp_path, monkeypatch
    ):
        train_man, val_man = dataset
        forward, predict = VerificationModel.forward_batch, training._predict_probs
        graphs = []  # a weak reference into each training step's graph
        alive_at = []  # (event, earlier step graphs still alive when it starts)

        def alive():
            return sum(ref() is not None for ref in graphs)

        def watched_forward(self, *args, **kwargs):
            if not kwargs.get("training"):
                return forward(self, *args, **kwargs)
            alive_at.append(("forward", alive()))
            probs, hidden = forward(self, *args, **kwargs)
            graphs.append(weakref.ref(probs._parents[0].data))
            return probs, hidden

        def watched_predict(*args):
            alive_at.append(("validation", alive()))
            return predict(*args)

        monkeypatch.setattr(VerificationModel, "forward_batch", watched_forward)
        monkeypatch.setattr(training, "_predict_probs", watched_predict)
        train(RunConfig(**TINY), train_man, val_man, run_dir=tmp_path)
        assert len(graphs) > TINY["epochs"]
        assert {event for event, _ in alive_at} == {"forward", "validation"}
        assert alive_at == [(event, 0) for event, _ in alive_at]

    def test_history_and_best(self, run):
        _, _, result = run
        assert len(result.history) == TINY["epochs"]
        f1s = [h["val_f1"] for h in result.history]
        assert result.best_f1 == max(f1s)
        assert result.best_epoch == f1s.index(max(f1s)) + 1

    def test_prob_matrix_shape(self, run, dataset):
        _, _, result = run
        _, val_man = dataset
        assert result.prob_matrix.model_id == "tiny"
        assert result.prob_matrix.probs.shape == (len(val_man.records), 5)
        np.testing.assert_allclose(result.prob_matrix.probs.sum(axis=1), 1.0, atol=1e-4)

    def test_log_line_format(self, run):
        _, _, result = run
        lines = Path(result.log_path).read_text(encoding="utf-8").splitlines()
        assert lines
        for raw in lines:
            entry = json.loads(raw)
            assert set(entry) == {"epoch", "step", "total", "ce", "supcon"}
            assert np.isfinite(entry["total"])
        steps = [json.loads(raw)["step"] for raw in lines]
        assert steps == list(range(len(steps)))

    def test_loss_decreases(self, run):
        _, _, result = run
        losses = [h["train_loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_deterministic_given_seed(self, dataset, tmp_path):
        train_man, val_man = dataset
        cfg = RunConfig(**{**TINY, "epochs": 1})
        a = train(cfg, train_man, val_man, run_dir=tmp_path / "a")
        b = train(cfg, train_man, val_man, run_dir=tmp_path / "b")
        assert a.best_f1 == b.best_f1
        np.testing.assert_array_equal(a.prob_matrix.probs, b.prob_matrix.probs)

    def test_seed_changes_trajectory(self, dataset, tmp_path):
        train_man, val_man = dataset
        a = train(RunConfig(**{**TINY, "epochs": 1}), train_man, val_man, run_dir=tmp_path / "a")
        b = train(
            RunConfig(**{**TINY, "epochs": 1, "seed": 1}),
            train_man,
            val_man,
            run_dir=tmp_path / "b",
        )
        assert not np.array_equal(a.prob_matrix.probs, b.prob_matrix.probs)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_manifest_rejected(self, dataset, tmp_path, monkeypatch, split):
        mans = dict(zip(("train", "val"), dataset))
        mans[split] = type(mans[split])(split=split, embedding_dir=".", records=[])
        # Refused before either split's files are read.
        monkeypatch.setattr(training, "_load_split", None)
        with pytest.raises(ValueError, match="non-empty"):
            train(RunConfig(**TINY), mans["train"], mans["val"], run_dir=tmp_path)

    def test_missing_manifest_config(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            train(RunConfig(**TINY), None, None, run_dir=tmp_path)

    def test_text_only_runs(self, dataset, tmp_path):
        train_man, val_man = dataset
        cfg = RunConfig(**{**TINY, "epochs": 1, "text_only": True})
        result = train(cfg, train_man, val_man, run_dir=tmp_path)
        assert 0.0 <= result.best_f1 <= 1.0


class TestSplitChecks:
    """Inputs the run cannot finish on fail before the first step or forward."""

    @staticmethod
    def _fails_before_the_first_step(train_man, val_man, run_dir, message):
        with pytest.raises(ValueError, match=message):
            train(RunConfig(**TINY), train_man, val_man, run_dir=run_dir)
        assert not (run_dir / "train_log.jsonl").exists()
        assert not (run_dir / "checkpoint.pcfc").exists()

    @staticmethod
    def _fails_before_the_forward(checkpoint, man, monkeypatch, message, **kwargs):
        def no_forward(*args):
            raise AssertionError("evaluate ran a forward")

        monkeypatch.setattr(training, "_predict_probs", no_forward)
        with pytest.raises(ValueError, match=message):
            evaluate(checkpoint, man, **kwargs)

    def test_train_split_of_two_widths(self, dataset, tmp_path):
        train_man, val_man = dataset
        mixed = _with_sample(train_man, 3, tmp_path, width=16)
        self._fails_before_the_first_step(
            mixed, val_man, tmp_path / "run",
            r"^train split: sample 'train00003' has backbone width 16, "
            r"but the model takes 8$",
        )

    def test_val_split_of_another_width(self, dataset, wide_val, tmp_path):
        train_man, _ = dataset
        self._fails_before_the_first_step(
            train_man, wide_val, tmp_path / "run",
            r"^val split: sample 'val00000' has backbone width 16, but the model takes 8$",
        )

    def test_evaluate_manifest_of_another_width(self, run, wide_val, monkeypatch):
        _, _, result = run
        self._fails_before_the_forward(
            result.checkpoint, wide_val, monkeypatch,
            r"^val split: sample 'val00000' has backbone width 16, but the model takes 8$",
        )

    @pytest.mark.parametrize("sid", ["val,0", "val\n0"])
    def test_val_sample_id_the_probability_file_cannot_hold(self, dataset, tmp_path, sid):
        train_man, val_man = dataset
        self._fails_before_the_first_step(
            train_man, _with_sample(val_man, 2, tmp_path, sample_id=sid), tmp_path / "run",
            rf"^val split: row 2 sample id {re.escape(repr(sid))} holds a comma or a line break$",
        )

    def test_evaluate_ids_the_probability_file_cannot_hold(
        self, run, dataset, monkeypatch, tmp_path
    ):
        _, _, result = run
        _, val_man = dataset
        self._fails_before_the_forward(
            result.checkpoint, _with_sample(val_man, 0, tmp_path, sample_id="val,0"),
            monkeypatch, r"^val split: row 0 sample id 'val,0' holds a comma or a line break$",
        )
        self._fails_before_the_forward(
            result.checkpoint, val_man, monkeypatch,
            r"^model id 'seed\\n3' holds a line break$", model_id="seed\n3",
        )


class TestEvaluate:
    def test_matches_training_probs(self, run, text_only_run, dataset):
        _, val_man = dataset
        # The saved checkpoint is the best epoch, so re-evaluating it must
        # reproduce the stored validation matrix and F1, bit for bit: with a
        # feature scaler and, text only, without one.
        for result in (run[2], text_only_run):
            ev = evaluate(result.checkpoint, val_man)
            np.testing.assert_array_equal(ev.prob_matrix.probs, result.prob_matrix.probs)
            assert ev.f1 == result.best_f1
            assert result.history[result.best_epoch - 1]["val_f1"] == ev.f1

    def test_matches_forward_batch_and_builds_no_graph(self, run, dataset, monkeypatch):
        cfg, _, result = run
        _, val_man = dataset
        forward = VerificationModel.forward_batch
        seen = []

        def recording(self, *args, **kwargs):
            probs, hidden = forward(self, *args, **kwargs)
            seen.extend([probs, hidden])
            return probs, hidden

        monkeypatch.setattr(VerificationModel, "forward_batch", recording)
        ev = evaluate(result.checkpoint, val_man)
        assert seen
        for out in seen:
            assert out._parents == () and not out.requires_grad

        model, scaler, _ = VerificationModel.from_checkpoint(result.checkpoint)
        data = list(ingest(val_man, cfg.max_seq_len))
        batch = [{s: Tensor.constant(a) for s, a in arrays.items()} for arrays in data]
        feats = scaler.transform(extract_corpus(val_man.records))
        probs, _ = forward(model, batch, feats.astype(np.float32), training=False)
        np.testing.assert_allclose(ev.prob_matrix.probs, probs.data, rtol=0, atol=1e-6)

    def test_empty_manifest_rejected(self, run, dataset, monkeypatch):
        _, val_man = dataset
        empty = type(val_man)(split="val", embedding_dir=".", records=[])
        monkeypatch.setattr(training, "_load_split", None)
        with pytest.raises(ValueError, match="cannot evaluate an empty manifest"):
            evaluate(run[2].checkpoint, empty)

    def test_idempotent(self, run, dataset):
        _, _, result = run
        _, val_man = dataset
        a = evaluate(result.checkpoint, val_man)
        b = evaluate(result.checkpoint, val_man)
        np.testing.assert_array_equal(a.prob_matrix.probs, b.prob_matrix.probs)

    def test_reports_confusion(self, run, dataset):
        _, _, result = run
        _, val_man = dataset
        ev = evaluate(result.checkpoint, val_man)
        assert ev.confusion.shape == (5, 5)
        assert ev.confusion.sum() == len(val_man.records)
        assert ev.per_class.shape == (5,)

    def test_unlabeled_manifest_gives_probs_only(self, run, dataset, tmp_path):
        _, _, result = run
        _, val_man = dataset
        import copy

        stripped = copy.deepcopy(val_man)
        for rec in stripped.records:
            rec.label = None
        ev = evaluate(result.checkpoint, stripped)
        assert ev.f1 is None and ev.confusion is None
        assert ev.prob_matrix.probs.shape == (len(val_man.records), 5)

    def test_missing_checkpoint(self, tmp_path, dataset):
        _, val_man = dataset
        with pytest.raises(FileNotFoundError, match="missing checkpoint"):
            evaluate(tmp_path / "nope.pcfc", val_man)

    def test_model_id_defaults_to_stem(self, run, dataset):
        _, _, result = run
        _, val_man = dataset
        ev = evaluate(result.checkpoint, val_man)
        assert ev.prob_matrix.model_id == "checkpoint"
        named = evaluate(result.checkpoint, val_man, model_id="alpha")
        assert named.prob_matrix.model_id == "alpha"


class TestVersion1Fixture:
    """A version-1 checkpoint and its .meta.json sidecar, written before the
    metadata moved into the checkpoint header (d=4, 1 head, backbone 4)."""

    path = FIXTURES / "v1_checkpoint.pcfc"

    def test_loads_as_saved(self):
        entries, meta = read_checkpoint(self.path)
        assert meta is None
        sidecar = json.loads(Path(f"{self.path}.meta.json").read_text(encoding="utf-8"))
        model, scaler, record = VerificationModel.from_checkpoint(self.path)
        stored = sidecar["config"]
        assert stored.pop("checkpoint") is None
        assert model.config == RunConfig(**stored)
        assert model.backbone_dim == sidecar["backbone_dim"] == 4
        assert record == {"best_epoch": 2, "best_f1": sidecar["best_f1"]}
        params = model.parameters()
        assert set(params) | {"scaler.mean", "scaler.std"} == set(entries)
        for name, param in params.items():
            assert param.data.dtype == np.float32
            assert param.data.tobytes() == entries[name].tobytes(), name
        assert scaler.mean.tobytes() == entries["scaler.mean"].astype(np.float64).tobytes()
        assert scaler.std.tobytes() == entries["scaler.std"].astype(np.float64).tobytes()

    @pytest.mark.parametrize(
        "sidecar, match", [("[1, 2]", "a JSON list, not an object"), ("{not json", "not a JSON")]
    )
    def test_bad_sidecar_rejected(self, tmp_path, sidecar, match):
        path = tmp_path / "v1.pcfc"
        path.write_bytes(self.path.read_bytes())
        Path(f"{path}.meta.json").write_text(sidecar, encoding="utf-8")
        with pytest.raises(tensor_io.FormatError, match=match) as info:
            VerificationModel.from_checkpoint(path)
        assert "v1.pcfc.meta.json" in str(info.value)

    def test_evaluates(self, tmp_path):
        man = synthesize(2, 4, 5, tmp_path, "val")
        ev = evaluate(self.path, man)
        assert ev.prob_matrix.probs.shape == (len(man.records), 5)
        np.testing.assert_allclose(ev.prob_matrix.probs.sum(axis=1), 1.0, atol=1e-5)
        assert 0.0 <= ev.f1 <= 1.0

    def test_version_2_file_storing_checkpoint_field_evaluates(self, tmp_path):
        # Version-2 files written while RunConfig had a checkpoint field
        # store it as null in their config.
        entries, _ = read_checkpoint(self.path)
        sidecar = json.loads(Path(f"{self.path}.meta.json").read_text(encoding="utf-8"))
        assert sidecar["config"]["checkpoint"] is None
        path = tmp_path / "older.pcfc"
        tensor_io.write_checkpoint(
            path, entries, {"best_epoch": 2, "best_f1": 0.5, "config": sidecar["config"]}
        )
        model, _, record = VerificationModel.from_checkpoint(path)
        assert model.config == VerificationModel.from_checkpoint(self.path)[0].config
        assert record == {"best_epoch": 2, "best_f1": 0.5}
        man = synthesize(2, 4, 5, tmp_path, "val")
        np.testing.assert_array_equal(
            evaluate(path, man).prob_matrix.probs, evaluate(self.path, man).prob_matrix.probs
        )

    def test_resaves_as_one_version_2_file(self, tmp_path):
        model, scaler, record = VerificationModel.from_checkpoint(self.path)
        path = tmp_path / "v2.pcfc"
        model.save(path, scaler, record)
        assert [p.name for p in tmp_path.iterdir()] == ["v2.pcfc"]
        assert path.read_bytes()[4] == 2
        again, scaler2, record2 = VerificationModel.from_checkpoint(path)
        assert again.config == model.config and record2 == record
        for name, param in model.parameters().items():
            assert again.parameters()[name].data.tobytes() == param.data.tobytes()
        assert scaler2.mean.tobytes() == scaler.mean.tobytes()
        assert scaler2.std.tobytes() == scaler.std.tobytes()
        man = synthesize(2, 4, 5, tmp_path / "data", "val")
        np.testing.assert_array_equal(
            evaluate(path, man).prob_matrix.probs,
            evaluate(self.path, man).prob_matrix.probs,
        )


class TestOverfit:
    def test_memorizes_tiny_training_set(self, tmp_path):
        """Enough epochs on five samples must reach perfect train F1."""
        man = synthesize(1, 8, 33, tmp_path, "train")
        cfg = RunConfig(**{**TINY, "epochs": 40, "learning_rate": 5e-3, "tail_learning_rate": 5e-3})
        result = train(cfg, man, man, run_dir=tmp_path / "run")
        assert result.best_f1 == pytest.approx(1.0)
