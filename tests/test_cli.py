"""Command-line interface: flows, config precedence, error contract."""

import builtins
import errno
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from factfusion.cli import entrypoint
from factfusion.config import RunConfig
from factfusion.data import DatasetManifest, RawSample, write_manifest
from factfusion.ensemble import EnsembleSpec, ProbMatrix
from factfusion.model import VerificationModel


def run_cli(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_TRAIN_FLAGS = (
    "--d", "16", "--heads", "2", "--ff-inner", "32", "--d-m", "8",
    "--max-seq-len", "16", "--batch-size", "8", "--epochs", "1", "--seed", "0",
)


class TestSynthCommand:
    def test_writes_split(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "synth", "--n-per-class", "2", "--backbone-dim", "8",
            "--seed", "3", "--out-dir", str(tmp_path),
        )
        assert code == 0 and err == ""
        assert "10 samples" in out
        assert (tmp_path / "train.jsonl").is_file()
        assert (tmp_path / "embeddings").is_dir()


class TestFeatureCommand:
    def test_raw_and_scaled(self, capsys, tmp_path):
        run_cli(capsys, "synth", "--n-per-class", "2", "--backbone-dim", "8",
                "--seed", "3", "--out-dir", str(tmp_path))
        manifest = str(tmp_path / "train.jsonl")
        code, out, _ = run_cli(
            capsys, "extract-features", "--manifest", manifest,
            "--out", str(tmp_path / "raw.csv"),
        )
        assert code == 0 and "raw feature rows" in out
        header = (tmp_path / "raw.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "sample_id" and len(cols) == 33
        assert "claim_text.char_count" in cols

        code, out, _ = run_cli(
            capsys, "extract-features", "--manifest", manifest,
            "--out", str(tmp_path / "scaled.csv"),
            "--scaler-out", str(tmp_path / "scaler.json"),
        )
        assert code == 0 and "scaled" in out
        assert (tmp_path / "scaler.json").is_file()

        code, _, _ = run_cli(
            capsys, "extract-features", "--manifest", manifest,
            "--out", str(tmp_path / "scaled2.csv"),
            "--scaler-in", str(tmp_path / "scaler.json"),
        )
        assert code == 0
        assert (tmp_path / "scaled2.csv").read_text() == (
            tmp_path / "scaled.csv"
        ).read_text()

    def test_scaler_in_and_out_conflict(self, capsys, tmp_path):
        run_cli(capsys, "synth", "--n-per-class", "1", "--backbone-dim", "8",
                "--seed", "3", "--out-dir", str(tmp_path))
        manifest = str(tmp_path / "train.jsonl")
        run_cli(capsys, "extract-features", "--manifest", manifest,
                "--out", str(tmp_path / "a.csv"), "--scaler-out", str(tmp_path / "a.pcfc"))
        code, _, err = run_cli(
            capsys, "extract-features", "--manifest", manifest,
            "--out", str(tmp_path / "b.csv"),
            "--scaler-in", str(tmp_path / "a.pcfc"),
            "--scaler-out", str(tmp_path / "b.pcfc"),
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--scaler-in" in err and "--scaler-out" in err
        assert not (tmp_path / "b.pcfc").exists() and not (tmp_path / "b.csv").exists()

    def test_scaler_in_without_scaler_entries(self, capsys, tmp_path):
        run_cli(capsys, "synth", "--n-per-class", "1", "--backbone-dim", "8",
                "--seed", "3", "--out-dir", str(tmp_path))
        model = VerificationModel(RunConfig(d=8, heads=2, text_only=True), 8)
        model.save(tmp_path / "text_only.pcfc", None, {})
        code, _, err = run_cli(
            capsys, "extract-features", "--manifest", str(tmp_path / "train.jsonl"),
            "--out", str(tmp_path / "scaled.csv"),
            "--scaler-in", str(tmp_path / "text_only.pcfc"),
        )
        assert code == 1
        assert err == "error: checkpoint has no feature scaler entry 'scaler.mean'\n"


class TestTrainEvaluateFlow:
    def test_end_to_end(self, capsys, tmp_path):
        run_cli(capsys, "synth", "--n-per-class", "3", "--backbone-dim", "8",
                "--seed", "11", "--out-dir", str(tmp_path), "--split", "train")
        run_cli(capsys, "synth", "--n-per-class", "2", "--backbone-dim", "8",
                "--seed", "11", "--out-dir", str(tmp_path), "--split", "val")
        code, out, err = run_cli(
            capsys, "train",
            "--train-manifest", str(tmp_path / "train.jsonl"),
            "--val-manifest", str(tmp_path / "val.jsonl"),
            "--out-dir", str(tmp_path / "run"),
            *TINY_TRAIN_FLAGS,
        )
        assert code == 0, err
        assert "checkpoint:" in out and "val weighted F1:" in out
        ckpt = str(tmp_path / "run" / "checkpoint.pcfc")

        code, out, _ = run_cli(
            capsys, "evaluate", "--checkpoint", ckpt,
            "--manifest", str(tmp_path / "val.jsonl"),
            "--probs-out", str(tmp_path / "run" / "eval_probs.csv"),
        )
        assert code == 0
        assert "weighted F1:" in out
        assert "label" in out  # the confusion report header
        saved = ProbMatrix.load(tmp_path / "run" / "eval_probs.csv")
        assert saved.probs.shape == (10, 5)


def _fixture_matrices(tmp_path, n=10, seed=0, prefix="v"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=n)
    ids = [f"{prefix}{i:03d}" for i in range(n)]
    paths = []
    for name, accuracy in (("good", 0.9), ("weak", 0.4)):
        probs = np.full((n, 5), 0.05)
        for i in range(n):
            target = labels[i] if rng.random() < accuracy else rng.integers(0, 5)
            probs[i, target] = 0.8
        path = tmp_path / f"{name}.csv"
        ProbMatrix(name, ids, probs).save(path)
        paths.append(str(path))
    from factfusion.data import LABELS

    records = [
        RawSample(sample_id=sid, label=LABELS[labels[i]]) for i, sid in enumerate(ids)
    ]
    man_path = tmp_path / "val.jsonl"
    write_manifest(DatasetManifest("val", ".", records), man_path)
    return paths, str(man_path)


class TestEnsembleCommands:
    def test_blend_with_spec(self, capsys, tmp_path):
        paths, man = _fixture_matrices(tmp_path)
        spec_path = tmp_path / "spec.cfg"
        EnsembleSpec.average(2).save(spec_path)
        code, out, _ = run_cli(
            capsys, "ensemble", "blend", *paths,
            "--spec", str(spec_path),
            "--out", str(tmp_path / "blend.csv"),
            "--manifest", man,
        )
        assert code == 0
        assert "blend weighted F1:" in out
        lines = (tmp_path / "blend.csv").read_text().splitlines()
        assert lines[0] == "sample_id,s0,s1,s2,s3,s4,predicted"
        assert len(lines) == 11

    def test_blend_without_labels_prints_counts(self, capsys, tmp_path):
        paths, _ = _fixture_matrices(tmp_path)
        spec_path = tmp_path / "spec.cfg"
        EnsembleSpec.average(2).save(spec_path)
        code, out, _ = run_cli(
            capsys, "ensemble", "blend", *paths, "--spec", str(spec_path)
        )
        assert code == 0 and "predictions:" in out

    def test_tune_writes_spec(self, capsys, tmp_path):
        paths, man = _fixture_matrices(tmp_path)
        out_path = tmp_path / "tuned.cfg"
        code, out, _ = run_cli(
            capsys, "ensemble", "tune", *paths,
            "--manifest", man, "--variant", "weighted",
            "--budget", "300", "--seed", "0",
            "--out", str(out_path),
        )
        assert code == 0
        assert "achieved weighted F1:" in out and "evaluations" in out
        spec = EnsembleSpec.load(out_path)
        assert spec.variant == "weighted"
        assert spec.powers == (1.0, 1.0)

    def test_order_mismatch_is_cli_error(self, capsys, tmp_path):
        paths, _ = _fixture_matrices(tmp_path)
        _, other_man = _fixture_matrices(tmp_path / "other", seed=1, prefix="w")
        code, _, err = run_cli(
            capsys, "ensemble", "tune", *paths,
            "--manifest", other_man, "--out", str(tmp_path / "x.cfg"),
        )
        assert code == 1
        assert err.startswith("error:") and "order" in err


class TestPrintConfig:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "print-config")
        cfg = json.loads(out)
        assert cfg["d"] == 256 and cfg["heads"] == 12
        assert cfg["alpha"] == 1.0 and cfg["tau"] == 0.3
        assert cfg["text_only"] is False

    def test_precedence_defaults_then_file_then_flags(self, capsys, tmp_path):
        cfile = tmp_path / "overrides.json"
        cfile.write_text(json.dumps({"d": 32, "heads": 4, "alpha": 0.7}))
        code, out, _ = run_cli(
            capsys, "print-config", "--config", str(cfile), "--heads", "8"
        )
        assert code == 0
        cfg = json.loads(out)
        assert cfg["d"] == 32          # from the file
        assert cfg["heads"] == 8       # flag beats the file
        assert cfg["alpha"] == 0.7     # file beats the default
        assert cfg["dropout"] == 0.1   # untouched default

    def test_bool_flag(self, capsys):
        code, out, _ = run_cli(capsys, "print-config", "--text-only")
        assert json.loads(out)["text_only"] is True


class TestErrorContract:
    def test_missing_file_single_error_line(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "extract-features",
            "--manifest", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_bad_flag_value(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "synth", "--n-per-class", "many", "--out-dir", str(tmp_path)
        )
        assert code == 1 and err.startswith("error:")

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "transmogrify")
        assert code == 1 and err.startswith("error:")

    def test_invalid_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "print-config", "--dropout", "1.5")
        assert code == 1 and err.startswith("error:")

    def test_config_file_value_of_wrong_type_rejected(self, capsys, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"text_only": "false"}))
        code, out, err = run_cli(capsys, "print-config", "--config", str(cfile))
        assert code == 1 and out == ""
        assert err == "error: text_only must be of type bool, got 'false'\n"

    def test_unbuildable_dims_still_print(self, capsys):
        # d=256 with 7 heads is printable for audit; building a model from
        # it fails later with a divisibility error.
        code, out, _ = run_cli(capsys, "print-config", "--heads", "7")
        assert code == 0 and json.loads(out)["heads"] == 7


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "factfusion", "print-config"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["d"] == 256


class _HalfWriter:
    """A file whose first write stores half its bytes and then fails, as a
    full disk or a killed process would leave it."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)


# Each writer below writes target once, and checks that the write failed.


def _write_prob_matrix(tmp_path, capsys, target):
    with pytest.raises(OSError, match="No space left"):
        ProbMatrix("m", ["a", "b"], np.full((2, 5), 0.2)).save(target)


def _write_spec(tmp_path, capsys, target):
    with pytest.raises(OSError, match="No space left"):
        EnsembleSpec.average(2).save(target, achieved_f1=0.5)


def _write_manifest(tmp_path, capsys, target):
    records = [RawSample(sample_id=f"s{i}", label="support_text") for i in range(3)]
    with pytest.raises(OSError, match="No space left"):
        write_manifest(DatasetManifest("val", ".", records), target)


def _write_features(tmp_path, capsys, target):
    run_cli(capsys, "synth", "--n-per-class", "1", "--backbone-dim", "8",
            "--seed", "3", "--out-dir", str(tmp_path / "data"))
    code, _, err = run_cli(
        capsys, "extract-features", "--manifest", str(tmp_path / "data" / "train.jsonl"),
        "--out", str(target),
    )
    assert code == 1 and "No space left" in err


def _write_blend(tmp_path, capsys, target):
    paths, man = _fixture_matrices(tmp_path / "inputs")
    spec = tmp_path / "inputs" / "spec.cfg"
    EnsembleSpec.average(2).save(spec)
    code, _, err = run_cli(
        capsys, "ensemble", "blend", *paths, "--spec", str(spec), "--out", str(target),
    )
    assert code == 1 and "No space left" in err


class TestTextArtifactsAreAtomic:
    @pytest.mark.parametrize("writer", [
        _write_prob_matrix, _write_spec, _write_manifest, _write_features, _write_blend,
    ], ids=["prob-matrix", "ensemble-spec", "manifest", "features-csv", "blend-csv"])
    def test_failed_write_keeps_the_old_file(self, writer, capsys, tmp_path, monkeypatch):
        target = tmp_path / "artifact.txt"
        old = b"old line 1\nold line 2\n"
        target.write_bytes(old)
        real_open = io.open

        def opener(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if "w" in mode and isinstance(file, (str, os.PathLike)) and (
                os.path.basename(file).startswith(target.name)
            ):
                return _HalfWriter(f)
            return f

        # pathlib opens through io.open, the builtin open is the same function.
        monkeypatch.setattr(io, "open", opener)
        monkeypatch.setattr(builtins, "open", opener)
        writer(tmp_path, capsys, target)
        monkeypatch.undo()
        assert target.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))
