"""Self-check of the benchmark at tiny input sizes.

    python3 -m pytest factbench/tests -q

Both modes must emit every metric BENCHMARK.json names, the untraced mode
must install no tracing shim, and the traced mode must remove every shim it
installed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Metrics each workload's traced run must measure as non-zero.
REACHED = {
    "train-desk": ("autograd.graph_nodes_per_step", "autograd.backward_ms_p50",
                   "fusion.pair1_ms", "fusion.pair6_ms", "embedding.tail_ms_per_step",
                   "classifier.loss_ms_per_step", "optim.adam_step_ms_p50",
                   "training.step_ms_p50", "training.val_ms_per_epoch",
                   "training.checkpoint_write_ms", "data.synthesize_s",
                   "data.ingest_ms_per_sample", "features.scaler_fit_ms"),
    "eval-wide": ("autograd.eval_graph_nodes_per_batch", "fusion.pair3_ms",
                  "model.forward_batch_ms_p50", "tensor_io.read_checkpoint_ms",
                  "tensor_io.bytes_read", "features.raw_vector_ms_per_sample"),
    "tune-desk": ("ensemble.tune_s.weighted", "ensemble.evals_per_s.unified",
                  "metrics.weighted_f1_batch_ms_total", "ensemble.f1_scoring_share"),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics_without_tracing(workload, monkeypatch):
    installs = []
    monkeypatch.setattr(tracing.Tracer, "install", lambda self: installs.append(self))
    result, report, spans = run.run_workload(workload, 3, 0.3, trace=False, scale="tiny")
    assert installs == [] and spans is None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert report["fingerprint"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_removes_shims(workload):
    result, report, spans = run.run_workload(workload, 3, 0.3, trace=True, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in REACHED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert spans and all(s.end >= s.start for s in spans)
    assert tracing.installed_wrappers() == []


def test_shims_cover_imported_names_and_are_restored():
    from factfusion import classifier, training

    original = classifier.total_loss
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.total_loss is classifier.total_loss is not original
        assert "factfusion.training.total_loss" in tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert training.total_loss is classifier.total_loss is original
    assert tracing.installed_wrappers() == []


def test_self_time_subtracts_children():
    outer = tracing.Span(0, "outer", 0.0, None, 0)
    inner = tracing.Span(1, "inner", 1.0, 0, 0)
    outer.end, inner.end = 4.0, 2.5
    times = tracing.self_times([outer, inner])
    assert times["outer"]["self_s"] == 2.5 and times["inner"]["self_s"] == 1.5


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tune-desk", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_program_sources():
    bare = ROOT / ".factbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "factbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "factbench/run.py", "--workload", "tune-desk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
