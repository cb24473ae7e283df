"""Smoke run of scripts/bench_pairs.py on a two-commit fixture repository,
and its per-metric verdicts."""

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
VERDICTS = ("better", "worse", "unresolved", "within bound")


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3}


def runs(*values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": list(values), "median": median, "q1": q1, "q3": q3}


# Set-up times whose parent quartiles span more than the bound.
NOISY = (0.50, 0.52, 0.55, 0.60, 0.62, 0.64, 0.80, 0.90, 0.92, 0.95)


@pytest.mark.parametrize(
    "parent, change, wins, better, expected",
    [
        # Nine wins of ten and a gain wider than the parent's quartiles.
        (side(100, 98, 102), side(110, 108, 112), 9, "higher", "better"),
        (side(40.5, 40.45, 40.52), side(39.3, 39.2, 39.4), 10, "lower", "better"),
        # Eight wins of ten are too few, however large the gain.
        (side(100, 98, 102), side(110, 108, 112), 8, "higher", "within bound"),
        # Nine wins, but the gain lies inside the parent's quartiles.
        (side(100, 90, 110), side(105, 95, 115), 9, "higher", "within bound"),
        # A median worse than the parent's by more than the bound.
        (side(100, 98, 102), side(70, 68, 72), 0, "higher", "worse"),
        (side(40, 39.9, 40.1), side(52, 51.9, 52.1), 0, "lower", "worse"),
        # Neither, and the parent's quartiles span more than the bound.
        (side(100, 80, 110), side(95, 85, 105), 3, "higher", "unresolved"),
        (side(100, 99, 101), side(95, 94, 96), 3, "higher", "within bound"),
        # A median worse by more than the bound, but the parent's quartiles
        # span more than the bound and the runs overlap: noise, not a loss.
        (runs(*NOISY), runs(0.45, 0.70, 0.80, 0.81, 0.82, 0.83, 0.85, 0.90, 1.0, 1.1),
         3, "lower", "unresolved"),
        # The same spread, but every change run is worse than every parent run.
        (runs(*NOISY), runs(*(v + 0.5 for v in NOISY)), 0, "lower", "worse"),
    ],
)
def test_verdict_applies_the_pair_rule(parent, change, wins, better, expected):
    assert load_script().verdict(parent, change, wins, 10, better, 0.25) == expected


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *args], check=True, capture_output=True, text=True,
    ).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_writes_every_section(tmp_path):
    # The two commits differ in a note only, so both sides compute alike.
    repo = tmp_path / "repo"
    ignore = shutil.ignore_patterns("__pycache__", ".factbench_*")
    for part in ("src", "factbench"):
        shutil.copytree(ROOT / part, repo / part, ignore=ignore)
    (repo / "scripts").mkdir()
    for script in ("digest_run.py", "run_desk_experiment.py"):
        shutil.copy(ROOT / "scripts" / script, repo / "scripts")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    git(tmp_path, "init", "-q", str(repo))
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "first")
    (repo / "NOTE.md").write_text("second commit\n", encoding="utf-8")
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "second")
    parent, change = git(repo, "rev-parse", "HEAD~1"), git(repo, "rev-parse", "HEAD")

    out = tmp_path / "out"
    out.mkdir()
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "HEAD~1", "HEAD",
         "--repo", str(repo), "--seeds", "1", "--seconds", "1", "--scale", "tiny",
         "--out-dir", str(out)],
        check=True, capture_output=True, text=True, timeout=600,
    )
    assert [p.name for p in out.iterdir()] == [f"BENCH_{change}.json"]
    bench = json.loads((out / f"BENCH_{change}.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    assert (bench["parent"], bench["change"]) == (parent, change)
    assert bench["seeds"] == [1] and bench["scale"] == "tiny"
    assert {"nproc", "python", "numpy", "blas"} <= bench["machine"].keys()
    assert set(bench["end_to_end"]) == set(workloads)
    for workload in workloads:
        metrics = bench["end_to_end"][workload]
        assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
        for entry in metrics.values():
            assert entry["pairs"] == 1 and 0 <= entry["change_wins"] <= 1
            assert entry["verdict"] in VERDICTS
            assert len(entry["ratios"]) == 1
            for side in SIDES:
                assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"]
                assert len(entry[side]["values"]) == 1
        assert set(bench["per_layer"]["metrics"][workload]) == {
            m["name"] for m in spec["per_layer"]
        }
        for side in SIDES:
            setup = bench["setup_s_spread"][side][workload]
            assert setup["min"] <= setup["median"] <= setup["max"]
            assert len(bench["fingerprints"][side][workload]) == 1
        assert bench["fingerprints"]["equal"][workload]
    for side in SIDES:
        assert bench["operations"][side]["failed"] == 0
        assert bench["operations"][side]["attempted"] > 0
        assert set(bench["digests"][side]) == {
            "checkpoint.pcfc", "val_probs.csv", "train_log.jsonl"
        }
    assert bench["digests"]["equal"]
