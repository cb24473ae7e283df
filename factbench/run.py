#!/usr/bin/env python3
"""factfusion benchmark: one closed-loop client, one process per workload.

    python3 factbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and factbench/README.md): train-desk,
eval-wide, tune-desk, or `all`, which runs each in its own process and
prints every end-to-end metric under its workload-specific name.

The process pins BLAS/OpenMP to one thread before numpy is imported, builds
the workload's inputs from --seed (at least three times, reporting the
median as setup_s), runs one uncounted warm-up operation, then repeats the
operation while the next one should end within --seconds, checking every
output. With --trace 0 it prints
the end-to-end metrics; with --trace 1 it spends a third of the time
untraced and two thirds with span tracing installed, and prints the
per-layer metrics. The last stdout line is the JSON result; a report with
the machine, per-operation timings and the arithmetic fingerprint precedes
it and is also written, with any spans, under .factbench_out/.
"""

import os
import sys

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".factbench_work"
OUT_ROOT = ROOT / ".factbench_out"
WORKLOADS = ("train-desk", "eval-wide", "tune-desk")
# Set-up repeats at least SETUP_MIN times and until SETUP_BUDGET_S seconds
# have gone into it, at most SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 1.0


def import_program() -> None:
    """Put the checkout's src/ first on sys.path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "factfusion" / "__init__.py").is_file():
        raise SystemExit(f"factbench: no factfusion sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import factfusion

    if Path(factfusion.__file__).resolve().parent != (src / "factfusion").resolve():
        raise SystemExit(f"factbench: imported factfusion from {factfusion.__file__}")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {var: os.environ.get(var) for var in PINS},
    }


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy-and-interpreter loop.

    The program never runs it, so it moves only with the host's speed; the
    report records it before and after the timed loop to tell host drift
    from program change.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(1000):
            np.maximum(a @ a, 0.0).sum()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


class Measurement:
    def __init__(self):
        self.durations = []  # seconds per successful operation
        self.rates = []  # items per second per successful operation
        self.attempted = 0
        self.failed = 0
        self.next_op = 0


def measure(workload, seconds: float, tracer=None, first_op: int = 0) -> Measurement:
    """Closed loop: run operations back to back while the next one should fit."""
    out = Measurement()
    op = first_op
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        try:
            items, outcomes = workload.run()
        except Exception:
            traceback.print_exc()
            items, outcomes = 0, [["raised"]]
        elapsed = time.perf_counter() - t0
        failed = [problems for problems in outcomes if problems]
        for problems in failed:
            print(f"factbench: operation {op} failed: {problems}", file=sys.stderr)
        out.attempted += len(outcomes)
        out.failed += len(failed)
        if not failed:
            out.durations.append(elapsed)
            out.rates.append(items / elapsed)
        op += 1
        typical = statistics.median(out.durations) if out.durations else elapsed
        if time.perf_counter() - start + typical > seconds:
            out.next_op = op
            return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload in this process; returns (result, report, spans or None)."""
    import tracing
    import workloads

    units = declared_metrics()[int(trace)]
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    workload = workloads.make(name, seed, scale, work)
    tracer = tracing.Tracer() if trace else None
    try:
        setup_s = []
        if tracer is not None:
            tracer.install()
        while len(setup_s) < SETUP_MIN or (
                sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX):
            k = len(setup_s)
            if tracer is not None:
                tracer.op = f"setup-{k}"
            t0 = time.perf_counter()
            workload.setup(work / f"setup-{k}")
            setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        workload.warm_up()
        probe_ms = [host_probe_ms()]
        if tracer is None:
            runs = [measure(workload, seconds)]
            values = {
                "setup_s": _median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "items_per_s": _median(runs[0].rates),
            }
        else:
            plain = measure(workload, seconds / 3)
            tracer.install()
            try:
                traced = measure(workload, seconds - seconds / 3, tracer,
                                 first_op=plain.next_op)
            finally:
                tracer.uninstall()
            left = tracing.installed_wrappers()
            if left:
                raise RuntimeError(f"tracing shims left installed: {left}")
            runs = [plain, traced]
            base = _median(plain.durations)
            overhead = _median(traced.durations) / base - 1.0 if base else 0.0
            values = tracing.layer_metrics(tracer.spans, overhead)
        probe_ms.append(host_probe_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "machine": machine_info(), "host_probe_ms": probe_ms,
        "setup_s": setup_s,
        "operations": [{"durations_s": r.durations, "items_per_s": r.rates} for r in runs],
        "fingerprint": workload.fingerprint,
    }
    if tracer is None:
        report[workload.throughput_name] = values["items_per_s"]
    else:
        report["spans"] = len(tracer.spans)
        report["self_times"] = tracing.self_times(
            [s for s in tracer.spans if isinstance(s.op, int)])
    return result, report, (tracer.spans if tracer is not None else None)


def write_outputs(report: dict, spans) -> None:
    OUT_ROOT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    (OUT_ROOT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        with open(OUT_ROOT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span.to_dict()) + "\n")


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by its own name."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        alias = workloads.WORKLOADS[name].throughput_name
        for metric, entry in result["metrics"].items():
            label = alias if metric == "items_per_s" else metric
            combined["metrics"][f"{name}.{label}"] = entry
            print(f"{name:<11} {label:<38} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<11} {'operations attempted / failed':<38} "
              f"{result['attempted']:>8} / {result['failed']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny exists for the benchmark's self-check")
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    result, report, spans = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    write_outputs(report, spans)
    print("factbench report " + json.dumps(
        {k: v for k, v in report.items() if k != "self_times"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
