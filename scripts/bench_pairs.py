#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs and write BENCH_<change>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 10 --seconds 30   # ~40 minutes

Each side is exported from git (git archive) into its own temporary
directory, removed on exit, failures included; the repository's working
tree, index and worktree list are never touched. For every seed the script
runs the side's own `factbench/run.py --workload all --trace 0` once per
side, alternating which side goes first, and reads the end-to-end metrics
from the run's last stdout line and the set-up times, fingerprints and
machine from the `.factbench_out/report-*.json` files factbench writes.
It then runs one traced pair (`--trace 1`, first seed) for the per-layer
metrics and `scripts/digest_run.py` on each side.

The file holds, per workload and end-to-end metric, each side's values,
median and quartiles, every pair's change/parent ratio, the number of
pairs in which the change is better and a verdict (see verdict()); the
traced per-layer values; both sides' fingerprints and digests; the
machine; and each side's `setup_s` spread. Nothing under factbench/ is changed.

Ten pairs is the default because it is the fewest that can resolve a gain:
a claim needs the change to win nine tenths of the pairs.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(repo: Path, sha: str, dest: Path) -> Path:
    """Extract the tree of commit sha into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", sha],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"bench_pairs: git archive {sha} failed")
    return dest


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in PINS})
    return env


def factbench(tree: Path, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One `--workload all` run in tree; returns its combined result line."""
    cmd = [sys.executable, "factbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, cwd=tree, env=child_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: factbench gave no result in {tree} "
                         f"(seed {seed}, exit {proc.returncode})") from None


def report(tree: Path, workload: str, seed: int, trace: int) -> dict:
    path = tree / ".factbench_out" / f"report-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def digests(tree: Path) -> dict:
    out = subprocess.run([sys.executable, "scripts/digest_run.py"], cwd=tree,
                         env=child_env(), check=True, capture_output=True, text=True).stdout
    return {name: digest for digest, name in (line.split() for line in out.splitlines())}


def by_workload(result: dict, workloads, names) -> dict:
    """{workload: {metric: value}} from a combined result line, where each
    workload prints items_per_s under its own throughput name."""
    values = {}
    for workload in workloads:
        entries = {key.split(".", 1)[1]: entry["value"]
                   for key, entry in result["metrics"].items()
                   if key.split(".", 1)[0] == workload}
        values[workload] = {name: entries.pop(name) for name in names if name in entries}
        if "items_per_s" in names and "items_per_s" not in values[workload]:
            (_, throughput), = entries.items()
            values[workload]["items_per_s"] = throughput
    return values


def summary(values) -> dict:
    """Values with their median and quartiles (inclusive method)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def spread(values) -> dict:
    return {**summary(values), "min": min(values), "max": max(values)}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str, bound: float) -> str:
    """The reading of one end-to-end metric from both sides' summaries:

    better         the change wins at least 9 of every 10 pairs (ties count
                   for neither) and its median beats the parent's by more
                   than the parent's interquartile range;
    worse          the change's median is worse than the parent's by more
                   than the metric's relative bound, and either the parent's
                   interquartile range is within the bound or every change
                   run is worse than every parent run;
    unresolved     neither, and the parent's interquartile range, relative
                   to its median, is wider than the bound;
    within bound   every other case.
    """
    sign = 1 if better == "higher" else -1
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    wide = iqr > bound * abs(parent["median"])
    if 10 * wins >= 9 * pairs and gain > iqr:
        return "better"
    if -gain > bound * abs(parent["median"]) and (
        not wide
        or max(sign * v for v in change["values"]) < min(sign * v for v in parent["values"])
    ):
        return "worse"
    return "unresolved" if wide else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="commit to compare against")
    parser.add_argument("change", help="commit under test; names the output file")
    parser.add_argument("--seeds", type=int, default=10, help="untraced pairs, seeds 1..N")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="factbench input sizes; tiny is for a smoke run")
    parser.add_argument("--repo", type=Path, default=ROOT, help="git repository of both commits")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="where BENCH_<change>.json goes (default: --repo)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    shas = {side: git(args.repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    seeds = list(range(1, args.seeds + 1))
    # A terminated run unwinds through the finally below like a failed one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: export(args.repo, shas[side], scratch / side) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in spec["workloads"]]
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}

        runs = {side: [] for side in SIDES}
        failed = {side: {"attempted": 0, "failed": 0} for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = factbench(trees[side], seed, args.seconds, 0, args.scale)
                failed[side]["attempted"] += result["attempted"]
                failed[side]["failed"] += result["failed"]
                runs[side].append(by_workload(result, workloads, end_to_end))
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{w} {runs[side][-1][w]['items_per_s']:.6g}/s" for w in workloads),
                    flush=True)

        metrics = {}
        for workload in workloads:
            metrics[workload] = {}
            for name, declared in end_to_end.items():
                values = {side: [run[workload][name] for run in runs[side]] for side in SIDES}
                ratios = [c / p if p else None for p, c in zip(values["parent"], values["change"])]
                higher = declared["better"] == "higher"
                wins = sum((c > p) if higher else (c < p)
                           for p, c in zip(values["parent"], values["change"]))
                sides = {side: summary(values[side]) for side in SIDES}
                metrics[workload][name] = {
                    "unit": declared["unit"], "better": declared["better"], **sides,
                    "ratios": ratios, "change_wins": wins, "pairs": len(seeds),
                    "verdict": verdict(sides["parent"], sides["change"], wins, len(seeds),
                                       declared["better"], declared["bound"]),
                }

        reports = {side: {w: [report(trees[side], w, s, 0) for s in seeds] for w in workloads}
                   for side in SIDES}
        setup_spread = {side: {w: spread([t for r in reports[side][w] for t in r["setup_s"]])
                               for w in workloads} for side in SIDES}
        fingerprints = {side: {w: [r["fingerprint"] for r in reports[side][w]] for w in workloads}
                        for side in SIDES}

        traced = {}
        for side in SIDES:
            result = factbench(trees[side], seeds[0], args.seconds, 1, args.scale)
            failed[side]["attempted"] += result["attempted"]
            failed[side]["failed"] += result["failed"]
            traced[side] = by_workload(result, workloads,
                                       [m["name"] for m in spec["per_layer"]])
        per_layer = {w: {name: {side: traced[side][w][name] for side in SIDES}
                         for name in traced["parent"][w]} for w in workloads}
        digest = {side: digests(trees[side]) for side in SIDES}

        bench = {
            "parent": shas["parent"],
            "change": shas["change"],
            "command": "factbench/run.py --workload all --trace 0",
            "seeds": seeds,
            "seconds": args.seconds,
            "scale": args.scale,
            "machine": reports["parent"][workloads[0]][0]["machine"],
            "end_to_end": metrics,
            "operations": failed,
            "setup_s_spread": setup_spread,
            "fingerprints": {**fingerprints, "equal": {
                w: fingerprints["parent"][w] == fingerprints["change"][w] for w in workloads}},
            "per_layer": {"seed": seeds[0], "metrics": per_layer},
            "digests": {**digest, "equal": digest["parent"] == digest["change"]},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out_dir = args.out_dir or args.repo
    path = out_dir / f"BENCH_{shas['change']}.json"
    partial = path.with_suffix(".json.tmp")
    partial.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    os.replace(partial, path)
    for workload in workloads:
        for name, entry in metrics[workload].items():
            print(f"{workload:<11} {name:<12} parent {entry['parent']['median']:>12.6g}  "
                  f"change {entry['change']['median']:>12.6g}  "
                  f"wins {entry['change_wins']}/{entry['pairs']}  {entry['verdict']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
