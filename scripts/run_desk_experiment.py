#!/usr/bin/env python3
"""Desk-scale experiment: model seeds, a text-only ablation, ensemble variants.

Generates a synthetic 500/100 split, trains the full model at d=64/4 heads
for each seed (three by default), trains the text-only ablation on the same
data, then tunes every ensemble variant on the validation probabilities and
prints a summary table. Artifacts (checkpoints, probability matrices, tuned
specs) land under --out-dir.

Every tuned spec is blended again, and the script exits 1 if blend() of
the spec does not reproduce the F1 the tuner reported for it.

A run that trains exactly GATE_SEEDS at the default data and training sizes
is the desk gate: it prints one gate line and exits 1 if the mean best val
F1 falls below MEAN_FLOOR or any seed's below SEED_FLOOR. The tuner budget
does not matter to it.

Runs in a few minutes on one CPU core:

    python3 scripts/run_desk_experiment.py --out-dir runs/desk
    python3 scripts/run_desk_experiment.py --seeds 42 43 44 45 46 47 48 49 50 51 \
        --budget 2000 --out-dir runs/gate
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factfusion.config import RunConfig
from factfusion.data import LABELS, synthesize
from factfusion.ensemble import VARIANTS, blend, predict, tune
from factfusion.metrics import weighted_f1
from factfusion.training import train

DESK = dict(
    d=64, heads=4, ff_inner=128, d_m=32, epochs=10, batch_size=24,
    learning_rate=2e-3, tail_learning_rate=2e-3, max_seq_len=64,
)

# The desk gate's seeds and floors. Shifting the dropout draws alone (a
# generator that burns one or two doubles per training batch, or a changed
# draw layout) moved these seeds' mean best F1 over .942-.956 and their
# minimum over .919-.940, so the floors sit below that spread: the mean's
# about four standard errors of a ten-seed mean below the lowest mean seen,
# a seed's about .04 (four val samples) below the lowest seed seen.
GATE_SEEDS = (42, 43, 44, 45, 46, 47, 48, 49, 50, 51)
MEAN_FLOOR = 0.92
SEED_FLOOR = 0.88
# The options whose defaults the gate's run must keep.
GATE_SIZES = ("data_seed", "n_train_per_class", "n_val_per_class", "backbone_dim", "epochs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="runs/desk")
    parser.add_argument("--data-seed", type=int, default=42)
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 43, 44])
    parser.add_argument("--n-train-per-class", type=int, default=100)
    parser.add_argument("--n-val-per-class", type=int, default=20)
    parser.add_argument("--backbone-dim", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=DESK["epochs"])
    parser.add_argument("--budget", type=int, default=130_000,
                        help="tuner evaluation budget per variant")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    print(f"synthesizing data (seed {args.data_seed}) ...")
    train_man = synthesize(
        args.n_train_per_class, args.backbone_dim, args.data_seed, out / "data", "train"
    )
    val_man = synthesize(
        args.n_val_per_class, args.backbone_dim, args.data_seed, out / "data", "val"
    )
    labels = val_man.labels()
    print(f"  {len(train_man.records)} train / {len(val_man.records)} val samples")

    results = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        cfg = RunConfig(**{**DESK, "epochs": args.epochs}, seed=seed)
        r = train(cfg, train_man, val_man, run_dir=out / f"seed{seed}",
                  model_id=f"seed{seed}")
        results[seed] = r
        print(f"seed {seed}: val F1 {r.best_f1:.4f} "
              f"(best epoch {r.best_epoch}, {time.perf_counter() - t0:.0f}s)")

    t0 = time.perf_counter()
    ablation_cfg = RunConfig(
        **{**DESK, "epochs": args.epochs}, seed=args.seeds[0], text_only=True
    )
    ablation = train(ablation_cfg, train_man, val_man,
                     run_dir=out / "text_only", model_id="text_only")
    print(f"text-only ablation: val F1 {ablation.best_f1:.4f} "
          f"({time.perf_counter() - t0:.0f}s)")

    mats = [results[s].prob_matrix for s in args.seeds]
    singles = [results[s].best_f1 for s in args.seeds]

    print()
    print(f"{'model':<18}  val F1")
    print(f"{'-' * 18}  ------")
    for seed, f1 in zip(args.seeds, singles):
        print(f"{f'full, seed {seed}':<18}  {f1:.4f}")
    print(f"{'full, mean':<18}  {statistics.fmean(singles):.4f}")
    print(f"{'full, min':<18}  {min(singles):.4f}")
    print(f"{'text-only ablation':<18}  {ablation.best_f1:.4f}")
    gap = max(singles) - ablation.best_f1
    print(f"{'fusion gain':<18}  {gap:+.4f}")
    print()

    print(f"{'ensemble variant':<18}  val F1  evaluations")
    print(f"{'-' * 18}  ------  -----------")
    unreproduced = []
    for variant in VARIANTS:
        result = tune(mats, labels, variant, budget=args.budget, seed=0)
        result.spec.save(out / f"spec_{variant}.cfg", achieved_f1=result.f1)
        print(f"{variant:<18}  {result.f1:.4f}  {result.evaluations:>11}")
        blended, _ = weighted_f1(labels, predict(blend(mats, result.spec)), len(LABELS))
        if blended != result.f1:
            unreproduced.append(f"{variant} (tuned {result.f1!r}, blend {blended!r})")
    print(f"{'best single seed':<18}  {max(singles):.4f}")
    if unreproduced:
        print(f"blend does not reproduce the tuned F1: {', '.join(unreproduced)}")

    print(f"\ntotal {time.perf_counter() - started:.0f}s; artifacts in {out}")
    if tuple(args.seeds) != GATE_SEEDS or any(
        getattr(args, name) != parser.get_default(name) for name in GATE_SIZES
    ):
        return 1 if unreproduced else 0
    mean, worst = statistics.fmean(singles), min(singles)
    passed = mean >= MEAN_FLOOR and worst >= SEED_FLOOR
    print(f"desk gate {'PASS' if passed else 'FAIL'}: mean best F1 {mean:.4f} "
          f"(floor {MEAN_FLOOR}), min {worst:.4f} at seed {args.seeds[singles.index(worst)]} "
          f"(floor {SEED_FLOOR})")
    return 0 if passed and not unreproduced else 1


if __name__ == "__main__":
    sys.exit(main())
