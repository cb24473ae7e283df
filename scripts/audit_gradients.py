#!/usr/bin/env python3
"""Finite-difference audit of the composed model's backward pass.

Builds a small full pipeline (adapter + tail + fusion + classifier) in
float64, evaluates the joint loss on a random two-sample batch, and compares
every analytic gradient against central differences. Each seed is audited
twice: in eval mode without dropout, and in training mode with dropout 0.1,
where every evaluation redraws the same masks from a fixed-seed rng. Prints
the worst relative error per parameter tensor so regressions are easy to
localize:

    python3 scripts/audit_gradients.py --seeds 3 --sample-per-param 8
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factfusion.autograd import Tensor
from factfusion.classifier import LossConfig, total_loss
from factfusion.config import RunConfig
from factfusion.features import FEATURE_DIM
from factfusion.gradcheck import check_gradients
from factfusion.model import VerificationModel


# (label, dropout rate); a nonzero rate audits in training mode.
MODES = (("eval", 0.0), ("train dropout 0.1", 0.1))


def build_case(seed: int, backbone_dim: int, dropout: float):
    cfg = RunConfig(
        d=8, heads=2, ff_inner=16, d_m=8, dropout=dropout, max_seq_len=8,
        adapter_scope="all", alpha=0.7,
    )
    model = VerificationModel(
        cfg, backbone_dim, rng=np.random.default_rng(5000 + seed), dtype=np.float64
    )
    rng = np.random.default_rng(6000 + seed)
    batch = [
        {
            s: Tensor.constant(
                rng.standard_normal((int(rng.integers(2, 5)), backbone_dim))
            )
            for s in model.streams
        }
        for _ in range(2)
    ]
    feats = rng.standard_normal((2, FEATURE_DIM))
    labels = rng.integers(0, 5, size=2)
    loss_cfg = LossConfig(alpha=0.7, tau=0.3)

    def fn():
        probs, hidden = model.forward_batch(
            batch, feats, training=dropout > 0.0,
            rng=np.random.default_rng(7000 + seed),
        )
        return total_loss(probs, hidden, labels, loss_cfg).total

    return fn, model.trainable_parameters()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3, help="number of random cases")
    parser.add_argument("--backbone-dim", type=int, default=4)
    parser.add_argument("--sample-per-param", type=int, default=8,
                        help="elements probed per tensor (0 = full sweep, slow)")
    parser.add_argument("--h", type=float, default=3e-5,
                        help="probe step; the composed net has steep third "
                             "derivatives, so keep it small")
    parser.add_argument("--rtol", type=float, default=1e-3)
    parser.add_argument("--top", type=int, default=10,
                        help="how many worst tensors to list per seed")
    args = parser.parse_args()

    sample = args.sample_per_param if args.sample_per_param > 0 else None
    failures = 0
    for seed in range(args.seeds):
        for label, dropout in MODES:
            fn, params = build_case(seed, args.backbone_dim, dropout)
            t0 = time.perf_counter()
            try:
                report = check_gradients(
                    fn, params, h=args.h, rtol=args.rtol,
                    sample_per_param=sample, rng=np.random.default_rng(900 + seed),
                )
            except AssertionError as exc:
                failures += 1
                print(f"seed {seed} {label}: FAIL — {exc}")
                continue
            elapsed = time.perf_counter() - t0
            print(f"seed {seed} {label}: max rel err {report.max_rel_err:.2e} over "
                  f"{report.checked} elements ({report.skipped_kinks} kink skips, "
                  f"{elapsed:.1f}s); worst at {report.worst}")
            ranked = sorted(zip(params.keys(), report.per_param),
                            key=lambda kv: kv[1], reverse=True)
            for name, err in ranked[: args.top]:
                print(f"    {err:.2e}  {name}")

    cases = args.seeds * len(MODES)
    if failures:
        print(f"{failures}/{cases} cases failed at rtol {args.rtol}")
        return 1
    print(f"all {cases} cases ({args.seeds} seeds x {len(MODES)} modes) "
          f"within rtol {args.rtol}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
