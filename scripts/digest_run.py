#!/usr/bin/env python3
"""Digest of a short desk training run, to compare two trees byte for byte.

Synthesizes a fixed 100/25 split, trains run_desk_experiment's DESK config
(d=64, 4 heads, default dropout and seed) for 3 epochs and prints the
sha256 of the run's checkpoint.pcfc, val_probs.csv and train_log.jsonl.
Two trees whose arithmetic and dropout draws agree print the same three
lines on the same machine; a float-order change anywhere in the model
moves at least the checkpoint's. BLAS builds differ in how they sum, so
compare digests from one machine only, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 scripts/digest_run.py
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factfusion.config import RunConfig
from factfusion.data import synthesize
from factfusion.training import train
from run_desk_experiment import DESK

ARTIFACTS = ("checkpoint.pcfc", "val_probs.csv", "train_log.jsonl")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        train_man = synthesize(20, 32, 7, out / "data", "train")
        val_man = synthesize(5, 32, 7, out / "data", "val")
        train(RunConfig(**{**DESK, "epochs": 3}), train_man, val_man, run_dir=out / "run")
        for name in ARTIFACTS:
            print(f"{hashlib.sha256((out / 'run' / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
