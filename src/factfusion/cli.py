"""Command-line surface.

Subcommands: synth, extract-features, train, evaluate, ensemble blend,
ensemble tune, print-config. Config flags mirror RunConfig fields; values are
resolved defaults-first, then the --config JSON file, then explicit flags.
All failures print a single "error: ..." line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import LABELS, load_manifest, synthesize
from .ensemble import VARIANTS, EnsembleSpec, ProbMatrix, blend, predict, tune
from .features import FIELD_ORDER, STAT_NAMES, FeatureScaler, extract_corpus
from .metrics import report_text, weighted_f1
from .tensor_io import write_lines
from .training import evaluate, train


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line machine-parsable errors
        raise CliError(message)


def _add_config_flags(sp) -> None:
    sp.add_argument("--config", metavar="FILE", help="JSON file of config overrides")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        kind = str(f.type)
        if "bool" in kind:
            sp.add_argument(flag, dest=f.name, action="store_true", default=None)
        elif kind == "int":
            sp.add_argument(flag, dest=f.name, type=int, default=None)
        elif kind == "float":
            sp.add_argument(flag, dest=f.name, type=float, default=None)
        else:
            sp.add_argument(flag, dest=f.name, default=None)


def _merged_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = {name: getattr(args, name) for name in RunConfig.field_names()}
    return cfg.updated(**flags)  # updated() skips the flags left unset (None)


def _cmd_synth(args) -> int:
    manifest = synthesize(
        args.n_per_class, args.backbone_dim, args.seed, args.out_dir, args.split
    )
    path = Path(args.out_dir) / f"{args.split}.jsonl"
    print(f"wrote {len(manifest.records)} samples ({args.n_per_class} per class) to {path}")
    return 0


def _cmd_extract_features(args) -> int:
    manifest = load_manifest(args.manifest)
    mat = extract_corpus(manifest.records)
    scaler = None
    if args.scaler_in:
        scaler = FeatureScaler.load(args.scaler_in)
    elif args.scaler_out:
        # Apply the stored copy, so --scaler-in runs reproduce this output.
        scaler = FeatureScaler.fit(mat).as_stored()
        scaler.save(args.scaler_out)
    if scaler is not None:
        mat = scaler.transform(mat)
    header = "sample_id," + ",".join(
        f"{field}.{stat}" for field in FIELD_ORDER for stat in STAT_NAMES
    )
    lines = [header]
    for rec, row in zip(manifest.records, mat):
        lines.append(rec.sample_id + "," + ",".join(f"{v:.10g}" for v in row))
    write_lines(args.out, lines)
    kind = "scaled" if scaler is not None else "raw"
    print(f"wrote {mat.shape[0]} x {mat.shape[1]} {kind} feature rows to {args.out}")
    return 0


def _cmd_train(args) -> int:
    result = train(_merged_config(args))
    print(f"checkpoint: {result.checkpoint}")
    print(f"best epoch: {result.best_epoch}  val weighted F1: {result.best_f1:.4f}")
    return 0


def _cmd_evaluate(args) -> int:
    result = evaluate(args.checkpoint, args.manifest)
    if args.probs_out:
        result.prob_matrix.save(args.probs_out)
        print(f"wrote probabilities to {args.probs_out}")
    if result.f1 is None:
        print("no labels in manifest; probabilities only")
    else:
        print(report_text(result.confusion, LABELS), end="")
        print(f"weighted F1: {result.f1:.4f}")
    return 0


def _load_matrices(paths) -> list:
    return [ProbMatrix.load(p) for p in paths]


def _cmd_blend(args) -> int:
    mats = _load_matrices(args.matrices)
    spec = EnsembleSpec.load(args.spec)
    scores = blend(mats, spec)
    preds = predict(scores)
    if args.out:
        cols = ",".join(f"s{i}" for i in range(len(LABELS)))
        lines = [f"sample_id,{cols},predicted"]
        for sid, row, p in zip(mats[0].sample_ids, scores, preds):
            lines.append(
                sid + "," + ",".join(f"{v:.10g}" for v in row) + f",{LABELS[p]}"
            )
        write_lines(args.out, lines)
        print(f"wrote blended scores to {args.out}")
    if args.manifest:
        labels = _aligned_labels(args.manifest, mats)
        f1, _ = weighted_f1(labels, preds, len(LABELS))
        print(f"blend weighted F1: {f1:.4f}")
    else:
        counts = np.bincount(preds, minlength=len(LABELS))
        summary = ", ".join(f"{n}={c}" for n, c in zip(LABELS, counts))
        print(f"predictions: {summary}")
    return 0


def _aligned_labels(manifest_path, mats) -> np.ndarray:
    manifest = load_manifest(manifest_path)
    if manifest.sample_ids() != mats[0].sample_ids:
        raise CliError("manifest sample order does not match the probability matrices")
    return manifest.labels()


def _cmd_tune(args) -> int:
    mats = _load_matrices(args.matrices)
    labels = _aligned_labels(args.manifest, mats)
    result = tune(mats, labels, args.variant, budget=args.budget, seed=args.seed)
    result.spec.save(args.out, achieved_f1=result.f1)
    weights = ", ".join(f"{w:.3g}" for w in result.spec.weights)
    powers = ", ".join(f"{p:.3g}" for p in result.spec.powers)
    print(f"variant: {result.spec.variant}  weights: [{weights}]  powers: [{powers}]")
    print(f"achieved weighted F1: {result.f1:.4f} ({result.evaluations} evaluations)")
    print(f"wrote spec to {args.out}")
    return 0


def _cmd_print_config(args) -> int:
    print(_merged_config(args).to_json(), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="factfusion", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset split")
    sp.add_argument("--n-per-class", type=int, required=True)
    sp.add_argument("--backbone-dim", type=int, default=32)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--split", default="train")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("extract-features", help="write feature vectors as CSV")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    scaling = sp.add_mutually_exclusive_group()
    scaling.add_argument("--scaler-in", help="apply a saved scaler")
    scaling.add_argument("--scaler-out", help="fit a scaler on this corpus and save it")
    sp.set_defaults(func=_cmd_extract_features)

    sp = sub.add_parser("train", help="train a model from manifests")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("evaluate", help="score a checkpoint on a manifest")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--probs-out")
    sp.set_defaults(func=_cmd_evaluate)

    ens = sub.add_parser("ensemble", help="blend or tune probability matrices")
    ens_sub = ens.add_subparsers(dest="ensemble_command", required=True)

    sp = ens_sub.add_parser("blend", help="apply an ensemble spec")
    sp.add_argument("matrices", nargs="+")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out")
    sp.add_argument("--manifest", help="labeled manifest for scoring the blend")
    sp.set_defaults(func=_cmd_blend)

    sp = ens_sub.add_parser("tune", help="search weights/powers on validation data")
    sp.add_argument("matrices", nargs="+")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--variant", default="unified", choices=VARIANTS)
    sp.add_argument("--budget", type=int, default=200_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_tune)

    sp = sub.add_parser("print-config", help="emit the resolved configuration")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_print_config)

    return parser


def entrypoint(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as err:  # every failure becomes one parsable line
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entrypoint())
