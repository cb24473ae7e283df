"""Power-weighted probability ensembling and its validation-set tuner.

The blend of M probability matrices is

    S = w_1 * P_1^{N_1} + ... + w_M * P_M^{N_M}

with elementwise powers and no renormalization: the scores only ever feed an
argmax, which is invariant to positive scaling. Probabilities are clipped to
[PROB_FLOOR, 1] first. P^1 is P itself and any other P^N is exp(N · ln P),
with ln P taken once per blend() or tune(), so the average and weighted
variants are plain weighted sums. Four nested variants:

    average   equal weights, all powers 1
    weighted  free weights,  all powers 1
    power     free weights,  one shared power
    unified   free weights,  free powers

Each earlier variant is the next one with parameters tied, so with matching
parameters they blend bit-for-bit identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import LABELS
from .metrics import check_labels, weighted_f1_batch
from .tensor_io import write_lines

VARIANTS = ("average", "weighted", "power", "unified")
WEIGHT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))
POWER_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)
ROW_SUM_TOL = 1e-4
PROB_FLOOR = 1e-12
N_CLASSES = len(LABELS)
BLOCK_ROWS = 256  # most candidates scored at once; bounds a block's per-class buffers


def check_ids(model_id: str, sample_ids: Sequence[str], owner: Optional[str] = None) -> None:
    """Raise ValueError unless the ids fit a probability file's lines: no line
    break in the model id, no comma or line break in a sample id. owner, the
    model id by default, starts the message that names a bad sample id."""
    # "".join(s.splitlines()) != s when s holds a line break of any kind.
    if "".join(model_id.splitlines()) != model_id:
        raise ValueError(f"model id {model_id!r} holds a line break")
    joined = "".join(sample_ids)  # one scan; the loop finds the row
    if "," in joined or "".join(joined.splitlines()) != joined:
        for row, sid in enumerate(sample_ids):
            if "," in sid or "".join(sid.splitlines()) != sid:
                raise ValueError(
                    f"{owner or model_id}: row {row} sample id {sid!r} holds a "
                    f"comma or a line break"
                )


@dataclass
class ProbMatrix:
    """One model's per-sample class probabilities, the unit the blend consumes."""

    model_id: str
    sample_ids: list
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] != N_CLASSES:
            raise ValueError(
                f"{self.model_id}: probability block must be [n x {N_CLASSES}], "
                f"got {self.probs.shape}"
            )
        if len(self.sample_ids) != self.probs.shape[0]:
            raise ValueError(
                f"{self.model_id}: {len(self.sample_ids)} sample ids for "
                f"{self.probs.shape[0]} probability rows"
            )
        check_ids(self.model_id, self.sample_ids)
        inside = (self.probs >= 0.0) & (self.probs <= 1.0)  # False for NaN
        if not inside.all():
            row = np.flatnonzero(~inside.all(axis=1))[0]
            raise ValueError(
                f"{self.model_id}: row {row} holds {self.probs[row]}, "
                f"not probabilities in [0, 1]"
            )
        sums = self.probs.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise ValueError(
                f"{self.model_id}: row {bad[0]} sums to {sums[bad[0]]:.6f}, "
                f"outside 1 +/- {ROW_SUM_TOL}"
            )

    @property
    def n_samples(self) -> int:
        return self.probs.shape[0]

    def save(self, path) -> None:
        lines = [f"{self.model_id},{self.n_samples}"]
        for sid, row in zip(self.sample_ids, self.probs):
            lines.append(sid + "," + ",".join(map(repr, row.tolist())))
        write_lines(path, lines)

    @classmethod
    def load(cls, path) -> "ProbMatrix":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ValueError(f"{path}: empty probability file")
        header = lines[0].rsplit(",", 1)
        if len(header) != 2:
            raise ValueError(f"{path}:1: malformed header {lines[0]!r}")
        ids, rows, number = [], [], 1
        try:
            declared = int(header[1])
            for number, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != 1 + N_CLASSES:
                    raise ValueError(f"malformed row {line!r}")
                ids.append(parts[0])
                rows.append([float(p) for p in parts[1:]])
        except ValueError as err:
            raise ValueError(f"{path}:{number}: {err}") from None
        if len(rows) != declared:
            raise ValueError(
                f"{path}: header declares {declared} samples, found {len(rows)}"
            )
        return cls(model_id=header[0], sample_ids=ids, probs=np.array(rows))


def _check_aligned(mats: Sequence[ProbMatrix]) -> None:
    if not mats:
        raise ValueError("ensemble needs at least one probability matrix")
    counts = [m.n_samples for m in mats]
    if len(set(counts)) > 1:
        raise ValueError(f"misaligned matrices: row counts {counts}")
    first = mats[0].sample_ids
    for m in mats[1:]:
        if m.sample_ids != first:
            for i, (a, b) in enumerate(zip(first, m.sample_ids)):
                if a != b:
                    raise ValueError(
                        f"sample order mismatch at row {i}: "
                        f"{mats[0].model_id}={a!r} vs {m.model_id}={b!r}"
                    )


@dataclass
class EnsembleSpec:
    variant: str
    weights: tuple
    powers: tuple

    def __post_init__(self):
        self.weights = tuple(float(w) for w in self.weights)
        self.powers = tuple(float(p) for p in self.powers)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown ensemble variant {self.variant!r}")
        if len(self.weights) != len(self.powers) or not self.weights:
            raise ValueError(
                f"need matching non-empty weights/powers, got "
                f"{len(self.weights)} and {len(self.powers)}"
            )
        if not all(0.0 < v < math.inf for v in self.weights + self.powers):  # NaN fails
            raise ValueError("weights and powers must be positive and finite")
        if self.variant in ("average", "weighted") and any(
            p != 1.0 for p in self.powers
        ):
            raise ValueError(f"variant {self.variant} requires all powers = 1")
        if self.variant == "average" and len(set(self.weights)) > 1:
            raise ValueError("variant average requires equal weights")
        if self.variant == "power" and len(set(self.powers)) > 1:
            raise ValueError("variant power requires one shared power")

    @property
    def n_models(self) -> int:
        return len(self.weights)

    @classmethod
    def average(cls, m: int) -> "EnsembleSpec":
        return cls("average", (1.0 / m,) * m, (1.0,) * m)

    def save(self, path, achieved_f1: Optional[float] = None) -> None:
        lines = [f"variant = {self.variant}", f"models = {self.n_models}"]
        for i, w in enumerate(self.weights, 1):
            lines.append(f"w{i} = {w!r}")
        for i, p in enumerate(self.powers, 1):
            lines.append(f"n{i} = {p!r}")
        if achieved_f1 is not None:
            lines.append(f"achieved_f1 = {float(achieved_f1)!r}")
        write_lines(path, lines)

    @classmethod
    def load(cls, path) -> "EnsembleSpec":
        kv = {}  # key -> (value, line number)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: malformed line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in kv:
                raise ValueError(f"{path}:{number}: repeated key {key!r}")
            kv[key] = (value, number)

        def parse(key: str, kind):
            value, number = kv[key]
            try:
                return kind(value)
            except ValueError as err:
                raise ValueError(f"{path}:{number}: bad {key} ({err})") from None

        try:
            m = parse("models", int)
            variant = kv["variant"][0]
            weights = tuple(parse(f"w{i}", float) for i in range(1, m + 1))
            powers = tuple(parse(f"n{i}", float) for i in range(1, m + 1))
        except KeyError as missing:
            raise ValueError(f"{path}: missing key {missing}") from None
        try:
            spec = cls(variant=variant, weights=weights, powers=powers)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        read = [f"{c}{i}" for c in "wn" for i in range(1, m + 1)]  # all in kv: 2m <= len(kv)
        unknown = sorted(kv.keys() - {"variant", "models", "achieved_f1", *read})
        if unknown:
            raise ValueError(f"{path}:{kv[unknown[0]][1]}: unexpected key {unknown[0]!r}")
        return spec


def _class_major(mats: Sequence[ProbMatrix]) -> tuple:
    """The members' clamped probabilities class-major, [m x 5·samples], and
    their natural logs: what _class_scores takes, computed once per blend()
    or tune()."""
    probs = np.stack([np.clip(mat.probs.T, PROB_FLOOR, 1.0) for mat in mats])
    probs = probs.reshape(len(mats), -1)
    return probs, np.log(probs)


def _class_scores(probs, logs, weights, powers):
    """Yield the blend scores of each class in turn, [k x samples] for [k x m]
    weights and [k x m] powers or one shared [1 x m] power row; row i of the
    slices, stacked over classes, is exactly blend() of its spec.

    probs and logs are _class_major's. Every slice is written into one
    buffer, reused for the next class, so a consumer reads a slice before it
    asks for the next one (as _argmax_classes does) or copies it.

    P^1 is P itself and P^N is exp(N · ln P), from the logs taken once. When
    every power column is constant over the block, as in blend()'s single
    row, every grid block and every weighted block, the members are powered
    once into an [m x 5·samples] stack and each class slice is one
    contraction weights x powered. np.einsum without optimize runs numpy's
    own sum-of-products loop: each term is the single product w·q, summed
    from zero in member order, so a row of a block equals blend()'s row bit
    for bit. A BLAS product (@, matmul, dot, optimize=True) sums in an order
    of its own that depends on the block's shape, and a 1-row product then
    differs from a block's.

    Otherwise each class takes every member's term into one [m x k x
    samples] buffer: one einsum outer product N x ln P, one exp, the rows
    at N = 1 copied from P, then one contraction with the transposed
    weights, which sums the terms w·q from zero in member order as above.
    Members lead the buffer so that the contraction's innermost loop runs
    over samples or candidates, never over members: a one-sample [k x m x
    1] buffer would reach numpy's dot-product loop, whose SIMD lanes sum in
    an order of their own. Every exp runs on C-contiguous float64, so numpy
    takes the same loop for a row of blend() as for a row of a block.
    """
    k, (m, width) = weights.shape[0], probs.shape
    n = width // N_CLASSES
    scores = np.empty((k, n))
    classes = range(0, width, n)
    if (powers == powers[0]).all():
        powered = np.stack([probs[j] if p == 1.0 else np.exp(p * logs[j])
                            for j, p in enumerate(powers[0])])
        for start in classes:
            yield np.einsum("ij,jk->ik", weights, powered[:, start : start + n], out=scores)
        return
    # einsum forms the outer product N x ln P about twice as fast as a
    # broadcast multiply, with the same products.
    terms = np.empty((m, k, n))
    members, rows = np.nonzero(powers.T == 1.0)
    weights = np.ascontiguousarray(weights.T)
    for start in classes:
        np.einsum("ij,jl->jil", powers, logs[:, start : start + n], out=terms)
        np.exp(terms, out=terms)
        if rows.size:
            terms[members, rows] = probs[members, start : start + n]
        yield np.einsum("ji,jil->il", weights, terms, out=scores)


def _blend_scores(probs, logs, weights, powers) -> np.ndarray:
    """Blend scores [k x samples x 5]: _class_scores' slices stacked over the
    classes, so row i is exactly blend() of its spec."""
    scores = np.empty((weights.shape[0], probs.shape[1] // N_CLASSES, N_CLASSES))
    for c, class_scores in enumerate(_class_scores(probs, logs, weights, powers)):
        scores[..., c] = class_scores
    return scores


def _argmax_classes(classes) -> np.ndarray:
    """The argmax over classes, as uint8, of class score slices given in class
    order, by a compare chain; np.moveaxis(scores, -1, 0) gives the slices of
    a [... x 5] block.

    Only the first slice is copied, so each later one may be the same buffer
    overwritten, as _class_scores yields them. A strict > keeps the first
    maximum, as argmax does. The update is arithmetic, as masked writes cost
    more than the whole chain.
    """
    classes = iter(classes)
    best = next(classes).copy()
    preds = np.zeros(best.shape, dtype=np.uint8)
    greater = np.empty(best.shape, dtype=bool)
    step = np.empty(best.shape, dtype=np.uint8)
    for c, scores in enumerate(classes, start=1):
        np.greater(scores, best, out=greater)
        np.maximum(best, scores, out=best)
        np.subtract(c, preds, out=step)
        step *= greater
        preds += step
    return preds


def blend(mats: Sequence[ProbMatrix], spec: EnsembleSpec) -> np.ndarray:
    """Unnormalized score matrix [samples x 5]; predict with an argmax."""
    _check_aligned(mats)
    if len(mats) != spec.n_models:
        raise ValueError(
            f"spec covers {spec.n_models} models but {len(mats)} matrices given"
        )
    weights, powers = np.array([spec.weights]), np.array([spec.powers])
    return _blend_scores(*_class_major(mats), weights, powers)[0]


def predict(scores: np.ndarray) -> np.ndarray:
    return scores.argmax(axis=1)


@dataclass
class TuneResult:
    spec: EnsembleSpec
    f1: float
    evaluations: int


def _improve(best: Optional[tuple], members, weights, powers, labels) -> tuple:
    """Score a block of at most BLOCK_ROWS blends of members, _class_major's
    pair; return the better of it and best as (f1, (weights, powers)), ties
    going to the smallest such key."""
    preds = _argmax_classes(_class_scores(*members, weights, powers))
    f1s = weighted_f1_batch(labels, preds, N_CLASSES)
    powers = np.broadcast_to(powers, weights.shape)
    top = f1s.max()
    if best is not None and top < best[0]:
        return best
    key = min(
        (tuple(weights[i]), tuple(powers[i])) for i in np.flatnonzero(f1s == top)
    )
    if best is None or top > best[0] or key < best[1]:
        return float(top), key
    return best


def _grid(values: Sequence[float], m: int, rows: int) -> np.ndarray:
    """The first `rows` m-tuples of values (all of them if there are fewer),
    the last member varying fastest.

    Only the rows asked for are built: with ten members the whole weight
    grid alone would be 10^10 rows. Row r's digits in base len(values) pick
    its values; unlike np.unravel_index this holds for any m, as no index
    past the rows asked for is formed.
    """
    index = np.arange(min(rows, len(values) ** m))
    digits = []
    for _ in range(m):
        index, digit = np.divmod(index, len(values))
        digits.append(digit)
    return np.asarray(values, dtype=float)[np.stack(digits[::-1], axis=1)]


def tune(
    mats: Sequence[ProbMatrix],
    labels,
    variant: str = "unified",
    budget: int = 200_000,
    seed: int = 0,
) -> TuneResult:
    """Grid search plus seeded random refinement, maximizing weighted F1.

    Beyond the grid, one corner candidate per model is always evaluated
    (that model at the maximum weight, the rest at the clip floor), so the
    tuned ensemble never scores below its best single member except through
    argmax near-ties. Deterministic for a given seed. Ties are broken toward
    the lexicographically smallest (weights, powers) tuple so that reruns
    and differently-batched evaluations agree on the winner. Candidates are
    scored with blend()'s own sum, so blend() of the spec gives the same F1.
    """
    _check_aligned(mats)
    if variant not in VARIANTS:
        raise ValueError(f"unknown ensemble variant {variant!r}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    labels = np.asarray(labels)
    if labels.shape != (mats[0].n_samples,):
        raise ValueError(
            f"{labels.shape[0] if labels.ndim else 0} labels for "
            f"{mats[0].n_samples} samples"
        )
    check_labels("labels", labels)
    m = len(mats)
    members = _class_major(mats)
    tied_ones = np.ones((1, m))

    if variant == "average":
        spec = EnsembleSpec.average(m)
        f1, _ = _improve(None, members, np.full((1, m), 1.0 / m), tied_ones, labels)
        return TuneResult(spec=spec, f1=f1, evaluations=1)

    # Each power row is tried with the whole weight grid, so the budget
    # reaches only its first ceil(budget / grid rows) power rows.
    weight_grid = _grid(WEIGHT_GRID, m, budget)
    power_rows = {
        "weighted": tied_ones,
        "power": np.repeat(np.array(POWER_GRID)[:, None], m, axis=1),
        "unified": _grid(POWER_GRID, m, -(-budget // len(WEIGHT_GRID) ** m)),
    }[variant]
    grid_blocks = (
        (weight_grid[start : start + BLOCK_ROWS], powers[None])
        for powers in power_rows
        for start in range(0, len(weight_grid), BLOCK_ROWS)
    )

    best: Optional[tuple] = None
    evaluations = 0
    for weights, powers in grid_blocks:
        if evaluations >= budget:
            break
        weights = weights[: budget - evaluations]
        best = _improve(best, members, weights, powers, labels)
        evaluations += weights.shape[0]

    # Corner candidates isolating each model at the clip extremes; with the
    # other members suppressed to w=0.01 (and, for unified, flattened by
    # power 8) the blend reproduces that model's own predictions on all but
    # razor-thin argmax margins.
    corner_w = np.where(np.eye(m), 10.0, 0.01)
    corner_p = np.where(np.eye(m), 1.0, 8.0) if variant == "unified" else tied_ones
    best = _improve(best, members, corner_w, corner_p, labels)
    evaluations += m

    rng = np.random.default_rng(seed)
    while evaluations < budget:
        k = min(BLOCK_ROWS, budget - evaluations)
        base_w, base_p = (np.asarray(v) for v in best[1])
        w_prop = np.clip(base_w + rng.normal(0.0, 0.05, size=(k, m)), 0.01, 10.0)
        p_prop = tied_ones
        if variant != "weighted":
            free = 1 if variant == "power" else m  # power draws one per row
            jitter = np.exp(rng.normal(0.0, 0.2, size=(k, free)))
            p_prop = np.clip(base_p[:free] * jitter, 0.01, 8.0).repeat(m // free, axis=1)
        best = _improve(best, members, w_prop, p_prop, labels)
        evaluations += k

    f1, (weights, powers) = best
    return TuneResult(EnsembleSpec(variant, weights, powers), f1, evaluations)
