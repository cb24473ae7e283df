"""Multi-modal multi-type fusion: six shared-weight co-attention blocks.

Fixed pairing order (claim/document x image/text):

    1 (CI, DI)   2 (CT, DT)   3 (CI, DT)
    4 (CI, CT)   5 (DI, CT)   6 (DI, DT)

Each block holds ONE set of Q/K/V projections, feed-forward weights and two
layer norms, reused for both attention directions. Fusing four streams yields
12 context vectors (two directions per pairing) plus the 4 stream embeddings,
each pooled by the aggregation the stack is built with (mean, or mean|max|
last) and concatenated downstream in that order. Dropout runs exactly where
a generator is passed: training hands its seeded rng down, inference none.

A whole batch fuses in one pass: each stream arrives as its samples' rows
packed into one [sum(rows) x d] tensor plus the per-sample row counts.
Everything position-wise (projections, feed-forward, layer norms, pooling)
runs once on the packed rows; only the attention core works per sample, on
that sample's row ranges. That core is one autograd node per direction
(autograd.attention_core), which takes the packed [rows x d] Q/K/V and owns
the head split, query scaling and head merge. It cuts the samples, in
order, into runs whose padded [samples*heads x longest query x longest key]
score block stays within autograd.PACK_BUDGET entries: a run of small
samples is padded into one batch with a -inf key mask, and a sample too big
to share a block runs alone on its own rows, unpadded. A single unpacked
sample may instead be padded by the caller, with a_len/b_len/lengths
marking its valid prefix; it is a run of one, and masked key positions
receive exactly zero attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autograd import (
    ShapeError,
    Tensor,
    add,
    attention_core,
    concat,
    dropout,
    getitem,
    layer_norm,
    matmul,
    relu,
    reshape,
)
from .data import STREAMS as STREAM_ORDER
from .embedding import glorot_uniform

PAIRINGS = (
    ("CI", "DI"),
    ("CT", "DT"),
    ("CI", "DT"),
    ("CI", "CT"),
    ("DI", "CT"),
    ("DI", "DT"),
)
AGGREGATIONS = ("mean", "mean_max_last")


def _segments(
    n_rows: int,
    rows: Optional[Sequence[int]] = None,
    length: Optional[int] = None,
) -> tuple:
    """(start, stop, valid rows) per sample of an [n_rows x d] input.

    rows gives the row count of each sample packed into the input; without
    it the input is one sample whose first `length` rows (default: all) are
    valid and the rest padding.
    """
    if rows is None:
        valid = n_rows if length is None else min(length, n_rows)
        return ((0, n_rows, valid),)
    if length is not None:
        raise ValueError("a valid-prefix length applies to one unpacked sample only")
    if min(rows, default=0) < 1 or sum(rows) != n_rows:
        raise ShapeError(
            f"packed rows {tuple(rows)} must be positive and sum to {n_rows}"
        )
    stops = np.cumsum(rows)
    return tuple((int(e - r), int(e), int(r)) for r, e in zip(rows, stops))


class CoAttentionBlock:
    """One co-attention block; weights shared across both directions."""

    def __init__(
        self,
        d: int,
        heads: int,
        ff_inner: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.1,
        full_width_scaling: bool = False,
        dtype=np.float32,
    ):
        if d % heads != 0:
            raise ValueError(f"model width {d} must be a multiple of heads={heads}")
        self.d = d
        self.heads = heads
        self.dropout_rate = dropout_rate
        # Per-head scores scale by 1/sqrt(d/h); the flag switches to the
        # single-head 1/sqrt(d) convention.
        self.scale = 1.0 / np.sqrt(d if full_width_scaling else d // heads)
        self.Wq = Tensor.param(glorot_uniform(rng, d, d, dtype))
        self.Wk = Tensor.param(glorot_uniform(rng, d, d, dtype))
        self.Wv = Tensor.param(glorot_uniform(rng, d, d, dtype))
        self.ffn_W1 = Tensor.param(glorot_uniform(rng, d, ff_inner, dtype))
        self.ffn_b1 = Tensor.param(np.zeros(ff_inner, dtype=dtype))
        self.ffn_W2 = Tensor.param(glorot_uniform(rng, ff_inner, d, dtype))
        self.ffn_b2 = Tensor.param(np.zeros(d, dtype=dtype))
        self.norm1_gain = Tensor.param(np.ones(d, dtype=dtype))
        self.norm1_bias = Tensor.param(np.zeros(d, dtype=dtype))
        self.norm2_gain = Tensor.param(np.ones(d, dtype=dtype))
        self.norm2_bias = Tensor.param(np.zeros(d, dtype=dtype))

    def _sublayers(
        self, residual: Tensor, context: Tensor, rng: Optional[np.random.Generator]
    ) -> Tensor:
        z = layer_norm(add(residual, context), self.norm1_gain, self.norm1_bias)
        h = relu(add(matmul(z, self.ffn_W1), self.ffn_b1))
        h = dropout(h, self.dropout_rate, rng)
        f = add(matmul(h, self.ffn_W2), self.ffn_b2)
        f = dropout(f, self.dropout_rate, rng)
        return layer_norm(add(f, z), self.norm2_gain, self.norm2_bias)

    def co_attend(
        self,
        a: Tensor,
        b: Tensor,
        a_len: Optional[int] = None,
        b_len: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        return_weights: bool = False,
        a_rows: Optional[Sequence[int]] = None,
        b_rows: Optional[Sequence[int]] = None,
    ):
        """Both attention directions of a pair with the same parameters.

        Returns (O_ab, O_ba): O_ab queries a against keys/values of b and
        O_ba the reverse, each with its query input's rows. a_rows/b_rows
        give the per-sample row counts of packed inputs (sample i of a
        attends only to sample i of b); without them a and b are one sample,
        and a_len/b_len mark the valid prefix when they are padded. Dropout
        draws from rng; without one it is off, as at inference.
        return_weights appends the [heads x queries x keys] attention
        weights of each direction, as constants: one tensor for a single
        sample, a per-sample list for packed inputs.
        """
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != self.d or b.shape[1] != self.d:
            raise ShapeError(
                f"co_attend: inputs {a.shape} / {b.shape} must both have width {self.d}"
            )
        if (a_rows is None) != (b_rows is None):
            raise ValueError("co_attend: give both a_rows and b_rows, or neither")
        segs_a = _segments(a.shape[0], a_rows, a_len)
        segs_b = _segments(b.shape[0], b_rows, b_len)
        if len(segs_a) != len(segs_b):
            raise ShapeError(
                f"co_attend: {len(segs_a)} samples in a but {len(segs_b)} in b"
            )
        qa, ka, va = (matmul(a, W) for W in (self.Wq, self.Wk, self.Wv))
        qb, kb, vb = (matmul(b, W) for W in (self.Wq, self.Wk, self.Wv))
        w_ab, w_ba = ([], []) if return_weights else (None, None)
        h, s, p = self.heads, self.scale, self.dropout_rate
        ctx_ab = attention_core(qa, kb, vb, h, s, segs_a, segs_b, p, rng, w_ab)
        ctx_ba = attention_core(qb, ka, va, h, s, segs_b, segs_a, p, rng, w_ba)
        out_ab = self._sublayers(a, ctx_ab, rng)
        out_ba = self._sublayers(b, ctx_ba, rng)
        if not return_weights:
            return out_ab, out_ba
        if a_rows is None:
            return out_ab, out_ba, w_ab[0], w_ba[0]
        return out_ab, out_ba, w_ab, w_ba

    def parameters(self) -> dict[str, Tensor]:
        return {
            "Wq": self.Wq,
            "Wk": self.Wk,
            "Wv": self.Wv,
            "ffn.W1": self.ffn_W1,
            "ffn.b1": self.ffn_b1,
            "ffn.W2": self.ffn_W2,
            "ffn.b2": self.ffn_b2,
            "norm1.gain": self.norm1_gain,
            "norm1.bias": self.norm1_bias,
            "norm2.gain": self.norm2_gain,
            "norm2.bias": self.norm2_bias,
        }


@dataclass
class FusionOutput:
    """12 aggregated context vectors + 4 aggregated stream vectors.

    Each is a vector for a single sample, or [B x w] for a packed batch.
    """

    contexts: list  # pairing order, (a->b, b->a) per pairing
    streams: list  # STREAM_ORDER

    def all_vectors(self) -> list:
        return self.contexts + self.streams

    def concatenated(self) -> Tensor:
        return concat(self.all_vectors(), axis=-1)


def _pool(x: Tensor, segs: tuple, mode: str = "mean") -> Tensor:
    """[B x w] summaries of the valid rows of each segment: mean, or mean|max|last."""
    if mode not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {mode!r}")
    averaging = np.zeros((len(segs), x.shape[0]), dtype=x.dtype)
    for i, (start, _, valid) in enumerate(segs):
        averaging[i, start : start + valid] = 1.0 / valid
    mean = matmul(Tensor.constant(averaging, dtype=x.dtype), x)
    if mode == "mean":
        return mean
    # The max routes its gradient to the first maximal row, per column.
    argmax = np.stack(
        [start + x.data[start : start + valid].argmax(axis=0) for start, _, valid in segs]
    )
    maxed = getitem(x, (argmax, np.arange(x.shape[1])))
    last = getitem(x, np.array([start + valid - 1 for start, _, valid in segs]))
    return concat([mean, maxed, last], axis=1)


def aggregate(x: Tensor, length: Optional[int] = None, mode: str = "mean") -> Tensor:
    """Collapse one sample's [seq x d] tensor (valid prefix `length`) to a vector."""
    summary = _pool(x, _segments(x.shape[0], length=length), mode)
    return reshape(summary, (summary.shape[1],))


class FusionStack:
    """The co-attention blocks for every pairing both streams provide."""

    def __init__(
        self,
        d: int,
        heads: int,
        ff_inner: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.1,
        full_width_scaling: bool = False,
        streams: Sequence[str] = STREAM_ORDER,
        aggregation: str = "mean",
        dtype=np.float32,
    ):
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}")
        self.d = d
        self.aggregation = aggregation
        self.streams = tuple(streams)
        self.pairings = tuple(
            (i, pair) for i, pair in enumerate(PAIRINGS)
            if pair[0] in self.streams and pair[1] in self.streams
        )
        self.blocks = {
            i: CoAttentionBlock(
                d, heads, ff_inner, rng, dropout_rate, full_width_scaling, dtype
            )
            for i, _ in self.pairings
        }

    def fuse(
        self,
        embedded: dict[str, Tensor],
        lengths: Optional[dict[str, int]] = None,
        rng: Optional[np.random.Generator] = None,
        rows: Optional[dict[str, Sequence[int]]] = None,
    ) -> FusionOutput:
        """Fuse one sample (optionally padded to `lengths`) or a packed batch.

        With rows (per stream, the row count of each packed sample) the
        outputs are [B x w]; without it they are vectors of one sample.
        Dropout draws from rng; without one it is off.
        """
        lengths = lengths or {}

        def summarize(x: Tensor, stream: str) -> Tensor:
            if rows:
                return _pool(x, _segments(x.shape[0], rows[stream]), self.aggregation)
            return aggregate(x, lengths.get(stream), self.aggregation)

        contexts = []
        for i, (sa, sb) in self.pairings:
            out_ab, out_ba = self.blocks[i].co_attend(
                embedded[sa],
                embedded[sb],
                a_len=lengths.get(sa),
                b_len=lengths.get(sb),
                rng=rng,
                a_rows=rows[sa] if rows else None,
                b_rows=rows[sb] if rows else None,
            )
            contexts.append(summarize(out_ab, sa))
            contexts.append(summarize(out_ba, sb))
        streams = [summarize(embedded[s], s) for s in STREAM_ORDER if s in self.streams]
        return FusionOutput(contexts=contexts, streams=streams)

    def vector_width(self) -> int:
        per = self.d if self.aggregation == "mean" else 3 * self.d
        return (2 * len(self.pairings) + len(self.streams)) * per

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, _ in self.pairings:
            for name, p in self.blocks[i].parameters().items():
                out[f"fusion.pair{i + 1}.{name}"] = p
        return out
