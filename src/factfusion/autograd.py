"""Dense tensors with reverse-mode automatic differentiation.

numpy-backed, rank <= 3, float32 by default. Gradient oracles (finite
differences) run the same graph in float64; pass dtype=np.float64 at
tensor/parameter creation for those runs.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Optional, Sequence, Union

import numpy as np

DEFAULT_DTYPE = np.float32
MAX_RANK = 3

Number = Union[int, float]


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class GraphError(RuntimeError):
    """Autograd contract violation (non-scalar backward, missing grad, ...)."""


_grad_enabled = True
# Active ReLU input-sign recorders; finite-difference checkers use these to
# detect kink crossings, where central differences are undefined.
_relu_taps: list[list] = []


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (eval / oracle forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def record_relu_signs(into: list):
    """Append the positivity mask of every relu input evaluated in the block."""
    _relu_taps.append(into)
    try:
        yield into
    finally:
        _relu_taps.remove(into)


class Tensor:
    """A dense array plus optional linkage into the backward graph.

    Constants (requires_grad=False, no parents) never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(data, dtype=None) -> "Tensor":
        return Tensor(data, requires_grad=False, dtype=dtype)

    @staticmethod
    def param(data, dtype=None) -> "Tensor":
        return Tensor(data, requires_grad=True, dtype=dtype)

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; accumulates into each leaf's .grad.

        Only leaves (parameters and inputs, the tensors without _backward)
        keep a gradient; interior nodes pass theirs on and keep grad None.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in flows:
                    flows[key] = flows[key] + pg
                else:
                    flows[key] = pg

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return add(_as_tensor(other, self.dtype), -self)

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / other)
        return mul(self, power(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self, None)


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _tracked(parents: tuple) -> bool:
    """Whether an op on these parents joins the backward graph."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(out_data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    out = Tensor(out_data)
    if _tracked(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the pre-broadcast shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}")

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}")

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), backward)


def scale(x: Tensor, s: Number) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * s,)

    return _make(x.data * s, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D or batch-matched 3-D matrix product."""
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul: shape mismatch {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        gb = a.data.swapaxes(-1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backward)


def power(x: Tensor, p: Number) -> Tensor:
    p = float(p)
    out = x.data**p

    def backward(g):
        return (g * p * x.data ** (p - 1.0),)

    return _make(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward(g):
        return (g * out,)

    return _make(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    out = np.log(x.data)

    def backward(g):
        return (g / x.data,)

    return _make(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def backward(g):
        return (g * 0.5 / out,)

    return _make(out, (x,), backward)


def clamp(x: Tensor, lo: Optional[Number] = None, hi: Optional[Number] = None) -> Tensor:
    out = np.clip(x.data, lo, hi)
    inside = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        inside &= x.data >= lo
    if hi is not None:
        inside &= x.data <= hi

    def backward(g):
        return (g * inside,)

    return _make(out, (x,), backward)


# -- nonlinearities -----------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at exactly 0 is 0
    if _relu_taps:
        for tap in _relu_taps:
            tap.append(mask)
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return _make(out, (x,), backward)


def _softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def _softmax_backward(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return out * (g - np.sum(g * out, axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if axis >= x.ndim or axis < -x.ndim:
        raise ShapeError(f"softmax: axis {axis} out of bounds for shape {x.shape}")
    out = _softmax_forward(x.data, axis)

    def backward(g):
        return (_softmax_backward(out, g, axis),)

    return _make(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match last axis {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        gxhat = g * gain.data
        gx = inv * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _make(out, (x, gain, bias), backward)


def _keep_mask(
    shape: tuple, dtype, p: float, rng: Optional[np.random.Generator]
) -> Optional[np.ndarray]:
    """Inverted-dropout multiplier drawn from rng; None when dropout is the identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0 or rng is None:
        return None
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout drawn from rng; the identity when p == 0 or rng is None.

    The generator is the dropout mode: training passes its seeded generator,
    inference passes none, so every mask comes from an explicitly seeded rng.
    """
    keep = _keep_mask(x.shape, x.dtype, p, rng)
    if keep is None:
        return x

    def backward(g):
        return (g * keep,)

    return _make(x.data * keep, (x,), backward)


# attention_core pads a run of consecutive segments into one
# [segments·H × longest query × longest key] score block while that block
# holds at most PACK_BUDGET entries. Small blocks are bound by numpy's
# per-call cost, so one call per run beats one per segment even though the
# padding adds area; large blocks are bound by arithmetic, where the padding
# costs time. Timed forward and backward on 24 sorted 4-10-row segments at
# 4 heads, and forward on 24 unsorted 16-40-row segments at 8 heads (2-vCPU
# x86_64, one BLAS thread, best of 15), the budgets 1 / 4096 / 8192 / 16384
# gave 1.84 / 1.51 / 1.46 / 1.08 ms and 2.37 / 2.35 / 2.24 / 3.21 ms.
# 4096 and 8192 are alike; 16384 gains on small samples but costs wider
# ones 40% more. At 8192 two samples at 8 heads share a block only if
# their longest query × longest key is at most 512 (16 × 32, say): in the
# eval-wide benchmark's 16-128-row splits of seeds 101-112, 4 of 14,400
# runs held two samples, and every other sample ran alone.
PACK_BUDGET = 8192


def _runs(query_segs: Sequence[tuple], key_segs: Sequence[tuple], heads: int) -> list:
    """[first, stop) index ranges of the segments that attention_core pads
    into one score block, in order.

    A run grows while each segment's rows follow on from the previous
    segment's and the padded block, heads × segments × longest query ×
    longest key, stays within PACK_BUDGET; a segment too big to share a
    block runs alone.
    """
    runs, first, lq, lk = [], 0, 0, 0
    for i, ((qs, qe, _), (ks, ke, _)) in enumerate(zip(query_segs, key_segs)):
        lq, lk = max(lq, qe - qs), max(lk, ke - ks)
        if i > first and (
            qs != query_segs[i - 1][1] or ks != key_segs[i - 1][1]
            or heads * (i + 1 - first) * lq * lk > PACK_BUDGET
        ):
            runs.append((first, i))
            first, lq, lk = i, qe - qs, ke - ks
    return runs + [(first, len(query_segs))] if query_segs else runs


def _row_mask(segs: Sequence[tuple]) -> np.ndarray:
    """[segments × longest] mask of the rows each (start, stop, valid) spans."""
    lengths = np.array([stop - start for start, stop, _ in segs])
    return np.arange(lengths.max()) < lengths[:, None]


def attention_core(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    heads: int,
    scale: Number,
    query_segs: Sequence[tuple],
    key_segs: Sequence[tuple],
    p: float,
    rng: Optional[np.random.Generator],
    weights: Optional[list] = None,
) -> Tensor:
    """Segment-wise multi-head attention over packed rows, as one graph node.

    queries [Σq × d], keys and values [Σk × d] hold the rows of several
    samples. The core owns the head layout: it splits the rows into `heads`
    heads [H × rows × d/H], scales the queries by `scale` and merges the
    result back into [Σq × d]. Segment i is a (start, stop, valid) row range:
    query rows qs:qe attend to key rows ks:ke through softmax(q·kᵀ), key rows
    past ks + valid getting exactly zero weight, then inverted dropout (drawn
    from rng; none without one), then ·v.

    The segments are cut, in order, into runs (see _runs and PACK_BUDGET).
    A run of several segments is gathered through boolean row masks into one
    zero-padded [n·H × Lq × e] batch, segment-major, whose padded and invalid
    keys get a −inf additive mask. It then takes one matmul, one softmax and
    one matmul each way, forward and backward, and is scattered back; the
    padding changes only the order in which floats are summed. A run of one
    segment is computed on that segment's slices with the reshape,
    transpose, scale, matmul, softmax and dropout rules in that
    composition's order. The dropout mask of the whole call is one
    rng.random(Σ H·q·k) draw, laid out segment after segment as per-segment
    [H × q × k] draws would be. Each segment's [H × q × k] pre-dropout
    weights are appended to `weights` if it is a list.
    """
    if (queries.ndim != 2 or queries.shape[1:] != keys.shape[1:]
            or keys.shape != values.shape or keys.shape[1] % heads
            or len(query_segs) != len(key_segs)):
        raise ShapeError(
            f"attention_core: queries {queries.shape}, keys {keys.shape} and values "
            f"{values.shape} do not fit [q,d] / [k,d] / [k,d], d a multiple of {heads}, "
            f"or {len(query_segs)} query segments meet {len(key_segs)} key segments"
        )
    (n_q, d), e, s = queries.shape, queries.shape[1] // heads, float(scale)

    def split(x: np.ndarray) -> np.ndarray:
        return np.transpose(x.reshape((x.shape[0], heads, e)), (1, 0, 2))

    def merge(x: np.ndarray) -> np.ndarray:
        return np.transpose(x, (1, 0, 2)).reshape((x.shape[1], d))

    def gather(x: np.ndarray, span: tuple, rows: Optional[np.ndarray]) -> np.ndarray:
        """x[:, span] for one segment, or its rows zero-padded into
        [n·H × L × w] by the [n × L] mask of each segment's rows."""
        x = x[:, span[0] : span[1]]
        if rows is None:
            return x
        padded = np.zeros((rows.shape[0], heads, rows.shape[1], x.shape[2]), x.dtype)
        padded.transpose(1, 0, 2, 3)[:, rows] = x
        return padded.reshape((-1,) + padded.shape[2:])

    def scatter(into: np.ndarray, span: tuple, x: np.ndarray, rows: Optional[np.ndarray]) -> None:
        """Write what gather(·, span, rows) read back into `into`."""
        if rows is not None:
            x = x.reshape((rows.shape[0], heads) + x.shape[1:])
            x = x.transpose(1, 0, 2, 3)[:, rows]
        into[:, span[0] : span[1]] = x

    q, k, v = split(queries.data) * s, split(keys.data), split(values.data)
    parents = (queries, keys, values)
    tracked = _tracked(parents)
    out = np.zeros((heads, n_q, e), dtype=np.result_type(q, k, v))
    offsets = [0, *itertools.accumulate(
        heads * (qe - qs) * (ke - ks)
        for (qs, qe, _), (ks, ke, _) in zip(query_segs, key_segs)
    )]
    keep_all = _keep_mask((offsets[-1],), np.result_type(q, k), p, rng)
    saved = []  # per run: row spans, row masks, weights and keep mask
    for first, stop in _runs(query_segs, key_segs, heads):
        q_segs, k_segs = query_segs[first:stop], key_segs[first:stop]
        q_span, k_span = (q_segs[0][0], q_segs[-1][1]), (k_segs[0][0], k_segs[-1][1])
        q_rows = k_rows = None
        if stop - first > 1:
            q_rows, k_rows = _row_mask(q_segs), _row_mask(k_segs)
        bq = gather(q, q_span, q_rows)
        bk, bv = gather(k, k_span, k_rows), gather(v, k_span, k_rows)
        scores = bq @ bk.swapaxes(-1, -2)
        if k_rows is None:
            scores[..., k_segs[0][2]:] = -np.inf
        else:
            valid = np.array([seg[2] for seg in k_segs])[:, None]
            key_mask = np.where(np.arange(k_rows.shape[1]) < valid, 0.0, -np.inf)
            scores += np.repeat(key_mask.astype(scores.dtype), heads, axis=0)[:, None]
        w = _softmax_forward(scores, -1)
        keep = None if keep_all is None else keep_all[offsets[first] : offsets[stop]]
        if keep is not None:
            if q_rows is not None:
                # Segment-major order: the draws fill each segment's
                # [H × q × k] block in turn, as per-segment draws would.
                region = (q_rows[:, :, None] & k_rows[:, None, :])[:, None]
                region = np.repeat(region, heads, axis=1)
                placed = np.zeros(region.shape, keep.dtype)
                placed[region] = keep
                keep = placed
            keep = keep.reshape(w.shape)
        dropped = w if keep is None else w * keep
        scatter(out, q_span, dropped @ bv, q_rows)
        if tracked:
            saved.append((q_span, k_span, q_rows, k_rows, w, keep))
        if weights is not None:
            blocks = w.reshape((stop - first, heads) + w.shape[1:])
            weights.extend(
                Tensor(block[:, : qe - qs, : ke - ks])
                for block, (qs, qe, _), (ks, ke, _) in zip(blocks, q_segs, k_segs)
            )

    def backward(g):
        g = split(g)
        gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for q_span, k_span, q_rows, k_rows, w, keep in saved:
            # Gathered again rather than kept: a step holds every direction's
            # padded blocks at once, and a gather costs less than its memory.
            bq, bg = gather(q, q_span, q_rows), gather(g, q_span, q_rows)
            bk, bv = gather(k, k_span, k_rows), gather(v, k_span, k_rows)
            dropped = w if keep is None else w * keep
            scatter(gv, k_span, dropped.swapaxes(-1, -2) @ bg, k_rows)
            gw = bg @ bv.swapaxes(-1, -2)
            if keep is not None:
                gw *= keep
            # The softmax rule of _softmax_backward, computed in gw.
            gw -= np.sum(gw * w, axis=-1, keepdims=True)
            gw *= w
            scatter(gq, q_span, gw @ bk, q_rows)
            scatter(gk, k_span, (bq.swapaxes(-1, -2) @ gw).swapaxes(-1, -2), k_rows)
        return merge(gq * s), merge(gk), merge(gv)

    return _make(merge(out), parents, backward)


# -- shape and reduction ops --------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)
    if out.ndim > MAX_RANK:
        raise ShapeError(f"reshape to rank {out.ndim} exceeds maximum {MAX_RANK}")

    def backward(g):
        return (g.reshape(x.data.shape),)

    return _make(out, (x,), backward)


def transpose(x: Tensor, axes=None) -> Tensor:
    out = np.transpose(x.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return _make(out, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}"
        )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), backward)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make(np.asarray(out), (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.mean(axis=axis, keepdims=keepdims)
    n = x.data.size if axis is None else x.data.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape) / n,)

    return _make(np.asarray(out), (x,), backward)


def tensor_max(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first max per slice."""
    out = x.data.max(axis=axis, keepdims=keepdims)
    idx = x.data.argmax(axis=axis)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), g, axis=axis)
        return (gx,)

    return _make(np.asarray(out), (x,), backward)


def getitem(x: Tensor, idx) -> Tensor:
    out = x.data[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        # add.at, not assignment: an index array may repeat an element.
        np.add.at(gx, idx, g)
        return (gx,)

    return _make(np.asarray(out), (x,), backward)
