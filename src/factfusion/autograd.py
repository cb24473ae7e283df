"""Dense tensors with reverse-mode automatic differentiation.

numpy-backed, rank <= 3, float32 by default. Gradient oracles (finite
differences) run the same graph in float64; pass dtype=np.float64 at
tensor/parameter creation for those runs.
"""

from __future__ import annotations

import contextlib
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


def _softmax_forward(
    x: np.ndarray, axis: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Softmax of x along axis, written into out (x itself may be out).

    The row max is fmax.reduce, which is faster than np.max on score blocks
    and gives the same softmax bits: its max differs only in the sign of a
    zero, and exp(±0) = 1, or on a row holding a NaN, which comes out all
    NaN either way.
    """
    e = np.subtract(x, np.fmax.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def _softmax_backward(
    y: np.ndarray, g: np.ndarray, axis: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Gradient through softmax output y for upstream g, y · (g − Σ g·y),
    written into out (g itself may be out)."""
    out = np.subtract(g, np.sum(g * y, axis=axis, keepdims=True), out=out)
    out *= y
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if axis >= x.ndim or axis < -x.ndim:
        raise ShapeError(f"softmax: axis {axis} out of bounds for shape {x.shape}")
    out = _softmax_forward(x.data, axis)

    def backward(g):
        return (_softmax_backward(out, g, axis),)

    return _make(out, (x,), backward)


def _affine(xhat: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    """xhat · gain + bias, the last two ops of a layer norm."""
    out = xhat * gain.data
    out += bias.data
    return out


def _normalized(op: str, x: np.ndarray, gain: Tensor, bias: Tensor, eps: float) -> tuple:
    """Layer norm of array x over its last axis, affine by gain and bias, as
    (output, xhat, backward). Backward maps the output's gradient to those
    of x, gain and bias and keeps only xhat and 1/σ, not x; the output is
    _affine(xhat, gain, bias)."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"{op}: gain/bias {gain.shape}/{bias.shape} do not match last axis {d}"
        )
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = _affine(xhat, gain, bias)

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

    return out, xhat, backward


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out, _, backward = _normalized("layer_norm", x.data, gain, bias, eps)
    return _make(out, (x, gain, bias), backward)


def _keep_mask(
    shape: tuple, dtype, p: float, rng: Optional[np.random.Generator]
) -> Optional[tuple]:
    """Inverted dropout drawn from rng as (boolean keep mask, 1 / (1 − p) in
    dtype); None when dropout is the identity.

    x is dropped as (x * scale) * mask. Multiplying by 0 keeps the sign, so
    that equals x times a float mask of 0 and scale bit for bit, at a
    quarter of a float32 mask's bytes.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0 or rng is None:
        return None
    cast = np.dtype(dtype).type
    return rng.random(shape) >= p, cast(1.0) / cast(1.0 - p)


def _drop(x: np.ndarray, drawn: tuple, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x dropped by a _keep_mask draw, (x * scale) * mask, written into out."""
    keep, s = drawn
    out = np.multiply(x, s, out=out)
    out *= keep
    return out


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout drawn from rng; the identity when p == 0 or rng is None.

    The generator is the dropout mode: training passes its seeded generator,
    inference passes none, so every mask comes from an explicitly seeded rng.
    """
    drawn = _keep_mask(x.shape, x.dtype, p, rng)
    if drawn is None:
        return x

    def backward(g):
        return (_drop(g, drawn),)

    return _make(_drop(x.data, drawn), (x,), backward)


def _feed_forward(
    op: str,
    x: np.ndarray,
    W1: Tensor,
    b1: Tensor,
    W2: Tensor,
    b2: Tensor,
    p: float,
    rng: Optional[np.random.Generator],
) -> tuple:
    """dropout(dropout(relu(x·W1 + b1))·W2 + b2) of [rows × d] array x, as
    (output, backward).

    backward(g, x, x_grad) maps the output's gradient to those of x (None
    unless x_grad), W1, b1, W2 and b2. It is handed the input x again for
    W1's gradient and keeps only the dropped hidden rows, one hidden mask
    (the ReLU mask, and in training the first keep mask with it) and the
    output keep mask.
    """
    if (x.ndim != 2 or b1.ndim != 1 or b2.ndim != 1
            or W1.shape != (x.shape[1], b1.shape[0])
            or W2.shape != (b1.shape[0], b2.shape[0])):
        raise ShapeError(
            f"{op}: x {x.shape}, W1 {W1.shape}, b1 {b1.shape}, W2 {W2.shape} "
            f"and b2 {b2.shape} do not fit [n,d]·[d,m] + [m], [m,o] + [o]"
        )
    h = x @ W1.data
    h += b1.data
    active = h > 0  # subgradient at exactly 0 is 0
    for tap in _relu_taps:
        tap.append(active)
    h *= active
    # Backward multiplies the hidden gradient by 1 / (1 − p), if dropped, and
    # by one mask: (g·s)·keep·active equals (g·s)·(keep & active) bit for
    # bit, the sign of every zero included.
    mask, s_h = active, None
    drawn_h = _keep_mask(h.shape, h.dtype, p, rng)
    if drawn_h is not None:
        _drop(h, drawn_h, out=h)
        keep, s_h = drawn_h
        mask = np.logical_and(keep, active, out=keep)
    out = h @ W2.data
    out += b2.data
    drawn_out = _keep_mask(out.shape, out.dtype, p, rng)
    if drawn_out is not None:
        _drop(out, drawn_out, out=out)

    def backward(g, x, x_grad):
        if drawn_out is not None:
            g = _drop(g, drawn_out)
        gW2 = h.T @ g if W2.requires_grad else None
        gh = g @ W2.data.T
        if s_h is not None:
            gh *= s_h
        gh *= mask
        gx = gh @ W1.data.T if x_grad else None
        gW1 = x.T @ gh if W1.requires_grad else None
        return gx, gW1, _unbroadcast(gh, b1.shape), gW2, _unbroadcast(g, b2.shape)

    return out, backward


def feed_forward(
    x: Tensor,
    W1: Tensor,
    b1: Tensor,
    W2: Tensor,
    b2: Tensor,
    p: float,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """dropout(dropout(relu(x·W1 + b1))·W2 + b2) on [rows × d] x, as one node.

    The arithmetic and the two dropout draws, in order, are those of the
    composed matmul/add/relu/dropout ops; the ReLU mask goes to the
    record_relu_signs taps as relu's does. Backward keeps what
    _feed_forward's does, not the pre-activation and output intermediates
    that the composed ops hold.
    """
    out, ffn = _feed_forward("feed_forward", x.data, W1, b1, W2, b2, p, rng)

    def backward(g):
        return ffn(g, x.data, x.requires_grad)

    return _make(out, (x, W1, b1, W2, b2), backward)


def residual_feed_forward(
    x: Tensor,
    r: Tensor,
    gain1: Tensor,
    bias1: Tensor,
    W1: Tensor,
    b1: Tensor,
    W2: Tensor,
    b2: Tensor,
    gain2: Tensor,
    bias2: Tensor,
    p: float,
    rng: Optional[np.random.Generator] = None,
    eps: float = 1e-6,
) -> Tensor:
    """layer_norm(f + z) for z = layer_norm(x + r) and f = feed_forward(z),
    as one node: the sublayers that follow attention, for a residual r of
    x's shape. The first norm is affine by gain1 and bias1, the second by
    gain2 and bias2.

    The arithmetic, the ReLU taps and the two dropout draws, in order, are
    those of the composed add/layer_norm/feed_forward ops, bit for bit, and
    x and r both receive the gradient that add would pass them. Backward
    keeps both norms' xhat and 1/σ and what _feed_forward's keeps, but
    neither residual sum, z nor f: it recomputes z from the first norm's
    xhat with forward's _affine.
    """
    op = "residual_feed_forward"
    if r.shape != x.shape or b2.shape != x.shape[-1:]:
        raise ShapeError(
            f"{op}: residual {r.shape} and output width {b2.shape} do not match {x.shape}"
        )
    z, xhat1, norm1 = _normalized(op, x.data + r.data, gain1, bias1, eps)
    f, ffn = _feed_forward(op, z, W1, b1, W2, b2, p, rng)
    f += z
    out, _, norm2 = _normalized(op, f, gain2, bias2, eps)

    def backward(g):
        gf, ggain2, gbias2 = norm2(g)
        gz, gW1, gb1, gW2, gb2 = ffn(gf, _affine(xhat1, gain1, bias1), True)
        gz += gf
        gx, ggain1, gbias1 = norm1(gz)
        return gx, gx, ggain1, gbias1, gW1, gb1, gW2, gb2, ggain2, gbias2

    return _make(out, (x, r, gain1, bias1, W1, b1, W2, b2, gain2, bias2), backward)


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
# The same bound decides what a training graph holds: a block within it
# keeps its softmax weights for backward, and a larger one (a segment that
# runs alone) recomputes them there, since its size, not per-call cost,
# is what it spends. Timed as interleaved training steps in one process
# (same host), recomputing every block made a step on 24 samples of 4-10
# rows at 4 heads, where no block is over budget, 9% slower; a step on 5
# samples of 93-128 rows at 8 heads, where every block is, takes 5% longer
# than with its weights kept.
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
    samples, each row its `heads` heads of width d/H side by side. The core
    reads and writes that row layout itself, and its output and gradients
    are [rows × d]. It scales each run's gathered queries by `scale`, in
    forward and again in backward, so no scaled copy of all the queries is
    kept. Segment i is a (start, stop, valid) row range: query rows qs:qe
    attend to key rows ks:ke through softmax(q·kᵀ), key rows past
    ks + valid getting exactly zero weight, then inverted dropout (drawn
    from rng; none without one), then ·v.

    The segments are cut, in order, into runs (see _runs and PACK_BUDGET).
    Every run is one [n·H × Lq × Lk] score block, segment-major, that takes
    one matmul, one softmax and one matmul each way, forward and backward.
    A run of several segments is gathered through boolean row masks into a
    zero-padded [n·H × L × e] batch and scattered back; the padding changes
    only the order in which floats are summed. A run of one segment reads
    and writes its rows through [H × L × e] views, unpadded. In every run,
    each segment's keys from `valid` on, padded ones included, are set to
    −inf before the softmax. Each run draws its own dropout mask in its
    score block's shape, as dropout would on those weights, so a run of one
    draws what a per-segment dropout would and a packed run also draws for
    its padding, whose weights are zero or whose rows are dropped. Each
    segment's [H × q × k] pre-dropout weights are appended to `weights` if
    it is a list.

    Backward keeps each run's keep draw but no gathered block: it gathers
    and scales Q/K/V again. A run whose score block holds at most
    PACK_BUDGET entries also keeps its softmax weights; a larger one keeps
    none and recomputes them from the gathered blocks, through the same
    helper as forward, so its gradients are those of the held weights.
    """
    if (queries.ndim != 2 or queries.shape[1:] != keys.shape[1:]
            or keys.shape != values.shape or keys.shape[1] % heads
            or len(query_segs) != len(key_segs)):
        raise ShapeError(
            f"attention_core: queries {queries.shape}, keys {keys.shape} and values "
            f"{values.shape} do not fit [q,d] / [k,d] / [k,d], d a multiple of {heads}, "
            f"or {len(query_segs)} query segments meet {len(key_segs)} key segments"
        )
    e, s = queries.shape[1] // heads, float(scale)

    def gather(x: np.ndarray, span: tuple, rows: Optional[np.ndarray]) -> np.ndarray:
        """x[span]'s rows as [H × L × e] heads for one segment, or zero-padded
        into [n·H × L × e] by the [n × L] mask of each segment's rows."""
        x = x[span[0] : span[1]].reshape((-1, heads, e))
        if rows is None:
            return x.transpose(1, 0, 2)
        padded = np.zeros((rows.shape[0], heads, rows.shape[1], e), x.dtype)
        padded.transpose(0, 2, 1, 3)[rows] = x
        return padded.reshape((-1,) + padded.shape[2:])

    def scatter(into: np.ndarray, span: tuple, x: np.ndarray, rows: Optional[np.ndarray]) -> None:
        """Write what gather(·, span, rows) read back into `into`'s rows."""
        if rows is None:
            x = x.transpose(1, 0, 2)
        else:
            x = x.reshape((rows.shape[0], heads) + x.shape[1:]).transpose(0, 2, 1, 3)[rows]
        into[span[0] : span[1]].reshape((-1, heads, e))[...] = x

    def softmaxed(bq: np.ndarray, bk: np.ndarray, k_segs: Sequence[tuple]) -> np.ndarray:
        """A run's pre-dropout weights from its gathered, scaled queries and
        its keys, each segment's keys from `valid` on at −inf."""
        scores = bq @ bk.swapaxes(-1, -2)
        for i, (_, _, valid) in enumerate(k_segs):
            scores[i * heads : (i + 1) * heads, :, valid:] = -np.inf
        return _softmax_forward(scores, -1, out=scores)

    q, k, v = queries.data, keys.data, values.data
    parents = (queries, keys, values)
    tracked = _tracked(parents)
    out = np.zeros(q.shape, dtype=np.result_type(q, k, v))
    saved = []  # per run: row spans, row masks, key segments, weights and keep draw
    for first, stop in _runs(query_segs, key_segs, heads):
        q_segs, k_segs = query_segs[first:stop], key_segs[first:stop]
        q_span, k_span = (q_segs[0][0], q_segs[-1][1]), (k_segs[0][0], k_segs[-1][1])
        q_rows = k_rows = None
        if stop - first > 1:
            q_rows, k_rows = _row_mask(q_segs), _row_mask(k_segs)
        bq = gather(q, q_span, q_rows) * s
        bk, bv = gather(k, k_span, k_rows), gather(v, k_span, k_rows)
        w = softmaxed(bq, bk, k_segs)
        keep = _keep_mask(w.shape, w.dtype, p, rng)
        dropped = w if keep is None else _drop(w, keep)
        scatter(out, q_span, dropped @ bv, q_rows)
        if tracked:
            held = w if w.size <= PACK_BUDGET else None
            saved.append((q_span, k_span, q_rows, k_rows, k_segs, held, keep))
        if weights is not None:
            blocks = w.reshape((stop - first, heads) + w.shape[1:])
            weights.extend(
                Tensor(block[:, : qe - qs, : ke - ks])
                for block, (qs, qe, _), (ks, ke, _) in zip(blocks, q_segs, k_segs)
            )

    def backward(g):
        # C order, as out is, so that scatter's row views write through.
        gq, gk, gv = (np.zeros(x.shape, x.dtype) for x in (q, k, v))
        for q_span, k_span, q_rows, k_rows, k_segs, w, keep in saved:
            # Gathered and scaled again rather than kept: a step holds every
            # direction's blocks at once, and a gather costs less than its
            # memory. The scaled products are forward's, bit for bit, and so
            # are the weights of an over-budget block recomputed from them.
            bq, bg = gather(q, q_span, q_rows) * s, gather(g, q_span, q_rows)
            bk, bv = gather(k, k_span, k_rows), gather(v, k_span, k_rows)
            if w is None:
                w = softmaxed(bq, bk, k_segs)
            dropped = w if keep is None else _drop(w, keep)
            scatter(gv, k_span, dropped.swapaxes(-1, -2) @ bg, k_rows)
            gw = bg @ bv.swapaxes(-1, -2)
            if keep is not None:
                _drop(gw, keep, out=gw)
            _softmax_backward(w, gw, -1, out=gw)
            scatter(gq, q_span, gw @ bk, q_rows)
            scatter(gk, k_span, (bq.swapaxes(-1, -2) @ gw).swapaxes(-1, -2), k_rows)
        gq *= s
        return gq, gk, gv

    return _make(out, parents, backward)


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
