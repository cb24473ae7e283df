"""Tensor library: forward values against numpy, gradients against finite
differences, and the graph-contract edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfusion.autograd import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    attention_core,
    clamp,
    concat,
    dropout,
    exp,
    getitem,
    layer_norm,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    power,
    record_relu_signs,
    relu,
    reshape,
    scale,
    softmax,
    sqrt,
    tensor_max,
    tensor_sum,
    transpose,
)
from factfusion.gradcheck import check_gradients

# softmax([1, 2, 3]) recomputed at 50 digits and frozen.
SOFTMAX_123 = (
    0.090030573170380457998,
    0.24472847105479765247,
    0.66524095577482188953,
)


def param(rng, *shape):
    return Tensor.param(rng.standard_normal(shape), dtype=np.float64)


class TestForwardValues:
    def test_add_broadcasts_like_numpy(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        out = add(Tensor.constant(a), Tensor.constant(b))
        np.testing.assert_array_equal(out.data, (a + b).astype(np.float64))

    def test_matmul_matches_numpy(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        out = matmul(Tensor.constant(a), Tensor.constant(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-6)

    def test_batched_matmul(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        out = matmul(Tensor.constant(a), Tensor.constant(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-6)

    def test_matmul_shape_error_names_both_shapes(self, rng):
        a = Tensor.constant(rng.standard_normal((3, 4)))
        b = Tensor.constant(rng.standard_normal((5, 6)))
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 6\)"):
            matmul(a, b)

    def test_softmax_frozen_values(self):
        out = softmax(Tensor.constant([1.0, 2.0, 3.0], dtype=np.float64), axis=-1)
        np.testing.assert_allclose(out.data, SOFTMAX_123, atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor.constant(rng.standard_normal((6, 9)) * 30)
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((4, 5))
        a = softmax(Tensor.constant(x, dtype=np.float64), axis=-1)
        b = softmax(Tensor.constant(x + 123.0, dtype=np.float64), axis=-1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_relu_zero_and_negative(self):
        out = relu(Tensor.constant([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_layer_norm_statistics(self, rng):
        x = Tensor.constant(rng.standard_normal((5, 16)), dtype=np.float64)
        gain = Tensor.constant(np.ones(16))
        bias = Tensor.constant(np.zeros(16))
        out = layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(5), atol=1e-4)

    def test_clamp_limits(self):
        out = clamp(Tensor.constant([-5.0, 0.5, 5.0]), lo=0.0, hi=1.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])

    def test_max_reduces_along_axis(self, rng):
        x = rng.standard_normal((4, 7))
        out = tensor_max(Tensor.constant(x), axis=0)
        np.testing.assert_array_equal(out.data, x.max(axis=0))

    def test_mean_axis0_hand_case(self):
        out = mean(Tensor.constant([[2.0, 4.0], [6.0, 8.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_rank_limit_enforced(self):
        with pytest.raises(ShapeError):
            Tensor.constant(np.zeros((2, 2, 2, 2)))

    def test_default_dtype_is_float32(self):
        assert Tensor.constant([1, 2, 3]).dtype == np.float32


class TestBackward:
    def test_backward_requires_scalar(self, rng):
        x = param(rng, 3)
        with pytest.raises(GraphError, match="scalar"):
            (x * 2.0).backward()

    def test_grad_accumulates_across_backward_calls(self, rng):
        x = param(rng, 4)
        loss = tensor_sum(x * x)
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_allclose(x.grad, 2.0 * first, atol=1e-12)

    def test_no_grad_builds_no_graph(self, rng):
        x = param(rng, 3)
        with no_grad():
            out = tensor_sum(x * x)
        assert out._parents == ()
        out.backward()  # detached scalar: sweep finds nothing to update
        assert x.grad is None

    def test_constant_gets_no_grad(self, rng):
        c = Tensor.constant(rng.standard_normal(3), dtype=np.float64)
        x = param(rng, 3)
        tensor_sum(x * c).backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, c.data)

    def test_only_leaves_keep_gradients(self, rng):
        x = param(rng, 3)
        w = param(rng, 3)
        hidden = mul(x, w)
        loss = tensor_sum(mul(hidden, hidden))
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * x.data * w.data**2, atol=1e-12)
        np.testing.assert_allclose(w.grad, 2.0 * w.data * x.data**2, atol=1e-12)

    def test_shared_node_fan_out(self, rng):
        x = param(rng, 3)
        y = add(x, x)
        tensor_sum(y).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))

    def test_broadcast_gradient_reduces(self, rng):
        x = param(rng, 4)  # broadcast over rows
        y = Tensor.constant(rng.standard_normal((3, 4)), dtype=np.float64)
        tensor_sum(add(x, y)).backward()
        np.testing.assert_allclose(x.grad, np.full(4, 3.0))

    def test_getitem_scatter(self, rng):
        x = param(rng, 5)
        tensor_sum(getitem(x, np.array([0, 0, 2]))).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_relu_subgradient_zero_at_kink(self):
        x = Tensor.param(np.array([0.0, -1.0, 2.0]), dtype=np.float64)
        tensor_sum(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestFiniteDifferences:
    """Per-operation gradient checks against central differences."""

    def test_elementwise_chain(self, rng):
        x = Tensor.param(rng.uniform(0.5, 2.0, size=(3, 4)), dtype=np.float64)

        def fn():
            return tensor_sum(exp(log(sqrt(x)) * 0.5) * x)

        check_gradients(fn, {"x": x})

    def test_power_clamp_chain(self, rng):
        x = Tensor.param(rng.uniform(0.1, 0.9, size=6), dtype=np.float64)

        def fn():
            return tensor_sum(power(clamp(x, lo=0.2, hi=0.8), 3.0))

        check_gradients(fn, {"x": x})

    def test_matmul_2d_and_3d(self, rng):
        a = param(rng, 3, 4)
        b = param(rng, 4, 5)
        c = param(rng, 2, 5, 3)
        d = param(rng, 2, 3, 4)

        def fn():
            return tensor_sum(matmul(a, b)) + tensor_sum(matmul(c, d))

        check_gradients(fn, {"a": a, "b": b, "c": c, "d": d})

    def test_softmax_gradient(self, rng):
        x = param(rng, 4, 6)
        w = Tensor.constant(rng.standard_normal((4, 6)), dtype=np.float64)

        def fn():
            return tensor_sum(softmax(x, axis=-1) * w)

        check_gradients(fn, {"x": x})

    def test_layer_norm_gradient(self, rng):
        x = param(rng, 5, 8)
        gain = Tensor.param(rng.uniform(0.5, 1.5, size=8), dtype=np.float64)
        bias = param(rng, 8)
        w = Tensor.constant(rng.standard_normal((5, 8)), dtype=np.float64)

        def fn():
            return tensor_sum(layer_norm(x, gain, bias) * w)

        check_gradients(fn, {"x": x, "gain": gain, "bias": bias})

    def test_relu_gradient_with_kink_guard(self, rng):
        x = param(rng, 4, 4)

        def fn():
            return tensor_sum(relu(x))

        check_gradients(fn, {"x": x})

    def test_reductions_and_reshapes(self, rng):
        x = param(rng, 2, 3, 4)

        def fn():
            flat = reshape(x, (6, 4))
            t = transpose(flat, (1, 0))
            return mean(t) + tensor_sum(tensor_max(flat, axis=0)) + mean(flat[2])

        check_gradients(fn, {"x": x})

    def test_concat_and_stack(self, rng):
        a = param(rng, 2, 3)
        b = param(rng, 1, 3)

        def fn():
            rows = concat([a, b], axis=0)
            return tensor_sum(concat([rows, rows], axis=1))

        check_gradients(fn, {"a": a, "b": b})


class TestDropout:
    def test_identity_when_eval_or_zero(self, rng):
        x = Tensor.constant(rng.standard_normal((4, 4)))
        assert dropout(x, 0.5) is x
        assert dropout(x, 0.0, rng=rng) is x

    def test_inverted_scaling(self):
        x = Tensor.constant(np.ones((200, 50)))
        out = dropout(x, 0.25, rng=np.random.default_rng(3))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)
        assert 0.70 < kept.size / out.data.size < 0.80

    def test_seeded_reproducibility(self):
        x = Tensor.constant(np.ones((8, 8)))
        a = dropout(x, 0.5, rng=np.random.default_rng(7))
        b = dropout(x, 0.5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_masks_match_forward(self, rng):
        x = Tensor.param(rng.standard_normal((5, 5)), dtype=np.float64)
        out = dropout(x, 0.4, rng=np.random.default_rng(11))
        tensor_sum(out).backward()
        mask = out.data != 0
        np.testing.assert_allclose(x.grad[mask], 1.0 / 0.6, rtol=1e-6)
        assert (x.grad[~mask] == 0).all()


def packed_segments(rows, valid=None):
    """(start, stop, valid) per segment of rows packed end to end."""
    stops = np.cumsum(rows)
    valid = rows if valid is None else valid
    return tuple((int(e - r), int(e), int(v)) for r, e, v in zip(rows, stops, valid))


def attention_reference(
    queries, keys, values, heads, factor, query_segs, key_segs, p, rng
):
    """attention_core composed from primitive ops: a head split, one small
    graph per segment, and a head merge."""

    def split(x):
        n, d = x.shape
        return transpose(reshape(x, (n, heads, d // heads)), (1, 0, 2))

    q = scale(split(queries), factor)
    k_t = transpose(split(keys), (0, 2, 1))
    v = split(values)
    contexts = []
    for (qs, qe, _), (ks, ke, valid) in zip(query_segs, key_segs):
        scores = matmul(getitem(q, (slice(None), slice(qs, qe))),
                        getitem(k_t, (slice(None), slice(None), slice(ks, ke))))
        if valid < ke - ks:
            mask = np.zeros((1, 1, ke - ks), dtype=scores.dtype)
            mask[..., valid:] = -np.inf
            scores = add(scores, Tensor.constant(mask, dtype=scores.dtype))
        w = softmax(scores, axis=-1)
        dropped = dropout(w, p, rng=rng)
        contexts.append(matmul(dropped, getitem(v, (slice(None), slice(ks, ke)))))
    return reshape(transpose(concat(contexts, axis=1), (1, 0, 2)), queries.shape)


class TestAttentionCore:
    # Ragged packed segments with 1-row queries and keys, and one sample
    # whose last two key rows are padding.
    CASES = {
        "ragged": ((1, 3, 5, 1), (2, 1, 4, 6), None),
        "padded_single": ((4,), (5,), (3,)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_matches_primitive_composition_bitwise(self, case, training):
        q_rows, k_rows, valid = self.CASES[case]
        q_segs, k_segs = packed_segments(q_rows), packed_segments(k_rows, valid)
        rng = np.random.default_rng(4)
        heads, width = 2, 3
        d = heads * width
        inputs = [
            rng.standard_normal((sum(rows), d)).astype(np.float32)
            for rows in (q_rows, k_rows, k_rows)
        ]
        readout = Tensor.constant(
            rng.standard_normal((sum(q_rows), d)).astype(np.float32)
        )
        factor = 1.0 / np.sqrt(width)

        def run(op):
            q, k, v = (Tensor.param(x.copy()) for x in inputs)
            out = op(
                q, k, v, heads, factor, q_segs, k_segs, 0.3,
                np.random.default_rng(9) if training else None,
            )
            tensor_sum(out * readout).backward()
            return out.data, q.grad, k.grad, v.grad

        weights = []
        got = run(lambda *args: attention_core(*args, weights=weights))
        want = run(attention_reference)
        for name, g, w in zip(("context", "dq", "dk", "dv"), got, want):
            assert g.dtype == np.float32, name
            assert np.array_equal(g, w), name
        assert [g.shape for g in got] == [x.shape for x in inputs[:1] + inputs]
        assert len(weights) == len(q_rows)
        for w, (qs, qe, _), (ks, ke, v) in zip(weights, q_segs, k_segs):
            assert w.shape == (heads, qe - qs, ke - ks)
            assert np.all(w.data[..., v:] == 0.0)

    def test_mismatched_shapes_raise(self):
        cases = [
            (((4, 6), (5, 6), (4, 6)), 2),  # keys and values differ in rows
            (((4, 6), (5, 4), (5, 4)), 2),  # queries and keys differ in width
            (((4, 6), (5, 6), (5, 6)), 4),  # width not divisible by heads
            (((2, 4, 3), (2, 3, 5), (2, 5, 3)), 2),  # heads already split
        ]
        for shapes, heads in cases:
            q, k, v = (Tensor.constant(np.zeros(shape)) for shape in shapes)
            q_segs, k_segs = packed_segments((q.shape[0],)), packed_segments((k.shape[0],))
            with pytest.raises(ShapeError, match="attention_core"):
                attention_core(q, k, v, heads, 1.0, q_segs, k_segs, 0.0, None)


class TestReluTaps:
    def test_records_sign_masks(self):
        taps = []
        with record_relu_signs(taps):
            relu(Tensor.constant([-1.0, 2.0]))
            relu(Tensor.constant([3.0]))
        assert len(taps) == 2
        np.testing.assert_array_equal(taps[0], [False, True])


@given(
    rows=st.integers(1, 4),
    inner=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_matmul_grad_matches_fd_any_shape(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = Tensor.param(rng.standard_normal((rows, inner)), dtype=np.float64)
    b = Tensor.param(rng.standard_normal((inner, cols)), dtype=np.float64)

    def fn():
        return tensor_sum(matmul(a, b))

    check_gradients(fn, {"a": a, "b": b})


@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 5)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_mul_commutes_and_distributes(shape, seed):
    rng = np.random.default_rng(seed)
    a = Tensor.constant(rng.standard_normal(shape), dtype=np.float64)
    b = Tensor.constant(rng.standard_normal(shape), dtype=np.float64)
    c = Tensor.constant(rng.standard_normal(shape), dtype=np.float64)
    left = mul(a, add(b, c)).data
    right = add(mul(a, b), mul(a, c)).data
    np.testing.assert_allclose(mul(a, b).data, mul(b, a).data, atol=1e-12)
    np.testing.assert_allclose(left, right, atol=1e-10)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_scale_is_linear(seed):
    rng = np.random.default_rng(seed)
    x = Tensor.constant(rng.standard_normal(6), dtype=np.float64)
    np.testing.assert_allclose(
        scale(x, 3.5).data, x.data * 3.5, atol=1e-12
    )
