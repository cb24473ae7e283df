"""Co-attention fusion: weight sharing, masking, output inventory."""

import numpy as np
import pytest

from factfusion.autograd import ShapeError, Tensor
from factfusion.fusion import (
    AGGREGATIONS,
    PAIRINGS,
    STREAM_ORDER,
    CoAttentionBlock,
    FusionStack,
    aggregate,
)


def block(d=8, heads=2, ff_inner=16, seed=0, **kw):
    return CoAttentionBlock(d, heads, ff_inner, np.random.default_rng(seed), **kw)


def seqs(d=8, la=5, lb=3, seed=1):
    rng = np.random.default_rng(seed)
    return (
        Tensor.constant(rng.standard_normal((la, d)).astype(np.float32)),
        Tensor.constant(rng.standard_normal((lb, d)).astype(np.float32)),
    )


class TestSharedWeights:
    def test_direction_symmetry_is_bitwise(self):
        # Swapping the argument order must swap the outputs exactly: both
        # directions run through the same projection/FFN/norm parameters.
        b = block()
        a_seq, b_seq = seqs()
        out_ab, out_ba = b.co_attend(a_seq, b_seq)
        swapped_ba, swapped_ab = b.co_attend(b_seq, a_seq)
        np.testing.assert_array_equal(out_ab.data, swapped_ab.data)
        np.testing.assert_array_equal(out_ba.data, swapped_ba.data)

    def test_one_parameter_set_per_block(self):
        params = block().parameters()
        assert set(params) == {
            "Wq", "Wk", "Wv",
            "ffn.W1", "ffn.b1", "ffn.W2", "ffn.b2",
            "norm1.gain", "norm1.bias", "norm2.gain", "norm2.bias",
        }

    def test_output_shapes_follow_queries(self):
        b = block()
        a_seq, b_seq = seqs(la=6, lb=4)
        out_ab, out_ba = b.co_attend(a_seq, b_seq)
        assert out_ab.shape == (6, 8)
        assert out_ba.shape == (4, 8)


class TestAttentionWeights:
    def test_rows_sum_to_one(self):
        b = block()
        a_seq, b_seq = seqs()
        _, _, w_ab, w_ba = b.co_attend(a_seq, b_seq, return_weights=True)
        np.testing.assert_allclose(w_ab.data.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(w_ba.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_weight_shapes_are_heads_by_query_by_key(self):
        b = block(heads=2)
        a_seq, b_seq = seqs(la=5, lb=3)
        _, _, w_ab, w_ba = b.co_attend(a_seq, b_seq, return_weights=True)
        assert w_ab.shape == (2, 5, 3)
        assert w_ba.shape == (2, 3, 5)

    def test_single_key_collapses_to_unit_weight(self):
        b = block()
        a_seq, b_seq = seqs(la=4, lb=1)
        _, _, w_ab, _ = b.co_attend(a_seq, b_seq, return_weights=True)
        np.testing.assert_allclose(w_ab.data, 1.0, atol=1e-7)

    def test_masked_keys_get_exactly_zero(self):
        b = block()
        a_seq, b_seq = seqs(la=4, lb=6)
        _, _, w_ab, _ = b.co_attend(a_seq, b_seq, b_len=2, return_weights=True)
        np.testing.assert_array_equal(w_ab.data[..., 2:], 0.0)
        np.testing.assert_allclose(w_ab.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_mask_matches_truncated_input(self):
        # Attending over a padded sequence with a mask must equal attending
        # over the unpadded prefix (for the unpadded queries).
        b = block()
        a_seq, b_full = seqs(la=4, lb=6)
        b_short = Tensor.constant(b_full.data[:2])
        masked_ab, _ = b.co_attend(a_seq, b_full, b_len=2)
        short_ab, _ = b.co_attend(a_seq, b_short)
        np.testing.assert_allclose(masked_ab.data, short_ab.data, atol=1e-6)

    @pytest.mark.parametrize("b_len", [0, -2])
    def test_nonpositive_valid_length_raises(self, b_len):
        # 0 would softmax over no keys (NaN rows); -2 would mask the wrong keys.
        a_seq, b_seq = seqs(la=3, lb=4)
        with pytest.raises(ValueError, match=f"length {b_len} must be at least 1"):
            block().co_attend(a_seq, b_seq, b_len=b_len)

    def test_scaling_flag_changes_scores(self):
        a_seq, b_seq = seqs()
        default = block(seed=3)
        exact = block(seed=3, full_width_scaling=True)
        assert default.scale == pytest.approx(1.0 / np.sqrt(4))  # d/h = 8/2
        assert exact.scale == pytest.approx(1.0 / np.sqrt(8))
        out_d, _ = default.co_attend(a_seq, b_seq)
        out_e, _ = exact.co_attend(a_seq, b_seq)
        assert not np.allclose(out_d.data, out_e.data)

    def test_width_mismatch_raises(self):
        b = block(d=8)
        bad = Tensor.constant(np.zeros((3, 9), dtype=np.float32))
        good = Tensor.constant(np.zeros((3, 8), dtype=np.float32))
        with pytest.raises(ShapeError, match="width 8"):
            b.co_attend(bad, good)


class TestDropoutPaths:
    def test_eval_mode_is_deterministic(self):
        b = block(dropout_rate=0.5)
        a_seq, b_seq = seqs()
        out1, _ = b.co_attend(a_seq, b_seq)
        out2, _ = b.co_attend(a_seq, b_seq)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_training_mode_uses_rng(self):
        b = block(dropout_rate=0.5)
        a_seq, b_seq = seqs()
        out1, _ = b.co_attend(a_seq, b_seq, rng=np.random.default_rng(0))
        out2, _ = b.co_attend(a_seq, b_seq, rng=np.random.default_rng(0))
        out3, _ = b.co_attend(a_seq, b_seq, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(out1.data, out2.data)
        assert not np.array_equal(out1.data, out3.data)


def graph_size(*roots) -> int:
    """Distinct tensors reachable from roots through autograd parent links."""
    seen = {id(r) for r in roots}
    stack = list(roots)
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestGraphSize:
    @staticmethod
    def nodes(n_samples):
        b = block(dropout_rate=0.1)
        rng = np.random.default_rng(n_samples)
        a_rows = [int(r) for r in rng.integers(1, 6, n_samples)]
        b_rows = [int(r) for r in rng.integers(1, 6, n_samples)]
        a_seq, b_seq = (
            Tensor.constant(rng.standard_normal((sum(rows), 8)).astype(np.float32))
            for rows in (a_rows, b_rows)
        )
        out_ab, out_ba = b.co_attend(
            a_seq, b_seq, rng=rng, a_rows=a_rows, b_rows=b_rows
        )
        return graph_size(out_ab, out_ba)

    def test_node_count_does_not_grow_with_samples(self):
        assert self.nodes(2) == self.nodes(7)

    def test_head_layout_adds_no_nodes(self):
        # 2 inputs + 11 parameters + 6 Q/K/V projections + 2 attention cores
        # + 2 residual feed-forward nodes: the head split, query scaling and
        # head merge live inside the attention core node, and both residual
        # adds, both layer norms, both feed-forward matmuls, biases, the ReLU
        # and both dropouts inside the residual feed-forward node.
        assert self.nodes(3) == 23


class TestAggregate:
    def test_mean(self):
        x = Tensor.constant(np.array([[2.0, 4.0], [6.0, 8.0]], dtype=np.float32))
        np.testing.assert_allclose(aggregate(x, mode="mean").data, [4.0, 6.0])

    def test_mean_max_last_layout(self):
        x = Tensor.constant(
            np.array([[1.0, -1.0], [3.0, 0.0], [2.0, 5.0]], dtype=np.float32)
        )
        out = aggregate(x, mode="mean_max_last").data
        np.testing.assert_allclose(out, [2.0, 4.0 / 3.0, 3.0, 5.0, 2.0, 5.0])

    def test_length_slices_padding_before_reducing(self):
        x = Tensor.constant(
            np.array([[1.0], [3.0], [100.0], [100.0]], dtype=np.float32)
        )
        np.testing.assert_allclose(aggregate(x, length=2, mode="mean").data, [2.0])
        out = aggregate(x, length=2, mode="mean_max_last").data
        np.testing.assert_allclose(out, [2.0, 3.0, 3.0])

    def test_zero_length_raises(self):
        x = Tensor.constant(np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="length 0 must be at least 1"):
            aggregate(x, length=0)

    def test_unknown_mode(self):
        x = Tensor.constant(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="aggregation"):
            aggregate(x, mode="sum")


class TestFusionStack:
    def make_inputs(self, d=8, seed=0):
        rng = np.random.default_rng(seed)
        return {
            s: Tensor.constant(rng.standard_normal((4 + i, d)).astype(np.float32))
            for i, s in enumerate(STREAM_ORDER)
        }

    def test_twelve_contexts_plus_four_streams(self):
        stack = FusionStack(8, 2, 16, np.random.default_rng(0))
        out = stack.fuse(self.make_inputs())
        assert len(out.contexts) == 12
        assert len(out.streams) == 4
        assert len(out.all_vectors()) == 16

    def test_concatenated_widths(self):
        stack = FusionStack(8, 2, 16, np.random.default_rng(0))
        wide = FusionStack(8, 2, 16, np.random.default_rng(0), aggregation="mean_max_last")
        assert stack.vector_width() == 16 * 8
        assert wide.vector_width() == 16 * 24
        out = stack.fuse(self.make_inputs())
        assert out.concatenated().shape == (128,)
        out3 = wide.fuse(self.make_inputs())
        assert out3.concatenated().shape == (384,)

    def test_unknown_aggregation_raises_at_construction(self):
        with pytest.raises(ValueError, match="aggregation 'sum'"):
            FusionStack(8, 2, 16, np.random.default_rng(0), aggregation="sum")

    def test_pairing_inventory(self):
        assert PAIRINGS == (
            ("CI", "DI"),
            ("CT", "DT"),
            ("CI", "DT"),
            ("CI", "CT"),
            ("DI", "CT"),
            ("DI", "DT"),
        )
        stack = FusionStack(8, 2, 16, np.random.default_rng(0))
        assert [pair for _, pair in stack.pairings] == list(PAIRINGS)

    def test_text_only_stack_keeps_single_pairing(self):
        stack = FusionStack(8, 2, 16, np.random.default_rng(0), streams=("CT", "DT"))
        assert [pair for _, pair in stack.pairings] == [("CT", "DT")]
        rng = np.random.default_rng(1)
        embedded = {
            "CT": Tensor.constant(rng.standard_normal((3, 8)).astype(np.float32)),
            "DT": Tensor.constant(rng.standard_normal((5, 8)).astype(np.float32)),
        }
        out = stack.fuse(embedded)
        assert len(out.contexts) == 2
        assert len(out.streams) == 2
        assert stack.vector_width() == 4 * 8

    def test_parameter_names_use_pairing_index(self):
        stack = FusionStack(8, 2, 16, np.random.default_rng(0))
        names = set(stack.parameters())
        assert "fusion.pair1.Wq" in names
        assert "fusion.pair6.norm2.bias" in names
        assert len(names) == 6 * 11
        text = FusionStack(8, 2, 16, np.random.default_rng(0), streams=("CT", "DT"))
        # The CT/DT pairing keeps its global index (2) even when alone.
        assert set(text.parameters()) == {
            f"fusion.pair2.{n}" for n in block().parameters()
        }

    def test_lengths_propagate_to_contexts_and_streams(self):
        stack = FusionStack(8, 2, 16, np.random.default_rng(0))
        inputs = self.make_inputs()
        padded = {
            s: Tensor.constant(
                np.concatenate([t.data, np.full((2, 8), 7.7, dtype=np.float32)])
            )
            for s, t in inputs.items()
        }
        lengths = {s: t.shape[0] for s, t in inputs.items()}
        out_plain = stack.fuse(inputs)
        out_padded = stack.fuse(padded, lengths=lengths)
        for a, b in zip(out_plain.all_vectors(), out_padded.all_vectors()):
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_gradients_flow_to_every_block(self):
        stack = FusionStack(8, 2, 16, np.random.default_rng(0))
        out = stack.fuse(self.make_inputs())
        out.concatenated().sum().backward()
        for name, p in stack.parameters().items():
            assert p.grad is not None, name

    def test_aggregation_tuple(self):
        assert AGGREGATIONS == ("mean", "mean_max_last")
