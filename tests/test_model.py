"""Full network assembly: stream routing, parameter groups, checkpoints."""

from types import FunctionType

import numpy as np
import pytest

from factfusion.autograd import ShapeError, Tensor, concat, reshape
from factfusion.config import RunConfig
from factfusion.features import FEATURE_DIM, FeatureScaler
from factfusion.model import IMAGE_STREAMS, TEXT_STREAMS, VerificationModel
from factfusion.tensor_io import FormatError, read_checkpoint, write_checkpoint

BD = 8
TINY = dict(d=16, heads=2, ff_inner=32, d_m=8, max_seq_len=16, dropout=0.0)


def make_model(**overrides):
    cfg = RunConfig(**{**TINY, **overrides})
    return VerificationModel(cfg, BD, rng=np.random.default_rng(0))


def fake_batch(model, n=3, seed=0):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(n):
        batch.append(
            {
                s: Tensor.constant(
                    rng.standard_normal((int(rng.integers(2, 6)), BD)).astype(
                        np.float32
                    )
                )
                for s in model.streams
            }
        )
    feats = rng.standard_normal((n, FEATURE_DIM)).astype(np.float32)
    return batch, feats


class TestAssembly:
    def test_rejects_indivisible_width(self):
        with pytest.raises(ValueError, match="multiple of heads"):
            make_model(d=256, heads=12)

    def test_default_streams_and_tail(self):
        model = make_model()
        assert model.streams == ("CT", "CI", "DT", "DI")
        assert model.tail_streams == IMAGE_STREAMS
        assert model.tail is not None

    def test_tail_text_streams_flag(self):
        model = make_model(tail_text_streams=True)
        assert set(model.tail_streams) == set(IMAGE_STREAMS + TEXT_STREAMS)

    def test_text_only_has_no_tail(self):
        model = make_model(text_only=True)
        assert model.streams == TEXT_STREAMS
        assert model.tail is None
        assert model.use_features is False
        assert len(model.param_groups()) == 1

    def test_text_only_with_flag_regains_tail(self):
        model = make_model(text_only=True, tail_text_streams=True)
        assert model.tail is not None
        assert model.tail_streams == TEXT_STREAMS

    def test_in_dim_mean_aggregation(self):
        # 6 pairings x 2 directions + 4 raw streams, one d-vector each.
        model = make_model()
        assert model.in_dim == 16 * TINY["d"] + FEATURE_DIM

    def test_in_dim_mean_max_last_aggregation(self):
        # richer pooling emits [mean, max, last] per context: 3x wider.
        model = make_model(aggregation="mean_max_last")
        assert model.in_dim == 16 * 3 * TINY["d"] + FEATURE_DIM

    def test_text_only_in_dim(self):
        # 1 pairing x 2 directions + 2 raw streams, no feature block.
        model = make_model(text_only=True)
        assert model.in_dim == 4 * TINY["d"]


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = make_model()
        batch, feats = fake_batch(model)
        probs, hidden = model.forward_batch(batch, feats)
        assert probs.data.shape == (3, 5)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-5)
        assert hidden.data.shape == (3, TINY["d_m"])

    def test_features_required_unless_text_only(self):
        model = make_model()
        batch, _ = fake_batch(model)
        with pytest.raises(ValueError, match="feature vector"):
            model.forward_batch(batch, None)
        text_model = make_model(text_only=True)
        tb, _ = fake_batch(text_model)
        probs, _ = text_model.forward_batch(tb, None)
        assert probs.data.shape == (3, 5)

    def test_deterministic_in_eval_mode(self):
        model = make_model()
        batch, feats = fake_batch(model)
        a, _ = model.forward_batch(batch, feats, training=False)
        b, _ = model.forward_batch(batch, feats, training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_mode_requires_rng(self):
        model = make_model(dropout=0.1)
        batch, feats = fake_batch(model)
        with pytest.raises(ValueError, match="rng"):
            model.forward_batch(batch, feats, training=True)

    def test_zero_row_stream_rejected(self):
        model = make_model()
        batch, feats = fake_batch(model)
        batch[1]["DT"] = Tensor.constant(np.zeros((0, BD), dtype=np.float32))
        with pytest.raises(ShapeError, match="positive"):
            model.forward_batch(batch, feats)

    def test_same_init_seed_same_params(self):
        a = make_model()
        b = make_model()
        for name, pa in a.parameters().items():
            np.testing.assert_array_equal(pa.data, b.parameters()[name].data)


def held_arrays(*roots, nested=False):
    """The arrays a training graph keeps alive: every node's output and
    every array its backward closure captured, directly or in a tuple or
    list, each counted once by the buffer it views. With nested, also the
    arrays inside the closures of functions a closure captured, as a layer
    norm's backward inside the node that calls it."""
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)
        elif nested and isinstance(obj, FunctionType):
            for cell in obj.__closure__ or ():
                yield from arrays(cell.cell_contents)

    held, seen, stack = {}, {id(r) for r in roots}, list(roots)
    while stack:
        node = stack.pop()
        cells = (node._backward.__closure__ or ()) if node._backward else ()
        for value in [node.data, *(cell.cell_contents for cell in cells)]:
            for a in arrays(value):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                held[id(a)] = a
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return list(held.values())


class TestGraphMemory:
    # Bytes held by the graph below, counting the arrays of its nodes and
    # of their backward closures. With float32 keep masks and each
    # feed-forward sublayer as seven composed nodes it held 404,712; with
    # each residual add a node of its own, a scaled copy of every attention
    # call's queries and separate ReLU and keep masks in each feed-forward
    # node, 281,304; with the sublayers after attention as three nodes that
    # kept the first norm's and the feed-forward's outputs, 217,584.
    HELD_BYTES = 175_104
    # The same, also counting arrays inside the closures of functions that a
    # closure captured (a layer norm's xhat, say), which HELD_BYTES misses.
    # With the sublayers after attention as three nodes it was 241,656.
    ALL_HELD_BYTES = 219_000

    def held(self, nested=False):
        model = make_model(dropout=0.1)
        batch, feats = fake_batch(model, n=4)
        probs, hidden = model.forward_batch(
            batch, feats, training=True, rng=np.random.default_rng(3)
        )
        return held_arrays(probs, hidden, nested=nested)

    def test_dropout_masks_are_boolean(self):
        scale = np.float32(1.0) / np.float32(0.9)
        held = self.held(nested=True)
        float_masks = [
            a.shape for a in held
            if a.dtype != bool and np.any(a == scale) and np.all((a == 0) | (a == scale))
        ]
        assert float_masks == []
        assert any(a.dtype == bool for a in held)

    def test_bytes_stay_within_the_recorded_total(self):
        assert sum(a.nbytes for a in self.held()) <= self.HELD_BYTES

    def test_nested_bytes_stay_within_the_recorded_total(self):
        assert sum(a.nbytes for a in self.held(nested=True)) <= self.ALL_HELD_BYTES


class TestParameterGroups:
    def test_two_groups_with_rates(self):
        model = make_model(learning_rate=3e-4, tail_learning_rate=7e-5)
        groups = model.param_groups()
        assert len(groups) == 2
        assert groups[0]["lr"] == 7e-5
        assert groups[1]["lr"] == 3e-4

    def test_groups_partition_trainables(self):
        model = make_model()
        groups = model.param_groups()
        grouped = [id(p) for g in groups for p in g["params"]]
        assert len(grouped) == len(set(grouped))
        assert set(grouped) == {id(p) for p in model.trainable_parameters().values()}

    def test_frozen_tail_scope_drops_tail_group(self):
        model = make_model(adapter_scope="frozen")
        groups = model.param_groups()
        assert len(groups) == 1

    def test_adapter_only_tail_group_content(self):
        model = make_model()
        tail_group = model.param_groups()[0]["params"]
        names = {
            n for n, p in model.parameters().items()
            if any(p is q for q in tail_group)
        }
        assert names == {"adapter.W", "adapter.b", "adapter.v"}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model(adapter_scope="all", aggregation="mean_max_last")
        batch, feats = fake_batch(model)
        before, _ = model.forward_batch(batch, feats)
        scaler = FeatureScaler(mean=np.arange(32.0), std=np.full(32, 2.0))
        path = tmp_path / "m.pcfc"
        model.save(path, scaler, {"best_epoch": 4, "best_f1": 0.5})
        rebuilt, back, meta = VerificationModel.from_checkpoint(path)
        after, _ = rebuilt.forward_batch(batch, feats)
        np.testing.assert_array_equal(before.data, after.data)
        assert rebuilt.config == model.config
        assert rebuilt.backbone_dim == BD
        np.testing.assert_array_equal(back.mean, scaler.mean)
        np.testing.assert_array_equal(back.std, scaler.std)
        assert meta == {"best_epoch": 4, "best_f1": 0.5}
        assert [p.name for p in tmp_path.iterdir()] == ["m.pcfc"]

    def test_header_holds_the_resolved_config(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.pcfc"
        model.save(path, None, {"config": {"d": 999}, "best_epoch": 1})
        entries, meta = read_checkpoint(path)
        assert meta == {"config": model.config.to_dict(), "best_epoch": 1}
        assert set(entries) == set(model.parameters())

    def test_text_only_round_trip_has_no_scaler(self, tmp_path):
        model = make_model(text_only=True)
        path = tmp_path / "m.pcfc"
        model.save(path, None, {})
        rebuilt, scaler, meta = VerificationModel.from_checkpoint(path)
        assert rebuilt.config.text_only and scaler is None and meta == {}

    def test_missing_scaler_rejected(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.pcfc"
        model.save(path, None, {})
        with pytest.raises(ValueError, match="scaler entry 'scaler.mean'"):
            VerificationModel.from_checkpoint(path)

    @pytest.mark.parametrize(
        "meta",
        [
            {},
            {"config": [1, 2]},
            {"config": {"d": 16, "depth": 3}},
            {"config": {"d": 16, "heads": 2, "text_only": "false"}},
        ],
    )
    def test_metadata_without_valid_config_rejected(self, tmp_path, meta):
        model = make_model(text_only=True)
        path = tmp_path / "m.pcfc"
        entries = {n: t.data for n, t in model.parameters().items()}
        write_checkpoint(path, entries, meta)
        with pytest.raises(FormatError, match="no valid config"):
            VerificationModel.from_checkpoint(path)

    @pytest.mark.parametrize("embed", [None, np.zeros(BD, dtype=np.float32)])
    def test_backbone_dim_needs_a_2d_claim_text_embedding(self, tmp_path, embed):
        model = make_model(text_only=True)
        path = tmp_path / "m.pcfc"
        entries = {n: t.data for n, t in model.parameters().items()}
        entries["embed.CT.W"] = embed
        if embed is None:
            del entries["embed.CT.W"]
        write_checkpoint(path, entries, {"config": model.config.to_dict()})
        with pytest.raises(ValueError, match="'embed.CT.W'"):
            VerificationModel.from_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        model = make_model()
        entries = {n: t.data for n, t in model.parameters().items()}
        victim = sorted(entries)[0]
        del entries[victim]
        with pytest.raises(ValueError, match="missing parameter"):
            model.load_state(entries)

    def test_unexpected_entry_rejected(self, tmp_path):
        model = make_model(text_only=True)
        path = tmp_path / "m.pcfc"
        entries = {n: t.data for n, t in model.parameters().items()}
        entries["fusion.pair7.Wq"] = entries["embed.CT.W"]
        write_checkpoint(path, entries, {"config": model.config.to_dict()})
        with pytest.raises(ValueError, match="unexpected entry 'fusion.pair7.Wq'"):
            VerificationModel.from_checkpoint(path)

    def test_shape_mismatch_rejected(self):
        model = make_model()
        entries = {n: t.data.copy() for n, t in model.parameters().items()}
        name = sorted(entries)[0]
        entries[name] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match=name.split(".")[0]):
            model.load_state(entries)

    def test_rejected_load_leaves_every_parameter_untouched(self):
        model = make_model()
        params = model.parameters()
        old = {n: t.data.copy() for n, t in params.items()}
        entries = {n: t.data + 1 for n, t in params.items()}
        last = list(entries)[-1]
        assert last == "head.Wz2"
        entries[last] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match="head.Wz2"):
            model.load_state(entries)
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(param.data, old[name], err_msg=name)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected_before_any_is_assigned(self, tmp_path, value):
        model = make_model()
        params = model.parameters()
        old = {n: t.data.copy() for n, t in params.items()}
        entries = {n: t.data + 1 for n, t in params.items()}
        entries["head.Wz2"][0, 0] = value
        path = tmp_path / "m.pcfc"
        write_checkpoint(path, entries, {"config": model.config.to_dict()})
        with pytest.raises(ValueError, match="parameter 'head.Wz2' holds a non-finite value"):
            VerificationModel.from_checkpoint(path)
        with pytest.raises(ValueError, match="parameter 'head.Wz2' holds a non-finite value"):
            model.load_state(entries)
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(param.data, old[name], err_msg=name)


def per_sample_reference(model, batch, feats):
    """forward_batch assembled from one single-sample fuse call per sample."""
    vecs = []
    for i, sample in enumerate(batch):
        embedded = {}
        for s in model.streams:
            x = sample[s]
            if s in model.tail_streams:
                x = model.tail(x)
            embedded[s] = model.embedders[s](x)
        fused = model.fusion.fuse(embedded)
        vec = fused.concatenated()
        if model.use_features:
            vec = concat([vec, Tensor.constant(feats[i])], axis=0)
        vecs.append(reshape(vec, (1, vec.shape[0])))
    return model.head(concat(vecs, axis=0))


def ragged_batch(model, n, rng):
    """float64 streams of 1-6 rows; every stream of the first sample has one row."""
    batch = [
        {
            s: Tensor.constant(
                rng.standard_normal((1 if i == 0 else int(rng.integers(1, 7)), BD))
            )
            for s in model.streams
        }
        for i in range(n)
    ]
    return batch, rng.standard_normal((n, FEATURE_DIM))


def outputs_and_grads(model, forward, seed):
    """probs, hidden and every trainable gradient of a fixed random readout."""
    probs, hidden = forward()
    rng = np.random.default_rng(seed)
    readout = (
        probs * Tensor.constant(rng.standard_normal(probs.shape))
    ).sum() + (hidden * Tensor.constant(rng.standard_normal(hidden.shape))).sum()
    params = model.trainable_parameters()
    for p in params.values():
        p.zero_grad()
    readout.backward()
    grads = {name: p.grad for name, p in params.items()}
    return probs.data, hidden.data, grads


class TestBatchedOracle:
    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"aggregation": "mean_max_last"},
            {"text_only": True},
            {"tail_text_streams": True},
            {"full_width_scaling": True},
            {"adapter_scope": "all"},
        ],
        ids=["default", "mean_max_last", "text_only", "tail_text_streams",
             "full_width_scaling", "adapter_all"],
    )
    @pytest.mark.parametrize("n", [1, 5])
    def test_packed_batch_matches_per_sample_forward(self, knobs, n):
        cfg = RunConfig(**{**TINY, **knobs})
        model = VerificationModel(
            cfg, BD, rng=np.random.default_rng(7), dtype=np.float64
        )
        # The frozen tail's inner biases start negative; nudge them so both
        # sides of its ReLU are exercised.
        if model.tail is not None:
            model.tail.b1.data = model.tail.b1.data + 0.5
        batch, feats = ragged_batch(model, n, np.random.default_rng(100 + n))
        feats = feats if model.use_features else None

        got = outputs_and_grads(
            model, lambda: model.forward_batch(batch, feats, training=False), 1
        )
        want = outputs_and_grads(
            model, lambda: per_sample_reference(model, batch, feats), 1
        )
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-6)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-6)
        assert set(got[2]) == set(want[2])
        for name, grad in want[2].items():
            assert grad is not None and got[2][name] is not None, name
            np.testing.assert_allclose(got[2][name], grad, rtol=0, atol=1e-6, err_msg=name)
