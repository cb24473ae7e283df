"""Weighted-F1 metrics against a brute-force reference implementation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfusion.metrics import (
    confusion_matrix,
    per_class_f1,
    report_text,
    weighted_f1,
    weighted_f1_batch,
    weighted_f1_of,
)


def weighted_f1_reference(y_true, y_pred, n_classes):
    """Set-based per-class F1, written independently of the implementation."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    f1s, supports = [], []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        supports.append(tp + fn)
    total = sum(supports)
    return sum(f * s for f, s in zip(f1s, supports)) / total


class TestConfusionMatrix:
    def test_hand_case(self):
        y_true = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2]
        y_pred = [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 2, 2, 2, 2]
        conf = confusion_matrix(y_true, y_pred, 3)
        np.testing.assert_array_equal(conf, [[5, 1, 0], [2, 3, 0], [0, 0, 4]])

    def test_rows_are_true_columns_predicted(self):
        conf = confusion_matrix([1], [2], 3)
        assert conf[1, 2] == 1
        assert conf.sum() == 1

    def test_block_holds_one_matrix_per_row(self):
        rng = np.random.default_rng(3)
        y_true = rng.integers(0, 4, size=25)
        preds = rng.integers(0, 4, size=(6, 25))
        block = confusion_matrix(y_true, preds, 4)
        assert block.shape == (6, 4, 4)
        for row, conf in zip(preds, block):
            np.testing.assert_array_equal(conf, confusion_matrix(y_true, row, 4))
        np.testing.assert_array_equal(
            per_class_f1(block), [per_class_f1(conf) for conf in block]
        )
        # A stack whose class supports differ from one matrix to the next
        # scores each matrix with its own supports, bit for bit.
        stack = np.stack([
            confusion_matrix(rng.integers(0, 4, size=n), rng.integers(0, 4, size=n), 4)
            for n in (3, 10, 25, 40)
        ])
        stack[1, 2] = 0  # a class absent from one matrix only
        assert len({tuple(conf.sum(axis=1)) for conf in stack}) == len(stack)
        wf1, f1 = weighted_f1_of(stack)
        for i, conf in enumerate(stack):
            want_wf1, want_f1 = weighted_f1_of(conf)
            assert wf1[i].tobytes() == want_wf1.tobytes()
            assert f1[i].tobytes() == want_f1.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            confusion_matrix([], [], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            confusion_matrix([0, 1], [0], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="true"):
            confusion_matrix([3], [0], 3)
        with pytest.raises(ValueError, match="predicted"):
            confusion_matrix([0], [5], 3)


class TestPerClassF1:
    def test_hand_values(self):
        conf = np.array([[5, 1, 0], [2, 3, 0], [0, 0, 4]])
        np.testing.assert_allclose(
            per_class_f1(conf), [10 / 13, 2 / 3, 1.0], rtol=0, atol=1e-15
        )

    def test_absent_class_scores_zero(self):
        conf = np.array([[3, 0], [0, 0]])
        np.testing.assert_array_equal(per_class_f1(conf), [1.0, 0.0])
        # Every class absent: no weighted mean exists, and none warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(per_class_f1(np.zeros_like(conf)), [0.0, 0.0])

    def test_never_predicted_class(self):
        conf = np.array([[2, 0], [3, 0]])  # class 1 exists but never predicted
        f1 = per_class_f1(conf)
        assert f1[1] == 0.0


class TestWeightedF1:
    def test_hand_value(self):
        y_true = [0] * 6 + [1] * 5 + [2] * 4
        y_pred = [0] * 5 + [1] + [0, 0] + [1] * 3 + [2] * 4
        wf1, per_class = weighted_f1(y_true, y_pred, 3)
        assert wf1 == pytest.approx(466 / 585, abs=1e-12)
        np.testing.assert_allclose(per_class, [10 / 13, 2 / 3, 1.0], atol=1e-15)

    def test_perfect_predictions(self):
        y = [0, 1, 2, 3, 4, 4]
        wf1, per_class = weighted_f1(y, y, 5)
        assert wf1 == 1.0
        np.testing.assert_array_equal(per_class, np.ones(5))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        n_classes = int(rng.integers(2, 6))
        y_true = rng.integers(0, n_classes, size=n)
        y_pred = rng.integers(0, n_classes, size=n)
        got, _ = weighted_f1(y_true, y_pred, n_classes)
        want = weighted_f1_reference(y_true, y_pred, n_classes)
        assert got == pytest.approx(want, abs=1e-12)


class TestWeightedF1Batch:
    def test_matches_row_by_row(self):
        rng = np.random.default_rng(7)
        y_true = rng.integers(0, 5, size=30)
        preds = rng.integers(0, 5, size=(12, 30))
        batch = weighted_f1_batch(y_true, preds, 5)
        for k in range(12):
            single, _ = weighted_f1(y_true, preds[k], 5)
            assert batch[k] == pytest.approx(single, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        n_classes = int(rng.integers(2, 7))
        y_true = rng.integers(0, n_classes, size=n)
        preds = rng.integers(0, n_classes, size=(int(rng.integers(1, 9)), n))
        batch = weighted_f1_batch(y_true, preds, n_classes)
        assert batch.shape == (preds.shape[0],)
        for row, got in zip(preds, batch):
            assert got == pytest.approx(
                weighted_f1_reference(y_true, row, n_classes), abs=1e-12
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="incompatible"):
            weighted_f1_batch(np.array([0, 1]), np.array([[0, 1, 2]]), 3)
        with pytest.raises(ValueError, match="incompatible"):
            weighted_f1_batch(np.array([0, 1]), np.array([0, 1]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="predicted"):
            weighted_f1_batch(np.array([0, 1]), np.array([[0, 1], [1, 3]]), 3)
        with pytest.raises(ValueError, match="predicted"):
            weighted_f1_batch(np.array([0, 1]), np.array([[0, -1]]), 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_weighted_f1_row_by_row_exactly(self, data):
        # Label sets that miss classes or hold one class, and predictions
        # that never name some classes, so zero supports and zero
        # denominators both occur.
        k = data.draw(st.sampled_from([1, 7, 256]), label="rows")
        n = data.draw(st.integers(1, 40), label="samples")
        classes = st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True)
        true_classes = data.draw(classes, label="true classes")
        pred_classes = data.draw(classes, label="predicted classes")
        dtype = data.draw(st.sampled_from([np.uint8, np.int64]), label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        y_true = rng.choice(true_classes, size=n)
        preds = rng.choice(pred_classes, size=(k, n)).astype(dtype)
        preds[0] = y_true  # a perfect row
        batch = weighted_f1_batch(y_true, preds, 5)
        assert batch.shape == (k,)
        for row, got in zip(preds, batch):
            assert got == weighted_f1(y_true, row, 5)[0]


class TestLabelDtypes:
    """Float and boolean label arrays are refused by name, never cast."""

    @pytest.mark.parametrize("bad", [np.array([1.0, 0.0]), np.array([True, False])])
    def test_true_labels(self, bad):
        for score in (confusion_matrix, weighted_f1):
            with pytest.raises(ValueError, match=f"y_true .*dtype {bad.dtype}"):
                score(bad, np.array([1, 0]), 3)
        with pytest.raises(ValueError, match=f"y_true .*dtype {bad.dtype}"):
            weighted_f1_batch(bad, np.array([[1, 0]]), 3)

    @pytest.mark.parametrize("bad", [np.array([1.0, 0.0]), np.array([True, False])])
    def test_predictions(self, bad):
        for score in (confusion_matrix, weighted_f1):
            with pytest.raises(ValueError, match=f"y_pred .*dtype {bad.dtype}"):
                score(np.array([1, 0]), bad, 3)
        with pytest.raises(ValueError, match=f"preds .*dtype {bad.dtype}"):
            weighted_f1_batch(np.array([1, 0]), bad[None, :], 3)

    def test_every_integer_dtype_scores_alike(self):
        # At 20 classes true·C no longer fits in uint8, and uint64 labels
        # mixed with Python ints promote to float; perfect predictions must
        # still score 1.0 whatever the dtype.
        for y_true, y_pred, n_classes in (
            ([0, 1, 2, 2], [0, 2, 2, 1], 3), ([19, 3], [19, 3], 20),
        ):
            y_true, y_pred = np.array(y_true), np.array(y_pred)
            want_conf = confusion_matrix(y_true, y_pred, n_classes)
            want = weighted_f1(y_true, y_pred, n_classes)[0]
            if n_classes == 20:
                assert want == 1.0
            for dtype in (np.uint8, np.int16, np.uint32, np.uint64, np.int64):
                t, p = y_true.astype(dtype), y_pred.astype(dtype)
                assert np.array_equal(confusion_matrix(t, p, n_classes), want_conf), dtype
                assert weighted_f1(t, p, n_classes)[0] == want, dtype
                assert weighted_f1_batch(t, p[None, :], n_classes)[0] == want, dtype


class TestReports:
    CONF = np.array([[5, 1, 0], [2, 3, 0], [0, 0, 4]])
    NAMES = ["alpha", "beta", "gamma"]

    def test_text_alignment(self):
        text = report_text(self.CONF, self.NAMES)
        lines = text.splitlines()
        assert len(lines) == 5
        # The label column is left-aligned and padded to a common width.
        assert lines[1].startswith("alpha ")
        assert lines[4].startswith("weighted")
        # Numeric columns line up on their right edges.
        assert lines[1].index("0.769231") == lines[2].index("0.666667")

    def test_text_values(self):
        rows = [line.split() for line in report_text(self.CONF, self.NAMES).splitlines()]
        assert rows[0] == ["label", "support", "precision", "recall", "f1"]
        assert rows[1] == ["alpha", "6", "0.714286", "0.833333", "0.769231"]
        assert rows[2] == ["beta", "5", "0.750000", "0.600000", "0.666667"]
        assert rows[3] == ["gamma", "4", "1.000000", "1.000000", "1.000000"]
        assert rows[4] == ["weighted", "15", f"{466 / 585:.6f}"]

    def test_name_count_validation(self):
        with pytest.raises(ValueError, match="class names"):
            report_text(self.CONF, ["only", "two"])

    def test_square_validation(self):
        with pytest.raises(ValueError, match="square"):
            report_text(np.zeros((2, 3)), ["a", "b"])
