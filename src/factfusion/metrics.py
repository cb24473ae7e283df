"""Confusion matrix, per-class F1 and support-weighted F1.

Conventions: confusion rows index the true class and columns the predicted
class; any F1 whose denominator is zero is reported as zero rather than NaN.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def check_labels(name: str, labels: np.ndarray) -> None:
    """Raise ValueError unless labels, the argument called name, holds
    integers: a float or boolean label array is refused, not cast."""
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"{name} must hold integer class labels, got dtype {labels.dtype}")


def _check_scorable(y_true: np.ndarray, y_pred: np.ndarray, pred_name: str, n_classes: int) -> None:
    if y_true.size == 0:
        raise ValueError("cannot score an empty label set")
    check_labels("y_true", y_true)
    check_labels(pred_name, y_pred)
    if y_true.ndim != 1 or y_pred.ndim not in (1, 2) or y_pred.shape[-1] != y_true.shape[0]:
        raise ValueError(
            f"label arrays must be equal-length vectors, got {y_true.shape} and {y_pred.shape}"
        )
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} labels fall outside [0, {n_classes})")


def _count_cells(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """[k x C²] confusion cells of a checked [k x n] block, counted in one pass
    over row·C² + true·C + pred, formed in intp so that no label dtype wraps:
    one outer sum of the row offsets and true·C, then the predictions added,
    cast to intp on the fly (a checked label is below C, so the cast is exact)."""
    k, cells = y_pred.shape[0], n_classes * n_classes
    rows = np.arange(0, k * cells, cells, dtype=np.intp)
    flat = np.add.outer(rows, y_true.astype(np.intp) * n_classes)
    np.add(flat, y_pred, out=flat, dtype=np.intp, casting="unsafe")
    return np.bincount(flat.ravel(), minlength=k * cells).reshape(k, cells)


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """[C x C] counts for [n] predictions, or [k x C x C] for a [k x n] block."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    _check_scorable(y_true, y_pred, "y_pred", n_classes)
    counts = _count_cells(y_true, y_pred.reshape(-1, y_true.shape[0]), n_classes)
    return counts.reshape(*y_pred.shape[:-1], n_classes, n_classes)


def per_class_f1(conf: np.ndarray) -> np.ndarray:
    """F1 per class from a confusion matrix (any leading axes); 2*tp/(pred+true), zero-safe.
    An all-zero matrix has no weighted mean, but its per-class F1s are zeros."""
    with np.errstate(invalid="ignore"):
        return weighted_f1_of(conf)[1]


def weighted_f1_of(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support-weighted mean of per-class F1 per confusion matrix, and the per-class F1s.

    Each matrix keeps its own supports. The predicted and true counts are
    integer einsum reductions, exact whatever the order of their adds.
    """
    tp = np.diagonal(conf, axis1=-2, axis2=-1).astype(np.float64)
    support = np.einsum("...tp->...t", conf)
    denom = np.einsum("...tp->...p", conf).astype(np.float64) + support.astype(np.float64)
    f1 = np.divide(2.0 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    return (f1 * support).sum(axis=-1) / support.sum(axis=-1), f1


def weighted_f1(y_true, y_pred, n_classes: int) -> tuple[float, np.ndarray]:
    """Support-weighted mean of per-class F1; also returns the per-class F1s."""
    wf1, f1 = weighted_f1_of(confusion_matrix(y_true, y_pred, n_classes))
    return float(wf1), f1


def weighted_f1_batch(y_true, preds, n_classes: int) -> np.ndarray:
    """Weighted F1 of each row of a [k x n] prediction block, as the ensemble
    tuner scores thousands of candidates; row i equals weighted_f1 of preds[i]."""
    y_true = np.asarray(y_true)
    preds = np.asarray(preds)
    if preds.ndim != 2 or y_true.ndim != 1 or preds.shape[1] != y_true.shape[0]:
        raise ValueError(
            f"prediction block {preds.shape} incompatible with labels of shape {y_true.shape}"
        )
    _check_scorable(y_true, preds, "preds", n_classes)
    cells = _count_cells(y_true, preds, n_classes)
    return weighted_f1_of(cells.reshape(-1, n_classes, n_classes))[0]


def report_text(conf: np.ndarray, class_names: Sequence[str]) -> str:
    """Aligned table of per-class support, precision, recall and F1, plus a
    trailing weighted row."""
    _check_names(conf, class_names)
    tp = np.diag(conf).astype(np.float64)
    true = conf.sum(axis=1)
    prec, rec = (
        np.divide(tp, count, out=np.zeros_like(tp), where=count > 0)
        for count in (conf.sum(axis=0), true)
    )
    wf1, f1 = weighted_f1_of(conf)
    rows = [["label", "support", "precision", "recall", "f1"]]
    rows += [
        [name, str(int(true[i])), f"{prec[i]:.6f}", f"{rec[i]:.6f}", f"{f1[i]:.6f}"]
        for i, name in enumerate(class_names)
    ]
    rows.append(["weighted", str(int(true.sum())), "", "", f"{wf1:.6f}"])
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    out = []
    for r in rows:
        out.append(
            "  ".join(
                cell.ljust(w) if i == 0 else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(r, widths))
            ).rstrip()
        )
    return "\n".join(out) + "\n"


def _check_names(conf: np.ndarray, class_names: Sequence[str]) -> None:
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {conf.shape}")
    if len(class_names) != conf.shape[0]:
        raise ValueError(
            f"{len(class_names)} class names for a {conf.shape[0]}-class matrix"
        )
