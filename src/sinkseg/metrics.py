"""Pixel- and object-level evaluation of predicted masks, plus losses.

Pixel metrics follow the usual confusion-count formulas (accuracy,
precision, recall, F1, IoU).  Degenerate cases use the standard
conventions: when both masks are empty every ratio metric is 1.0; when the
prediction is empty but the ground truth is not, precision is 0 (and
mirrored for recall).  F1 is computed as ``2tp / (2tp + fp + fn)``, which
equals the harmonic-mean form whenever that is defined and keeps the
algebraic identity ``F1 = 2·IoU / (1 + IoU)``.

Object metrics match predicted and ground-truth components one-to-one,
greedily in descending pairwise IoU (ties broken by component ids), and
report (tp, fp, fn) per IoU threshold — the detection-curve view.  A
component is a label of a :class:`~sinkseg.labeling.LabelGrid`, and every
intersection of two grids' components is counted once, in one label-pair
histogram; the candidate pairs it gives are sorted once for all thresholds.

Losses: binary cross-entropy with probabilities clamped to
[eps, 1 - eps] (eps = 1e-7) and soft Dice with smoothing 1.0; the combined
loss is exactly their sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .labeling import LabelGrid, components_from_mask
from .raster import BinaryMask

BCE_EPS = 1e-7
DICE_SMOOTH = 1.0
DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class PixelConfusion:
    """Pixel counts over the evaluated (non-ignored) area."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Pixel metrics plus optional per-threshold object detection rows."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    iou: float
    pixel_confusion: PixelConfusion
    object_rows: tuple[tuple[float, int, int, int], ...] = ()


@dataclass(frozen=True)
class LossValue:
    """Eq.-style combined loss; ``total`` is exactly ``bce + dice``."""

    bce: float
    dice: float
    total: float

    def __post_init__(self) -> None:
        if self.bce < 0:
            raise ValueError(f"bce must be non-negative, got {self.bce}")
        if self.total != self.bce + self.dice:
            raise ValueError("total must equal bce + dice exactly")


def pixel_confusion(
    pred: BinaryMask, gt: BinaryMask, ignore: BinaryMask | None = None
) -> PixelConfusion:
    """Count tp/tn/fp/fn over pixels, skipping any marked in *ignore*."""
    if pred.values.shape != gt.values.shape:
        raise ValueError(
            f"pred/gt dimension mismatch: {pred.values.shape} vs {gt.values.shape}"
        )
    p = pred.values
    g = gt.values
    if ignore is not None:
        if ignore.values.shape != p.shape:
            raise ValueError(
                f"ignore mask dimension mismatch: {ignore.values.shape} vs {p.shape}"
            )
        keep = ~ignore.values
        p = p[keep]
        g = g[keep]
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(p.size - tp - fp - fn)
    return PixelConfusion(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics_from_confusion(c: PixelConfusion) -> MetricsReport:
    """Accuracy, precision, recall, F1, and IoU from pixel counts."""
    accuracy = (c.tp + c.tn) / c.total if c.total else 1.0
    if c.tp + c.fp:
        precision = c.tp / (c.tp + c.fp)
    else:
        precision = 1.0 if c.fn == 0 else 0.0
    if c.tp + c.fn:
        recall = c.tp / (c.tp + c.fn)
    else:
        recall = 1.0 if c.fp == 0 else 0.0
    denom = 2 * c.tp + c.fp + c.fn
    f1 = 2 * c.tp / denom if denom else 1.0
    union = c.tp + c.fp + c.fn
    iou = c.tp / union if union else 1.0
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        iou=iou,
        pixel_confusion=c,
    )


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def _candidates(pred: LabelGrid, gt: LabelGrid) -> list[tuple[float, int, int, float]]:
    """Component pairs sharing a pixel as ``(-iou, pred_id, gt_id, iou)``.

    Each pixel labelled in both grids adds one to its pair ``(p, g)``; the
    count of a pair is its intersection.  Sorted in the greedy order:
    descending IoU, then ascending ids.
    """
    if pred.labels.shape != gt.labels.shape:
        raise ValueError(
            f"pred/gt dimension mismatch: {pred.labels.shape} vs {gt.labels.shape}"
        )
    both = (pred.labels > 0) & (gt.labels > 0)
    span = np.int64(len(gt) + 1)  # gt labels 0..n_gt
    pairs, inter = np.unique(
        pred.labels[both].astype(np.int64) * span + gt.labels[both], return_counts=True
    )
    pred_ids, gt_ids = pairs // span, pairs % span
    iou = inter / (pred.area_px[pred_ids] + gt.area_px[gt_ids] - inter)  # |a & b| / |a | b|
    candidates = list(zip((-iou).tolist(), pred_ids.tolist(), gt_ids.tolist(), iou.tolist()))
    candidates.sort()
    return candidates


def _greedy(
    candidates: list[tuple[float, int, int, float]], iou_threshold: float
) -> list[tuple[int, int, float]]:
    """Accept sorted candidates with IoU >= *iou_threshold*, each id at most once."""
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for _, pid, gid, iou in candidates:
        if iou < iou_threshold:
            break
        if pid in used_pred or gid in used_gt:
            continue
        used_pred.add(pid)
        used_gt.add(gid)
        pairs.append((pid, gid, iou))
    return pairs


def object_match(
    pred: LabelGrid, gt: LabelGrid, iou_threshold: float
) -> tuple[int, int, int, list[tuple[int, int, float]]]:
    """One-to-one match of predicted against ground-truth components.

    Candidate pairs with IoU >= *iou_threshold* are accepted greedily in
    descending IoU (ties broken by ascending component ids).  Returns
    ``(tp, fp, fn, pairs)`` with pairs as (pred_id, gt_id, iou).
    """
    _check_threshold(iou_threshold)
    pairs = _greedy(_candidates(pred, gt), iou_threshold)
    tp = len(pairs)
    return tp, len(pred) - tp, len(gt) - tp, pairs


def detection_curve(
    pred: LabelGrid, gt: LabelGrid, thresholds=DEFAULT_THRESHOLDS
) -> list[tuple[float, int, int, int]]:
    """(threshold, tp, fp, fn) per IoU threshold; thresholds must ascend.

    Rows equal :func:`object_match` at each threshold; the candidate pairs
    are scored once for all of them.
    """
    thresholds = list(thresholds)
    if thresholds != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    for t in thresholds:
        _check_threshold(t)
    candidates = _candidates(pred, gt)
    rows = []
    for t in thresholds:
        tp = len(_greedy(candidates, t))
        rows.append((float(t), tp, len(pred) - tp, len(gt) - tp))
    return rows


def _check_loss_shapes(probs: np.ndarray, gt: BinaryMask) -> np.ndarray:
    if probs.shape != gt.values.shape:
        raise ValueError(
            f"probs/gt dimension mismatch: {probs.shape} vs {gt.values.shape}"
        )
    return gt.values.astype(np.float64)


def bce_loss(probs, gt: BinaryMask, eps: float = BCE_EPS) -> float:
    """Mean binary cross-entropy; probabilities clamped to [eps, 1-eps]."""
    p = np.asarray(probs, dtype=np.float64)
    y = _check_loss_shapes(p, gt)
    p = np.clip(p, eps, 1.0 - eps)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def dice_loss(probs, gt: BinaryMask, smooth: float = DICE_SMOOTH) -> float:
    """Soft Dice loss: ``1 - (2·Σp·y + s) / (Σp + Σy + s)``."""
    p = np.asarray(probs, dtype=np.float64)
    y = _check_loss_shapes(p, gt)
    inter = float((p * y).sum())
    return 1.0 - (2.0 * inter + smooth) / (float(p.sum()) + float(y.sum()) + smooth)


def combined_loss(probs, gt: BinaryMask) -> LossValue:
    """BCE plus Dice; ``total`` is their exact sum."""
    b = bce_loss(probs, gt)
    d = dice_loss(probs, gt)
    return LossValue(bce=b, dice=d, total=b + d)


def report_to_json(report: MetricsReport) -> str:
    doc = {
        "f1": report.f1,
        "iou": report.iou,
        "precision": report.precision,
        "recall": report.recall,
        "accuracy": report.accuracy,
        "pixel_confusion": {
            "tp": report.pixel_confusion.tp,
            "tn": report.pixel_confusion.tn,
            "fp": report.pixel_confusion.fp,
            "fn": report.pixel_confusion.fn,
        },
        "detection": [
            {"iou_threshold": t, "tp": tp, "fp": fp, "fn": fn}
            for t, tp, fp, fn in report.object_rows
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def report_from_json(text: str) -> MetricsReport:
    doc = json.loads(text)
    pc = doc["pixel_confusion"]
    return MetricsReport(
        accuracy=float(doc["accuracy"]),
        precision=float(doc["precision"]),
        recall=float(doc["recall"]),
        f1=float(doc["f1"]),
        iou=float(doc["iou"]),
        pixel_confusion=PixelConfusion(
            tp=int(pc["tp"]), tn=int(pc["tn"]), fp=int(pc["fp"]), fn=int(pc["fn"])
        ),
        object_rows=tuple(
            (float(r["iou_threshold"]), int(r["tp"]), int(r["fp"]), int(r["fn"]))
            for r in doc.get("detection", [])
        ),
    )


def check_label(label: str, key: str = "label") -> None:
    """Reject a row label that a CSV results table cannot hold."""
    if "," in label or "\n" in label:
        raise ValueError(f"{key} may not contain commas or newlines: {label!r}")


def report_to_csv(entries: list[tuple[str, MetricsReport]]) -> str:
    """One results-table row per (label, report): F1, IoU, Pre., Rec., Acc."""
    lines = ["label,f1,iou,precision,recall,accuracy"]
    for label, report in entries:
        check_label(label)
        lines.append(
            f"{label},{repr(report.f1)},{repr(report.iou)},{repr(report.precision)},"
            f"{repr(report.recall)},{repr(report.accuracy)}"
        )
    return "\n".join(lines) + "\n"


def evaluate_masks(
    pred: BinaryMask,
    gt: BinaryMask,
    ignore: BinaryMask | None = None,
    thresholds=DEFAULT_THRESHOLDS,
) -> MetricsReport:
    """Full report: pixel metrics plus the object detection curve.

    The object rows ignore *ignore*: they are :func:`detection_curve` of
    the two masks' components.
    """
    confusion = pixel_confusion(pred, gt, ignore)
    base = metrics_from_confusion(confusion)
    rows = detection_curve(components_from_mask(pred), components_from_mask(gt), thresholds)
    return MetricsReport(
        accuracy=base.accuracy,
        precision=base.precision,
        recall=base.recall,
        f1=base.f1,
        iou=base.iou,
        pixel_confusion=confusion,
        object_rows=tuple(rows),
    )
