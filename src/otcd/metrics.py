"""Confusion matrices, per-class IoU, and the threshold sweep over scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import ChangeMap, classify

_N_CLASSES = 3
_CLASS_NAMES = ("unchanged", "new", "demolished")


def confusion(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """3x3 count matrix, rows ground truth, columns prediction."""
    gt = np.asarray(gt, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gt.shape != pred.shape or gt.ndim != 1:
        raise ValueError(f"label vectors differ in shape: {gt.shape} vs {pred.shape}")
    for name, v in (("gt", gt), ("pred", pred)):
        if v.size and (v.min() < 0 or v.max() >= _N_CLASSES):
            raise ValueError(f"{name} contains classes outside 0..{_N_CLASSES - 1}")
    return np.bincount(gt * _N_CLASSES + pred, minlength=_N_CLASSES**2).reshape(
        _N_CLASSES, _N_CLASSES
    )


@dataclass(frozen=True)
class Metrics:
    """Per-class IoU plus the mean over the two change classes; ``tau_used``
    is None when the classes were not thresholded here."""

    iou_per_class: tuple[float, float, float]
    mean_change_iou: float
    tau_used: float | None

    def to_dict(self) -> dict:
        return {
            "tau": self.tau_used,
            "iou": dict(zip(_CLASS_NAMES, self.iou_per_class)),
            "mean_change_iou": self.mean_change_iou,
        }


def iou(cm: np.ndarray, tau_used: float | None = None) -> Metrics:
    """IoU_c = TP / (TP + FP + FN) per class.

    A class absent from both ground truth and prediction has an empty
    union; its IoU is 1 by convention (nothing to get wrong), while a
    nonempty union with zero intersection scores 0.
    """
    cm = np.asarray(cm)
    if cm.shape != (_N_CLASSES, _N_CLASSES) or (cm < 0).any():
        raise ValueError(f"expected a nonnegative 3x3 matrix, got {cm.shape}")
    per_class = []
    for c in range(_N_CLASSES):
        tp = cm[c, c]
        union = cm[c, :].sum() + cm[:, c].sum() - tp
        per_class.append(float(tp / union) if union > 0 else 1.0)
    mean_change = 0.5 * (per_class[1] + per_class[2])
    return Metrics(
        iou_per_class=tuple(per_class),
        mean_change_iou=mean_change,
        tau_used=tau_used,
    )


def sweep_scores(
    change_map: ChangeMap, gt: np.ndarray, taus: list[float]
) -> tuple[float, list[Metrics]]:
    """Classify one run's scores at each threshold and pick the best one.

    Scores do not depend on tau, so a sweep is one ``detect_changes`` run
    followed by this call. Returns ``(best_tau, metrics_per_tau)`` with the
    grid evaluated in ascending order; the best tau maximizes mean IoU over
    the change classes, ties broken toward the smallest tau. A tau that is
    not positive and finite raises ``ValueError`` (see ``classify``).
    """
    if gt is None:
        raise ValueError("threshold sweep requires ground-truth labels")
    taus = sorted(float(t) for t in taus)
    if not taus:
        raise ValueError("tau grid is empty")
    results = []
    best_tau, best_value = taus[0], -1.0
    for tau in taus:
        m = iou(confusion(gt, classify(change_map.scores, tau)), tau_used=tau)
        results.append(m)
        if m.mean_change_iou > best_value:
            best_tau, best_value = tau, m.mean_change_iou
    return best_tau, results
