"""Confusion matrices, per-class IoU, and the threshold sweep over scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import ChangeMap, _check_tau, classify
from .io import VALID_CLASSES, _check_classes

_N_CLASSES = len(VALID_CLASSES)
_CLASS_NAMES = ("unchanged", "new", "demolished")


def confusion(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """3x3 count matrix, rows ground truth, columns prediction; every value
    must be a class id from ``VALID_CLASSES`` (2.0 is 2, 2.7 is refused)."""
    gt, pred = np.asarray(gt), np.asarray(pred)
    if gt.shape != pred.shape or gt.ndim != 1:
        raise ValueError(f"label vectors differ in shape: {gt.shape} vs {pred.shape}")
    gt, pred = _check_classes(gt, "gt"), _check_classes(pred, "pred")
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


def _tau_grid(taus) -> list[float]:
    """``taus`` in ascending order; raise ``ValueError`` unless it is a
    non-empty list of distinct, positive, finite thresholds."""
    grid = sorted(float(t) for t in taus)
    if not grid:
        raise ValueError("tau grid is empty")
    for k, tau in enumerate(grid):
        _check_tau(tau)
        if k and tau == grid[k - 1]:
            raise ValueError(f"tau grid repeats {tau}")
    return grid


def sweep_scores(
    change_map: ChangeMap, gt: np.ndarray, taus: list[float]
) -> tuple[float, list[Metrics]]:
    """Classify one run's scores at each threshold and pick the best one.

    Scores do not depend on tau, so a sweep is one ``detect_changes`` run
    followed by this call. Returns ``(best_tau, metrics_per_tau)`` with the
    grid evaluated in ascending order; the best tau maximizes mean IoU over
    the change classes, ties broken toward the smallest tau. An empty grid,
    a repeated tau or a tau that is not positive and finite is a ValueError.
    """
    if gt is None:
        raise ValueError("threshold sweep requires ground-truth labels")
    taus = _tau_grid(taus)
    results = []
    best_tau, best_value = taus[0], -1.0
    for tau in taus:
        m = iou(confusion(gt, classify(change_map.scores, tau)), tau_used=tau)
        results.append(m)
        if m.mean_change_iou > best_value:
            best_tau, best_value = tau, m.mean_change_iou
    return best_tau, results
