"""Evaluation metrics: rank-based AUC, log loss, relative AUC improvement."""
from __future__ import annotations

import numpy as np


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: the probability that a uniformly chosen positive
    outranks a uniformly chosen negative, ties counting one half. Binary
    search in the sorted negatives counts U, the numerator, exactly."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    hit, neg = scores[pos], scores[~pos]
    if hit.size == 0 or neg.size == 0:
        raise ValueError("AUC is undefined when only one class is present")
    hit.sort()  # sorted keys keep the searches cache-friendly
    neg.sort()
    below = np.searchsorted(neg, hit, "left").sum()
    tied = np.searchsorted(neg, hit, "right").sum() - below
    return float((below + tied / 2.0) / (hit.size * neg.size))


def logloss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy with log arguments clamped to [1e-12, 1 - 1e-12]."""
    p = np.clip(np.asarray(scores, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def rela_imp(auc_model: float, auc_base: float) -> float:
    """Relative AUC improvement after removing the 0.5 random-guess floor."""
    if auc_base <= 0.5:
        raise ValueError(f"base AUC must exceed 0.5, got {auc_base}")
    return (auc_model - 0.5) / (auc_base - 0.5) - 1.0
