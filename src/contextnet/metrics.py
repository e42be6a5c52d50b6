"""Evaluation metrics: rank-based AUC, log loss, relative AUC improvement."""
from __future__ import annotations

import numpy as np


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for tied scores.

    Equals the probability that a uniformly chosen positive outranks a
    uniformly chosen negative, ties counting one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.shape[0]
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined when only one class is present")
    _, group, ties = np.unique(scores, return_inverse=True, return_counts=True)
    group_rank = np.cumsum(ties) - (ties - 1) / 2.0  # average 1-based rank
    rank_sum = group_rank[group[pos]].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


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
