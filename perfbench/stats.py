"""The benchmark's own statistics, kept apart from the program under test."""
from __future__ import annotations

import math
import statistics

import numpy as np


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with tied scores counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = scores.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    uniq, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # mid-rank of each distinct score (1-based)
    mid = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = float(mid[inverse][pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_standard_error(a: float, n_pos: int, n_neg: int) -> float:
    """Hanley-McNeil (1982) standard error of an AUC estimate."""
    q1 = a / (2.0 - a)
    q2 = 2.0 * a * a / (1.0 + a)
    var = (
        a * (1.0 - a)
        + (n_pos - 1) * (q1 - a * a)
        + (n_neg - 1) * (q2 - a * a)
    ) / (n_pos * n_neg)
    return math.sqrt(max(var, 0.0))


def binary_entropy(p: float) -> float:
    """Log loss (nats) of always predicting the rate p on labels with rate p."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median, as
    statistics.quantiles(values, n=4) gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
