"""Interpretability: per-instance weight scores and field correlations from
one taped forward pass, and corpus-level feature importance scored in chunks
without a tape.

The prediction head is a logistic regression over the last block's output,
so each field's signed contribution to the logit (model.field_weights) is
the dot product of its final embedding with the matching slice of the head
weights; those contributions plus the intercept reconstruct the logit
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from contextnet.data import EncodedDataset, FieldSchema
from contextnet.model import (
    ModelConfig,
    Params,
    field_weights,
    predict,
    require_finite,
    score_chunks,
)

IMPORTANCE_SUM = "sum"
IMPORTANCE_NORM = "norm"


@dataclass
class InstanceReport:
    weights: np.ndarray  # [f] signed contributions to the logit
    intercept: float
    logit: float
    score: float
    correlations: list[np.ndarray]  # per stage, symmetric [f, f] dot products


def explain_instance(
    params: Params, config: ModelConfig, instance: EncodedDataset, row: int = 0
) -> InstanceReport:
    """Weight scores and field correlations of a one-row dataset.

    The per-field weights plus the intercept sum to the prediction logit.
    correlations holds n_blocks + 1 matrices of pairwise dot products between
    field embeddings: level 0 is the embedding layer and level l the l-th
    block's output. A non-finite logit raises NonFiniteScore naming row, the
    instance's position in its dataset.
    """
    scores, tape = predict(instance, params, config)
    require_finite(tape, row)
    correlations = []
    for stage in tape.stages:
        g = stage[:, :, 0].T @ stage[:, :, 0]
        correlations.append(np.triu(g) + np.triu(g, 1).T)  # exactly symmetric
    return InstanceReport(
        weights=field_weights(tape.stages[-1], params, config)[:, 0],
        intercept=float(params["head_b"][0]),
        logit=float(tape.logits[0]),
        score=float(scores[0]),
        correlations=correlations,
    )


def corpus_feature_importance(
    params: Params,
    config: ModelConfig,
    dataset: EncodedDataset,
    schema: list[FieldSchema],
    tables: list[list[str]],
    mode: str,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate |per-field weight| per feature value over a dataset.

    sum mode totals the absolute contributions; norm mode divides by
    (n + alpha) where n counts the instances containing the feature value,
    damping rare features. Numerical fields aggregate under one per-field
    key. Returns (field position, index, count, score) arrays, one entry per
    value present, ordered by score descending, then field name, then token
    (tables[i] is field i's Vocabulary.token_table), then position and index.
    Chunks are scored without a tape (model.score_chunks); a non-finite
    logit raises NonFiniteScore.
    """
    fw_abs = np.empty((config.n_fields, len(dataset)))
    for rows, tape in score_chunks(dataset, params, config):
        np.abs(field_weights(tape.stages[-1], params, config), out=fw_abs[:, rows])

    parts = []
    for i in range(config.n_fields):
        # per feature value (a numerical field has one), its rows' terms
        # summed in row order from 0.0
        present, inverse, counts = np.unique(
            dataset.indices[:, i], return_inverse=True, return_counts=True
        )
        sums = np.bincount(inverse, weights=fw_abs[i], minlength=present.size)
        score = sums if mode == IMPORTANCE_SUM else sums / (counts + alpha)
        parts.append((np.full(present.size, i), present, counts, score))
    field, index, count, score = (np.concatenate(a) for a in zip(*parts))
    name_rank = np.argsort(np.argsort(np.array([f.name for f in schema], dtype=object)))
    order = np.lexsort((index, name_rank[field], -score))
    # runs of one field's values with exactly equal scores go by token, stably
    s, f = score[order], field[order]
    tie = (s[1:] == s[:-1]) & (f[1:] == f[:-1])
    tied = np.flatnonzero(np.diff(np.r_[False, tie, False]))  # run starts, ends
    for a, b in zip(tied[::2], tied[1::2] + 1):
        table = tables[f[a]]
        order[a:b] = sorted(order[a:b].tolist(), key=lambda r: table[index[r]])
    return field[order], index[order], count[order], score[order]
