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

from contextnet.data import EncodedDataset, FieldSchema, Vocabulary
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


@dataclass
class ImportanceRow:
    field: str
    token: str
    count: int  # instances containing the feature value
    score: float


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
    vocab: Vocabulary,
    mode: str = IMPORTANCE_NORM,
    alpha: float = 10.0,
) -> list[ImportanceRow]:
    """Aggregate |per-field weight| per feature value over a dataset.

    sum mode totals the absolute contributions; norm mode divides by
    (n + alpha) where n counts the instances containing the feature value,
    damping rare features. Numerical fields aggregate under one per-field
    key. Rows are sorted by descending score; feature values absent from
    the dataset are not listed.
    Chunks are scored without a tape (model.score_chunks); a non-finite
    logit raises NonFiniteScore.
    """
    if mode not in (IMPORTANCE_SUM, IMPORTANCE_NORM):
        raise ValueError(f"unknown importance mode {mode!r}")
    fw_abs = np.empty((config.n_fields, len(dataset)))
    for rows, tape in score_chunks(dataset, params, config):
        np.abs(field_weights(tape.stages[-1], params, config), out=fw_abs[:, rows])

    out = []
    for i, f in enumerate(schema):
        # per feature value (a numerical field has one), its rows' terms
        # summed in row order from 0.0
        present, inverse = np.unique(dataset.indices[:, i], return_inverse=True)
        counts = np.bincount(inverse, minlength=present.size)
        sums = np.bincount(inverse, weights=fw_abs[i], minlength=present.size)
        for idx, n, total in zip(present.tolist(), counts.tolist(), sums.tolist()):
            score = total if mode == IMPORTANCE_SUM else total / (n + alpha)
            out.append(ImportanceRow(f.name, vocab.token_of(f.name, idx), n, score))
    out.sort(key=lambda r: (-r.score, r.field, r.token))
    return out
