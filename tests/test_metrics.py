"""Metric tests: AUC vs pairwise and average-rank oracles, log loss,
relative improvement."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.data import EncodedDataset
from contextnet.metrics import auc, logloss, rela_imp
from contextnet.model import ModelConfig, init_params, loss_and_grads, predict_scores
from contextnet.ops import Rng
from synth import integers


def pairwise_auc(scores, labels):
    """O(P*N) oracle: fraction of positive/negative pairs correctly ordered,
    ties counting one half."""
    scores = np.asarray(scores)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def average_rank_auc(scores, labels):
    """Rank-sum oracle: each tie group takes its average 1-based rank, and
    U is the positives' rank sum less its minimum n_pos * (n_pos + 1) / 2."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = scores.shape[0] - n_pos
    _, group, ties = np.unique(scores, return_inverse=True, return_counts=True)
    group_rank = np.cumsum(ties) - (ties - 1) / 2.0
    rank_sum = group_rank[group[pos]].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def random_case(seed, n, levels, pos_rate):
    """n scores quantized to `levels` steps (0 = not quantized) and float
    labels of both classes."""
    rng = Rng(seed)
    scores = rng.random((n,))
    if levels:
        scores = np.round(scores * levels) / levels
    labels = (rng.random((n,)) < pos_rate).astype(np.float64)
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    return scores, labels


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_scores_equal(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)
        assert pairwise_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.9], [1, 1])

    @given(seed=st.integers(0, 2**32), n=st.integers(2, 200))
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_oracle_with_ties(self, seed, n):
        rng = Rng(seed)
        # quantized scores force plenty of ties
        scores = np.round(rng.random((n,)) * 8) / 8
        labels = (rng.random((n,)) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pairwise_auc(scores, labels)  # U is exact

    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(2, 100_000),
        levels=st.sampled_from([0, 1, 8, 1000]),
        pos_rate=st.sampled_from([0.001, 0.3, 0.5, 0.97]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_average_rank_formula(self, seed, n, levels, pos_rate):
        scores, labels = random_case(seed, n, levels, pos_rate)
        assert auc(scores, labels) == average_rank_auc(scores, labels)

    def test_memory_per_row(self):
        """The two classes' sorted scores and one search's counts: under 24
        bytes per row (the average-rank formula's np.unique takes about 66)."""
        n = 100_000
        scores, labels = random_case(7, n, 0, 0.3)
        tracemalloc.start()
        try:
            auc(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n, peak / n

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = Rng(seed)
        scores = rng.random((60,))
        labels = (rng.random((60,)) < 0.4).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        transformed = np.exp(3.0 * scores) + 7.0
        assert auc(scores, labels) == pytest.approx(
            auc(transformed, labels), abs=1e-12
        )

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_complement_property(self, seed):
        rng = Rng(seed)
        scores = np.round(rng.random((50,)) * 4) / 4
        labels = (rng.random((50,)) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(
            1.0, abs=1e-12
        )


class TestLogloss:
    def test_half_scores(self):
        assert logloss([0.5, 0.5], [0, 1]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_confident_correct_is_near_zero(self):
        assert logloss([1.0], [1]) < 1e-11

    def test_confident_wrong_is_clamped_finite(self):
        v = logloss([1.0], [0])
        assert np.isfinite(v)
        assert v == pytest.approx(-np.log(1e-12), rel=1e-6)

    def test_matches_model_loss(self):
        """Without l2, the training loss is the log loss the metrics report
        on the model's own scores, bit for bit."""
        cards = [6, 5, 4]
        config = ModelConfig(n_fields=3, embed_dim=4, agg_width=5, n_blocks=2)
        rng = Rng(1)
        params = init_params(config, cards, seed=1)
        for t in params.values():
            t[...] = rng.normal(t.shape, scale=0.3)
        n = 200
        indices = np.stack([integers(rng, 0, c, (n,)) for c in cards], axis=1)
        labels = (rng.random((n,)) < 0.5).astype(float)
        batch = EncodedDataset(labels, indices, np.empty((n, 0)), ())
        loss, _ = loss_and_grads(batch, params, config)
        assert loss == logloss(predict_scores(batch, params, config), labels)


class TestRelaImp:
    def test_published_pairs(self):
        # percentage points match the reported columns within 0.01pp
        assert rela_imp(0.8107, 0.7895) * 100 == pytest.approx(7.32, abs=0.01)
        assert rela_imp(0.8681, 0.8446) * 100 == pytest.approx(6.82, abs=0.01)
        assert rela_imp(0.7408, 0.7166) * 100 == pytest.approx(11.17, abs=0.01)

    def test_equal_models_zero(self):
        assert rela_imp(0.77, 0.77) == 0.0

    def test_base_at_or_below_half_rejected(self):
        with pytest.raises(ValueError):
            rela_imp(0.8, 0.5)
        with pytest.raises(ValueError):
            rela_imp(0.8, 0.49)
