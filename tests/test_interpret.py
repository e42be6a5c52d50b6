"""Interpretability tests: weight-score identities, corpus importance, correlations."""
from collections import Counter

import numpy as np
import pytest

from contextnet.data import EncodedDataset, Vocabulary, make_schema
from contextnet.interpret import corpus_feature_importance, explain_instance
from contextnet.model import ModelConfig, NonFiniteScore, init_params, predict
from contextnet.ops import Rng, logit

CARDS = [6, 5, 4]
CFG = ModelConfig(n_fields=3, embed_dim=4, agg_width=5, n_blocks=2)
# field i is named field_i; its token of index j >= 1 is #j (0 is <oov>)
SCHEMA = make_schema([(f"field_{i}", "cat") for i in range(len(CARDS))])
VOCAB = Vocabulary(
    tokens={f.name: {f"#{j}": j for j in range(1, c)} for f, c in zip(SCHEMA, CARDS)}
)


def random_instance(rng, cards):
    idx = np.array([[rng.integers(0, c) for c in cards]], dtype=np.int64)
    return EncodedDataset(np.ones(1), idx, np.ones((1, len(cards))))


def trained_like_params(seed=0):
    """Random nonzero parameters standing in for a trained checkpoint."""
    rng = Rng(seed)
    params = init_params(CFG, CARDS, seed)
    for t in params.values():
        t[...] = rng.normal(t.shape, scale=0.3)
    return params


class TestInstanceWeights:
    def test_zero_head_gives_zero_weights_and_sigmoid_intercept(self):
        params = init_params(CFG, CARDS, seed=1, pos_rate=0.3)
        inst = random_instance(Rng(2), CARDS)
        report = explain_instance(params, CFG, inst)
        assert not report.weights.any()
        assert report.score == pytest.approx(0.3, abs=1e-12)
        assert report.logit == pytest.approx(logit(0.3), abs=1e-12)

    def test_weights_sum_to_logit(self):
        params = trained_like_params(3)
        rng = Rng(4)
        for _ in range(50):
            inst = random_instance(rng, CARDS)
            report = explain_instance(params, CFG, inst)
            total = report.weights.sum() + report.intercept
            assert abs(total - report.logit) < 1e-10

    def test_sum_to_logit_matches_predict(self):
        params = trained_like_params(5)
        inst = random_instance(Rng(6), CARDS)
        report = explain_instance(params, CFG, inst)
        scores, _ = predict(inst, params, CFG)
        assert report.score == scores[0]


def two_instance_corpus():
    """Two hand-picked instances over tiny vocabularies."""
    indices = np.array([[1, 2, 0], [1, 1, 0]], dtype=np.int64)
    return EncodedDataset(np.array([1.0, 0.0]), indices, np.ones((2, 3)))


class TestCorpusImportance:
    def test_single_instance_sum_equals_abs_instance_weight(self):
        params = trained_like_params(9)
        ds = two_instance_corpus().take(np.array([0]))
        rows = corpus_feature_importance(params, CFG, ds, SCHEMA, VOCAB, mode="sum")
        report = explain_instance(params, CFG, ds.take(slice(0, 1)))
        by_field = {r.field: r.score for r in rows}
        for i in range(3):
            assert by_field[f"field_{i}"] == pytest.approx(
                abs(report.weights[i]), abs=1e-12
            )

    def test_two_instance_norm_mode_hand_arithmetic(self):
        params = trained_like_params(10)
        ds = two_instance_corpus()
        r0 = explain_instance(params, CFG, ds.take(slice(0, 1)))
        r1 = explain_instance(params, CFG, ds.take(slice(1, 2)))
        rows = corpus_feature_importance(
            params, CFG, ds, SCHEMA, VOCAB, mode="norm", alpha=10.0
        )
        scores = {(r.field, r.token): r.score for r in rows}
        # field_0 token #1 appears in both instances: (|w0| + |w1|) / (2 + 10)
        want = (abs(r0.weights[0]) + abs(r1.weights[0])) / 12.0
        assert scores[("field_0", "#1")] == pytest.approx(want, abs=1e-12)
        # field_1 tokens #2 and #1 appear once each: |w| / (1 + 10)
        assert scores[("field_1", "#2")] == pytest.approx(
            abs(r0.weights[1]) / 11.0, abs=1e-12
        )
        assert scores[("field_1", "#1")] == pytest.approx(
            abs(r1.weights[1]) / 11.0, abs=1e-12
        )

    def test_absent_values_not_listed(self):
        params = trained_like_params(11)
        ds = two_instance_corpus()
        rows = corpus_feature_importance(params, CFG, ds, SCHEMA, VOCAB, mode="sum")
        listed = {(r.field, r.token): r.count for r in rows}
        present = Counter(
            (f"field_{i}", VOCAB.token_of(f"field_{i}", v))
            for i in range(3)
            for v in ds.indices[:, i]
        )
        assert listed == present

    def test_sum_mode_monotone_under_appending(self):
        params = trained_like_params(12)
        rng = Rng(13)
        n = 30
        indices = np.stack([rng.integers(0, c, (n,)) for c in CARDS], axis=1)
        ds = EncodedDataset(np.ones(n), indices, np.ones((n, 3)))
        prev = {}
        for size in (10, 20, 30):
            rows = corpus_feature_importance(
                params, CFG, ds.take(np.arange(size)), SCHEMA, VOCAB, mode="sum"
            )
            cur = {(r.field, r.token): r.score for r in rows}
            for key, score in prev.items():
                assert cur.get(key, 0.0) >= score - 1e-12
            prev = cur

    def test_rows_sorted_descending(self):
        params = trained_like_params(14)
        ds = two_instance_corpus()
        rows = corpus_feature_importance(params, CFG, ds, SCHEMA, VOCAB, mode="norm")
        scores = [r.score for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_non_finite_logit_names_first_bad_row(self):
        params = trained_like_params(15)
        n = 3 * 4096
        indices = np.stack([Rng(16).integers(0, c, (n,)) for c in CARDS], axis=1)
        ds = EncodedDataset(np.ones(n), indices, np.ones((n, 3)))
        ds.values[[5000, 9000], 2] = np.nan
        with pytest.raises(NonFiniteScore, match="scored row 5000:"):
            corpus_feature_importance(params, CFG, ds, SCHEMA, VOCAB)


class TestBlockDotProducts:
    def test_count_and_shapes(self):
        params = trained_like_params(15)
        inst = random_instance(Rng(16), CARDS)
        mats = explain_instance(params, CFG, inst).correlations
        assert len(mats) == CFG.n_blocks + 1
        assert all(m.shape == (3, 3) for m in mats)

    def test_exact_symmetry(self):
        params = trained_like_params(17)
        inst = random_instance(Rng(18), CARDS)
        for m in explain_instance(params, CFG, inst).correlations:
            assert np.array_equal(m, m.T)

    def test_diagonal_is_squared_norm(self):
        params = trained_like_params(19)
        inst = random_instance(Rng(20), CARDS)
        _, tape = predict(inst, params, CFG)
        mats = explain_instance(params, CFG, inst).correlations
        embed_vectors = tape.stages[0][:, :, 0].T
        for i in range(3):
            # independent norm oracle: sum of squares via python loop
            want = sum(float(v) ** 2 for v in embed_vectors[i])
            assert mats[0][i, i] == pytest.approx(want, rel=1e-12)

    def test_fresh_small_init_has_near_zero_off_diagonals(self):
        config = ModelConfig(n_fields=4, embed_dim=10, agg_width=5, n_blocks=1)
        params = init_params(config, [9, 9, 9, 9], seed=21)
        inst = EncodedDataset(np.zeros(1), np.array([[1, 2, 3, 4]]), np.ones((1, 4)))
        level0 = explain_instance(params, config, inst).correlations[0]
        off = level0[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.01
