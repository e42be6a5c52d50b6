"""Interpretability tests: weight-score identities, corpus importance, correlations."""
import contextlib
import io
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.checkpoint import save_checkpoint
from contextnet.cli import main
from contextnet.data import (
    EncodedDataset,
    Vocabulary,
    encode_dataset,
    load_records,
    make_schema,
    save_vocabulary,
)
from contextnet.interpret import corpus_feature_importance, explain_instance
from contextnet.model import (
    SCORE_CHUNK,
    ModelConfig,
    NonFiniteScore,
    field_weights,
    init_params,
    predict,
    score_chunks,
)
from contextnet.ops import Rng, logit
from synth import integers

CARDS = [6, 5, 4]
CFG = ModelConfig(n_fields=3, embed_dim=4, agg_width=5, n_blocks=2)
# field i is named field_i; its token of index j >= 1 is #j (0 is <oov>)
SCHEMA = make_schema([(f"field_{i}", "cat") for i in range(len(CARDS))])
VOCAB = Vocabulary(
    tokens={f.name: [f"#{j}" for j in range(1, c)] for f, c in zip(SCHEMA, CARDS)}
)
TABLES = [VOCAB.token_table(f) for f in SCHEMA]


def random_instance(rng, cards):
    idx = np.array([[integers(rng, 0, c) for c in cards]], dtype=np.int64)
    return EncodedDataset(np.ones(1), idx, np.empty((1, 0)), ())


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
    return EncodedDataset(np.array([1.0, 0.0]), indices, np.empty((2, 0)), ())


def ranked_rows(params, ds, mode="norm", alpha=10.0):
    """corpus_feature_importance's arrays as (field, token, count, score) rows."""
    ranked = corpus_feature_importance(params, CFG, ds, SCHEMA, TABLES, mode, alpha)
    return [
        (SCHEMA[i].name, TABLES[i][j], n, score)
        for i, j, n, score in zip(*(a.tolist() for a in ranked))
    ]


class TestCorpusImportance:
    def test_single_instance_sum_equals_abs_instance_weight(self):
        params = trained_like_params(9)
        ds = two_instance_corpus().take(np.array([0]))
        rows = ranked_rows(params, ds, mode="sum")
        report = explain_instance(params, CFG, ds.take(slice(0, 1)))
        by_field = {field: score for field, _, _, score in rows}
        for i in range(3):
            assert by_field[f"field_{i}"] == pytest.approx(
                abs(report.weights[i]), abs=1e-12
            )

    def test_two_instance_norm_mode_hand_arithmetic(self):
        params = trained_like_params(10)
        ds = two_instance_corpus()
        r0 = explain_instance(params, CFG, ds.take(slice(0, 1)))
        r1 = explain_instance(params, CFG, ds.take(slice(1, 2)))
        rows = ranked_rows(params, ds, mode="norm", alpha=10.0)
        scores = {(field, token): score for field, token, _, score in rows}
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
        rows = ranked_rows(params, ds, mode="sum")
        listed = {(field, token): count for field, token, count, _ in rows}
        present = Counter(
            (f"field_{i}", TABLES[i][v]) for i in range(3) for v in ds.indices[:, i]
        )
        assert listed == present

    def test_sum_mode_monotone_under_appending(self):
        params = trained_like_params(12)
        rng = Rng(13)
        n = 30
        indices = np.stack([integers(rng, 0, c, (n,)) for c in CARDS], axis=1)
        ds = EncodedDataset(np.ones(n), indices, np.empty((n, 0)), ())
        prev = {}
        for size in (10, 20, 30):
            rows = ranked_rows(params, ds.take(np.arange(size)), mode="sum")
            cur = {(field, token): score for field, token, _, score in rows}
            for key, score in prev.items():
                assert cur.get(key, 0.0) >= score - 1e-12
            prev = cur

    def test_rows_sorted_descending(self):
        params = trained_like_params(14)
        ds = two_instance_corpus()
        scores = [score for _, _, _, score in ranked_rows(params, ds, mode="norm")]
        assert scores == sorted(scores, reverse=True)

    def test_non_finite_logit_names_first_bad_row(self):
        params = trained_like_params(15)
        n = 3 * SCORE_CHUNK
        indices = np.stack([integers(Rng(16), 0, c, (n,)) for c in CARDS], axis=1)
        ds = EncodedDataset(np.ones(n), indices, np.ones((n, 1)), (2,))
        bad = [SCORE_CHUNK + SCORE_CHUNK // 5, 2 * SCORE_CHUNK + SCORE_CHUNK // 5]
        ds.values[bad, 0] = np.nan
        with pytest.raises(NonFiniteScore, match=f"scored row {bad[0]}:"):
            corpus_feature_importance(params, CFG, ds, SCHEMA, TABLES, "norm", 10.0)


def oracle_lines(params, config, dataset, schema, vocab, mode, alpha):
    """Corpus importance row by row: one (field, token, count, score) per
    feature value present, sorted by (-score, field, token) and printed as
    `explain --corpus` prints a row. Tokens come from the token lists."""
    fw_abs = np.empty((config.n_fields, len(dataset)))
    for rows, tape in score_chunks(dataset, params, config):
        np.abs(field_weights(tape.stages[-1], params, config), out=fw_abs[:, rows])
    out = []
    for i, f in enumerate(schema):
        reverse = dict(enumerate(vocab.tokens.get(f.name, []), start=1))
        present, inverse = np.unique(dataset.indices[:, i], return_inverse=True)
        counts = np.bincount(inverse, minlength=present.size)
        sums = np.bincount(inverse, weights=fw_abs[i], minlength=present.size)
        for idx, n, total in zip(present.tolist(), counts.tolist(), sums.tolist()):
            score = total if mode == "sum" else total / (n + alpha)
            token = "<oov>" if idx == 0 else reverse[idx]
            out.append((f.name, "<numeric>" if f.kind == "num" else token, n, score))
    out.sort(key=lambda r: (-r[3], r[0], r[1]))
    return [f"{name}\t{token}\t{n}\t{score:.10f}" for name, token, n, score in out]


# field b sits before field a; each corpus lists a field's tokens in a drawn
# index order, which string order need not follow, and one of b's tokens
# prints as the OOV row does
ORACLE_FIELDS = [("b", "cat"), ("a", "cat"), ("n", "num")]
B_TOKENS = ["9", "10", "<oov>", "x", "Z"]
A_TOKENS = [str(j) for j in range(1, 9)]
ORACLE_CFG = ModelConfig(n_fields=3, embed_dim=3, agg_width=4, n_blocks=1)


@st.composite
def oracle_corpora(draw):
    """A vocabulary, a file of rows (a few repeated, some missing or unseen
    tokens) and parameters; a zero head ties every value, and embeddings
    shared by field a's tokens tie values of rows that agree elsewhere."""
    tokens = {
        "b": draw(st.permutations(B_TOKENS)),
        "a": draw(st.permutations(A_TOKENS)),
    }
    vocab = Vocabulary(tokens=tokens, numeric_stats={"n": (0.5, 2.0)})
    row = st.tuples(
        st.sampled_from(["0", "1"]),
        st.sampled_from(B_TOKENS + ["", "unseen"]),
        st.sampled_from(A_TOKENS + [""]),
        st.sampled_from(["", "0.5", "2", "-1"]),
    )
    rows = draw(st.lists(row, min_size=1, max_size=12)) * draw(st.integers(1, 3))
    params = init_params(ORACLE_CFG, [6, 9, 1], seed=0)
    rng = Rng(draw(st.integers(0, 2**16)))
    for t in params.values():
        t[...] = rng.normal(t.shape, scale=0.5)
    if draw(st.booleans()):
        params["head_w"][...] = 0.0
    if draw(st.booleans()):
        params["embed.1"][1:] = params["embed.1"][1 + np.arange(8) % 2]
    return vocab, rows, params


class TestCorpusOrderOracle:
    """explain --corpus prints the row-by-row builder's lines in its order."""

    @settings(max_examples=40, deadline=None)
    @given(
        corpus=oracle_corpora(),
        mode=st.sampled_from(["sum", "norm"]),
        alpha=st.sampled_from([0.0, 10.0]),
        extra_top=st.integers(1, 40),
    )
    def test_cli_lines_equal_oracle(self, corpus, mode, alpha, extra_top):
        vocab, rows, params = corpus
        schema = make_schema(ORACLE_FIELDS)
        with tempfile.TemporaryDirectory() as d:
            paths = {
                k: os.path.join(d, k) for k in ("schema", "data", "vocab", "checkpoint")
            }
            with open(paths["schema"], "w") as fh:
                fh.writelines(f"{name}\t{kind}\n" for name, kind in ORACLE_FIELDS)
            with open(paths["data"], "w") as fh:
                fh.writelines("\t".join(r) + "\n" for r in rows)
            save_vocabulary(vocab, paths["vocab"])
            save_checkpoint(
                paths["checkpoint"], params, ORACLE_CFG, [6, 9, 1], ORACLE_FIELDS, 0
            )
            dataset = encode_dataset(load_records(paths["data"], schema), schema, vocab)
            want = oracle_lines(params, ORACLE_CFG, dataset, schema, vocab, mode, alpha)
            argv = ["explain", "--corpus", mode]
            if mode == "norm":  # only norm mode damps, and takes --alpha
                argv += ["--alpha", str(alpha)]
            argv += [a for k, p in paths.items() for a in (f"--{k}", p)]
            for top in sorted({0, 1, 2, len(want) // 2, len(want), extra_top}):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv + ["--top", str(top)]) == 0
                lines = out.getvalue().splitlines()
                assert lines == ["field\ttoken\tcount\tscore"] + want[: top or None]


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
        inst = EncodedDataset(np.zeros(1), np.array([[1, 2, 3, 4]]), np.empty((1, 0)), ())
        level0 = explain_instance(params, config, inst).correlations[0]
        off = level0[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.01
