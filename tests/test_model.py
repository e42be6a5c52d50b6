"""Model tests: initialization, forward contracts, sharing, counts, checkpoints."""
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from contextnet import checkpoint as ckpt_module
from contextnet import model as model_module
from contextnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from contextnet.data import EncodedDataset
from contextnet.model import (
    INLINE,
    SCORE_CHUNK,
    ModelConfig,
    NonFiniteScore,
    embed,
    init_params,
    l2_norm,
    loss_and_grads,
    param_shapes,
    predict,
    predict_scores,
    score_chunks,
)
from contextnet.metrics import logloss
from contextnet.ops import Rng, layer_norm, mix_seed, sigmoid
from synth import integers


def random_batch(rng, size, cards, numerical=()):
    """Random indices and labels; the fields at positions `numerical` have
    value 1.0 until a test sets them."""
    idx = np.stack([integers(rng, 0, c, (size,)) for c in cards], axis=1)
    labels = (rng.random((size,)) < 0.5).astype(float)
    return EncodedDataset(labels, idx, np.ones((size, len(numerical))), numerical)


def traced_peak(fn, *args):
    """Peak traced bytes allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_values(batch, n_fields):
    """Every field's value, [n, f]: 1.0 for a categorical field."""
    values = np.ones((len(batch), n_fields))
    values[:, list(batch.numerical)] = batch.values
    return values


def randomized(params, seed):
    """O(0.4) values in every tensor, so every path of the forward pass
    carries signal."""
    rng = Rng(seed)
    for t in params.values():
        t[...] = rng.normal(t.shape, scale=0.4)
    return params


def force_ones_context(params):
    """Zero aggregation and projection weights with projection bias 1: every
    block's contextual embedding becomes all ones (acceptance criterion 3)."""
    for name, t in params.items():
        if name.startswith(("agg_", "proj_w")):
            t[...] = 0.0
        elif name.startswith("proj_b"):
            t[...] = 1.0


CARDS = [5, 4, 3]
CFG = ModelConfig(n_fields=3, embed_dim=4, agg_width=5, n_blocks=2)
FIELDS = [("a", "cat"), ("b", "cat"), ("c", "cat")]


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(CFG, CARDS, seed=9)
        b = init_params(CFG, CARDS, seed=9)
        for (na, ta), (nb, tb) in zip(a.items(), b.items()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_ln_gain_ones_bias_zeros(self):
        p = init_params(CFG, CARDS, seed=0)
        for block in range(CFG.n_blocks):
            assert np.array_equal(p[f"ln_gain.{block}"], np.ones(4))
            assert not p[f"ln_bias.{block}"].any()

    def test_fan_based_bound_for_aggregation(self):
        # t=20, m=39*10=390 -> bound sqrt(6/410)
        config = ModelConfig(n_fields=39, embed_dim=10, agg_width=20, n_blocks=1)
        p = init_params(config, [3] * 39, seed=1)
        bound = np.sqrt(6.0 / (390 + 20))
        w = p["agg_w.0"]
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound  # actually fills the range

    def test_head_starts_at_prior(self):
        p = init_params(CFG, CARDS, seed=0, pos_rate=0.25)
        assert not p["head_w"].any()
        assert sigmoid(p["head_b"])[0] == pytest.approx(0.25, abs=1e-12)

    def test_embedding_scale(self):
        p = init_params(CFG, CARDS, seed=3)
        flat = np.concatenate([p[f"embed.{i}"].ravel() for i in range(3)])
        assert abs(flat.std() - 0.01) < 0.003

    def test_weights_drawn_block_by_block(self):
        """The draw order (ffn_w1.b, then ffn_w2.b, per block) differs from
        the mapping's order (every ffn_w1 before any ffn_w2)."""
        config = replace(CFG, variant="pffn", sharing="agg")
        p = init_params(config, CARDS, seed=4)
        rng = Rng(mix_seed(4, 0x1217))
        for i, card in enumerate(CARDS):
            assert np.array_equal(p[f"embed.{i}"], rng.normal((card, 4), scale=0.01))

        def glorot(name, fan_sum):
            bound = np.sqrt(6.0 / fan_sum)
            assert np.array_equal(p[name], rng.uniform(-bound, bound, p[name].shape))

        glorot("agg_w.0", 12 + 5)
        glorot("proj_w.0", 5 + 4)
        glorot("proj_w.1", 5 + 4)
        for block in range(2):
            glorot(f"ffn_w1.{block}", 4 + 4)
            glorot(f"ffn_w2.{block}", 4 + 4)


class TestEmbed:
    def test_numeric_zero_value_gives_zero_vector(self):
        p = init_params(CFG, CARDS, seed=0)
        batch = EncodedDataset(
            np.zeros(1), np.zeros((1, 3), dtype=np.int32), np.zeros((1, 3)), (0, 1, 2)
        )
        assert not embed(batch, p, CFG).any()

    def test_numeric_unit_value_returns_table_row(self):
        p = init_params(CFG, CARDS, seed=0)
        batch = EncodedDataset(
            np.zeros(1),
            np.array([[2, 1, 0]], dtype=np.int32),
            np.array([[1.0, 1.0, 1.0]]),
            (0, 1, 2),
        )
        e = embed(batch, p, CFG)
        assert np.array_equal(e[:, 0, 0], p["embed.0"][2])
        assert np.array_equal(e[:, 1, 0], p["embed.1"][1])

    def test_hand_lookup_two_fields_with_values(self):
        config = ModelConfig(n_fields=2, embed_dim=2, n_blocks=0)
        p = init_params(config, [2, 1], seed=0)
        p["embed.0"][...] = [[1.0, 2.0], [3.0, 4.0]]
        p["embed.1"][...] = [[5.0, 6.0]]
        batch = EncodedDataset(
            np.zeros(1), np.array([[1, 0]], dtype=np.int32), np.array([[0.5]]), (1,)
        )
        e = embed(batch, p, config)
        assert e[:, :, 0].T.tolist() == [[3.0, 4.0], [2.5, 3.0]]

    def test_out_of_range_index_rejected(self):
        p = init_params(CFG, CARDS, seed=0)
        batch = EncodedDataset(
            np.zeros(1), np.array([[9, 0, 0]], dtype=np.int32), np.empty((1, 0)), ()
        )
        with pytest.raises(IndexError):
            embed(batch, p, CFG)


class TestTceForward:
    """The contextual embeddings as predict's tape records them."""

    def test_zero_weights_give_zero_context(self):
        p = init_params(CFG, CARDS, seed=0)
        p["agg_w.0"][...] = 0.0
        p["agg_b.0"][...] = 0.0
        p["proj_b.0"][...] = 0.0
        _, tape = predict(random_batch(Rng(1), 4, CARDS), p, CFG)
        assert not tape.context[0].any()

    def test_identity_like_two_dim_composition(self):
        # one field, k = t = m = 2, identity weights: CE = relu(E)
        config = ModelConfig(n_fields=1, embed_dim=2, agg_width=2, n_blocks=1)
        p = init_params(config, [3], seed=0)
        p["embed.0"][1] = [1.0, -1.0]
        p["agg_w.0"][...] = np.eye(2)
        p["agg_b.0"][...] = 0.0
        p["proj_w.0"][0] = np.eye(2)
        p["proj_b.0"][...] = 0.0
        batch = EncodedDataset(np.zeros(1), np.array([[1]]), np.empty((1, 0)), ())
        _, tape = predict(batch, p, config)
        assert tape.context[0][:, 0, 0].tolist() == [1.0, 0.0]

    def test_share_agg_blocks_share_preactivation(self):
        config = replace(CFG, sharing="agg")
        p = randomized(init_params(config, CARDS, seed=2), 2)
        # one aggregation tensor: block 1 reuses slot 0
        assert config.agg_slot(0) == config.agg_slot(1) == 0
        assert "agg_w.1" not in p
        # projections remain per-block, so CE differs
        _, tape = predict(random_batch(Rng(3), 4, CARDS), p, config)
        assert tape.context[0].shape == tape.context[1].shape
        assert not np.allclose(tape.context[0], tape.context[1])

    def test_batched_matches_single(self):
        p = randomized(init_params(CFG, CARDS, seed=4), 4)
        batch = random_batch(Rng(5), 6, CARDS)
        _, tape = predict(batch, p, CFG)
        for i in range(6):
            _, single = predict(batch.take([i]), p, CFG)
            assert np.allclose(
                tape.context[1][:, 2, i], single.context[1][:, 2, 0], atol=1e-15
            )

    def test_share_agg_identical_preactivation_across_blocks(self):
        config = replace(CFG, sharing="agg")
        p = init_params(config, CARDS, seed=30)
        batch = random_batch(Rng(31), 5, CARDS)
        _, tape = predict(batch, p, config)
        assert np.array_equal(tape.agg_act[0], tape.agg_act[1])


class TestBlockForward:
    """One block's output, stages[1], against its input stages[0]."""

    def test_all_ones_context_is_hadamard_identity(self):
        config = replace(CFG, no_ffn=True)
        p = randomized(init_params(config, CARDS, seed=0), 6)
        force_ones_context(p)
        _, tape = predict(random_batch(Rng(6), 3, CARDS), p, config)
        assert np.array_equal(tape.context[0], np.ones((4, 3, 3)))
        assert np.array_equal(tape.stages[1], tape.stages[0])

    def test_sffn_identity_weights_reduce_to_layer_norm(self):
        config = ModelConfig(
            n_fields=2, embed_dim=2, agg_width=2, n_blocks=1, variant="sffn"
        )
        p = init_params(config, [3, 3], seed=0)
        force_ones_context(p)
        p["ffn_w1.0"][...] = np.eye(2)
        e_prev = np.array([[0.3, -0.9], [2.0, 1.0]])
        p["embed.0"][1] = e_prev[0]
        p["embed.1"][1] = e_prev[1]
        batch = EncodedDataset(np.zeros(1), np.array([[1, 1]]), np.empty((1, 0)), ())
        _, tape = predict(batch, p, config)
        want, _ = layer_norm(e_prev.T, np.ones(2), np.zeros(2), eps=1e-5)
        assert np.allclose(tape.stages[1][:, :, 0], want, atol=1e-15)

    def test_pffn_residual_flag(self):
        config = replace(CFG, variant="pffn")
        p = randomized(init_params(config, CARDS, seed=1), 7)
        batch = random_batch(Rng(8), 3, CARDS)
        _, with_rc = predict(batch, p, config)
        _, without = predict(batch, p, replace(config, no_rc=True))
        assert not np.allclose(with_rc.stages[1], without.stages[1])


class TestPredict:
    def test_zero_head_scores_half(self):
        p = init_params(CFG, CARDS, seed=0)
        batch = random_batch(Rng(1), 8, CARDS)
        scores, _ = predict(batch, p, CFG)
        assert np.array_equal(scores, np.full(8, 0.5))

    def test_l0_equals_independent_logistic_regression(self):
        """Separately coded LR forward over embedding bits."""
        config = ModelConfig(n_fields=3, embed_dim=4, n_blocks=0)
        p = init_params(config, CARDS, seed=3)
        rng = Rng(4)
        p["head_w"][...] = rng.normal((12,))
        p["head_b"][0] = rng.normal((1,))[0]
        batch = random_batch(rng, 1000, CARDS, numerical=(2,))
        batch.values[:, 0] = rng.normal((1000,), loc=1.0, scale=0.5)
        scores, _ = predict(batch, p, config)
        values = dense_values(batch, 3)
        for i in range(1000):
            acc = p["head_b"][0]
            for fld in range(3):
                e = p[f"embed.{fld}"][batch.indices[i, fld]] * values[i, fld]
                acc += float(np.dot(p["head_w"][fld * 4 : (fld + 1) * 4], e))
            lr_score = 1.0 / (1.0 + np.exp(-acc))
            assert abs(scores[i] - lr_score) < 1e-12

    def test_single_instance_hand_trace(self):
        """f=2, k=2, L=1 sffn model traced end to end by hand."""
        config = ModelConfig(
            n_fields=2, embed_dim=2, agg_width=2, n_blocks=1, variant="sffn"
        )
        p = init_params(config, [2, 2], seed=0)
        p["embed.0"][...] = [[0.0, 0.0], [1.0, 2.0]]
        p["embed.1"][...] = [[0.0, 0.0], [-1.0, 0.5]]
        p["agg_w.0"][...] = [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
        p["agg_b.0"][...] = [0.1, -0.2]
        p["proj_w.0"][...] = [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.0, 1.0]],
        ]
        p["proj_b.0"][...] = [[0.0, 0.1], [0.2, 0.0]]
        p["ffn_w1.0"][...] = [[1.0, 1.0], [0.0, 1.0]]
        p["head_w"][...] = [0.4, -0.3, 0.2, 0.1]
        p["head_b"][0] = 0.05

        batch = EncodedDataset(np.ones(1), np.array([[1, 1]]), np.empty((1, 0)), ())
        scores, _ = predict(batch, p, config)

        # embedding layer: E = [1, 2, -1, 0.5]
        e = np.array([1.0, 2.0, -1.0, 0.5])
        # aggregation: relu(A e + a)
        h = np.maximum(np.array([1.0 * 1 + 1.0 * 0.5, 2.0 - 1.0]) + [0.1, -0.2], 0.0)
        # projections per field
        ce0 = np.array([h[0], h[1]]) + [0.0, 0.1]
        ce1 = np.array([0.5 * h[0] + 0.5 * h[1], h[1]]) + [0.2, 0.0]
        merged0 = e[:2] * ce0
        merged1 = e[2:] * ce1
        w1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        v0 = merged0 @ w1
        v1 = merged1 @ w1

        def ln(v):
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return (v - mu) / np.sqrt(var + 1e-5)

        out = np.concatenate([ln(v0), ln(v1)])
        z = 0.05 + float(np.dot([0.4, -0.3, 0.2, 0.1], out))
        assert scores[0] == pytest.approx(1.0 / (1.0 + np.exp(-z)), abs=1e-12)

    def test_forward_deterministic(self):
        p = init_params(CFG, CARDS, seed=5)
        batch = random_batch(Rng(6), 32, CARDS)
        s1, _ = predict(batch, p, CFG)
        s2, _ = predict(batch, p, CFG)
        assert np.array_equal(s1, s2)

    def test_tce_input_is_embedding_layer_object(self):
        """Every block's TCE input is the embedding-layer output (never a
        refined block output)."""
        p = randomized(init_params(CFG, CARDS, seed=7), 7)
        batch = random_batch(Rng(8), 4, CARDS)
        _, tape = predict(batch, p, CFG)
        e0_flat = tape.stages[0].reshape(CFG.flat_dim, 4)  # rows in [k, f] order
        for block in range(CFG.n_blocks):
            agg_w = p[f"agg_w.{block}"].reshape(5, 3, 4).transpose(0, 2, 1)
            want = agg_w.reshape(5, -1) @ e0_flat + p[f"agg_b.{block}"][:, None]
            assert np.array_equal(tape.agg_act[block], np.maximum(want, 0))


ABLATIONS = [{}, {"no_tce": True}, {"no_ffn": True}, {"no_ln": True}, {"no_rc": True}]
NO_TAPE_CONFIGS = [
    replace(CFG, variant=variant, sharing=sharing, **ablation)
    for variant in ("sffn", "pffn")
    for sharing in ("none", "agg", "agg-proj")
    for ablation in ABLATIONS
] + [replace(CFG, variant=variant, n_blocks=0) for variant in ("sffn", "pffn")]


class TestScoringWithoutTape:
    """predict(keep_tape=False) runs the taped pass's arithmetic in less
    memory, so its outputs are bitwise equal."""

    @pytest.mark.parametrize("config", NO_TAPE_CONFIGS, ids=repr)
    def test_bitwise_equal_to_taped_pass(self, config):
        p = randomized(init_params(config, CARDS, seed=11), 12)
        batch = random_batch(Rng(13), 300, CARDS)
        taped_scores, taped = predict(batch, p, config)
        scores, tape = predict(batch, p, config, keep_tape=False)
        assert scores.tobytes() == taped_scores.tobytes()
        assert tape.logits.tobytes() == taped.logits.tobytes()
        assert len(tape.stages) == 1
        assert tape.stages[0].tobytes() == taped.stages[-1].tobytes()
        assert not (tape.context or tape.merged or tape.ln or tape.agg_act)

    def test_multi_chunk_scores_equal_chunkwise_taped_predict(self):
        config = replace(CFG, variant="pffn", sharing="agg")
        p = randomized(init_params(config, CARDS, seed=14), 15)
        data = random_batch(Rng(16), 2 * SCORE_CHUNK + 123, CARDS)
        want = np.concatenate(
            [
                predict(data.take(slice(s, s + SCORE_CHUNK)), p, config)[0]
                for s in range(0, len(data), SCORE_CHUNK)
            ]
        )
        assert predict_scores(data, p, config).tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", ["sffn", "pffn"])
    def test_peak_memory_bounded_by_chunk(self, variant):
        """Peak traced memory of scoring two full chunks at the ML-1m shape
        stays within 12 activations of [SCORE_CHUNK, f, k] float64 (keeping
        the tape took 17 for sffn, 23 for pffn)."""
        cards = [2, 7, 21, 500, 800, 18, 81]
        config = ModelConfig(n_fields=7, variant=variant)
        p = randomized(init_params(config, cards, seed=17), 18)
        data = random_batch(Rng(19), 2 * SCORE_CHUNK, cards)
        activation = SCORE_CHUNK * config.flat_dim * 8
        peak = traced_peak(predict_scores, data, p, config)
        assert peak <= 12 * activation, peak / activation

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's, for the nan rows
    def test_non_finite_logit_names_first_bad_row(self):
        p = randomized(init_params(CFG, CARDS, seed=20), 21)
        data = random_batch(Rng(22), 4 * SCORE_CHUNK + 5, CARDS, numerical=(1,))
        bad = [2 * SCORE_CHUNK + SCORE_CHUNK // 5, 2 * SCORE_CHUNK + SCORE_CHUNK * 9 // 10]
        data.values[bad, 0] = [np.nan, np.inf]
        with pytest.raises(NonFiniteScore, match=f"scored row {bad[0]}:"):
            predict_scores(data, p, CFG)

    def test_peak_memory_at_wide_shape(self):
        """Scoring 3 * 4096 rows of 39 fields (13 numerical) stays within
        24 MB of traced memory. Two 1024-row chunks in flight peak at about
        18 MB; one at a time, 1024-row chunks peaked at 16.6 MB and
        4096-row chunks at 66 MB."""
        cards = [1] * 13 + [3, 10, 100, 1000, 10**4, 10**5] * 4 + [50, 500]
        config = ModelConfig(n_fields=len(cards))
        p = randomized(init_params(config, cards, seed=23), 24)
        data = random_batch(Rng(25), 3 * 4096, cards, numerical=tuple(range(13)))
        peak = traced_peak(predict_scores, data, p, config)
        assert peak <= 24e6, peak / 1e6


class TestThreadedScoring:
    """score_chunks scores SCORE_WORKERS chunks at once on pool threads;
    the threads neither change a bit nor outlive the scoring."""

    @staticmethod
    def overflowing(n_rows, bad):
        """Randomized CFG parameters and n_rows rows whose rows `bad` carry a
        numerical value so large that their logits overflow."""
        p = randomized(init_params(CFG, CARDS, seed=26), 27)
        data = random_batch(Rng(28), n_rows, CARDS, numerical=(1,))
        data.values[bad, 0] = 1e300
        return p, data

    def test_workers_follow_the_callers_error_state(self, monkeypatch):
        """Without a filterwarnings mark, any NumPy RuntimeWarning fails the
        test (pyproject.toml); a pool thread that did not run under the
        caller's np.errstate would warn on the overflow instead of leaving
        it to the finite check."""
        monkeypatch.setattr(model_module, "SCORE_WORKERS", 2)
        bad = [SCORE_CHUNK + 17, 2 * SCORE_CHUNK + 3]
        p, data = self.overflowing(3 * SCORE_CHUNK, bad)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteScore, match=f"scored row {bad[0]}:"):
                predict_scores(data, p, CFG)

    def test_no_thread_outlives_scoring(self, monkeypatch):
        monkeypatch.setattr(model_module, "SCORE_WORKERS", 2)
        p, data = self.overflowing(4 * SCORE_CHUNK, [3 * SCORE_CHUNK])
        before = threading.active_count()
        predict_scores(data.take(slice(0, 3 * SCORE_CHUNK)), p, CFG)
        assert threading.active_count() == before
        chunks = score_chunks(data, p, CFG)
        next(chunks)
        chunks.close()
        assert threading.active_count() == before
        with np.errstate(all="ignore"), pytest.raises(NonFiniteScore):
            predict_scores(data, p, CFG)
        assert threading.active_count() == before

    def test_worker_count_moves_no_bit(self, monkeypatch):
        """Also with more workers than cores and the interpreter switching
        threads every 10 us."""
        config = replace(CFG, variant="pffn", sharing="agg")
        p = randomized(init_params(config, CARDS, seed=29), 30)
        data = random_batch(Rng(31), 3 * SCORE_CHUNK + 77, CARDS)
        scores = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(model_module, "SCORE_WORKERS", workers)
                scores.add(predict_scores(data, p, config).tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert len(scores) == 1


    @pytest.mark.parametrize("blas_var", [None, "OPENBLAS_NUM_THREADS"])
    def test_threaded_blas_turns_the_workers_off(self, blas_var):
        """A program that imported NumPy before contextnet, with no BLAS
        thread count set, runs BLAS on a thread per core: scoring and the
        training worker then run inline. With a count set they do not."""
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        if blas_var:
            env[blas_var] = "1"
        tests = os.path.dirname(os.path.abspath(__file__))
        env["PYTHONPATH"] = os.path.join(os.path.dirname(tests), "src")
        code = "import numpy; import contextnet.model as m; print(m.SCORE_WORKERS)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert out.stdout == f"{min(2, cpus) if blas_var else 1}\n", out.stderr


def einsum_forward(batch, p, config):
    """The paper's forward pass written row-major on [B, f, k] with einsum,
    independently of predict's batch-last layout: returns the stages
    (embedding layer, then each block's output) and the scores."""
    values = dense_values(batch, config.n_fields)
    e0 = np.stack(
        [p[f"embed.{i}"][batch.indices[:, i]] * values[:, i, None]
         for i in range(config.n_fields)],
        axis=1,
    )
    stages = [e0]
    for block in range(config.n_blocks):
        e = stages[-1]
        if config.has_tce:  # TCE: aggregate the embedding layer, project per field
            sa, sp = config.agg_slot(block), config.proj_slot(block)
            h = np.einsum("bm,tm->bt", e0.reshape(len(e0), -1), p[f"agg_w.{sa}"])
            h = np.maximum(h + p[f"agg_b.{sa}"], 0.0)
            ce = np.einsum("bt,fkt->bfk", h, p[f"proj_w.{sp}"]) + p[f"proj_b.{sp}"]
            e = e * ce
        if config.has_ffn:
            w1 = p[f"ffn_w1.{block}"]
            if config.variant == "pffn":
                h = np.maximum(np.einsum("bfi,ij->bfj", e, w1) + p[f"ffn_b1.{block}"], 0.0)
                out = np.einsum("bfi,ij->bfj", h, p[f"ffn_w2.{block}"]) + p[f"ffn_b2.{block}"]
                e = out if config.no_rc else out + e
            else:
                e = np.einsum("bfi,ij->bfj", e, w1)
            if config.has_ln:
                mean = e.mean(axis=-1, keepdims=True)
                var = ((e - mean) ** 2).mean(axis=-1, keepdims=True)
                e = (e - mean) / np.sqrt(var + 1e-5)
                e = e * p[f"ln_gain.{block}"] + p[f"ln_bias.{block}"]
        stages.append(e)
    logits = np.einsum("bm,m->b", stages[-1].reshape(len(e0), -1), p["head_w"])
    return stages, sigmoid(logits + p["head_b"][0])


class TestForwardOracle:
    """predict's scores and every stage against einsum_forward."""

    @pytest.mark.parametrize("config", NO_TAPE_CONFIGS, ids=repr)
    def test_matches_einsum_forward(self, config):
        p = randomized(init_params(config, CARDS, seed=23), 24)
        batch = random_batch(Rng(25), 300, CARDS, numerical=(1,))
        batch.values[:, 0] = Rng(26).normal((300,))  # field 1's values
        scores, tape = predict(batch, p, config)
        stages, want = einsum_forward(batch, p, config)
        assert np.abs(scores - want).max() <= 1e-12
        assert len(tape.stages) == len(stages)
        for got, ref in zip(tape.stages, stages):
            assert np.abs(got.transpose(2, 1, 0) - ref).max() <= 1e-12


class TestTrainingMemory:
    @pytest.mark.parametrize("variant, limit", [("sffn", 23.3), ("pffn", 31.3)])
    @pytest.mark.parametrize("threaded", [False, True])
    def test_peak_of_one_step(self, variant, limit, threaded):
        """Peak traced memory of one loss_and_grads at the ML-1m shape
        (B=1024, 7 fields, k=10, t=20, 3 blocks), in [1024, 7, 10] float64
        activations; the limits are those of the row-major code. With a
        worker thread, whose jobs keep their operands alive until they run
        (tracemalloc traces every thread), the limits are the same."""
        cards = [2, 7, 21, 500, 800, 18, 81]
        config = ModelConfig(n_fields=7, variant=variant)
        p = randomized(init_params(config, cards, seed=27), 28)
        batch = random_batch(Rng(29), 1024, cards)
        activation = 1024 * config.flat_dim * 8
        with ThreadPoolExecutor(1) if threaded else nullcontext(INLINE) as worker:
            peak = traced_peak(loss_and_grads, batch, p, config, worker)
        assert peak <= limit * activation, peak / activation

    def test_no_table_sized_gradient(self):
        """A step touches at most B rows of a table, and its gradient holds
        those rows alone: no array the size of the table is allocated."""
        cards = [200_000, 7]
        config = ModelConfig(n_fields=2)
        p = init_params(config, cards, seed=30)
        batch = random_batch(Rng(31), 64, cards)
        table = p["embed.0"].nbytes
        peak = traced_peak(loss_and_grads, batch, p, config)
        assert peak < table / 4, peak / table


class TestHadamardIdentity:
    def test_forced_ones_context_with_no_ffn_matches_l0(self):
        config = ModelConfig(
            n_fields=3, embed_dim=4, agg_width=5, n_blocks=3, no_ffn=True
        )
        p = init_params(config, CARDS, seed=9)
        rng = Rng(10)
        p["head_w"][...] = rng.normal((12,))
        p["head_b"][0] = 0.3
        force_ones_context(p)

        l0_config = ModelConfig(n_fields=3, embed_dim=4, n_blocks=0)
        l0 = init_params(l0_config, CARDS, seed=9)
        for name in l0:
            l0[name][...] = p[name]

        batch = random_batch(rng, 64, CARDS)
        deep, _ = predict(batch, p, config)
        shallow, _ = predict(batch, l0, l0_config)
        assert np.array_equal(deep, shallow)


class TestSharingAliasing:
    def test_share_agg_perturbation_touches_all_blocks(self):
        config = replace(CFG, sharing="agg")
        p = randomized(init_params(config, CARDS, seed=11), 11)
        batch = random_batch(Rng(12), 8, CARDS)
        before = predict(batch, p, config)[1].context
        p["agg_w.0"][0, 0] += 0.74
        after = predict(batch, p, config)[1].context
        assert not np.allclose(before[0], after[0])
        assert not np.allclose(before[1], after[1])

    def test_share_nothing_perturbation_is_block_local(self):
        p = randomized(init_params(CFG, CARDS, seed=13), 13)
        batch = random_batch(Rng(14), 8, CARDS)
        before = predict(batch, p, CFG)[1].context
        p["agg_w.0"][...] += 0.5  # block 0 only
        after = predict(batch, p, CFG)[1].context
        assert not np.allclose(before[0], after[0])
        assert np.array_equal(before[1], after[1])


class TestLossAndL2:
    def test_half_scores_give_log2(self):
        p = init_params(CFG, CARDS, seed=0)  # zero head -> scores 0.5
        batch = random_batch(Rng(15), 16, CARDS)
        objective, _ = loss_and_grads(batch, p, CFG)
        assert objective == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_matches_manual(self):
        scores = np.array([0.9, 0.2, 0.7])
        labels = np.array([1.0, 0.0, 0.0])
        manual = -(np.log(0.9) + np.log(0.8) + np.log(0.3)) / 3
        assert logloss(scores, labels) == pytest.approx(manual, abs=1e-15)

    def test_l2_zero_params(self):
        p = init_params(CFG, CARDS, seed=0)
        for t in p.values():
            t[...] = 0.0
        assert l2_norm(p) == 0.0

    def test_l2_single_matrix_of_ones(self):
        config = ModelConfig(n_fields=1, embed_dim=2, n_blocks=0)
        p = init_params(config, [2], seed=0)
        for t in p.values():
            t[...] = 0.0
        p["embed.0"][...] = 1.0  # 2x2 of ones
        assert l2_norm(p) == 4.0

    def test_l2_matches_flatten_oracle(self):
        p = init_params(replace(CFG, variant="pffn"), CARDS, seed=16)
        reg = {"embed", "agg_w", "proj_w", "ffn_w1", "ffn_w2", "head_w"}
        oracle = sum(
            float((arr.ravel() ** 2).sum())
            for name, arr in p.items()
            if name.split(".")[0] in reg
        )
        assert l2_norm(p) == pytest.approx(oracle, rel=1e-12)

    def test_biases_excluded_from_l2(self):
        p = init_params(replace(CFG, variant="pffn"), CARDS, seed=17)
        before = l2_norm(p)
        p["agg_b.0"][...] += 100.0
        p["ln_gain.0"][...] += 100.0
        p["head_b"][0] += 100.0
        assert l2_norm(p) == before


def param_count(config, cards):
    return sum(math.prod(shape) for shape in param_shapes(config, cards).values())


class TestParamCount:
    def test_closed_form_tce_block(self):
        # within-block sharing: aggregation t*m + t, projection f*(k*t + k)
        config = ModelConfig(n_fields=3, embed_dim=4, agg_width=5, n_blocks=1)
        t, m, f, k = 5, 12, 3, 4
        expected_tce = (t * m + t) + f * (k * t + k)
        base = param_count(ModelConfig(n_fields=3, embed_dim=4, n_blocks=0), CARDS)
        with_block = param_count(config, CARDS)
        sffn_extra = k * k + 2 * k  # ffn weight + ln gain/bias
        assert with_block - base == expected_tce + sffn_extra

    def test_share_agg_saves_expected(self):
        nothing = param_count(replace(CFG, sharing="none"), CARDS)
        shared = param_count(replace(CFG, sharing="agg"), CARDS)
        t, m, L = 5, 12, 2
        assert nothing - shared == (L - 1) * (t * m + t)

    def test_l0_only_embeddings_and_head(self):
        config = ModelConfig(n_fields=3, embed_dim=4, n_blocks=0)
        assert param_count(config, CARDS) == sum(CARDS) * 4 + 12 + 1

    @pytest.mark.parametrize("variant", ["pffn", "sffn"])
    @pytest.mark.parametrize("sharing", ["none", "agg", "agg-proj"])
    def test_count_matches_allocation(self, variant, sharing):
        config = replace(CFG, variant=variant, sharing=sharing)
        p = init_params(config, CARDS, seed=0)
        assert sum(t.size for t in p.values()) == param_count(config, CARDS)

    @pytest.mark.parametrize(
        "ablation", [{}, {"no_tce": True}, {"no_ffn": True}, {"no_ln": True}]
    )
    def test_count_matches_allocation_under_ablations(self, ablation):
        config = replace(CFG, variant="pffn", **ablation)
        p = init_params(config, CARDS, seed=0)
        assert sum(t.size for t in p.values()) == param_count(config, CARDS)


def read_raw(path):
    """A checkpoint file as (header, [[name, shape, bytes], ...])."""
    blob = open(path, "rb").read()
    n = struct.unpack("<I", blob[12:16])[0]
    header = json.loads(blob[16 : 16 + n])
    tensors, pos = [], 16 + n
    for name, shape in header["tensors"]:
        size = 8 * int(np.prod(shape))
        tensors.append([name, shape, blob[pos : pos + size]])
        pos += size
    return header, tensors


def write_raw(path, header, tensors):
    header["tensors"] = [[name, shape] for name, shape, _ in tensors]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ckpt_module.MAGIC + struct.pack("<II", ckpt_module.VERSION, len(head)))
        fh.write(head + b"".join(blob for _, _, blob in tensors))


class TestCheckpoint:
    def saved(self, tmp_path, config=CFG, seed=20):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, init_params(config, CARDS, seed), config, CARDS, FIELDS, seed)
        return path

    def test_roundtrip(self, tmp_path):
        config = replace(CFG, variant="pffn", sharing="agg")
        p = init_params(config, CARDS, seed=20)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, p, config, CARDS, FIELDS, seed=20)
        loaded, loaded_config, header = load_checkpoint(path)
        assert loaded_config == config
        assert header["cardinalities"] == CARDS
        for (na, ta), (nb, tb) in zip(p.items(), loaded.items()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_header_tensor_order_is_pinned(self, tmp_path):
        config = replace(CFG, variant="pffn", sharing="agg")
        path = self.saved(tmp_path, config)
        want = [
            "embed.0", "embed.1", "embed.2", "agg_w.0", "agg_b.0",
            "proj_w.0", "proj_w.1", "proj_b.0", "proj_b.1",
            "ffn_w1.0", "ffn_w1.1", "ffn_b1.0", "ffn_b1.1",
            "ffn_w2.0", "ffn_w2.1", "ffn_b2.0", "ffn_b2.1",
            "ln_gain.0", "ln_gain.1", "ln_bias.0", "ln_bias.1", "head_w", "head_b",
        ]
        header, _ = read_raw(path)
        assert [name for name, _ in header["tensors"]] == want
        assert list(load_checkpoint(path)[0]) == want

    def test_loaded_model_predicts_identically(self, tmp_path):
        p = init_params(CFG, CARDS, seed=21)
        rng = Rng(22)
        p["head_w"][...] = rng.normal((CFG.flat_dim,))
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, p, CFG, CARDS, FIELDS, seed=21)
        loaded, config, _ = load_checkpoint(path)
        batch = random_batch(rng, 16, CARDS)
        assert np.array_equal(predict(batch, p, CFG)[0], predict(batch, loaded, config)[0])

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = self.saved(tmp_path)
        monkeypatch.setattr("contextnet.model.Rng", None)  # a draw would fail
        assert list(load_checkpoint(path)[0])[-1] == "head_b"

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        p = init_params(CFG, CARDS, seed=23)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, p, CFG, CARDS, FIELDS, seed=23)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            load_checkpoint(path)

    def test_shorter_than_preamble_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:12])
        with pytest.raises(CheckpointError, match="preamble"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("variant", "bogus"), ("embed_dim", 4.0)])
    def test_invalid_header_config_rejected(self, tmp_path, key, value):
        path = self.saved(tmp_path)
        header, tensors = read_raw(path)
        header["config"][key] = value
        write_raw(path, header, tensors)
        with pytest.raises(CheckpointError, match=str(value)):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "20"),
            ("seed", None),
            ("fields", [["a", "cat"], ["b", "cat"]]),
            ("fields", [["a", "cat"], ["b", "cat"], ["c", "bogus"]]),
            ("fields", [["a", "cat"], ["b", "cat"], [3, "cat"]]),
            ("fields", [["a", "cat"], ["b", "cat"], ["c"]]),
        ],
        ids=["seed-string", "seed-null", "fields-short", "fields-kind", "fields-name", "fields-pair"],
    )
    def test_invalid_header_seed_or_fields_rejected(self, tmp_path, key, value):
        path = self.saved(tmp_path)
        header, tensors = read_raw(path)
        header[key] = value
        write_raw(path, header, tensors)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cards", [CARDS[:-1], CARDS + [3]], ids=["dropped", "extra"])
    def test_cardinality_count_mismatch_rejected(self, tmp_path, cards):
        """The header's config and cardinalities must agree on the field count."""
        path = self.saved(tmp_path)
        header, tensors = read_raw(path)
        header["cardinalities"] = cards
        write_raw(path, header, tensors)
        with pytest.raises(CheckpointError, match="corrupt header: bad sizes"):
            load_checkpoint(path)

    def test_header_missing_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        header, tensors = read_raw(path)
        write_raw(path, header, [t for t in tensors if t[0] != "proj_b.0"])
        with pytest.raises(CheckpointError, match="missing \\['proj_b.0'\\]"):
            load_checkpoint(path)

    def test_header_unknown_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path)  # sffn: no ffn biases
        header, tensors = read_raw(path)
        tensors.append(["ffn_b1.0", [4], b"\x00" * 32])
        write_raw(path, header, tensors)
        with pytest.raises(CheckpointError, match="unknown \\['ffn_b1.0'\\]"):
            load_checkpoint(path)

    def test_header_wrong_shape_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        header, tensors = read_raw(path)
        name, shape, blob = tensors[0]  # embed.0, [5, 4]
        tensors[0] = [name, [6, 4], blob + b"\x00" * 32]
        write_raw(path, header, tensors)
        with pytest.raises(CheckpointError, match="wrong shape \\['embed.0'\\]"):
            load_checkpoint(path)
