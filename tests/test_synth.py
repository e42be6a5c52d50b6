"""Synthetic-generator tests: Bayes AUC math and file outputs."""
import numpy as np
import pytest

from contextnet.metrics import auc
from contextnet.ops import Rng
from synth import SynthSpec, expected_auc, generate, integers, write_dataset


def pairwise_expected_auc(probs):
    """O(n^2) oracle for the analytic expected AUC."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    num = 0.0
    den = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            weight = probs[i] * (1.0 - probs[j])
            den += weight
            if probs[i] > probs[j]:
                num += weight
            elif probs[i] == probs[j]:
                num += 0.5 * weight
    return num / den


def test_integers_bounds():
    v = integers(Rng(12), 3, 9, (10_000,))
    assert v.min() >= 3 and v.max() <= 8


class TestExpectedAuc:
    def test_matches_pairwise_oracle(self):
        rng = Rng(1)
        probs = np.round(rng.random((120,)) * 10) / 10  # deliberate ties
        probs = np.clip(probs, 0.05, 0.95)
        assert expected_auc(probs) == pytest.approx(
            pairwise_expected_auc(probs), abs=1e-12
        )

    def test_constant_probs_give_half(self):
        assert expected_auc(np.full(50, 0.5)) == pytest.approx(0.5, abs=1e-12)
        assert expected_auc(np.full(50, 0.9)) == pytest.approx(0.5, abs=1e-12)

    def test_two_point_mass(self):
        # half the corpus at p=0.9, half at p=0.1
        probs = np.array([0.9] * 10 + [0.1] * 10)
        assert expected_auc(probs) == pytest.approx(
            pairwise_expected_auc(probs), abs=1e-12
        )


class TestGenerate:
    def test_zero_scale_is_coin_flip(self):
        data = generate(SynthSpec(rows=20_000, scale=0.0, seed=5))
        assert data.bayes_auc == 0.5
        assert np.all(data.probs == 0.5)
        assert abs(data.labels.mean() - 0.5) < 0.02

    def test_same_seed_identical_output(self):
        a = generate(SynthSpec(rows=500, seed=7))
        b = generate(SynthSpec(rows=500, seed=7))
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.labels, b.labels)
        assert a.bayes_auc == b.bayes_auc

    def test_reported_bayes_matches_sampled_auc(self):
        """Scoring by the generating probabilities on the sampled labels
        reproduces the analytic value within sampling error."""
        data = generate(SynthSpec(rows=60_000, scale=0.25, seed=9))
        sampled = auc(data.probs, data.labels)
        assert sampled == pytest.approx(data.bayes_auc, abs=0.01)

    def test_tokens_within_cardinalities(self):
        data = generate(
            SynthSpec(n_fields=3, cardinalities=(4, 9, 2), rows=1000, seed=11)
        )
        assert data.tokens.shape == (1000, 3)
        for i, card in enumerate((4, 9, 2)):
            assert data.tokens[:, i].min() >= 0
            assert data.tokens[:, i].max() < card

    def test_cardinality_broadcast_and_mismatch(self):
        spec = SynthSpec(n_fields=3, cardinalities=(7,), rows=10, seed=0)
        assert spec.resolved_cardinalities() == [7, 7, 7]
        with pytest.raises(ValueError):
            SynthSpec(n_fields=3, cardinalities=(7, 8), rows=10).resolved_cardinalities()


class TestWriteDataset:
    def test_files_written(self, tmp_path):
        data = generate(SynthSpec(n_fields=3, cardinalities=(5,), rows=200, seed=13))
        paths = write_dataset(data, str(tmp_path / "out"))
        assert sorted(paths) == ["data", "schema"]
        schema_lines = open(paths["schema"]).read().strip().split("\n")
        assert schema_lines == ["c0\tcat", "c1\tcat", "c2\tcat"]
        data_lines = open(paths["data"]).read().strip().split("\n")
        assert len(data_lines) == 200
        first = data_lines[0].split("\t")
        assert first[0] in ("0", "1")
        assert all(tok.startswith("v") for tok in first[1:])

    def test_write_deterministic(self, tmp_path):
        a = generate(SynthSpec(rows=300, seed=17))
        b = generate(SynthSpec(rows=300, seed=17))
        pa = write_dataset(a, str(tmp_path / "a"))
        pb = write_dataset(b, str(tmp_path / "b"))
        assert open(pa["data"]).read() == open(pb["data"]).read()
        assert open(pa["schema"]).read() == open(pb["schema"]).read()
