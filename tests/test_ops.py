"""Kernel tests: exact oracles, finite differences, and RNG determinism."""
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.ops import (
    Rng,
    _splitmix64,
    layer_norm,
    layer_norm_backward,
    logit,
    mix_seed,
    row_sums,
    sigmoid,
)


class TestLayerNorm:
    def test_constant_vector_gives_zeros(self):
        x = np.full(8, 3.25)
        y, _ = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.array_equal(y, np.zeros(8))

    def test_already_normalized_pair(self):
        # [1, -1] has zero mean, unit biased variance
        y, _ = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=1e-12)
        assert np.allclose(y, [1.0, -1.0], atol=1e-10)

    def test_output_moments(self):
        rng = Rng(3)
        x = rng.normal((16, 50))
        y, _ = layer_norm(x, np.ones(16), np.zeros(16), eps=1e-5)
        assert np.abs(y.mean(axis=0)).max() < 1e-10
        assert np.abs(y.var(axis=0) - 1.0).max() < 1e-4

    def test_backward_zero_dy(self):
        y, cache = layer_norm(Rng(4).normal((6,)), np.ones(6), np.zeros(6))
        dx, dgain, dbias = layer_norm_backward(cache, np.zeros(6))
        assert not dx.any() and not dgain.any() and not dbias.any()

    def test_backward_k2_symbolic(self):
        """Hand-derived Jacobian for k=2 (pre-affine path).

        With d = x1 - x2: dy1/dx1 = is/2 - d^2/8 * is^3, where
        is = 1/sqrt(d^2/4 + eps); the x_hat pair is antisymmetric.
        """
        eps = 1e-5
        x = np.array([0.7, -0.3])
        d = x[0] - x[1]
        inv_std = 1.0 / np.sqrt(d * d / 4.0 + eps)
        j11 = inv_std / 2.0 - (d * d / 8.0) * inv_std**3
        _, cache = layer_norm(x, np.ones(2), np.zeros(2), eps)
        dx_row1, _, _ = layer_norm_backward(cache, np.array([1.0, 0.0]))
        assert abs(dx_row1[0] - j11) < 1e-12
        assert abs(dx_row1[1] + j11) < 1e-12  # antisymmetric counterpart

    def test_backward_matches_finite_differences(self):
        rng = Rng(5)
        k = 16
        x = rng.normal((k,))
        gain = rng.normal((k,), loc=1.0, scale=0.2)
        bias = rng.normal((k,), scale=0.2)
        dy = rng.normal((k,))
        _, cache = layer_norm(x.copy(), gain, bias)
        dx, dgain, dbias = layer_norm_backward(cache, dy)
        h = 1e-5

        def loss(xv, gv, bv):
            y, _ = layer_norm(xv, gv, bv)
            return float(np.dot(y, dy))

        for analytic, base, which in ((dx, x, 0), (dgain, gain, 1), (dbias, bias, 2)):
            for i in range(k):
                args_p = [x.copy(), gain.copy(), bias.copy()]
                args_m = [x.copy(), gain.copy(), bias.copy()]
                args_p[which][i] += h
                args_m[which][i] -= h
                fd = (loss(*args_p) - loss(*args_m)) / (2 * h)
                rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-6)
                assert rel < 1e-6

    @given(seed=st.integers(0, 2**32), k=st.integers(2, 24))
    @settings(max_examples=40, deadline=None)
    def test_pre_affine_mean_property(self, seed, k):
        x = Rng(seed).normal((k,), scale=2.0)
        y, _ = layer_norm(x, np.ones(k), np.zeros(k))
        assert abs(y.mean()) < 1e-10


class TestRowSums:
    """row_sums gives the sorted distinct indices, and its sums added at
    them to a zeroed table give the bytes of np.add.at."""

    @staticmethod
    def assert_matches_add_at(rows_in_table, idx, cols):
        rows, sums = row_sums(idx, cols)
        assert rows.tolist() == sorted(set(idx.tolist()))
        assert sums.shape == (rows.size, cols.shape[0])
        got = np.zeros((rows_in_table, cols.shape[0]))
        got[rows] += sums
        want = np.zeros((rows_in_table, cols.shape[0]))
        np.add.at(want, idx, cols.T)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize(
        "rows, n, zipf",
        [(1, 300, False), (7, 1000, False), (800, 1024, True), (16_000, 1024, True)],
    )
    def test_bytes_equal_add_at(self, rows, n, zipf):
        rng = np.random.default_rng(rows)
        if zipf:  # heavy repeats of the small indices, a long tail of singletons
            idx = (rng.zipf(1.3, n) - 1) % rows
        else:
            idx = rng.integers(0, rows, n)
        cols = rng.normal(size=(6, n)) * rng.lognormal(size=n)
        self.assert_matches_add_at(rows, idx, cols)

    def test_repeats_sum_in_order(self):
        idx = np.array([2, 0, 2, 2])
        out = self.assert_matches_add_at(3, idx, np.array([[1e16, 5.0, 1.0, -1e16]]))
        assert out[:, 0].tolist() == [5.0, 0.0, 0.0]  # 1e16 + 1 rounds to 1e16


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_saturation_without_nan(self):
        assert sigmoid(np.array([1000.0, -1000.0])).tolist() == [1.0, 0.0]

    def test_closed_form_log3(self):
        assert abs(sigmoid(np.log([3.0]))[0] - 0.75) < 1e-15

    def test_vector_matches_single_elements(self):
        z = np.array([-2.0, 0.0, 3.5])
        v = sigmoid(z)
        assert np.array_equal(v, [sigmoid(z[i : i + 1])[0] for i in range(3)])

    @given(st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, z):
        assert abs(sigmoid(np.array([z, -z])).sum() - 1.0) < 1e-12

    def test_logit_roundtrip(self):
        ps = [0.01, 0.25, 0.5, 0.9]
        got = sigmoid(np.array([logit(p) for p in ps]))
        assert np.abs(got - ps).max() < 1e-12


def splitmix64_loop(seed, n):
    """Reference splitmix64: one word per step of masked Python integers."""
    mask = (1 << 64) - 1
    out, s = [], seed & mask
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & mask
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def mix_seed_fold(parts):
    """Reference mix_seed: xor each part, masked to 64 bits, into the
    accumulator, then take one splitmix64 step from it."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = splitmix64_loop(acc ^ (p & ((1 << 64) - 1)), 1)[0]
    return acc


class TestRng:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 123, 0xDEADBEEFCAFEBABE])
    @pytest.mark.parametrize("n", [1, 5, 4096])
    def test_splitmix64_matches_loop(self, seed, n):
        assert _splitmix64(seed, n).tolist() == splitmix64_loop(seed, n)

    def test_same_seed_same_sequence(self):
        a = Rng(123).uint64(5000)
        b = Rng(123).uint64(5000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uint64(100), Rng(2).uint64(100))

    def test_sequence_survives_process_boundary(self):
        """Fixed seed reproduces the same draws in a fresh interpreter."""
        local = Rng(777).uint64(10).tolist()
        code = (
            "from contextnet.ops import Rng;"
            "print(','.join(map(str, Rng(777).uint64(10).tolist())))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        remote = [int(v) for v in out.stdout.strip().split(",")]
        assert remote == local

    def test_permutation_is_permutation(self):
        p = Rng(9).permutation(1000)
        assert np.array_equal(np.sort(p), np.arange(1000))

    def test_normal_moments(self):
        z = Rng(10).normal((200_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_uniform_range(self):
        u = Rng(11).random((10_000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_chunked_draws_match_single_draw(self):
        whole = Rng(13).uint64(3000)
        r = Rng(13)
        parts = np.concatenate([r.uint64(1), r.uint64(999), r.uint64(2000)])
        assert np.array_equal(whole, parts)

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)
        assert mix_seed(1, 2) == mix_seed(1, 2)

    @given(st.lists(st.integers(-(2**80), 2**80), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_mix_seed_matches_fold(self, parts):
        """Negative and wider-than-64-bit parts are masked like any other."""
        assert mix_seed(*parts) == mix_seed_fold(parts)
