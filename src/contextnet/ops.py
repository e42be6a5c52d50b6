"""Dense math kernels with paired forward/backward forms, plus a seedable RNG.

Everything on the training path is float64 so that analytic gradients can be
checked sharply against central finite differences. Kernels are pure
functions over explicit arrays; the only stateful object is :class:`Rng`.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class LayerNormCache(NamedTuple):
    x_hat: np.ndarray  # the input's shape
    inv_std: np.ndarray  # one per normalized vector, flat
    gain: np.ndarray  # [k, 1]


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, LayerNormCache]:
    """Normalize over the leading axis (biased variance), then apply gain
    and bias: x is [k, ...], so a batch-last activation is reduced across k
    contiguous rows. Returns the cache needed by :func:`layer_norm_backward`.

    The normalization runs in place in x.reshape(k, -1), which the cache
    holds as x_hat: x is overwritten wherever that is a view of it, as it
    is for a contiguous x, so a caller that reads x again passes a copy.
    """
    k = x.shape[0]
    x_hat = x.reshape(k, -1)
    x_hat -= x_hat.sum(axis=0) / k
    inv_std = 1.0 / np.sqrt(np.einsum("ij,ij->j", x_hat, x_hat) / k + eps)
    x_hat *= inv_std
    gain = gain.reshape(k, 1)
    y = x_hat * gain
    y += bias.reshape(k, 1)
    return y.reshape(x.shape), LayerNormCache(x_hat.reshape(x.shape), inv_std, gain)


def layer_norm_backward(
    cache: LayerNormCache, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of layer_norm: returns (dx, dgain, dbias).

    dgain/dbias are reduced over all trailing axes, matching a gain/bias
    shared across every normalized vector in the batch.
    """
    x_hat, inv_std, gain = cache
    k = x_hat.shape[0]
    dy2 = dy.reshape(k, -1)
    xh2 = x_hat.reshape(k, -1)
    dbias = dy2.sum(axis=1)
    dgain = np.einsum("ij,ij->i", dy2, xh2)
    d_hat = dy2 * gain
    dx = xh2 * np.einsum("ij,ij->j", d_hat, xh2)
    dx += d_hat.sum(axis=0)
    d_hat *= k
    dx = np.subtract(d_hat, dx, out=d_hat)
    dx *= inv_std / k
    return dx.reshape(dy.shape), dgain, dbias


def row_sums(idx: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sums): rows the distinct values of idx, ascending; sums[r, c]
    the sum of the [k, n] cols[c, n] over each n with idx[n] == rows[r]. One
    np.bincount over the bins r * k + c adds each bin's terms in order of n
    from 0.0, so out[rows] += sums on a zeroed out is np.add.at(out, idx, cols.T)."""
    rows, inv = np.unique(idx, return_inverse=True)
    k = cols.shape[0]
    bins = inv * k + np.arange(k)[:, None]
    sums = np.bincount(bins.ravel(), weights=cols.ravel(), minlength=rows.size * k)
    return rows, sums.reshape(rows.size, k)


def sigmoid(z):
    """Numerically stable elementwise logistic function of an array;
    saturates cleanly at +/-inf."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logit(p: float) -> float:
    """Inverse of sigmoid for p in (0, 1)."""
    return float(np.log(p) - np.log1p(-p))


_U64 = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """Expand one 64-bit seed into n well-mixed words (state seeding only)."""
    z = _U64(seed & _MASK) + np.arange(1, n + 1, dtype=_U64) * _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def mix_seed(*parts: int) -> int:
    """Fold several integers into one 64-bit seed (order-sensitive)."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = int(_splitmix64(acc ^ (int(p) & _MASK), 1)[0])
    return acc


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _U64(k)) | (x >> _U64(64 - k))


class Rng:
    """Deterministic xoshiro256** generator, vectorized over 1024 lanes.

    The draw sequence is a pure function of the seed: uint64 arithmetic with
    explicit masking, so two runs with the same seed agree bit-for-bit on any
    platform. The lane count is part of the stream definition and must not
    change. Not safe to share between concurrent callers.
    """

    _LANES = 1024

    def __init__(self, seed: int):
        words = _splitmix64(seed, 4 * self._LANES)
        self._s = [words[i :: 4].copy() for i in range(4)]
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0

    def _block(self) -> np.ndarray:
        s0, s1, s2, s3 = self._s
        out = _rotl(s1 * _U64(5), 7) * _U64(9)
        t = s1 << _U64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uint64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws (lane-interleaved blocks of 1024)."""
        short = n - (self._buf.size - self._pos)
        if short > 0:
            fresh = [self._block() for _ in range(-(-short // self._LANES))]
            self._buf = np.concatenate([self._buf[self._pos :], *fresh])
            self._pos = 0
        out = self._buf[self._pos : self._pos + n].copy()
        self._pos += n
        return out

    def random(self, size):
        """An array of the given shape of uniform float64 draws in [0, 1)."""
        n = int(np.prod(size))
        u = (self.uint64(n) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(size)

    def uniform(self, low: float, high: float, size):
        return low + (high - low) * self.random(size)

    def normal(self, size, loc: float = 0.0, scale: float = 1.0):
        """An array of the given shape of Gaussian draws via Box-Muller
        (deterministic, platform-stable)."""
        n = int(np.prod(size))
        pairs = (n + 1) // 2
        u1 = self.random(pairs) + 2.0 ** -53  # in (0, 1], so the log is finite
        u2 = self.random(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (loc + scale * z).reshape(size)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting raw 64-bit keys."""
        keys = self.uint64(n)
        return np.argsort(keys, kind="stable")
