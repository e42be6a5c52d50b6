"""Test support: synthetic CTR datasets with a multiplicative-interaction
ground truth and their Bayes-optimal AUC.

Each field draws tokens uniformly; every token owns a latent vector. The
generating logit of an instance is the scaled sum of latent dot products
over all field pairs, so the label signal lives entirely in multiplicative
feature interactions: an additive (per-token) model can capture only the
small marginal effects, while the exact generating scores achieve the
reported Bayes-optimal AUC.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from contextnet.ops import Rng, mix_seed, sigmoid

_TOKEN_SALT = 0x70CE
_LATENT_SALT = 0x1A7E
_LABEL_SALT = 0x1AB5


def integers(rng: Rng, low: int, high: int, size=None):
    """Uniform integers in [low, high) from rng's floats. Bias is
    O(span/2^53), negligible here."""
    u = rng.random(size if size is not None else 1)
    out = (low + np.floor(np.atleast_1d(u) * (high - low))).astype(np.int64)
    if size is None:
        return int(out[0])
    return out.reshape(size)


@dataclass(frozen=True)
class SynthSpec:
    n_fields: int = 6
    cardinalities: tuple[int, ...] = ()  # per field; broadcast if length 1
    rows: int = 200_000
    scale: float = 0.25
    latent_dim: int = 4
    seed: int = 0
    token_skew: float = 0.0  # 0 = uniform tokens; > 0 = Zipf-like frequencies

    def resolved_cardinalities(self) -> list[int]:
        cards = self.cardinalities or (50,)
        if len(cards) == 1:
            return [cards[0]] * self.n_fields
        if len(cards) != self.n_fields:
            raise ValueError(
                f"{len(cards)} cardinalities for {self.n_fields} fields"
            )
        return list(cards)


@dataclass
class SynthData:
    tokens: np.ndarray  # [n, f] int64 in [0, card_i)
    probs: np.ndarray  # [n] generating probabilities
    labels: np.ndarray  # [n] float64 in {0, 1}
    bayes_auc: float
    field_names: list[str] = field(default_factory=list)


def expected_auc(probs: np.ndarray) -> float:
    """Expected AUC of scoring by the generating probabilities themselves.

    For labels drawn independently as Bernoulli(p_i), the expected number of
    correctly ordered positive/negative pairs is
    sum_{i != j} p_i (1 - p_j) [s_i > s_j] with ties counting one half;
    dividing by the expected pair count gives the large-sample AUC. Computed
    in O(n log n) with sorted prefix sums.
    """
    p = np.sort(np.asarray(probs, dtype=np.float64), kind="mergesort")
    n = p.shape[0]
    total_p = p.sum()
    total_q = n - total_p
    self_pairs = float(np.sum(p * (1.0 - p)))
    den = total_p * total_q - self_pairs
    if den <= 0.0:
        return 0.5
    csum = np.concatenate(([0.0], np.cumsum(p)))
    boundaries = np.flatnonzero(np.diff(p)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    num = 0.0
    for s, e in zip(starts, ends):
        group_p = csum[e] - csum[s]
        group_q = (e - s) - group_p
        p_above = total_p - csum[e]
        self_in_group = float(np.sum(p[s:e] * (1.0 - p[s:e])))
        num += group_q * p_above
        num += 0.5 * (group_p * group_q - self_in_group)
    return float(num / den)


def generate(spec: SynthSpec) -> SynthData:
    cards = spec.resolved_cardinalities()
    f = spec.n_fields
    n = spec.rows
    token_rng = Rng(mix_seed(spec.seed, _TOKEN_SALT))
    latent_rng = Rng(mix_seed(spec.seed, _LATENT_SALT))
    label_rng = Rng(mix_seed(spec.seed, _LABEL_SALT))

    tokens = np.empty((n, f), dtype=np.int64)
    for i, card in enumerate(cards):
        if spec.token_skew > 0.0:
            # rank-frequency skew: token r drawn with weight 1 / (r+1)^skew
            weights = 1.0 / np.arange(1, card + 1) ** spec.token_skew
            cum = np.cumsum(weights / weights.sum())
            draws = token_rng.random((n,))
            tokens[:, i] = np.searchsorted(cum, draws, side="right").clip(0, card - 1)
        else:
            tokens[:, i] = integers(token_rng, 0, card, (n,))
    latents = [latent_rng.normal((card, spec.latent_dim)) for card in cards]

    raw = np.zeros(n)
    for a in range(f):
        ua = latents[a][tokens[:, a]]
        for b in range(a + 1, f):
            ub = latents[b][tokens[:, b]]
            raw += np.einsum("nd,nd->n", ua, ub)
    probs = sigmoid(spec.scale * raw)
    labels = (label_rng.random((n,)) < probs).astype(np.float64)
    return SynthData(
        tokens=tokens,
        probs=probs,
        labels=labels,
        bayes_auc=expected_auc(probs),
        field_names=[f"c{i}" for i in range(f)],
    )


def write_dataset(data: SynthData, out_dir: str) -> dict[str, str]:
    """Write data.tsv and schema.tsv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "data": os.path.join(out_dir, "data.tsv"),
        "schema": os.path.join(out_dir, "schema.tsv"),
    }
    with open(paths["schema"], "w", encoding="utf-8") as fh:
        for name in data.field_names:
            fh.write(f"{name}\tcat\n")
    with open(paths["data"], "w", encoding="utf-8") as fh:
        label_int = data.labels.astype(np.int64)
        for r in range(data.tokens.shape[0]):
            toks = "\t".join(f"v{t}" for t in data.tokens[r])
            fh.write(f"{label_int[r]}\t{toks}\n")
    return paths
