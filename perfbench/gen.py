"""Input generator for the benchmark workloads.

Writes, for one (shape, seed):
  data.tsv    header-less TSV: label, then one column per schema field
  schema.tsv  name<TAB>kind per field
  probs.npy   each row's true click probability (float64); the program
              under test never reads it
  info.json   shape, seed, rows, positive rate and the AUC of the true
              probabilities

Two shapes:
  ml1m  7 skewed categorical fields with the paper's ML-1m cardinalities
        (2, 7, 21, 500, 800, 18, 81).
  wide  Criteo-style rows: 13 numerical count fields with missing values
        beside 26 categorical fields whose vocabularies run from 3 to
        10^6 tokens. Twelve are ID-like (almost every value seen once) and,
        like hashed IDs, carry no label signal; they make the embedding
        tables hold millions of parameters.

The generating logit is a per-token (and, for numerical fields,
per-value) additive effect plus a low-rank pairwise interaction between a
few fields, so both the embeddings and the contextual blocks have signal
to learn. Generation uses only NumPy and this file; it does not
import the program.

Usage: python3 perfbench/gen.py --shape ml1m --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.stats import auc  # noqa: E402


@dataclass(frozen=True)
class Shape:
    rows: int
    cat_cards: tuple[int, ...]
    cat_skews: tuple[float, ...]  # Zipf-like exponent per categorical field
    n_num: int = 0
    interact: tuple[int, ...] = ()  # categorical fields in the pairwise term
    additive_std: float = 1.0  # std of the summed per-field effects
    interact_std: float = 0.5  # std of the pairwise term
    bias: float = -1.0
    signal_cards: int = 10**9  # larger vocabularies carry no label signal


SHAPES = {
    "ml1m": Shape(
        rows=80_000,
        cat_cards=(2, 7, 21, 500, 800, 18, 81),
        cat_skews=(0.3, 0.6, 0.8, 1.0, 1.05, 0.9, 0.7),
        interact=(0, 1, 2, 3, 4, 5, 6),
        additive_std=1.2,
        interact_std=0.7,
        bias=-0.8,
    ),
    "wide": Shape(
        rows=16_000,
        cat_cards=(
            3, 4, 10, 14, 25, 40, 100, 300, 1_000, 3_000, 10_000, 50_000,
            200_000, 500_000, *(1_000_000,) * 12,
        ),
        cat_skews=(
            0.5, 0.5, 0.8, 0.8, 1.0, 1.0, 1.1, 1.1, 1.1, 1.0, 0.9, 0.7, 0.5, 0.4,
            *(0.2,) * 12,
        ),
        n_num=13,
        interact=(0, 2, 4, 6, 8),
        additive_std=1.3,
        interact_std=0.5,
        bias=-1.4,
        signal_cards=100,
    ),
}

_LATENT_DIM = 4


def _zipf_draws(rng: np.random.Generator, card: int, skew: float, n: int) -> np.ndarray:
    """Token ranks in [0, card) with P(r) proportional to 1 / (r + 1)^skew."""
    weights = 1.0 / np.arange(1, card + 1, dtype=np.float64) ** skew
    cum = np.cumsum(weights)
    cum /= cum[-1]
    return np.searchsorted(cum, rng.random(n), side="right").clip(0, card - 1)


def generate(shape: Shape, seed: int):
    """Return (columns, kinds, names, labels, probs) for one seed.

    columns is a list of string arrays, one per schema field, with "" for a
    missing value.
    """
    rng = np.random.default_rng([seed, 0x9E11])
    n = shape.rows
    additive = np.zeros(n)
    names, kinds, columns = [], [], []

    for i in range(shape.n_num):
        scale = rng.uniform(0.5, 2.0)
        raw = np.floor(np.exp(rng.normal(scale, 1.0, n))).astype(np.int64)
        missing = rng.random(n) < rng.uniform(0.05, 0.45)
        z = np.log1p(raw) - scale
        additive += np.where(missing, rng.normal(), rng.normal() * z)
        col = raw.astype(str).astype(object)
        col[missing] = ""
        names.append(f"n{i}")
        kinds.append("num")
        columns.append(col)

    latents = {}
    for i, (card, skew) in enumerate(zip(shape.cat_cards, shape.cat_skews)):
        ranks = _zipf_draws(rng, card, skew, n)
        # effects only for the tokens drawn, keyed by rank, so memory follows
        # the rows rather than the cardinality
        used, inverse = np.unique(ranks, return_inverse=True)
        if card <= shape.signal_cards:
            additive += rng.normal(0.0, 1.0, used.shape[0])[inverse]
        if i in shape.interact:
            latents[i] = rng.normal(0.0, 1.0, (used.shape[0], _LATENT_DIM))[inverse]
        # token strings are a fixed per-field hash of the rank, so values do
        # not sort in frequency order
        token_ids = (used * 2654435761 + 97 * (i + 1)) % (1 << 32)
        tokens = np.char.mod("%08x", token_ids).astype(object)
        names.append(f"c{i}")
        kinds.append("cat")
        columns.append(tokens[inverse])

    inter = np.zeros(n)
    keys = sorted(latents)
    for a_pos, a in enumerate(keys):
        for b in keys[a_pos + 1 :]:
            inter += np.einsum("nd,nd->n", latents[a], latents[b])
    # both terms are scaled to a fixed spread, so the attainable AUC barely
    # moves from seed to seed
    logit = shape.bias + shape.additive_std * (additive - additive.mean()) / additive.std()
    if keys:
        logit += shape.interact_std * (inter - inter.mean()) / inter.std()

    probs = 1.0 / (1.0 + np.exp(-logit))
    labels = (rng.random(n) < probs).astype(np.int64)
    return columns, kinds, names, labels, probs


def write(shape_name: str, seed: int, out_dir: str) -> dict:
    """Generate and write one input set; returns its info record."""
    shape = SHAPES[shape_name]
    columns, kinds, names, labels, probs = generate(shape, seed)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "schema.tsv"), "w", encoding="utf-8") as fh:
        for name, kind in zip(names, kinds):
            fh.write(f"{name}\t{kind}\n")
    label_col = labels.astype(str).astype(object)
    with open(os.path.join(out_dir, "data.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in zip(label_col, *columns))
    np.save(os.path.join(out_dir, "probs.npy"), probs)
    info = {
        "shape": shape_name,
        "seed": seed,
        "rows": shape.rows,
        "fields": len(names),
        "numerical_fields": shape.n_num,
        "positive_rate": float(labels.mean()),
        "true_auc": auc(probs, labels),
    }
    with open(os.path.join(out_dir, "info.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    flush_to_disk(out_dir)
    return info


def flush_to_disk(directory: str) -> None:
    """fsync every file in directory, so that writing them back does not
    fall into a timed window later."""
    for name in os.listdir(directory):
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(write(args.shape, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
