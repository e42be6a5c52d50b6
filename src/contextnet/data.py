"""Feature pipeline: schemas, vocabularies, encoding, splits, and batching.

Input data is header-less tab-separated text: column 0 is the binary label,
the remaining columns follow the schema file order. An empty string means a
missing value. Vocabularies are built from the training split only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from contextnet.ops import Rng, mix_seed

CATEGORICAL = "cat"
NUMERICAL = "num"

OOV_INDEX = 0

_SPLIT_SALT = 0x5911
_BATCH_SALT = 0xBA7C


class DataError(ValueError):
    """Malformed schema, records, or vocabulary files."""


@dataclass(frozen=True)
class FieldSchema:
    name: str
    kind: str  # "cat" | "num"
    position: int  # column index in the data file (label is column 0)

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise DataError(f"field {self.name!r}: unknown kind {self.kind!r}")


def make_schema(fields: list[tuple[str, str]]) -> list[FieldSchema]:
    """Build a schema from (name, kind) pairs in column order."""
    schema = [FieldSchema(name, kind, pos + 1) for pos, (name, kind) in enumerate(fields)]
    names = [f.name for f in schema]
    if len(set(names)) != len(names):
        raise DataError("field names must be unique")
    return schema


def load_schema(path: str) -> list[FieldSchema]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'name<TAB>kind'")
            pairs.append((parts[0], parts[1]))
    if not pairs:
        raise DataError(f"{path}: empty schema file")
    return make_schema(pairs)


def save_schema(schema: list[FieldSchema], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in schema:
            fh.write(f"{f.name}\t{f.kind}\n")


@dataclass
class Vocabulary:
    """Per-field token->index maps (index 0 reserved for OOV/missing) and
    train-split mean/std for numerical fields."""

    tokens: dict[str, dict[str, int]] = field(default_factory=dict)
    numeric_stats: dict[str, tuple[float, float]] = field(default_factory=dict)
    _reverse: dict[str, dict[int, str]] = field(default_factory=dict, repr=False)

    def cardinality(self, f: FieldSchema) -> int:
        if f.kind == NUMERICAL:
            return 1
        return len(self.tokens[f.name]) + 1  # +1 for the OOV slot

    def index_of(self, field_name: str, token: str) -> int:
        return self.tokens[field_name].get(token, OOV_INDEX)

    def token_of(self, field_name: str, index: int) -> str:
        if field_name in self.numeric_stats:
            return "<numeric>"
        if index == OOV_INDEX:
            return "<oov>"
        rev = self._reverse.get(field_name)
        if rev is None:
            rev = {i: t for t, i in self.tokens[field_name].items()}
            self._reverse[field_name] = rev
        return rev[index]


def build_vocabulary(
    train_records, schema: list[FieldSchema], min_count: int = 1
) -> Vocabulary:
    """Count tokens over the training records and assign contiguous indices.

    Tokens seen at least min_count times get indices 1..n in first-seen
    order; everything else maps to the reserved OOV index 0. Numerical
    fields get population mean/std over their non-missing values (Welford).
    """
    counts: dict[str, dict[str, int]] = {
        f.name: {} for f in schema if f.kind == CATEGORICAL
    }
    welford: dict[str, list[float]] = {
        f.name: [0, 0.0, 0.0] for f in schema if f.kind == NUMERICAL
    }
    n_records = 0
    for row, record in enumerate(train_records):
        n_records += 1
        for f in schema:
            if f.position >= len(record):
                raise DataError(f"record {row}: missing column for field {f.name!r}")
            raw = record[f.position]
            if raw == "":
                continue
            if f.kind == CATEGORICAL:
                c = counts[f.name]
                c[raw] = c.get(raw, 0) + 1
            else:
                try:
                    x = float(raw)
                except ValueError:
                    raise DataError(
                        f"record {row}, field {f.name!r}: non-numeric value {raw!r}"
                    ) from None
                acc = welford[f.name]
                acc[0] += 1
                delta = x - acc[1]
                acc[1] += delta / acc[0]
                acc[2] += delta * (x - acc[1])
    if n_records == 0:
        raise DataError("empty training set")

    vocab = Vocabulary()
    for f in schema:
        if f.kind == CATEGORICAL:
            mapping = {}
            for token, cnt in counts[f.name].items():
                if cnt >= min_count:
                    mapping[token] = len(mapping) + 1
            vocab.tokens[f.name] = mapping
        else:
            n, mean, m2 = welford[f.name]
            std = math.sqrt(m2 / n) if n > 0 else 0.0
            vocab.numeric_stats[f.name] = (mean if n > 0 else 0.0, std)
    return vocab


@dataclass
class EncodedInstance:
    label: int
    indices: np.ndarray  # [f] int64
    values: np.ndarray  # [f] float64


@dataclass
class EncodedDataset:
    """Rows as three parallel arrays: a whole file, a split, a batch or a
    scoring chunk (take with a slice returns views)."""

    labels: np.ndarray  # [n] float64 in {0, 1}
    indices: np.ndarray  # [n, f] int64
    values: np.ndarray  # [n, f] float64

    def __len__(self) -> int:
        return self.labels.shape[0]

    def instance(self, i: int) -> EncodedInstance:
        return EncodedInstance(int(self.labels[i]), self.indices[i], self.values[i])

    def take(self, idx) -> "EncodedDataset":
        return EncodedDataset(self.labels[idx], self.indices[idx], self.values[idx])

    def require_both_classes(self, what: str) -> None:
        """AUC needs at least one positive and one negative label."""
        if np.unique(self.labels).size < 2:
            raise DataError(f"{what} holds only one class, so AUC is undefined")


def encode_instance(
    record: list[str], schema: list[FieldSchema], vocab: Vocabulary
) -> EncodedInstance:
    """Map one raw record to (index, value) pairs in schema order.

    Categorical: (vocab index, 1.0), OOV/missing -> index 0. Numerical:
    (index 0, standardized value), missing -> value 0.0.
    """
    raw_label = record[0]
    if raw_label not in ("0", "1"):
        raise DataError(f"malformed label {raw_label!r}: expected 0 or 1")
    f = len(schema)
    indices = np.zeros(f, dtype=np.int64)
    values = np.zeros(f, dtype=np.float64)
    for i, fs in enumerate(schema):
        if fs.position >= len(record):
            raise DataError(f"record too short for field {fs.name!r}")
        raw = record[fs.position]
        if fs.kind == CATEGORICAL:
            indices[i] = OOV_INDEX if raw == "" else vocab.index_of(fs.name, raw)
            values[i] = 1.0
        else:
            if raw == "":
                values[i] = 0.0
            else:
                try:
                    x = float(raw)
                except ValueError:
                    raise DataError(
                        f"field {fs.name!r}: non-numeric value {raw!r}"
                    ) from None
                mean, std = vocab.numeric_stats[fs.name]
                values[i] = (x - mean) / max(std, 1e-12)
    return EncodedInstance(int(raw_label), indices, values)


def encode_dataset(
    records, schema: list[FieldSchema], vocab: Vocabulary
) -> EncodedDataset:
    instances = []
    for row, record in enumerate(records):
        try:
            instances.append(encode_instance(record, schema, vocab))
        except DataError as exc:
            raise DataError(f"record {row}: {exc}") from None
    if not instances:
        raise DataError("no records to encode")
    labels = np.array([inst.label for inst in instances], dtype=np.float64)
    indices = np.stack([inst.indices for inst in instances])
    values = np.stack([inst.values for inst in instances])
    return EncodedDataset(labels, indices, values)


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 8:1:1 partition of range(n); remainder goes to train."""
    if n < 10:
        raise DataError(f"need at least 10 records to split, got {n}")
    perm = Rng(mix_seed(seed, _SPLIT_SALT)).permutation(n)
    n_val = n // 10
    n_test = n // 10
    n_train = n - n_val - n_test
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def split_dataset(records: list, seed: int) -> tuple[list, list, list]:
    """Shuffle records by seed and split 8:1:1 (remainder to train)."""
    tr, va, te = split_indices(len(records), seed)
    return (
        [records[i] for i in tr],
        [records[i] for i in va],
        [records[i] for i in te],
    )


def batch_iter(dataset: EncodedDataset, batch_size: int, seed: int, epoch: int = 0):
    """Yield shuffled mini-batches covering the dataset exactly once.

    The permutation is a function of (seed, epoch) only; the final batch may
    be short.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    perm = Rng(mix_seed(seed, epoch, _BATCH_SALT)).permutation(n)
    for start in range(0, n, batch_size):
        yield dataset.take(perm[start : start + batch_size])


def load_records(path: str, schema: list[FieldSchema]) -> list[list[str]]:
    """Read a tab-separated data file, checking the column count per row."""
    want = len(schema) + 1
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != want:
                raise DataError(
                    f"{path}:{lineno}: expected {want} columns, got {len(cols)}"
                )
            records.append(cols)
    if not records:
        raise DataError(f"{path}: no records")
    return records


_VOCAB_MAGIC = "#contextnet-vocab"
_VOCAB_VERSION = 1


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_VOCAB_MAGIC}\t{_VOCAB_VERSION}\n")
        fh.write("#tokens\n")
        for fname, mapping in vocab.tokens.items():
            for token, idx in mapping.items():
                fh.write(f"{fname}\t{token}\t{idx}\n")
        fh.write("#numeric-stats\n")
        for fname, (mean, std) in vocab.numeric_stats.items():
            fh.write(f"{fname}\t{mean!r}\t{std!r}\n")


def load_vocabulary(path: str) -> Vocabulary:
    vocab = Vocabulary()
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != f"{_VOCAB_MAGIC}\t{_VOCAB_VERSION}":
            raise DataError(f"{path}: not a version-{_VOCAB_VERSION} vocabulary file")
        section = None
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                section = line
                continue
            parts = line.split("\t")
            if section not in ("#tokens", "#numeric-stats"):
                raise DataError(f"{path}:{lineno}: line outside a known section")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
            try:
                if section == "#tokens":
                    vocab.tokens.setdefault(parts[0], {})[parts[1]] = int(parts[2])
                else:
                    vocab.numeric_stats[parts[0]] = (float(parts[1]), float(parts[2]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed number") from None
    return vocab


def cardinalities(schema: list[FieldSchema], vocab: Vocabulary) -> list[int]:
    """Embedding-table sizes per field (numerical fields use one row)."""
    # ensure every categorical field is present in the vocabulary
    for f in schema:
        if f.kind == CATEGORICAL and f.name not in vocab.tokens:
            raise DataError(f"vocabulary is missing field {f.name!r}")
        if f.kind == NUMERICAL and f.name not in vocab.numeric_stats:
            raise DataError(f"vocabulary is missing numeric stats for {f.name!r}")
    return [vocab.cardinality(f) for f in schema]
