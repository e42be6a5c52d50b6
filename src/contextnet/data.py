"""Feature pipeline: schemas, vocabularies, encoding, splits, and batching.

Input data is header-less tab-separated text: column 0 is the binary label,
the remaining columns follow the schema file order. An empty string means a
missing value. A file is read and encoded column by column, once; splits are
index arrays into it. Vocabularies are built from the training rows only.
Schema, data and vocabulary files are UTF-8 text, read by text_lines.
Errors name a record by its 0-based row in the file.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

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
    repeated = [name for name, n in Counter(f.name for f in schema).items() if n > 1]
    if repeated:
        raise DataError(f"field names must be unique: {repeated[0]!r} repeats")
    return schema


def text_lines(path: str, error: type[Exception] = DataError):
    """Yield (line number, line) for each non-empty line of a UTF-8 text
    file, without its newline. A byte sequence that is not UTF-8 raises
    `error` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_schema(path: str) -> list[FieldSchema]:
    pairs = []
    for lineno, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'name<TAB>kind'")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise DataError(f"{path}: empty schema file")
    try:
        return make_schema(pairs)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


@dataclass
class Vocabulary:
    """Per-field token->index maps (index 0 reserved for OOV/missing) and
    train-split mean/std for numerical fields."""

    tokens: dict[str, dict[str, int]] = field(default_factory=dict)
    numeric_stats: dict[str, tuple[float, float]] = field(default_factory=dict)

    def cardinality(self, f: FieldSchema) -> int:
        if f.kind == NUMERICAL:
            return 1
        return len(self.tokens[f.name]) + 1  # +1 for the OOV slot

    def token_table(self, f: FieldSchema) -> list[str]:
        """The token of each of field f's indices: "<oov>" at index 0, and a
        numerical field's one entry is "<numeric>"."""
        if f.kind == NUMERICAL:
            return ["<numeric>"]
        table = ["<oov>"] * self.cardinality(f)
        for token, i in self.tokens[f.name].items():
            table[i] = token
        return table


def build_vocabulary(
    columns, schema: list[FieldSchema], rows, min_count: int = 1
) -> Vocabulary:
    """Count tokens over the training rows and assign contiguous indices.

    `columns` is a file as load_records returns it, `rows` the training rows
    in split order. Tokens seen at least min_count times get indices 1..n in
    first-seen order; everything else maps to the reserved OOV index 0.
    Numerical fields get population mean/std over their non-missing values
    (Welford, in row order).
    """
    rows = np.asarray(rows).tolist()
    if not rows:
        raise DataError("empty training set")
    vocab = Vocabulary()
    for f in schema:
        column = columns[f.position]
        cells = [column[r] for r in rows]
        if f.kind == CATEGORICAL:
            counts = Counter(cells)
            counts.pop("", None)
            kept = [token for token, cnt in counts.items() if cnt >= min_count]
            vocab.tokens[f.name] = {token: i for i, token in enumerate(kept, start=1)}
            continue
        x, present = _numbers(cells, rows, f.name)
        n, mean, m2 = 0, 0.0, 0.0
        for v in x[present].tolist():
            n += 1
            delta = v - mean
            mean += delta / n
            m2 += delta * (v - mean)
        vocab.numeric_stats[f.name] = (mean, math.sqrt(m2 / n) if n > 0 else 0.0)
    return vocab


def _to_float(cell: str) -> float:
    """float(cell); 0.0 for a missing cell, NaN for text that is not a number."""
    try:
        return float(cell) if cell else 0.0
    except ValueError:
        return math.nan


def _numbers(cells, rows, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a numerical field: float() of each cell (0.0 where missing) and
    the mask of non-missing cells.

    A cell that is not a number, or not a finite one, raises DataError naming
    its file row (rows[j] for cells[j]) and the field.
    """
    n = len(cells)
    x = np.fromiter(map(_to_float, cells), dtype=np.float64, count=n)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        j = bad[0]
        raise DataError(
            f"record {rows[j]}, field {name!r}: {cells[j]!r} is not a finite number"
        )
    return x, np.fromiter(map(bool, cells), dtype=bool, count=n)


@dataclass
class EncodedDataset:
    """Rows as three parallel arrays: a whole file, a split, a batch or a
    scoring chunk (take with a slice returns views)."""

    labels: np.ndarray  # [n] float64 in {0, 1}
    indices: np.ndarray  # [n, f] int64
    values: np.ndarray  # [n, f] float64

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, idx) -> "EncodedDataset":
        return EncodedDataset(self.labels[idx], self.indices[idx], self.values[idx])

    def require_both_classes(self, what: str) -> None:
        """AUC needs at least one positive and one negative label."""
        if np.unique(self.labels).size < 2:
            raise DataError(f"{what} holds only one class, so AUC is undefined")


_LABELS = {"0": 0.0, "1": 1.0}


def encode_dataset(
    columns, schema: list[FieldSchema], vocab: Vocabulary
) -> EncodedDataset:
    """Map every row of a file (as load_records returns it) to (index,
    value) pairs in schema order, one field at a time.

    Categorical: (vocab index, 1.0), OOV/missing -> index 0. Numerical:
    (index 0, standardized value), missing -> value 0.0. Errors name the
    record's file row.
    """
    n = len(columns[0])
    if n == 0:
        raise DataError("no records to encode")
    try:
        labels = np.fromiter(map(_LABELS.__getitem__, columns[0]), np.float64, n)
    except KeyError as exc:
        row = columns[0].index(exc.args[0])
        raise DataError(
            f"record {row}: malformed label {exc.args[0]!r}: expected 0 or 1"
        ) from None
    indices = np.zeros((n, len(schema)), dtype=np.int64)
    values = np.ones((n, len(schema)), dtype=np.float64)
    for i, f in enumerate(schema):
        cells = columns[f.position]
        if f.kind == CATEGORICAL:
            lookup = {**vocab.tokens[f.name], "": OOV_INDEX}
            indices[:, i] = np.fromiter(
                map(lookup.get, cells, repeat(OOV_INDEX)), np.int64, n
            )
        else:
            x, present = _numbers(cells, range(n), f.name)
            mean, std = vocab.numeric_stats[f.name]
            values[:, i] = np.where(present, (x - mean) / max(std, 1e-12), 0.0)
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
    """Read a tab-separated data file, checking the column count per row.

    Returns the file column by column: len(schema) + 1 lists of strings,
    column 0 holding the labels.
    """
    want = len(schema) + 1
    records = []
    for lineno, line in text_lines(path):
        cols = line.split("\t")
        if len(cols) != want:
            raise DataError(f"{path}:{lineno}: expected {want} columns, got {len(cols)}")
        records.append(cols)
    if not records:
        raise DataError(f"{path}: no records")
    return [[cols[i] for cols in records] for i in range(want)]


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
    lines = text_lines(path)
    if next(lines, (1, ""))[1] != f"{_VOCAB_MAGIC}\t{_VOCAB_VERSION}":
        raise DataError(f"{path}: not a version-{_VOCAB_VERSION} vocabulary file")
    section = None
    for lineno, line in lines:
        if line in ("#tokens", "#numeric-stats"):  # a field name may start with '#'
            section = line
            continue
        if section is None:
            raise DataError(f"{path}:{lineno}: line outside a known section")
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            if section == "#tokens":
                vocab.tokens.setdefault(parts[0], {})[parts[1]] = int(parts[2])
                continue
            mean, std = float(parts[1]), float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed number") from None
        if not (np.isfinite(mean) and 0.0 <= std < np.inf):
            raise DataError(
                f"{path}:{lineno}: field {parts[0]!r}: mean {mean} and std {std} "
                "must be finite, and std >= 0"
            )
        vocab.numeric_stats[parts[0]] = (mean, std)
    for fname, mapping in vocab.tokens.items():
        if sorted(mapping.values()) != list(range(1, len(mapping) + 1)):
            raise DataError(
                f"{path}: field {fname!r}: token indices are not 1..{len(mapping)}"
            )
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
