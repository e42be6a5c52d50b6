"""Feature pipeline: schemas, vocabularies, encoding, splits, and batching.

Input data is header-less tab-separated text: column 0 is the binary label,
the remaining columns follow the schema file order. An empty string means a
missing value. A data file is read CHUNK_LINES lines at a time, and each
column of a chunk is parsed once into arrays (labels, numbers, or int32 codes
of tokens) before the chunk's strings are dropped, so memory is bounded by
one chunk plus the arrays. Vocabularies are built from the codes of the
training rows only, and encoding maps codes to vocabulary indices by
gather; splits are index arrays into the encoded file. Schema, data and
vocabulary files are UTF-8 text. Errors name a record by its 0-based row in
the file; a file with several bad cells or rows reports the first in file
order.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, islice, repeat

import numpy as np

from contextnet.ops import Rng, mix_seed

CATEGORICAL = "cat"
NUMERICAL = "num"

OOV_INDEX = 0

_SPLIT_SALT = 0x5911
_BATCH_SALT = 0xBA7C

CHUNK_LINES = 4096  # data-file lines read, split and coded at a time


class DataError(ValueError):
    """Malformed schema, records, or vocabulary files."""


@dataclass(frozen=True)
class FieldSchema:
    name: str
    kind: str  # "cat" | "num"

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise DataError(f"field {self.name!r}: unknown kind {self.kind!r}")


def make_schema(fields: list[tuple[str, str]]) -> list[FieldSchema]:
    """Build a schema from (name, kind) pairs in column order."""
    schema = [FieldSchema(name, kind) for name, kind in fields]
    repeated = [name for name, n in Counter(f.name for f in schema).items() if n > 1]
    if repeated:
        raise DataError(f"field names must be unique: {repeated[0]!r} repeats")
    return schema


def text_chunks(path: str, size: int):
    """Yield (number of the first line, lines) for each run of `size` lines
    of a UTF-8 text file; each line keeps its newline. A byte sequence that
    is not UTF-8 raises DataError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 1
        try:
            while lines := list(islice(fh, size)):
                yield lineno, lines
                lineno += len(lines)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_schema(path: str) -> list[FieldSchema]:
    pairs = []
    for first, lines in text_chunks(path, CHUNK_LINES):
        for lineno, line in enumerate(lines, start=first):
            if line == "\n":
                continue
            parts = line.rstrip("\n").split("\t")
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
    """Per categorical field its tokens in index order, the first at index 1
    (index 0 is reserved for OOV/missing; a field that kept no token lists
    none), and per numerical field the train-split mean/std."""

    tokens: dict[str, list[str]] = field(default_factory=dict)
    numeric_stats: dict[str, tuple[float, float]] = field(default_factory=dict)

    def token_table(self, f: FieldSchema) -> list[str]:
        """The token of each of field f's indices: "<oov>" at index 0, and a
        numerical field's one entry is "<numeric>"."""
        return ["<numeric>"] if f.kind == NUMERICAL else ["<oov>", *self.tokens[f.name]]


_LABELS = {"0": 0.0, "1": 1.0}


def load_records(path: str, schema: list[FieldSchema]) -> list:
    """Read a tab-separated data file CHUNK_LINES lines at a time.

    Returns the file column by column: len(schema) + 1 entries, column 0
    the labels as float64. A categorical field's column is (codes, tokens):
    int32 codes into its tokens, listed in first-seen file order, with the
    missing value "" always code 0. A numerical field's column is (values,
    present): float64 values, 0.0 where missing, and the mask of
    non-missing cells.

    Blank lines are skipped. A line whose column count is not len(schema) + 1
    raises DataError naming path:lineno; a label other than 0 or 1, or a
    numerical cell that is not a finite number, raises DataError naming its
    record and field. The first such error in file order is the one raised.
    """
    want = len(schema) + 1
    # per categorical field, token -> 1 + the row it first appears in ("" -> 0);
    # a token's code, in first-seen file order, is the rank of this key
    seen = [{"": 0} if f.kind == CATEGORICAL else None for f in schema]
    parts = [[] for _ in range(want)]  # per column, the arrays of each chunk
    n = 0
    for first, lines in text_chunks(path, CHUNK_LINES):
        rows = list(filter("\n".__ne__, lines))  # blank lines are no records
        tabs = list(map(str.count, rows, repeat("\t")))
        good = len(rows)
        if tabs.count(want - 1) != good:
            good = next(j for j, t in enumerate(tabs) if t != want - 1)
        if good:
            for column, array in zip(parts, _code_chunk(rows[:good], schema, seen, n)):
                column.append(array)
            n += good
        if good < len(rows):
            lineno = first + [i for i, line in enumerate(lines) if line != "\n"][good]
            raise DataError(f"{path}:{lineno}: expected {want} columns, got {tabs[good] + 1}")
    if n == 0:
        raise DataError(f"{path}: no records")
    columns = [np.concatenate(parts[0])]
    for f, column, keys in zip(schema, parts[1:], seen):
        if f.kind == CATEGORICAL:
            rank = np.empty(n + 1, np.int32)
            rank[np.fromiter(keys.values(), np.int32, len(keys))] = np.arange(len(keys))
            columns.append((rank[np.concatenate(column)], list(keys)))
        else:
            columns.append(tuple(map(np.concatenate, zip(*column))))
        column.clear()
    return columns


def _code_chunk(rows: list[str], schema, seen: list, first_row: int) -> list:
    """The arrays of one chunk's columns, from its lines of len(schema) + 1
    cells: labels, then per field its cells' first-seen keys (new tokens join
    the field's dict in `seen`) or (values, present). The cell strings live
    only for this call. The first bad cell in file order raises DataError."""
    want = len(schema) + 1
    cells = "\t".join(map(str.rstrip, rows, repeat("\n"))).split("\t")
    m = len(cells) // want
    bad = []  # (row in chunk, column, message)
    labels = cells[0::want]
    try:
        out = [np.fromiter(map(_LABELS.__getitem__, labels), np.float64, m)]
    except KeyError as exc:
        j = labels.index(exc.args[0])
        label = f"malformed label {exc.args[0]!r}: expected 0 or 1"
        bad.append((j, 0, f"record {first_row + j}: {label}"))
        out = [None]
    for pos, (f, keys) in enumerate(zip(schema, seen), start=1):
        column = cells[pos::want]
        if f.kind == CATEGORICAL:
            key_if_new = count(first_row + 1)
            out.append(np.fromiter(map(keys.setdefault, column, key_if_new), np.int32, m))
            continue
        present = np.fromiter(map(bool, column), bool, m)
        values = np.zeros(m)
        try:
            values[present] = np.fromiter(map(float, filter(None, column)), np.float64)
            finite = np.isfinite(values).all()
        except ValueError:
            finite = False
        if not finite:
            j = next(j for j, cell in enumerate(column) if not _is_number(cell))
            bad.append((j, pos, f"record {first_row + j}, field {f.name!r}: "
                        f"{column[j]!r} is not a finite number"))
        out.append((values, present))
    if bad:
        raise DataError(min(bad)[2])
    return out


def _is_number(cell: str) -> bool:
    """True for a missing cell or a finite number."""
    try:
        return not cell or math.isfinite(float(cell))
    except ValueError:
        return False


def build_vocabulary(
    columns, schema: list[FieldSchema], rows, min_count: int = 1
) -> Vocabulary:
    """Count tokens over the training rows and assign contiguous indices.

    `columns` is a file as load_records returns it, `rows` the training rows
    in split order. Tokens seen at least min_count (>= 1) times get indices
    1..n in first-seen order; everything else maps to the reserved OOV index 0.
    Numerical fields get population mean/std over their non-missing values
    (Welford, in row order).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise DataError("empty training set")
    vocab = Vocabulary()
    for f, column in zip(schema, columns[1:]):
        if f.kind == CATEGORICAL:
            codes, tokens = column
            codes = codes[rows]
            counts = np.bincount(codes, minlength=len(tokens))
            first = np.full(len(tokens), rows.size)  # first position in split order
            np.minimum.at(first, codes, np.arange(rows.size))
            counts[0] = 0  # code 0 is the missing value
            kept = np.flatnonzero(counts >= min_count)
            kept = kept[np.argsort(first[kept])].tolist()
            vocab.tokens[f.name] = [tokens[c] for c in kept]
            continue
        values, present = column
        n, mean, m2 = 0, 0.0, 0.0
        for v in values[rows[present[rows]]].tolist():
            n += 1
            delta = v - mean
            mean += delta / n
            m2 += delta * (v - mean)
        vocab.numeric_stats[f.name] = (mean, math.sqrt(m2 / n) if n > 0 else 0.0)
        if not all(map(math.isfinite, vocab.numeric_stats[f.name])):
            raise DataError(f"field {f.name!r}: mean or std of its values overflows float64")
    return vocab


@dataclass
class EncodedDataset:
    """Rows as parallel arrays: a whole file, a split, a batch or a scoring
    chunk (take with a slice returns views). A categorical field's value is
    1.0 and is not stored; values holds the numerical fields' values only."""

    labels: np.ndarray  # [n] float64 in {0, 1}
    indices: np.ndarray  # [n, f] int32
    values: np.ndarray  # [n, len(numerical)] float64
    numerical: tuple[int, ...]  # schema positions of values' columns, ascending

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, idx) -> "EncodedDataset":
        return EncodedDataset(self.labels[idx], self.indices[idx], self.values[idx], self.numerical)

    def require_both_classes(self, what: str) -> None:
        """AUC needs at least one positive and one negative label."""
        if np.unique(self.labels).size < 2:
            raise DataError(f"{what} holds only one class, so AUC is undefined")


def encode_dataset(
    columns, schema: list[FieldSchema], vocab: Vocabulary
) -> EncodedDataset:
    """Map every row of a file (as load_records returns it) to an index per
    field and a value per numerical field, one field at a time.

    Categorical: the vocab index, OOV/missing -> index 0; each field's codes
    take their indices by one gather. Numerical: index 0 and the
    standardized value, missing -> value 0.0.
    """
    n = len(columns[0])
    numerical = tuple(i for i, f in enumerate(schema) if f.kind == NUMERICAL)
    indices = np.zeros((n, len(schema)), dtype=np.int32)
    values = np.empty((n, len(numerical)))
    for i, (f, column) in enumerate(zip(schema, columns[1:])):
        if f.kind == CATEGORICAL:
            codes, tokens = column
            lookup = dict(zip(vocab.tokens[f.name], count(1)))
            index_of = np.fromiter(map(lookup.get, tokens, repeat(OOV_INDEX)), np.int32)
            index_of[0] = OOV_INDEX  # code 0 is the missing value
            indices[:, i] = index_of[codes]
        else:
            x, present = column
            mean, std = vocab.numeric_stats[f.name]
            values[:, numerical.index(i)] = np.where(present, (x - mean) / max(std, 1e-12), 0.0)
    return EncodedDataset(columns[0], indices, values, numerical)


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
    n = len(dataset)
    perm = Rng(mix_seed(seed, epoch, _BATCH_SALT)).permutation(n)
    for start in range(0, n, batch_size):
        yield dataset.take(perm[start : start + batch_size])


_VOCAB_FORMAT = ["contextnet-vocab", 2]


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    doc = {"format": _VOCAB_FORMAT, "tokens": vocab.tokens, "numeric_stats": vocab.numeric_stats}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, allow_nan=False) + "\n")


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice (json keeps the last) raises DataError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = [k for k, n in Counter(k for k, _ in pairs).items() if n > 1]
        raise DataError(f"key {repeated[0]!r} given twice")
    return obj


def load_vocabulary(path: str) -> Vocabulary:
    """Read save_vocabulary's JSON, else DataError naming the file: no key
    twice in an object, each field's tokens a list of distinct strings, and
    each numerical field's stats [mean, std], finite, with std >= 0."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_json_object, parse_int=float)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (ValueError, RecursionError):  # not JSON
        doc = None
    if not (type(doc) is dict and doc.get("format") == _VOCAB_FORMAT
            and all(type(doc.get(k)) is dict for k in ("tokens", "numeric_stats"))):
        raise DataError(f"{path}: not a version-{_VOCAB_FORMAT[1]} vocabulary file")
    vocab = Vocabulary(doc["tokens"], doc["numeric_stats"])
    for name, tokens in vocab.tokens.items():
        if type(tokens) is not list or len({t for t in tokens if type(t) is str}) < len(tokens):
            raise DataError(f"{path}: field {name!r}: tokens are not distinct strings in a list")
    for name, stats in vocab.numeric_stats.items():
        if not (type(stats) is list and list(map(type, stats)) == [float, float]
                and math.isfinite(stats[0]) and 0.0 <= stats[1] < math.inf):
            raise DataError(f"{path}: field {name!r}: {stats!r} is not a finite [mean, std >= 0]")
        vocab.numeric_stats[name] = tuple(stats)
    return vocab


def cardinalities(schema: list[FieldSchema], vocab: Vocabulary) -> list[int]:
    """Embedding-table sizes per field (numerical fields use one row)."""
    for f in schema:
        if f.name not in (vocab.tokens if f.kind == CATEGORICAL else vocab.numeric_stats):
            raise DataError(f"vocabulary is missing field {f.name!r}")
    return [len(vocab.token_table(f)) for f in schema]
