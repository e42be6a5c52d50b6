"""Feature pipeline tests: vocabularies, encoding, splits, batching, files."""
import math
import os
import struct
import tempfile
import tracemalloc
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet import data
from contextnet.data import (
    CATEGORICAL,
    DataError,
    OOV_INDEX,
    batch_iter,
    build_vocabulary,
    cardinalities,
    encode_dataset,
    load_records,
    load_schema,
    load_vocabulary,
    make_schema,
    save_vocabulary,
    split_indices,
    EncodedDataset,
    Vocabulary,
)


@pytest.fixture
def schema():
    return make_schema([("color", "cat"), ("size", "num"), ("shape", "cat")])


def rec(label, color, size, shape):
    return [label, color, size, shape]


def write_records(path, records, blank_every=0):
    """Write records (rows of strings) as a data file; blank_every > 0 puts a
    blank line before every blank_every-th record."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, record in enumerate(records):
            if blank_every and i % blank_every == 0:
                fh.write("\n")
            fh.write("\t".join(record) + "\n")


def table(records, schema, blank_every=0):
    """Records (rows of strings) as load_records reads them from a file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "data.tsv")
        write_records(path, records, blank_every)
        return load_records(path, schema)


def vocab_of(records, schema, min_count=1):
    """The vocabulary of every record, in file order."""
    return build_vocabulary(table(records, schema), schema, range(len(records)), min_count)


Row = namedtuple("Row", "label indices values")


def encode_one(record, schema, vocab):
    """The one row encode_dataset makes of a one-record file."""
    ds = encode_dataset(table([record], schema), schema, vocab)
    return Row(int(ds.labels[0]), ds.indices[0], ds.values[0])


def split_lists(n, seed):
    return tuple(part.tolist() for part in split_indices(n, seed))


def index_of(vocab, name, token):
    """The index of a token of field `name`: its place in the field's token
    list counted from 1, or OOV_INDEX for a token the field does not list."""
    tokens = vocab.tokens[name]
    return tokens.index(token) + 1 if token in tokens else OOV_INDEX


# ---------------------------------------------------------------- reference
# The record-at-a-time encoder the column-wise one replaced. It reads the
# records of the training split in split order, field after field within a
# record, and encodes one record into two small arrays at a time.


def reference_vocabulary(train_records, schema, min_count=1):
    counts = {f.name: {} for f in schema if f.kind == CATEGORICAL}
    welford = {f.name: [0, 0.0, 0.0] for f in schema if f.kind != CATEGORICAL}
    for record in train_records:
        for f in schema:
            raw = record[f.position]
            if raw == "":
                continue
            if f.kind == CATEGORICAL:
                c = counts[f.name]
                c[raw] = c.get(raw, 0) + 1
            else:
                x = float(raw)
                acc = welford[f.name]
                acc[0] += 1
                delta = x - acc[1]
                acc[1] += delta / acc[0]
                acc[2] += delta * (x - acc[1])
    vocab = Vocabulary()
    for f in schema:
        if f.kind == CATEGORICAL:
            vocab.tokens[f.name] = [t for t, cnt in counts[f.name].items() if cnt >= min_count]
        else:
            n, mean, m2 = welford[f.name]
            std = math.sqrt(m2 / n) if n > 0 else 0.0
            vocab.numeric_stats[f.name] = (mean if n > 0 else 0.0, std)
    return vocab


def reference_encode(record, schema, vocab):
    indices = np.zeros(len(schema), dtype=np.int64)
    values = np.zeros(len(schema), dtype=np.float64)
    for i, fs in enumerate(schema):
        raw = record[fs.position]
        if fs.kind == CATEGORICAL:
            indices[i] = OOV_INDEX if raw == "" else index_of(vocab, fs.name, raw)
            values[i] = 1.0
        elif raw != "":
            mean, std = vocab.numeric_stats[fs.name]
            values[i] = (float(raw) - mean) / max(std, 1e-12)
    return Row(int(record[0]), indices, values)


def reference_encode_dataset(records, schema, vocab):
    rows = [reference_encode(record, schema, vocab) for record in records]
    return EncodedDataset(
        np.array([r.label for r in rows], dtype=np.float64),
        np.stack([r.indices for r in rows]),
        np.stack([r.values for r in rows]),
    )


class TestSchema:
    def test_positions_follow_column_order(self, schema):
        assert [f.position for f in schema] == [1, 2, 3]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="'a' repeats"):
            make_schema([("a", "cat"), ("a", "num")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            make_schema([("a", "bool")])

    def test_file_roundtrip(self, schema, tmp_path):
        path = tmp_path / "schema.tsv"
        path.write_text("color\tcat\nsize\tnum\nshape\tcat\n")
        assert load_schema(str(path)) == schema


class TestBuildVocabulary:
    def test_min_count_threshold(self, schema):
        records = [rec("1", "a", "1", "x")] * 3 + [rec("0", "b", "2", "x")]
        vocab = vocab_of(records, schema, min_count=2)
        assert index_of(vocab, "color", "a") == 1
        assert index_of(vocab, "color", "b") == 0  # below threshold -> OOV

    def test_all_distinct_cardinality(self, schema):
        records = [rec("0", f"c{i}", "0", f"s{i}") for i in range(5)]
        vocab = vocab_of(records, schema, min_count=1)
        assert cardinalities(schema, vocab)[0] == 6  # 5 tokens + OOV slot

    def test_numeric_stats_population(self, schema):
        records = [rec("0", "a", v, "x") for v in ("1", "2", "3")]
        vocab = vocab_of(records, schema)
        mean, std = vocab.numeric_stats["size"]
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_missing_numeric_skipped_in_stats(self, schema):
        records = [rec("0", "a", "", "x"), rec("0", "a", "4", "x")]
        vocab = vocab_of(records, schema)
        assert vocab.numeric_stats["size"] == (4.0, 0.0)

    def test_empty_training_set_rejected(self, schema):
        with pytest.raises(DataError, match="empty"):
            build_vocabulary(table([rec("0", "a", "1", "x")], schema), schema, [])

    def test_non_numeric_token_names_row_and_field(self, schema):
        records = [rec("0", "a", "1", "x"), rec("0", "a", "oops", "x")]
        with pytest.raises(DataError, match=r"record 1.*size.*oops"):
            vocab_of(records, schema)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_number_names_row_and_field(self, schema, raw):
        records = [rec("0", "a", "1", "x"), rec("0", "a", raw, "x")]
        with pytest.raises(DataError, match=rf"record 1.*size.*{raw}"):
            vocab_of(records, schema)

    def test_error_names_file_row_not_split_position(self, schema):
        records = [rec("0", "a", str(i), "x") for i in range(20)]
        records[13][2] = "oops"
        rows = list(range(19, -1, -1))  # file row 13 is 7th in split order
        with pytest.raises(DataError, match=r"record 13, field 'size'"):
            build_vocabulary(table(records, schema), schema, rows)


class TestEncodeInstance:
    @pytest.fixture
    def vocab(self, schema):
        records = [rec("1", "red", "1", "sq"), rec("0", "blue", "3", "sq")]
        return vocab_of(records, schema)

    def test_unseen_token_maps_to_oov(self, schema, vocab):
        inst = encode_one(rec("0", "green", "2", "sq"), schema, vocab)
        assert inst.indices[0] == 0
        assert inst.values[0] == 1.0

    def test_value_at_train_mean_standardizes_to_zero(self, schema, vocab):
        inst = encode_one(rec("1", "red", "2", "sq"), schema, vocab)
        assert inst.values[1] == pytest.approx(0.0)

    def test_hand_encoded_triple(self, schema, vocab):
        # mean 2, population std 1; "red" was seen first -> index 1
        inst = encode_one(rec("1", "red", "3", "sq"), schema, vocab)
        assert inst.label == 1
        assert inst.indices.tolist() == [1, 0, 1]
        assert inst.values.tolist() == [1.0, 1.0, 1.0]

    def test_missing_values(self, schema, vocab):
        inst = encode_one(rec("0", "", "", "sq"), schema, vocab)
        assert inst.indices[0] == 0 and inst.values[0] == 1.0  # missing cat -> OOV
        assert inst.indices[1] == 0 and inst.values[1] == 0.0  # missing num -> 0

    def test_malformed_label_rejected(self, schema, vocab):
        with pytest.raises(DataError, match="label"):
            encode_one(rec("2", "red", "1", "sq"), schema, vocab)

    def test_decode_roundtrip_for_in_vocab_tokens(self, schema, vocab):
        for token in ("red", "blue"):
            idx = index_of(vocab, "color", token)
            assert vocab.token_table(schema[0])[idx] == token


class TestSplits:
    def test_ten_records_split_8_1_1(self):
        train, val, test = split_lists(10, seed=0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_same_seed_identical_partitions(self):
        a = split_lists(100, seed=5)
        b = split_lists(100, seed=5)
        assert a == b

    def test_remainder_goes_to_train(self):
        train, val, test = split_lists(103, seed=1)
        assert (len(train), len(val), len(test)) == (83, 10, 10)

    def test_too_few_records_rejected(self):
        with pytest.raises(DataError):
            split_indices(9, seed=0)

    @given(n=st.integers(10, 400), seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_partitions_disjoint_and_exhaustive(self, n, seed):
        records = list(range(n))  # each record is its own file row
        train, val, test = split_lists(n, seed)
        assert sorted(train + val + test) == records
        assert not (set(train) & set(val))
        assert not (set(train) & set(test))
        assert not (set(val) & set(test))
        assert len(val) == n // 10 and len(test) == n // 10

    def test_vocab_from_train_only_oov_for_unseen(self, schema):
        records = [rec("0", f"c{i}", str(i), "s") for i in range(20)]
        train, val, test = split_lists(20, seed=3)
        vocab = build_vocabulary(table(records, schema), schema, train)
        train_tokens = {records[r][1] for r in train}
        for r in val + test:
            if records[r][1] not in train_tokens:
                assert index_of(vocab, "color", records[r][1]) == 0


def _toy_dataset(n, f=2, seed=0):
    rng = np.random.default_rng(seed)
    return EncodedDataset(
        labels=rng.integers(0, 2, n).astype(float),
        indices=rng.integers(0, 5, (n, f)),
        values=np.ones((n, f)),
    )


class TestBatchIter:
    def test_batch_sizes(self):
        ds = _toy_dataset(5)
        sizes = [len(b) for b in batch_iter(ds, 2, seed=0)]
        assert sizes == [2, 2, 1]

    def test_covers_every_instance_once(self):
        ds = _toy_dataset(37)
        seen = np.concatenate([b.labels for b in batch_iter(ds, 8, seed=1)])
        assert sorted(seen) == sorted(ds.labels)

    def test_same_seed_epoch_same_order(self):
        ds = _toy_dataset(50)
        a = np.concatenate([b.indices[:, 0] for b in batch_iter(ds, 7, 4, epoch=2)])
        b = np.concatenate([b.indices[:, 0] for b in batch_iter(ds, 7, 4, epoch=2)])
        assert np.array_equal(a, b)

    def test_different_epoch_different_order(self):
        ds = _toy_dataset(200)
        a = np.concatenate([b.indices[:, 0] for b in batch_iter(ds, 16, 4, epoch=0)])
        b = np.concatenate([b.indices[:, 0] for b in batch_iter(ds, 16, 4, epoch=1)])
        assert not np.array_equal(a, b)

    def test_bad_batch_size(self):
        with pytest.raises(DataError):
            list(batch_iter(_toy_dataset(5), 0, seed=0))


# any text a vocab.txt cell can hold: no tab, no line break, valid UTF-8
_VOCAB_TEXT = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=6
) | st.sampled_from(["<oov>", "#x", "#tokens", "\u00e9t\u00e9", "\u6570", "\U0001f600"])


@st.composite
def vocabularies(draw):
    """A vocabulary as build_vocabulary can make one: each field lists at
    least one token, and no token twice."""
    tokens = draw(st.dictionaries(
        _VOCAB_TEXT, st.lists(_VOCAB_TEXT, min_size=1, max_size=8, unique=True), max_size=4
    ))
    stats = draw(st.dictionaries(_VOCAB_TEXT, st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, allow_infinity=False),
    ), max_size=3))
    return Vocabulary(tokens=tokens, numeric_stats=stats)


class TestFiles:
    def test_vocabulary_roundtrip(self, schema, tmp_path):
        records = [rec("1", "red", "1.5", "sq"), rec("0", "blue", "3.5", "tri")]
        vocab = vocab_of(records, schema)
        path = str(tmp_path / "vocab.txt")
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.numeric_stats == vocab.numeric_stats

    def test_vocabulary_roundtrip_with_hash_field_names(self, tmp_path):
        """Only the exact section lines open a section: a field name may
        start with '#'."""
        schema = make_schema([("#user", "cat"), ("#age", "num")])
        vocab = vocab_of([["1", "u1", "30"], ["0", "u2", "41.5"]], schema)
        path = str(tmp_path / "vocab.txt")
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == vocab.tokens == {"#user": ["u1", "u2"]}
        assert loaded.numeric_stats == vocab.numeric_stats
        assert list(loaded.numeric_stats) == ["#age"]

    def test_token_lines_out_of_index_order_refused(self, tmp_path):
        """A field's token lines come in index order: the file order is the
        token table."""
        path = tmp_path / "vocab.txt"
        path.write_text(
            "#contextnet-vocab\t1\n#tokens\ncolor\tblue\t3\ncolor\tred\t1\n"
            "color\tgreen\t2\nshape\tsq\t1\n#numeric-stats\nsize\t2.0\t1.0\n"
        )
        with pytest.raises(DataError) as exc:
            load_vocabulary(str(path))
        assert str(exc.value) == f"{path}:3: field 'color': expected index 1, got '3'"

    def test_token_table_is_the_token_lines_in_file_order(self, schema, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text(
            "#contextnet-vocab\t1\n#tokens\ncolor\tblue\t1\nshape\tsq\t1\n"
            "color\tred\t2\ncolor\tgreen\t3\n#numeric-stats\nsize\t2.0\t1.0\n"
        )
        vocab = load_vocabulary(str(path))
        assert [vocab.token_table(f) for f in schema] == [
            ["<oov>", "blue", "red", "green"],
            ["<numeric>"],
            ["<oov>", "sq"],
        ]

    @given(vocab=vocabularies())
    @settings(max_examples=100, deadline=None)
    def test_any_vocabulary_roundtrips(self, vocab):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "vocab.txt")
            save_vocabulary(vocab, path)
            loaded = load_vocabulary(path)
        assert list(loaded.tokens.items()) == list(vocab.tokens.items())
        assert list(loaded.numeric_stats.items()) == list(vocab.numeric_stats.items())

    def test_vocabulary_bad_magic(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("not-a-vocab\t1\n")
        with pytest.raises(DataError):
            load_vocabulary(str(path))

    def test_vocabulary_token_line_with_two_columns(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#contextnet-vocab\t1\n#tokens\ncolor\tred\n")
        with pytest.raises(DataError, match="vocab.txt:3"):
            load_vocabulary(str(path))

    def test_vocabulary_non_integer_index(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#contextnet-vocab\t1\n#tokens\ncolor\tred\tone\n")
        with pytest.raises(DataError, match="vocab.txt:3"):
            load_vocabulary(str(path))

    @pytest.mark.parametrize(
        "lines, error",
        [
            # index past the field's size
            (["color\tred\t1", "color\tblue\t99"], ":4: field 'color': expected index 2, got '99'"),
            # index given twice
            (["color\tred\t1", "color\tblue\t1"], ":4: field 'color': expected index 2, got '1'"),
            # the OOV index
            (["color\tred\t0", "color\tblue\t1"], ":3: field 'color': expected index 1, got '0'"),
            # an index skipped
            (["color\tred\t1", "color\tblue\t3"], ":4: field 'color': expected index 2, got '3'"),
            # an index not written as save_vocabulary writes it
            *(
                ([f"color\tred\t{raw}"], f":3: field 'color': expected index 1, got {raw!r}")
                for raw in ("01", "+1", "1.0", "1 ", "\uff11")
            ),
            # token given twice
            (["color\tred\t1", "color\tred\t2"], ": field 'color' lists a token twice"),
        ],
        ids=["past-size", "index-twice", "oov-index", "skipped", "01", "+1", "1.0", "1-space",
             "full-width-1", "token-twice"],
    )
    def test_vocabulary_indices_must_run_one_to_n(self, tmp_path, lines, error):
        """Each field's token lines run 1..n in index order, each token once;
        the error names the file, and the line where one can be named."""
        path = tmp_path / "vocab.txt"
        path.write_text("#contextnet-vocab\t1\n#tokens\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_vocabulary(str(path))
        assert str(exc.value) == f"{path}{error}"

    def test_load_records_checks_columns(self, schema, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("1\tred\t0.5\tsq\n0\tblue\t1.0\n")
        with pytest.raises(DataError, match="data.tsv:2"):
            load_records(str(path), schema)

    def test_load_records_keeps_empty_strings(self, schema, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("1\t\t\tsq\n")
        labels, (color, colors), (size, present), (shape, shapes) = load_records(
            str(path), schema
        )
        assert [labels.tolist(), [colors[c] for c in color], present.tolist(),
                [shapes[c] for c in shape]] == [[1.0], [""], [False], ["sq"]]
        assert size.tolist() == [0.0]

    def test_cardinalities_requires_matching_vocab(self, schema):
        records = [rec("1", "red", "1", "sq")]
        vocab = vocab_of(records, schema)
        cards = cardinalities(schema, vocab)
        assert cards == [2, 1, 2]
        del vocab.tokens["color"]
        with pytest.raises(DataError, match="color"):
            cardinalities(schema, vocab)


def test_ingestion_memory_is_bounded_by_the_encoded_size(tmp_path):
    """load_records + build_vocabulary + encode_dataset of a 100k-row file of
    the ML-1m shape (7 skewed categorical fields) allocate at most twice the
    bytes of the EncodedDataset at their peak: no file's worth of strings."""
    cards = (2, 7, 21, 500, 800, 18, 81)
    n = 100_000
    rng = np.random.default_rng(0)
    columns = [rng.integers(0, 2, n).astype(str).tolist()]
    for card in cards:
        tokens = [f"{(k + card) * 2654435761 % 2**32:08x}" for k in range(card)]
        weights = 1.0 / np.arange(1, card + 1)
        draws = rng.choice(card, n, p=weights / weights.sum())
        columns.append([tokens[k] for k in draws.tolist()])
    path = tmp_path / "data.tsv"
    path.write_text("".join("\t".join(row) + "\n" for row in zip(*columns)))
    del columns
    schema = make_schema([(f"f{i}", "cat") for i in range(len(cards))])
    tracemalloc.start()
    try:
        records = load_records(str(path), schema)
        vocab = build_vocabulary(records, schema, split_indices(n, 0)[0])
        ds = encode_dataset(records, schema, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    assert peak <= 2 * (ds.labels.nbytes + ds.indices.nbytes + ds.values.nbytes)


class TestEncodeDataset:
    def test_shapes_and_order(self, schema):
        records = [rec("1", "red", "1", "sq"), rec("0", "blue", "2", "tri")]
        vocab = vocab_of(records, schema)
        ds = encode_dataset(table(records, schema), schema, vocab)
        assert len(ds) == 2
        assert ds.labels.tolist() == [1.0, 0.0]
        assert ds.indices.shape == (2, 3)
        inst = ds.take(slice(1, 2))
        assert inst.labels[0] == 0

    @pytest.mark.parametrize(
        "column, raw, what",
        [(0, "2", "malformed label"), (2, "oops", "size"), (2, "inf", "size")],
    )
    def test_error_names_file_row(self, schema, column, raw, what):
        records = [rec(str(i % 2), "red", str(i), "sq") for i in range(10)]
        vocab = vocab_of(records, schema)
        records[7][column] = raw
        with pytest.raises(DataError, match=rf"record 7\b.*{what}"):
            encode_dataset(table(records, schema), schema, vocab)


_KINDS = st.lists(st.sampled_from(["cat", "num"]), min_size=1, max_size=5)
_CAT_CELLS = st.sampled_from(["", "a", "b", "c", "d", "e", "f"])
_NUM_CELLS = st.one_of(
    st.just(""),
    st.integers(-1000, 1000).map(str),
    st.floats(-1e9, 1e9, allow_nan=False).map(repr),
)


@st.composite
def tables(draw):
    """A schema, its records, training rows in split order and a min_count."""
    kinds = draw(_KINDS)
    schema = make_schema([(f"f{i}", kind) for i, kind in enumerate(kinds)])
    n = draw(st.integers(1, 40))
    records = [
        [draw(st.sampled_from(["0", "1"]))]
        + [draw(_CAT_CELLS if kind == "cat" else _NUM_CELLS) for kind in kinds]
        for _ in range(n)
    ]
    order = draw(st.permutations(range(n)))
    rows = order[: draw(st.integers(1, n))]
    return schema, records, rows, draw(st.integers(1, 3))


def _float_bits(x):
    return struct.pack("<d", x)


def check_against_reference(case, blank_every=0):
    """load_records + build_vocabulary + encode_dataset equal the
    record-at-a-time reference byte for byte."""
    schema, records, rows, min_count = case
    loaded = table(records, schema, blank_every)
    vocab = build_vocabulary(loaded, schema, rows, min_count)
    want = reference_vocabulary([records[r] for r in rows], schema, min_count)
    assert list(vocab.tokens.values()) == list(want.tokens.values())
    assert list(vocab.tokens) == list(want.tokens)
    assert list(vocab.numeric_stats) == list(want.numeric_stats)
    for name, stats in want.numeric_stats.items():
        assert list(map(_float_bits, vocab.numeric_stats[name])) == list(
            map(_float_bits, stats)
        )

    got = encode_dataset(loaded, schema, vocab)
    ref = reference_encode_dataset(records, schema, vocab)
    for a, b in zip(
        (got.labels, got.indices, got.values), (ref.labels, ref.indices, ref.values)
    ):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestAgainstReference:
    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_column_wise_equals_record_wise_byte_for_byte(self, case):
        check_against_reference(case)

    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_in_chunks_of_three_lines_with_blank_lines(self, case):
        with mock.patch.object(data, "CHUNK_LINES", 3):
            check_against_reference(case, blank_every=2)

    def test_tokens_first_seen_in_later_chunks(self, schema):
        """Five chunks of three lines, each holding a blank line and a train
        row; "green", "tri" and 7.5 first appear in later chunks, and "green"
        comes first in split order."""
        colors = ["red", "red", "blue", "", "red", "green", "blue", "green", "red", "blue"]
        records = [
            rec(str(i % 2), color, "" if i == 4 else str(i * 1.5), "tri" if i > 6 else "sq")
            for i, color in enumerate(colors)
        ]
        rows = [7, 0, 3, 4, 9, 5, 1]  # at least one in each pair of records
        with mock.patch.object(data, "CHUNK_LINES", 3):
            check_against_reference((schema, records, rows, 1), blank_every=2)
            check_against_reference((schema, records, rows, 2), blank_every=2)


class TestErrorsInLaterChunks:
    """With three-line chunks, one bad row or cell in the fourth chunk gives
    the same message as when the whole file is one chunk."""

    @pytest.fixture
    def records(self):
        return [rec(str(i % 2), "red", str(i), "sq") for i in range(12)]

    @pytest.mark.parametrize("chunk_lines", [data.CHUNK_LINES, 3])
    def test_column_count_names_path_and_line(self, schema, records, tmp_path, chunk_lines):
        records[7] = records[7][:3]
        path = str(tmp_path / "data.tsv")
        write_records(path, records, blank_every=2)  # record 7 is on line 12
        with mock.patch.object(data, "CHUNK_LINES", chunk_lines):
            with pytest.raises(DataError) as exc:
                load_records(path, schema)
        assert str(exc.value) == f"{path}:12: expected 4 columns, got 3"

    @pytest.mark.parametrize("chunk_lines", [data.CHUNK_LINES, 3])
    @pytest.mark.parametrize(
        "column, raw, message",
        [
            (0, "2", "record 7: malformed label '2': expected 0 or 1"),
            (2, "oops", "record 7, field 'size': 'oops' is not a finite number"),
            (2, "-inf", "record 7, field 'size': '-inf' is not a finite number"),
        ],
    )
    def test_bad_cell_names_record_and_field(
        self, schema, records, tmp_path, chunk_lines, column, raw, message
    ):
        records[7][column] = raw
        path = str(tmp_path / "data.tsv")
        write_records(path, records, blank_every=2)
        with mock.patch.object(data, "CHUNK_LINES", chunk_lines):
            with pytest.raises(DataError) as exc:
                load_records(path, schema)
        assert str(exc.value) == message

    def test_first_bad_cell_in_file_order_is_reported(self, schema, records):
        records[5][2] = "oops"  # a later field of an earlier record ...
        records[9][0] = "x"  # ... comes before an earlier field of a later one
        records[5][3] = ""  # a missing value is no error
        records[11] = records[11][:2]
        with mock.patch.object(data, "CHUNK_LINES", 3):
            with pytest.raises(DataError, match=r"^record 5, field 'size': 'oops'"):
                table(records, schema, blank_every=2)
