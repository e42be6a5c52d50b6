"""Feature pipeline tests: vocabularies, encoding, splits, batching, files."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.data import (
    DataError,
    batch_iter,
    build_vocabulary,
    cardinalities,
    encode_dataset,
    encode_instance,
    load_records,
    load_schema,
    load_vocabulary,
    make_schema,
    save_schema,
    save_vocabulary,
    split_dataset,
    split_indices,
    EncodedDataset,
)


@pytest.fixture
def schema():
    return make_schema([("color", "cat"), ("size", "num"), ("shape", "cat")])


def rec(label, color, size, shape):
    return [label, color, size, shape]


class TestSchema:
    def test_positions_follow_column_order(self, schema):
        assert [f.position for f in schema] == [1, 2, 3]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            make_schema([("a", "cat"), ("a", "num")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            make_schema([("a", "bool")])

    def test_file_roundtrip(self, schema, tmp_path):
        path = str(tmp_path / "schema.tsv")
        save_schema(schema, path)
        assert load_schema(path) == schema


class TestBuildVocabulary:
    def test_min_count_threshold(self, schema):
        records = [rec("1", "a", "1", "x")] * 3 + [rec("0", "b", "2", "x")]
        vocab = build_vocabulary(records, schema, min_count=2)
        assert vocab.index_of("color", "a") == 1
        assert vocab.index_of("color", "b") == 0  # below threshold -> OOV

    def test_all_distinct_cardinality(self, schema):
        records = [rec("0", f"c{i}", "0", f"s{i}") for i in range(5)]
        vocab = build_vocabulary(records, schema, min_count=1)
        assert vocab.cardinality(schema[0]) == 6  # 5 tokens + OOV slot

    def test_numeric_stats_population(self, schema):
        records = [rec("0", "a", v, "x") for v in ("1", "2", "3")]
        vocab = build_vocabulary(records, schema)
        mean, std = vocab.numeric_stats["size"]
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_missing_numeric_skipped_in_stats(self, schema):
        records = [rec("0", "a", "", "x"), rec("0", "a", "4", "x")]
        vocab = build_vocabulary(records, schema)
        assert vocab.numeric_stats["size"] == (4.0, 0.0)

    def test_empty_training_set_rejected(self, schema):
        with pytest.raises(DataError, match="empty"):
            build_vocabulary([], schema)

    def test_non_numeric_token_names_row_and_field(self, schema):
        records = [rec("0", "a", "1", "x"), rec("0", "a", "oops", "x")]
        with pytest.raises(DataError, match=r"record 1.*size.*oops"):
            build_vocabulary(records, schema)


class TestEncodeInstance:
    @pytest.fixture
    def vocab(self, schema):
        records = [rec("1", "red", "1", "sq"), rec("0", "blue", "3", "sq")]
        return build_vocabulary(records, schema)

    def test_unseen_token_maps_to_oov(self, schema, vocab):
        inst = encode_instance(rec("0", "green", "2", "sq"), schema, vocab)
        assert inst.indices[0] == 0
        assert inst.values[0] == 1.0

    def test_value_at_train_mean_standardizes_to_zero(self, schema, vocab):
        inst = encode_instance(rec("1", "red", "2", "sq"), schema, vocab)
        assert inst.values[1] == pytest.approx(0.0)

    def test_hand_encoded_triple(self, schema, vocab):
        # mean 2, population std 1; "red" was seen first -> index 1
        inst = encode_instance(rec("1", "red", "3", "sq"), schema, vocab)
        assert inst.label == 1
        assert inst.indices.tolist() == [1, 0, 1]
        assert inst.values.tolist() == [1.0, 1.0, 1.0]

    def test_missing_values(self, schema, vocab):
        inst = encode_instance(rec("0", "", "", "sq"), schema, vocab)
        assert inst.indices[0] == 0 and inst.values[0] == 1.0  # missing cat -> OOV
        assert inst.indices[1] == 0 and inst.values[1] == 0.0  # missing num -> 0

    def test_malformed_label_rejected(self, schema, vocab):
        with pytest.raises(DataError, match="label"):
            encode_instance(rec("2", "red", "1", "sq"), schema, vocab)

    def test_decode_roundtrip_for_in_vocab_tokens(self, schema, vocab):
        for token in ("red", "blue"):
            idx = vocab.index_of("color", token)
            assert vocab.token_of("color", idx) == token


class TestSplits:
    def test_ten_records_split_8_1_1(self):
        train, val, test = split_dataset(list(range(10)), seed=0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_same_seed_identical_partitions(self):
        a = split_dataset(list(range(100)), seed=5)
        b = split_dataset(list(range(100)), seed=5)
        assert a == b

    def test_remainder_goes_to_train(self):
        train, val, test = split_dataset(list(range(103)), seed=1)
        assert (len(train), len(val), len(test)) == (83, 10, 10)

    def test_too_few_records_rejected(self):
        with pytest.raises(DataError):
            split_dataset(list(range(9)), seed=0)

    @given(n=st.integers(10, 400), seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_partitions_disjoint_and_exhaustive(self, n, seed):
        records = list(range(n))
        train, val, test = split_dataset(records, seed)
        assert sorted(train + val + test) == records
        assert not (set(train) & set(val))
        assert not (set(train) & set(test))
        assert not (set(val) & set(test))
        assert len(val) == n // 10 and len(test) == n // 10

    def test_vocab_from_train_only_oov_for_unseen(self, schema):
        records = [rec("0", f"c{i}", str(i), "s") for i in range(20)]
        train, val, test = split_dataset(records, seed=3)
        vocab = build_vocabulary(train, schema)
        train_tokens = {r[1] for r in train}
        for r in val + test:
            if r[1] not in train_tokens:
                assert vocab.index_of("color", r[1]) == 0


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


class TestFiles:
    def test_vocabulary_roundtrip(self, schema, tmp_path):
        records = [rec("1", "red", "1.5", "sq"), rec("0", "blue", "3.5", "tri")]
        vocab = build_vocabulary(records, schema)
        path = str(tmp_path / "vocab.txt")
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.numeric_stats == vocab.numeric_stats

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

    def test_load_records_checks_columns(self, schema, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("1\tred\t0.5\tsq\n0\tblue\t1.0\n")
        with pytest.raises(DataError, match="data.tsv:2"):
            load_records(str(path), schema)

    def test_load_records_keeps_empty_strings(self, schema, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("1\t\t\tsq\n")
        records = load_records(str(path), schema)
        assert records == [["1", "", "", "sq"]]

    def test_cardinalities_requires_matching_vocab(self, schema):
        records = [rec("1", "red", "1", "sq")]
        vocab = build_vocabulary(records, schema)
        cards = cardinalities(schema, vocab)
        assert cards == [2, 1, 2]
        del vocab.tokens["color"]
        with pytest.raises(DataError, match="color"):
            cardinalities(schema, vocab)


class TestEncodeDataset:
    def test_shapes_and_order(self, schema):
        records = [rec("1", "red", "1", "sq"), rec("0", "blue", "2", "tri")]
        vocab = build_vocabulary(records, schema)
        ds = encode_dataset(records, schema, vocab)
        assert len(ds) == 2
        assert ds.labels.tolist() == [1.0, 0.0]
        assert ds.indices.shape == (2, 3)
        inst = ds.instance(1)
        assert inst.label == 0
