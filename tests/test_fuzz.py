"""Mutated input files: each loader raises only its documented errors.

A small valid schema, data file, vocabulary and checkpoint are cut at any
offset, or have any one byte replaced. Loading the result may succeed, or
raise DataError, CheckpointError or OSError, and nothing else. Checkpoint
tensors carry no checksum, so a changed tensor byte that leaves the value
finite loads silently: these tests pin that no other exception escapes,
not that every corruption is caught. The vocabulary is also given any JSON
value in place of its document, its tokens, one field's token list or one
field's stats: it loads as a valid vocabulary or raises DataError.
"""
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from contextnet.data import (
    DataError,
    build_vocabulary,
    cardinalities,
    encode_dataset,
    load_records,
    load_schema,
    load_vocabulary,
    save_vocabulary,
)
from contextnet.model import ModelConfig, init_params

SCHEMA = "user\tcat\nage\tnum\nitem\tcat\n"
DATA = "".join(  # every fourth age is missing
    f"{i % 2}\tu{i % 3}\t{i * 1.5 if i % 4 else ''}\tt{i % 5}\n" for i in range(12)
)


def encode_file(path, schema, vocab):
    return encode_dataset(load_records(path, schema), schema, vocab)


def encode_file_in_chunks_of_two_lines(path, schema, vocab):
    """A cut or changed byte lands at or next to a chunk boundary."""
    with mock.patch("contextnet.data.CHUNK_LINES", 2):
        return encode_file(path, schema, vocab)


# case -> the file mutated and the load it is read by, given the good schema
# and vocabulary
LOADERS = {
    "schema.tsv": ("schema.tsv", lambda path, schema, vocab: load_schema(path)),
    "data.tsv": ("data.tsv", encode_file),
    "data.tsv-chunks-of-2": ("data.tsv", encode_file_in_chunks_of_two_lines),
    "vocab.txt": ("vocab.txt", lambda path, schema, vocab: load_vocabulary(path)),
    "checkpoint.bin": ("checkpoint.bin", lambda path, schema, vocab: load_checkpoint(path)),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The good files' bytes, their schema and vocabulary, and a scratch
    directory for the mutated copies."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "schema.tsv").write_text(SCHEMA)
    (d / "data.tsv").write_text(DATA)
    schema = load_schema(str(d / "schema.tsv"))
    columns = load_records(str(d / "data.tsv"), schema)
    vocab = build_vocabulary(columns, schema, range(len(columns[0])))
    save_vocabulary(vocab, str(d / "vocab.txt"))
    cards = cardinalities(schema, vocab)
    config = ModelConfig(n_fields=len(schema), embed_dim=2, agg_width=2, n_blocks=1)
    save_checkpoint(
        str(d / "checkpoint.bin"),
        init_params(config, cards, seed=0),
        config,
        cards,
        [(f.name, f.kind) for f in schema],
        seed=0,
    )
    blobs = {name: (d / name).read_bytes() for name, _ in LOADERS.values()}
    return blobs, schema, vocab, d


@pytest.mark.parametrize("name", LOADERS)
def test_good_file_loads(inputs, name):
    blobs, schema, vocab, d = inputs
    file_name, load = LOADERS[name]
    load(str(d / file_name), schema, vocab)


@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cut_or_changed_file_raises_only_input_errors(inputs, name, data):
    blobs, schema, vocab, d = inputs
    file_name, load = LOADERS[name]
    blob = blobs[file_name]
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = data.draw(st.none() | st.integers(0, 255), label="new byte (None: cut)")
    path = d / ("mutated-" + file_name)
    path.write_bytes(blob[:at] if byte is None else blob[:at] + bytes([byte]) + blob[at + 1 :])
    try:
        load(str(path), schema, vocab)
    except (DataError, CheckpointError, OSError):
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)

# place -> the good vocabulary document with a JSON value put in that place
PLACES = {
    "document": lambda doc, value: value,
    "tokens": lambda doc, value: {**doc, "tokens": value},
    "field-tokens": lambda doc, value: {**doc, "tokens": {**doc["tokens"], "user": value}},
    "field-stats": lambda doc, value: {**doc, "numeric_stats": {"age": value}},
}


@pytest.mark.parametrize("place", PLACES)
@given(value=JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_json_value_loads_as_a_valid_vocabulary_or_raises(inputs, place, value):
    blobs, schema, vocab, d = inputs
    path = d / f"json-{place}.txt"
    path.write_text(json.dumps(PLACES[place](json.loads(blobs["vocab.txt"]), value)))
    try:
        loaded = load_vocabulary(str(path))
    except DataError:
        return
    for tokens in loaded.tokens.values():
        assert type(tokens) is list and all(type(t) is str for t in tokens)
        assert len(set(tokens)) == len(tokens)
    for stats in loaded.numeric_stats.values():
        assert type(stats) is tuple and list(map(type, stats)) == [float, float]
        assert math.isfinite(stats[0]) and 0.0 <= stats[1] < math.inf
