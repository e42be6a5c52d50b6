"""Versioned binary model checkpoints.

Layout: 8-byte magic, uint32 version, uint32 header length, JSON header
(model config, per-field cardinalities, field names/kinds, training seed,
tensor names and shapes), then the tensors as little-endian float64 in
param_shapes order. The file is byte-stable for identical parameters.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from contextnet.data import CATEGORICAL, NUMERICAL
from contextnet.model import ModelConfig, Params, param_shapes

MAGIC = b"CNETCKPT"
VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def save_checkpoint(
    path: str,
    params: Params,
    config: ModelConfig,
    cardinalities: list[int],
    fields: list[tuple[str, str]],
    seed: int,
) -> None:
    header = {
        "config": asdict(config),
        "cardinalities": list(map(int, cardinalities)),
        "fields": [[name, kind] for name, kind in fields],
        "seed": int(seed),
        "tensors": [[name, list(arr.shape)] for name, arr in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[Params, ModelConfig, dict]:
    """Read a checkpoint whose header holds an integer seed, one [name, kind]
    pair per field and exactly the tensors its config and cardinalities call
    for, with all values finite; any malformed file raises CheckpointError
    (a file that cannot be opened or read raises OSError)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
        preamble = fh.read(8)
        if len(preamble) != 8:
            raise CheckpointError(f"{path}: truncated preamble")
        version, header_len = struct.unpack("<II", preamble)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ModelConfig(**header["config"])
            cards = header["cardinalities"]
            sizes = [config.n_fields, config.embed_dim, config.agg_width, config.n_blocks]
            if (not all(type(n) is int for n in sizes + cards) or len(cards) != config.n_fields
                    or min(cards) < 1):
                raise ValueError(f"bad sizes: config {sizes}, cardinalities {cards}")
            if type(header["seed"]) is not int:
                raise ValueError(f"seed {header['seed']!r} is not an integer")
            fields = header["fields"]
            if len(fields) != config.n_fields or not all(
                type(name) is str and kind in (CATEGORICAL, NUMERICAL) for name, kind in fields
            ):
                raise ValueError(f"fields are not {config.n_fields} [name, cat|num] pairs")
            shapes = param_shapes(config, cards)
            listed = [(str(name), tuple(shape)) for name, shape in header["tensors"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from None
        if listed != list(shapes.items()):
            got = dict(listed)
            missing = [n for n in shapes if n not in got]
            unknown = [n for n in got if n not in shapes]
            wrong = [n for n in shapes if n in got and got[n] != shapes[n]]
            raise CheckpointError(
                f"{path}: header tensors do not fit the config: missing {missing}, "
                f"unknown {unknown}, wrong shape {wrong}"
            )
        params = {}
        for name, shape in shapes.items():
            n_items = math.prod(shape)
            blob = fh.read(8 * n_items)
            if len(blob) != 8 * n_items:
                raise CheckpointError(f"{path}: truncated tensor {name}")
            params[name] = np.frombuffer(blob, "<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(params[name]).all():
                raise CheckpointError(f"{path}: tensor {name} holds a non-finite value")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensors")
    return params, config, header
