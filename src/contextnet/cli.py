"""Command-line interface: train, evaluate, and explain subcommands.

Options come from command-line flags alone: argparse converts, defaults and
requires each one from its `_OPTS` row. Exit codes: 0 success, 2 usage error
or a path that cannot be opened, read or written, 3 data or checkpoint error,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import ctypes
import math
import os
import re
import sys
from itertools import zip_longest

import numpy as np

from contextnet import checkpoint as ckpt
from contextnet import data as dt
from contextnet import interpret as itp
from contextnet.metrics import auc, logloss, rela_imp
from contextnet.model import PFFN, ModelConfig, NonFiniteScore, init_params, predict_scores
from contextnet.training import TrainConfig, TrainingDiverged, calibration_warning, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """A usage error: a bad command line or option value."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every option takes a value and no flag starts with a digit, "inf" or
        # "nan": -1e-4 and -Infinity are values
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # one line and exit 2, not a usage block
        raise ConfigError(message)


# (name, type, default, help, *choices) per subcommand; REQUIRED: no default
REQUIRED = object()
_MODEL_INPUT_OPTS = [
    ("checkpoint", str, REQUIRED, "checkpoint file"),
    ("vocab", str, REQUIRED, "vocabulary file"),
    ("schema", str, REQUIRED, "schema file"),
    ("data", str, REQUIRED, "data file"),
]
_OPTS = {
    "train": [
        ("data", str, REQUIRED, "training data file (tsv)"),
        ("schema", str, REQUIRED, "schema file (name<TAB>kind per line)"),
        ("out", str, REQUIRED, "output directory"),
        ("seed", int, TrainConfig.seed, "seed for split/init/shuffle"),
        ("min_count", int, 1, "minimum token count for the vocabulary"),
        ("embed_dim", int, ModelConfig.embed_dim, "embedding size per field"),
        ("agg_width", int, ModelConfig.agg_width, "aggregation layer width"),
        ("blocks", int, ModelConfig.n_blocks, "number of refinement blocks (0 = logistic regression)"),
        ("variant", str, ModelConfig.variant, "block variant: pffn | sffn"),
        ("sharing", str, ModelConfig.sharing, "cross-block sharing: none | agg | agg-proj"),
        ("ablate", str, "", "comma list from {tce,ffn,ln,rc} to remove"),
        ("l2", float, ModelConfig.l2, "l2 penalty coefficient"),
        ("batch_size", int, TrainConfig.batch_size, "mini-batch size"),
        ("lr", float, TrainConfig.lr, "Adam learning rate"),
        ("epochs", int, TrainConfig.max_epochs, "maximum training epochs"),
        ("patience", int, TrainConfig.patience, "non-improving epochs tolerated before stopping"),
    ],
    "evaluate": [
        *_MODEL_INPUT_OPTS,
        ("split", str, "all", "which 8:1:1 part to score", "train", "val", "test", "all"),
        ("base_auc", float, None, "baseline AUC for relative improvement"),
    ],
    "explain": [
        *_MODEL_INPUT_OPTS,
        ("instance", int, None, "explain the n-th record (0-based)"),
        ("corpus", str, None, "corpus importance mode", itp.IMPORTANCE_SUM, itp.IMPORTANCE_NORM),
        ("alpha", float, None, "frequency damping for norm mode (default 10)"),
        ("top", int, None, "rows to print in corpus mode (default 20, 0 = all)"),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contextnet",
        description="Train, evaluate, and explain contextual-embedding CTR models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in _OPTS.items():
        p = sub.add_parser(command)
        for name, typ, default, help_text, *choices in opts:
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=typ,
                default=default,
                required=default is REQUIRED,
                help=help_text,
                choices=choices or None,
            )
    return parser


def _model_config(opts: dict, n_fields: int) -> ModelConfig:
    ablate = {a.strip() for a in opts["ablate"].split(",") if a.strip()}
    unknown = ablate - {"tce", "ffn", "ln", "rc"}
    if unknown:
        raise ConfigError(f"unknown ablation flags: {sorted(unknown)}")
    if "rc" in ablate and opts["variant"] != PFFN:
        raise ConfigError("only --variant pffn has a residual connection to ablate")
    try:
        return ModelConfig(
            n_fields=n_fields,
            embed_dim=opts["embed_dim"],
            agg_width=opts["agg_width"],
            n_blocks=opts["blocks"],
            variant=opts["variant"],
            sharing=opts["sharing"],
            no_tce="tce" in ablate,
            no_ffn="ffn" in ablate,
            no_ln="ln" in ablate,
            no_rc="rc" in ablate,
            l2=opts["l2"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(opts: dict) -> int:
    try:
        tconf = TrainConfig(
            batch_size=opts["batch_size"],
            lr=opts["lr"],
            max_epochs=opts["epochs"],
            patience=opts["patience"],
            seed=opts["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = opts["out"]
    ancestor = os.path.abspath(out_dir)  # up to the nearest path that exists
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError(f"--out {out_dir}: {ancestor} is not a directory")
    if opts["min_count"] < 1:
        raise ConfigError(f"min_count must be >= 1, got {opts['min_count']}")
    schema = dt.load_schema(opts["schema"])
    config = _model_config(opts, len(schema))
    columns = dt.load_records(opts["data"], schema)
    splits = dt.split_indices(len(columns[0]), opts["seed"])
    vocab = dt.build_vocabulary(columns, schema, splits[0], opts["min_count"])
    cards = dt.cardinalities(schema, vocab)
    dataset = dt.encode_dataset(columns, schema, vocab)
    train_set, val_set, test_set = (dataset.take(rows) for rows in splits)
    del columns, dataset  # neither is needed during training
    test_set.require_both_classes("the test split")

    params = init_params(
        config, cards, opts["seed"], pos_rate=float(train_set.labels.mean())
    )
    best, history = train(config, params, train_set, val_set, tconf)
    warning = calibration_warning(history, val_set.labels)
    if warning:
        print(warning, file=sys.stderr)

    test_scores = predict_scores(test_set, best, config)
    test_auc = auc(test_scores, test_set.labels)
    test_ll = logloss(test_scores, test_set.labels)

    os.makedirs(out_dir, exist_ok=True)
    ckpt.save_checkpoint(
        os.path.join(out_dir, "checkpoint.bin"),
        best,
        config,
        cards,
        [(f.name, f.kind) for f in schema],
        opts["seed"],
    )
    dt.save_vocabulary(vocab, os.path.join(out_dir, "vocab.txt"))
    with open(os.path.join(out_dir, "history.tsv"), "w", encoding="utf-8") as fh:
        fh.write(history.to_tsv())
    with open(os.path.join(out_dir, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"test_auc\t{test_auc:.10f}\n")
        fh.write(f"test_logloss\t{test_ll:.10f}\n")
    kept = history.best_epoch
    print(f"trained {len(history.epochs)} epochs; best val AUC "
          f"{history.epochs[kept].val_auc:.6f} at epoch {kept}")
    print(f"test_auc\t{test_auc:.10f}")
    print(f"test_logloss\t{test_ll:.10f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _load_model_inputs(opts: dict):
    params, config, header = ckpt.load_checkpoint(opts["checkpoint"])
    schema = dt.load_schema(opts["schema"])
    vocab = dt.load_vocabulary(opts["vocab"])
    fields = [[f.name, f.kind] for f in schema]
    for i, (got, want) in enumerate(zip_longest(fields, header["fields"])):
        if got != want:
            got, want = (f"{p[0]} ({p[1]})" if p else "absent" for p in (got, want))
            raise ckpt.CheckpointError(
                f"schema fields differ from the checkpoint's: field {i} is {got}, not {want}"
            )
    cards = dt.cardinalities(schema, vocab)
    if cards != header["cardinalities"]:
        raise ckpt.CheckpointError(
            f"vocabulary cardinalities {cards} do not match checkpoint {header['cardinalities']}"
        )
    dataset = dt.encode_dataset(dt.load_records(opts["data"], schema), schema, vocab)
    return params, config, header, schema, vocab, dataset


def cmd_evaluate(opts: dict) -> int:
    split = opts["split"]
    if opts["base_auc"] is not None and not 0.5 < opts["base_auc"] <= 1.0:
        raise ConfigError(f"base_auc must be in (0.5, 1], got {opts['base_auc']}")
    params, config, header, schema, vocab, dataset = _load_model_inputs(opts)
    if split != "all":  # a part of the run's own split, by its training seed
        parts = dt.split_indices(len(dataset), header["seed"])
        dataset = dataset.take(parts[("train", "val", "test").index(split)])
    dataset.require_both_classes(f"{opts['data']} (split {split})")
    scores = predict_scores(dataset, params, config)
    split_auc = auc(scores, dataset.labels)
    split_ll = logloss(scores, dataset.labels)
    print(f"auc\t{split_auc:.10f}")
    print(f"logloss\t{split_ll:.10f}")
    if opts["base_auc"] is not None:
        improvement = rela_imp(split_auc, opts["base_auc"])
        print(f"relaimp\t{improvement * 100:+.2f}%")
    return EXIT_OK


def cmd_explain(opts: dict) -> int:
    if (opts["instance"] is None) == (opts["corpus"] is None):
        raise ConfigError("pass exactly one of --instance or --corpus")
    mode = opts["corpus"]
    if mode is None:
        given = [f"--{name}" for name in ("alpha", "top") if opts[name] is not None]
        if given:
            raise ConfigError(f"only --corpus takes {' and '.join(given)}")
    elif mode == itp.IMPORTANCE_SUM and opts["alpha"] is not None:
        raise ConfigError("only --corpus norm takes --alpha")
    alpha = 10.0 if opts["alpha"] is None else opts["alpha"]
    top = 20 if opts["top"] is None else opts["top"]
    if not 0.0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    if top < 0:
        raise ConfigError(f"top must be >= 0, got {top}")
    if opts["instance"] is not None and opts["instance"] < 0:
        raise ConfigError(f"instance must be >= 0, got {opts['instance']}")
    params, config, header, schema, vocab, dataset = _load_model_inputs(opts)
    tables = [vocab.token_table(f) for f in schema]
    lines = []
    if opts["instance"] is not None:
        n = opts["instance"]
        if n >= len(dataset):
            raise dt.DataError(f"instance {n} out of range (0..{len(dataset) - 1})")
        inst = dataset.take(slice(n, n + 1))
        report = itp.explain_instance(params, config, inst, n)
        lines.append(f"instance\t{n}")
        lines.append(f"score\t{report.score:.10f}")
        lines.append(f"logit\t{report.logit:.10f}")
        lines.append(f"intercept\t{report.intercept:.10f}")
        lines.append("field\ttoken\tweight")
        order = np.argsort(-np.abs(report.weights))
        for i in order:
            token = tables[i][inst.indices[0, i]]
            lines.append(f"{schema[i].name}\t{token}\t{report.weights[i]:+.10f}")
        for level, mat in enumerate(report.correlations):
            lines.append(f"block-correlations\tlevel\t{level}")
            for row in mat:
                lines.append("\t".join(f"{v:+.6f}" for v in row))
    else:
        ranked = itp.corpus_feature_importance(
            params, config, dataset, schema, tables, mode=mode, alpha=alpha
        )
        top = top or None  # 0 prints every row
        lines.append("field\ttoken\tcount\tscore")
        lines.extend(
            "{}\t{}\t{}\t{:.10f}".format(schema[i].name, tables[i][j], n, score)
            for i, j, n, score in zip(*(a[:top].tolist() for a in ranked))
        )
    print("\n".join(lines))
    return EXIT_OK


_HANDLERS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
}


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc malloc.h


def _reuse_freed_memory() -> None:
    """Keep freed heap memory mapped for the next training step or scoring
    chunk (glibc; other C libraries are left alone).

    Each step allocates its arrays afresh, several MB per 1024 rows. Under
    glibc's default thresholds the heap top a step frees goes back to the
    kernel and is faulted in again by the next step: at the ML-1m shape
    about 20x the page faults and up to a quarter of the training rate.
    Arrays up to 32 MB now come from the heap, and up to 256 MB of it stays
    mapped when freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _reuse_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # the engine checks for non-finite values
            return _HANDLERS[args.command](vars(args))
    except (ConfigError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (dt.DataError, ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, NonFiniteScore) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
