"""End-to-end command-line tests over tiny datasets."""
import errno
import gc
import json
import os
import re
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

import contextnet
from contextnet import cli, interpret, model, training
from contextnet import data as dt
from contextnet.checkpoint import load_checkpoint, save_checkpoint
from contextnet.cli import main
from contextnet.data import split_indices
from contextnet.metrics import rela_imp
from contextnet.model import SCORE_CHUNK, predict
from contextnet.ops import logit
from synth import SynthSpec, generate, write_dataset


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthetic dataset."""
    out = str(tmp_path_factory.mktemp("synth"))
    spec = SynthSpec(
        n_fields=3, cardinalities=(6,), rows=600, scale=0.8, latent_dim=2, seed=5
    )
    write_dataset(generate(spec), out)
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, synth_dir):
    """A full training run over the synthetic files."""
    out = str(tmp_path_factory.mktemp("run"))
    code = main(
        [
            "train",
            "--data", os.path.join(synth_dir, "data.tsv"),
            "--schema", os.path.join(synth_dir, "schema.tsv"),
            "--out", out,
            "--seed", "3",
            "--embed-dim", "4",
            "--agg-width", "5",
            "--blocks", "2",
            "--epochs", "3",
            "--patience", "3",
            "--batch-size", "64",
            "--lr", "0.003",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def numeric_dir(tmp_path_factory):
    """200 rows of one categorical and one numerical field, and a model
    trained on them in run/."""
    d = tmp_path_factory.mktemp("numeric")
    (d / "schema.tsv").write_text("c\tcat\nx\tnum\n")
    (d / "data.tsv").write_text(
        "".join(f"{i % 2}\tt{i % 5}\t{(i * 7) % 11}.5\n" for i in range(200))
    )
    code = main(
        [
            "train",
            "--data", str(d / "data.tsv"),
            "--schema", str(d / "schema.tsv"),
            "--out", str(d / "run"),
            "--seed", "3",
            "--embed-dim", "2",
            "--agg-width", "2",
            "--blocks", "1",
            "--epochs", "1",
            "--batch-size", "64",
        ]
    )
    assert code == 0
    return d


def with_cell(src, dst, row, column, raw):
    """Copy a data file, replacing one cell."""
    lines = src.read_text().splitlines()
    cells = lines[row].split("\t")
    cells[column] = raw
    lines[row] = "\t".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return str(dst)


def tampered_checkpoint(run_dir, dst, edit):
    """Copy a run's checkpoint with edit(params) applied to its tensors."""
    params, config, header = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    edit(params)
    save_checkpoint(
        str(dst), params, config, header["cardinalities"], header["fields"], header["seed"]
    )
    return str(dst)


def edited_header(run_dir, dst, edit):
    """Copy a run's checkpoint with edit(header) applied to its JSON header."""
    blob = open(os.path.join(run_dir, "checkpoint.bin"), "rb").read()
    n = struct.unpack("<I", blob[12:16])[0]
    header = json.loads(blob[16 : 16 + n])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(blob[:12] + struct.pack("<I", len(head)) + head + blob[16 + n :])
    return str(dst)


SRC = os.path.dirname(os.path.dirname(contextnet.__file__))


def run_optimized(argv):
    """Run the CLI in a `python -O` subprocess, where asserts are stripped."""
    return subprocess.run(
        [sys.executable, "-O", "-m", "contextnet.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300,
    )


def read_metrics(path):
    out = {}
    for line in open(path):
        key, _, value = line.strip().partition("\t")
        out[key] = float(value)
    return out


class TestTrainCommand:
    def test_outputs_exist(self, run_dir):
        assert sorted(os.listdir(run_dir)) == [
            "checkpoint.bin", "history.tsv", "metrics.txt", "vocab.txt"
        ]

    def test_history_has_header_and_rows(self, run_dir):
        lines = open(os.path.join(run_dir, "history.tsv")).read().strip().split("\n")
        assert lines[0].startswith("epoch\t")
        assert len(lines) >= 2

    def test_missing_schema_exits_2_naming_path(self, synth_dir, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", "/nonexistent/schema.tsv",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "/nonexistent/schema.tsv" in capsys.readouterr().err

    def test_blocks_zero_trains_lr_model(self, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "lr")
        code = main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", out,
                "--blocks", "0",
                "--epochs", "2",
                "--batch-size", "64",
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "metrics.txt"))
        # the summary names the kept epoch: the first of highest validation AUC
        history = open(os.path.join(out, "history.tsv")).read().splitlines()[1:]
        val_auc = [float(line.split("\t")[2]) for line in history]
        kept = val_auc.index(max(val_auc))
        summary = capsys.readouterr().out.splitlines()[0]
        m = re.fullmatch(r"trained 2 epochs; best val AUC (\S+) at epoch (\d+)", summary)
        assert int(m[2]) == kept and abs(float(m[1]) - val_auc[kept]) <= 5e-7

    @pytest.mark.parametrize(
        "flag, value",
        [("--batch-size", "0"), ("--patience", "-1"), ("--lr", "nan")],
    )
    def test_bad_training_option_exits_2_with_one_line(
        self, synth_dir, tmp_path, capsys, flag, value
    ):
        code = main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", str(tmp_path / "x"),
                "--epochs", "1",
                flag, value,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("split, part", [("validation", 1), ("test", 2)])
    def test_single_class_split_exits_3_before_training(
        self, synth_dir, tmp_path, capsys, split, part
    ):
        lines = open(os.path.join(synth_dir, "data.tsv")).read().splitlines()
        for i in split_indices(len(lines), seed=3)[part]:
            lines[i] = "0" + lines[i][1:]
        data = tmp_path / "data.tsv"
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "x")
        code = main(
            [
                "train",
                "--data", str(data),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", out,
                "--seed", "3",
                "--epochs", "1",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"the {split} split holds only one class" in err and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("raw", ["nan", "oops"])
    def test_bad_number_exits_3_naming_file_row(self, numeric_dir, tmp_path, capsys, raw):
        # a training row that sits elsewhere in the shuffled split order
        train_rows = split_indices(200, seed=3)[0].tolist()
        k = next(r for pos, r in enumerate(train_rows) if pos != r)
        data = with_cell(numeric_dir / "data.tsv", tmp_path / "data.tsv", k, 2, raw)
        code = main(
            [
                "train",
                "--data", data,
                "--schema", str(numeric_dir / "schema.tsv"),
                "--out", str(tmp_path / "x"),
                "--seed", "3",
                "--epochs", "1",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"record {k}, field 'x': '{raw}'" in err and err.count("\n") == 1

    def test_training_holds_no_vocabulary(self, synth_dir, tmp_path, monkeypatch):
        """The Vocabulary and its token strings are gone before the first
        step: train() reads none of them, and vocab.txt is written from
        its text."""
        built, alive = [], []
        build_vocabulary, train = dt.build_vocabulary, cli.train

        def kept(*args):
            vocab = build_vocabulary(*args)
            built.append(weakref.ref(vocab))
            return vocab

        def checked(*args):
            gc.collect()
            alive.append(built[0]() is not None)
            return train(*args)

        monkeypatch.setattr(dt, "build_vocabulary", kept)
        monkeypatch.setattr(cli, "train", checked)
        out = str(tmp_path / "run")
        code = main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", out,
                "--epochs", "1",
                "--batch-size", "64",
            ]
        )
        assert (code, alive) == (0, [False])
        assert os.path.exists(os.path.join(out, "vocab.txt"))

    def test_unknown_ablation_rejected(self, synth_dir, tmp_path):
        code = main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", str(tmp_path / "x"),
                "--ablate", "tce,bogus",
            ]
        )
        assert code == 2


class TestEvaluateCommand:
    def test_reproduces_training_metrics_exactly(self, synth_dir, run_dir, capsys):
        code = main(
            [
                "evaluate",
                "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--split", "test",
            ]
        )
        assert code == 0
        printed = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().split("\n")
        )
        metrics = read_metrics(os.path.join(run_dir, "metrics.txt"))
        assert float(printed["auc"]) == metrics["test_auc"]
        assert float(printed["logloss"]) == metrics["test_logloss"]

    def test_base_auc_prints_relative_improvement(self, synth_dir, run_dir, capsys):
        code = main(
            [
                "evaluate",
                "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--split", "test",
                "--base-auc", "0.7895",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        printed = dict(line.split("\t") for line in out.strip().split("\n"))
        want = rela_imp(float(printed["auc"]), 0.7895) * 100
        assert printed["relaimp"] == f"{want:+.2f}%"

    def test_published_pair_formats_as_paper_column(self, synth_dir, run_dir, capsys):
        assert f"{rela_imp(0.8107, 0.7895) * 100:+.2f}%" == "+7.32%"

    def test_corrupt_checkpoint_magic_exits_3(self, synth_dir, run_dir, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"junkjunk" + open(
            os.path.join(run_dir, "checkpoint.bin"), "rb"
        ).read()[8:])
        code = main(
            [
                "evaluate",
                "--checkpoint", str(bad),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
            ]
        )
        assert code == 3

    def test_invalid_checkpoint_config_exits_3(self, synth_dir, run_dir, tmp_path, capsys):
        blob = open(os.path.join(run_dir, "checkpoint.bin"), "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob.replace(b'"variant": "sffn"', b'"variant": "xffn"', 1))
        assert bad.read_bytes() != blob
        code = main(
            [
                "evaluate",
                "--checkpoint", str(bad),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
            ]
        )
        assert code == 3
        assert "xffn" in capsys.readouterr().err

    def test_single_class_data_exits_3(self, synth_dir, run_dir, tmp_path, capsys):
        lines = open(os.path.join(synth_dir, "data.tsv")).read().splitlines()
        data = tmp_path / "zeros.tsv"
        data.write_text("".join("0" + line[1:] + "\n" for line in lines))
        code = main(
            [
                "evaluate",
                "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", str(data),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "only one class" in err and err.count("\n") == 1

    def test_non_finite_number_exits_3(self, numeric_dir, tmp_path, capsys):
        data = with_cell(numeric_dir / "data.tsv", tmp_path / "data.tsv", 150, 2, "inf")
        run = numeric_dir / "run"
        code = main(
            [
                "evaluate",
                "--checkpoint", str(run / "checkpoint.bin"),
                "--vocab", str(run / "vocab.txt"),
                "--schema", str(numeric_dir / "schema.tsv"),
                "--data", data,
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "record 150, field 'x': 'inf'" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mean, std", [("nan", "1.0"), ("0.5", "inf"), ("0.5", "-1.0")]
    )
    def test_non_finite_vocabulary_stats_exit_3(
        self, numeric_dir, tmp_path, capsys, mean, std
    ):
        run = numeric_dir / "run"
        doc = json.loads((run / "vocab.txt").read_text())
        doc["numeric_stats"]["x"] = [float(mean), float(std)]  # json writes NaN, Infinity
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(json.dumps(doc))
        code = main(
            [
                "evaluate",
                "--checkpoint", str(run / "checkpoint.bin"),
                "--vocab", str(vocab),
                "--schema", str(numeric_dir / "schema.tsv"),
                "--data", str(numeric_dir / "data.tsv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vocab}: field 'x': [") and err.count("\n") == 1

    def test_non_finite_checkpoint_tensor_exits_3_under_optimize(
        self, synth_dir, run_dir, tmp_path
    ):
        def nan_intercept(params):
            params["head_b"][0] = np.nan

        bad = tampered_checkpoint(run_dir, tmp_path / "nan.bin", nan_intercept)
        result = run_optimized(
            [
                "evaluate", "--split", "all",
                "--checkpoint", bad,
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
            ]
        )
        assert result.returncode == 3, result.stdout
        assert result.stdout == ""
        assert "tensor head_b holds a non-finite value" in result.stderr
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command, error",
        [
            (["evaluate", "--split", "all"], "scored row 0: logit nan is not finite"),
            (["explain", "--corpus", "norm"], "scored row 0: logit nan is not finite"),
            (["explain", "--instance", "3"], "scored row 3: logit inf is not finite"),
        ],
        ids=["evaluate", "explain-corpus", "explain-instance"],
    )
    def test_overflowing_scores_exit_4_under_optimize(
        self, synth_dir, run_dir, tmp_path, command, error
    ):
        """A last-block bias of 1e308 against head weights of both signs
        overflows every logit: inf - inf = nan over a batch, inf for the
        one-row product of a single instance."""
        def overflow(params):
            params["ln_bias.1"][...] = 1e308
            params["head_w"][::2] = 2.0
            params["head_w"][1::2] = -2.0

        bad = tampered_checkpoint(run_dir, tmp_path / "over.bin", overflow)
        result = run_optimized(
            [
                *command,
                "--checkpoint", bad,
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
            ]
        )
        assert result.returncode == 4, result.stdout
        assert result.stdout == ""
        assert result.stderr == f"error: {error}\n"  # no NumPy warning comes first

    def test_schema_mismatch_exits_3_naming_issue(self, synth_dir, run_dir, tmp_path, capsys):
        wrong = tmp_path / "schema.tsv"
        wrong.write_text("c0\tcat\nc1\tcat\n")  # 2 fields instead of 3
        data = tmp_path / "data.tsv"
        data.write_text("1\tv0\tv1\n")
        code = main(
            [
                "evaluate",
                "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", str(wrong),
                "--data", str(data),
            ]
        )
        assert code == 3
        assert "fields" in capsys.readouterr().err

    def test_swapped_schema_fields_exit_3_naming_first(self, synth_dir, run_dir, tmp_path, capsys):
        # c0 and c1 have the same cardinality, so only the names tell them apart
        swapped = tmp_path / "schema.tsv"
        swapped.write_text("c1\tcat\nc0\tcat\nc2\tcat\n")
        code = main(
            [
                "evaluate",
                "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", str(swapped),
                "--data", os.path.join(synth_dir, "data.tsv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "field 0 is c1 (cat), not c0 (cat)" in err

    @pytest.mark.parametrize("key", ["seed", "fields"])
    def test_header_without_key_exits_3(self, synth_dir, run_dir, tmp_path, capsys, key):
        bad = edited_header(run_dir, tmp_path / "bad.bin", lambda header: header.pop(key))
        code = main(
            [
                "evaluate",
                "--checkpoint", bad,
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--split", "test",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"corrupt header: '{key}'" in err


class TestExplainCommand:
    def _explain(self, synth_dir, run_dir, extra):
        return main(
            [
                "explain",
                "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--vocab", os.path.join(run_dir, "vocab.txt"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--data", os.path.join(synth_dir, "data.tsv"),
                *extra,
            ]
        )

    def test_instance_report_sums_to_logit(self, synth_dir, run_dir, capsys):
        code = self._explain(synth_dir, run_dir, ["--instance", "7"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        fields = {}
        weights = []
        for line in lines:
            parts = line.split("\t")
            if parts[0] in ("score", "logit", "intercept"):
                fields[parts[0]] = float(parts[1])
            elif len(parts) == 3 and parts[0].startswith("c"):
                weights.append(float(parts[2]))
        total = sum(weights) + fields["intercept"]
        assert abs(total - fields["logit"]) < 1e-9
        assert fields["logit"] == pytest.approx(logit(fields["score"]), abs=1e-9)

    def test_instance_runs_one_taped_pass(self, synth_dir, run_dir, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return predict(*args, **kwargs)

        monkeypatch.setattr(interpret, "predict", counted)
        assert self._explain(synth_dir, run_dir, ["--instance", "7"]) == 0
        assert calls == [{}]

    def test_instance_emits_all_block_levels(self, synth_dir, run_dir, capsys):
        code = self._explain(synth_dir, run_dir, ["--instance", "0"])
        assert code == 0
        out = capsys.readouterr().out
        # trained with --blocks 2 -> levels 0, 1, 2
        assert out.count("block-correlations\tlevel") == 3

    def test_instance_out_of_range_exits_3(self, synth_dir, run_dir, capsys):
        code = self._explain(synth_dir, run_dir, ["--instance", "999999"])
        assert code == 3

    def test_corpus_norm_matches_library(self, synth_dir, run_dir, capsys):
        code = self._explain(
            synth_dir, run_dir, ["--corpus", "norm", "--alpha", "10", "--top", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "field\ttoken\tcount\tscore"
        scores = [float(line.split("\t")[3]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert len(scores) == 5

    def test_requires_exactly_one_mode(self, synth_dir, run_dir):
        assert self._explain(synth_dir, run_dir, []) == 2
        assert (
            self._explain(synth_dir, run_dir, ["--instance", "0", "--corpus", "sum"])
            == 2
        )


class TestFieldsWithoutTokens:
    """A --min-count above every token count leaves each field only its OOV
    row: vocab.txt then lists each field with no token, and the run still
    evaluates."""

    @pytest.fixture(scope="class")
    def sparse_run(self, tmp_path_factory, synth_dir):
        out = str(tmp_path_factory.mktemp("sparse"))
        code = main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", out,
                "--min-count", "100000",
                "--epochs", "1",
                "--batch-size", "64",
            ]
        )
        assert code == 0
        return out

    def model_inputs(self, synth_dir, checkpoint_dir, vocab_dir):
        return [
            "--checkpoint", os.path.join(checkpoint_dir, "checkpoint.bin"),
            "--vocab", os.path.join(vocab_dir, "vocab.txt"),
            "--schema", os.path.join(synth_dir, "schema.tsv"),
            "--data", os.path.join(synth_dir, "data.tsv"),
        ]

    def test_evaluate_and_explain_corpus_exit_0(self, synth_dir, sparse_run, capsys):
        header = load_checkpoint(os.path.join(sparse_run, "checkpoint.bin"))[2]
        assert header["cardinalities"] == [1, 1, 1]
        inputs = self.model_inputs(synth_dir, sparse_run, sparse_run)
        assert main(["evaluate", *inputs]) == 0
        assert capsys.readouterr().out.startswith("auc\t")
        assert main(["explain", *inputs, "--corpus", "norm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(line.split("\t")[:3] for line in lines[1:]) == [
            [name, "<oov>", "600"] for name in ("c0", "c1", "c2")
        ]

    def test_vocabulary_of_another_run_exits_3(self, synth_dir, run_dir, sparse_run, capsys):
        want = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))[2]["cardinalities"]
        code = main(["evaluate", *self.model_inputs(synth_dir, run_dir, sparse_run)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: vocabulary cardinalities [1, 1, 1] do not match checkpoint {want}\n"
        )


ENOENT = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
EISDIR = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
TRAIN = ["train", "--data", "{data}", "--schema", "{schema}", "--out", "{out}",
         "--epochs", "1"]
MODEL = ["--checkpoint", "{checkpoint}", "--vocab", "{vocab}", "--schema", "{schema}",
         "--data", "{data}"]
NUM_MODEL = ["--checkpoint", "{num_checkpoint}", "--vocab", "{num_vocab}",
             "--schema", "{num_schema}", "--data", "{num_data}"]
NOT_UTF8 = "not UTF-8 text (invalid start byte)"

# argv (a later flag overrides an earlier one), exit code, the one stderr line
ERROR_CASES = {
    "missing-data": (TRAIN + ["--data", "{missing}"], 2, ENOENT + ": {missing!r}"),
    "directory-data": (TRAIN + ["--data", "{dir}"], 2, EISDIR + ": {dir!r}"),
    "missing-checkpoint": (
        ["evaluate", *MODEL, "--checkpoint", "{missing}"], 2, ENOENT + ": {missing!r}"
    ),
    "directory-checkpoint": (
        ["evaluate", *MODEL, "--checkpoint", "{dir}"], 2, EISDIR + ": {dir!r}"
    ),
    "out-is-a-file": (TRAIN + ["--out", "{file}"], 2, "--out {file}: {file} is not a directory"),
    # checked before any file is read: --data is missing
    "out-under-a-file": (
        TRAIN + ["--out", "{file}/sub/dir", "--data", "{missing}"],
        2,
        "--out {file}/sub/dir: {file} is not a directory",
    ),
    "out-under-a-dangling-link": (
        TRAIN + ["--out", "{link}/sub", "--data", "{missing}"],
        2,
        "--out {link}/sub: {link} is not a directory",
    ),
    "non-utf8-data": (TRAIN + ["--data", "{bad_data}"], 3, "{bad_data}: " + NOT_UTF8),
    "non-utf8-schema": (
        TRAIN + ["--schema", "{bad_schema}"], 3, "{bad_schema}: " + NOT_UTF8
    ),
    "non-utf8-vocab": (
        ["evaluate", *MODEL, "--vocab", "{bad_vocab}"], 3, "{bad_vocab}: " + NOT_UTF8
    ),
    # vocabularies that are not what save_vocabulary writes
    **{
        f"vocab-{name}": (
            ["evaluate", *MODEL, "--vocab", f"{{vocab_{name}}}"], 3, f"{{vocab_{name}}}: {error}"
        )
        for name, error in [
            ("v1-text", "not a version-2 vocabulary file"),
            ("field-twice", "key 'c0' given twice"),
            ("twice", "field 'c0': tokens are not distinct strings in a list"),
            ("not-str", "field 'c0': tokens are not distinct strings in a list"),
            ("str", "field 'c0': tokens are not distinct strings in a list"),
        ]
    },
    # a numeric failure: Adam's second moment overflows at the first step
    "l2-overflow": (
        TRAIN + ["--l2", "1e300"],
        4,
        "Adam update of embed.0: overflow encountered in multiply at epoch 0, batch 0",
    ),
    **{
        f"alpha-{value}": (
            ["explain", *MODEL, "--corpus", "norm", "--alpha", value],
            2,
            f"alpha must be finite and >= 0, got {float(value)}",
        )
        for value in ("nan", "-1", "inf")
    },
    "top-negative": (
        ["explain", *MODEL, "--corpus", "norm", "--top", "-3"],
        2,
        "top must be >= 0, got -3",
    ),
    **{
        f"l2-{value}": (
            TRAIN + ["--l2", value], 2, f"l2 must be finite and >= 0, got {float(value)}"
        )
        for value in ("nan", "-1", "inf")
    },
    # a negative number in exponent form is a value, not a flag
    "l2-exponent": (TRAIN + ["--l2", "-1e-4"], 2, "l2 must be finite and >= 0, got -0.0001"),
    "lr-exponent": (TRAIN + ["--lr", "-1e-3"], 2, "lr must be finite and > 0, got -0.001"),
    # a value that is not a number of the option's type
    "epochs-not-int": (
        TRAIN + ["--epochs", "x"], 2, "argument --epochs: invalid int value: 'x'"
    ),
    "alpha-not-float": (
        ["explain", *MODEL, "--corpus", "norm", "--alpha", "ten"],
        2,
        "argument --alpha: invalid float value: 'ten'",
    ),
    "unknown-flag": (TRAIN + ["--bogus", "1"], 2, "unrecognized arguments: --bogus 1"),
    "ambiguous-flag": (
        TRAIN + ["--e", "1"],
        2,
        "ambiguous option: --e could match --embed-dim, --epochs",
    ),
    # flags that no subcommand has; options come from the command line only
    "train-eval-every": (
        TRAIN + ["--eval-every", "2"], 2, "unrecognized arguments: --eval-every 2"
    ),
    "evaluate-seed": (
        ["evaluate", *MODEL, "--seed", "3"], 2, "unrecognized arguments: --seed 3"
    ),
    "explain-out": (
        ["explain", *MODEL, "--instance", "0", "--out", "{out}"],
        2,
        "unrecognized arguments: --out {out}",
    ),
    **{
        f"{argv[0]}-config": (
            argv + ["--config", "{file}"], 2, "unrecognized arguments: --config {file}"
        )
        for argv in (TRAIN, ["evaluate", *MODEL], ["explain", *MODEL, "--corpus", "sum"])
    },
    "no-subcommand": ([], 2, "the following arguments are required: command"),
    "train-missing-options": (
        ["train", "--epochs", "1"],
        2,
        "the following arguments are required: --data, --schema, --out",
    ),
    # corpus-only options are refused with --instance, and --alpha with sum
    "explain-instance-alpha-top": (
        ["explain", *MODEL, "--instance", "0", "--alpha", "99", "--top", "1"],
        2,
        "only --corpus takes --alpha and --top",
    ),
    "explain-sum-alpha": (
        ["explain", *MODEL, "--data", "{missing}", "--corpus", "sum", "--alpha", "99"],
        2,
        "only --corpus norm takes --alpha",
    ),
    # a negative number spelled as a word is a value, not a flag
    "l2-minus-inf": (TRAIN + ["--l2", "-inf"], 2, "l2 must be finite and >= 0, got -inf"),
    "lr-minus-nan": (TRAIN + ["--lr", "-NaN"], 2, "lr must be finite and > 0, got nan"),
    "top-minus-infinity": (
        ["explain", *MODEL, "--corpus", "norm", "--top", "-Infinity"],
        2,
        "argument --top: invalid int value: '-Infinity'",
    ),
    # option rules are checked before any file is read: --data is missing
    "instance-negative": (
        ["explain", *MODEL, "--data", "{missing}", "--instance", "-1"],
        2,
        "instance must be >= 0, got -1",
    ),
    "sffn-ablate-rc": (
        TRAIN + ["--variant", "sffn", "--ablate", "ln,rc", "--data", "{missing}"],
        2,
        "only --variant pffn has a residual connection to ablate",
    ),
    **{
        f"epochs-{value}": (
            TRAIN + ["--epochs", value, "--data", "{missing}"],
            2,
            f"epochs must be >= 1, got {value}",
        )
        for value in ("0", "-2")
    },
    **{
        f"min-count-{value}": (
            TRAIN + ["--min-count", value, "--data", "{missing}"],
            2,
            f"min_count must be >= 1, got {value}",
        )
        for value in ("0", "-3")
    },
    **{
        f"base-auc-{value}": (
            ["evaluate", *MODEL, "--data", "{missing}", "--base-auc", value],
            2,
            f"base_auc must be in (0.5, 1], got {float(value)}",
        )
        for value in ("0.4", "nan", "inf")
    },
    # a value that the option's choices do not list
    "evaluate-split-x": (
        ["evaluate", *MODEL, "--split", "x"],
        2,
        "argument --split: invalid choice: 'x' (choose from 'train', 'val', 'test', 'all')",
    ),
    "explain-corpus-x": (
        ["explain", *MODEL, "--corpus", "x"],
        2,
        "argument --corpus: invalid choice: 'x' (choose from 'sum', 'norm')",
    ),
    # checkpoints that are not what save_checkpoint writes
    "checkpoint-version-2": (
        ["evaluate", *MODEL, "--checkpoint", "{ckpt_v2}"],
        3,
        "{ckpt_v2}: unsupported checkpoint version 2",
    ),
    "checkpoint-trailing-bytes": (
        ["evaluate", *MODEL, "--checkpoint", "{ckpt_trailing}"],
        3,
        "{ckpt_trailing}: trailing bytes after tensors",
    ),
    "checkpoint-negative-blocks": (
        ["evaluate", *MODEL, "--checkpoint", "{ckpt_blocks}"],
        3,
        "{ckpt_blocks}: corrupt header: n_blocks must be >= 0",
    ),
    "checkpoint-no-fields": (
        ["evaluate", *MODEL, "--checkpoint", "{ckpt_fields}"],
        3,
        "{ckpt_fields}: corrupt header: n_fields must be >= 1",
    ),
    # a header that lists no cardinality at all
    "checkpoint-no-cardinalities": (
        ["evaluate", *MODEL, "--checkpoint", "{ckpt_cards}"],
        3,
        "{ckpt_cards}: corrupt header: bad sizes: config [3, 4, 5, 2], cardinalities []",
    ),
    # a std of inf would give a vocabulary that no vocabulary file may hold
    "train-stats-overflow": (
        TRAIN + ["--data", "{overflow_data}", "--schema", "{num_schema}"],
        3,
        "field 'x': mean or std of its values overflows float64",
    ),
    "vocab-without-numeric-stats": (
        ["evaluate", *NUM_MODEL], 3, "vocabulary is missing field 'x'"
    ),
    "vocab-without-tokens": (
        ["evaluate", *NUM_MODEL, "--vocab", "{num_vocab_no_tokens}"],
        3,
        "vocabulary is missing field 'c'",
    ),
    # json would otherwise keep the second stats of a field
    "vocab-numeric-stats-twice": (
        ["evaluate", *NUM_MODEL, "--vocab", "{num_vocab_twice}"],
        3,
        "{num_vocab_twice}: key 'x' given twice",
    ),
    "schema-unknown-kind": (
        TRAIN + ["--schema", "{kind_schema}"],
        3,
        "{kind_schema}: field 'b': unknown kind 'cats'",
    ),
    "schema-repeated-name": (
        TRAIN + ["--schema", "{repeat_schema}"],
        3,
        "{repeat_schema}: field names must be unique: 'a' repeats",
    ),
}


@pytest.fixture(scope="module")
def error_paths(tmp_path_factory, synth_dir, run_dir, numeric_dir):
    """Good inputs, and the bad paths, files and checkpoints of ERROR_CASES."""
    d = tmp_path_factory.mktemp("errors")
    (d / "file").write_text("")
    os.symlink(d / "absent", d / "link")
    (d / "data.tsv").write_bytes(b"1\tv1\tv2\tv3\n0\t\xff\xfe\tv2\tv3\n")
    (d / "schema.tsv").write_bytes(b"c0\tcat\n\xff\xfe\tcat\n")
    vocab = open(os.path.join(run_dir, "vocab.txt"), encoding="utf-8").read()
    (d / "vocab.txt").write_bytes(vocab.encode("utf-8") + b"\xff\xfe")
    # the run's vocabulary with field c0's token list edited, and in version 1's text
    tokens = json.loads(vocab)["tokens"]
    c0 = f'"c0": {json.dumps(tokens["c0"])}'
    assert c0 in vocab
    edits = {
        "v1-text": "#contextnet-vocab\t1\n#tokens\n" + "".join(
            f"{name}\t{token}\t{i}\n"
            for name, listed in tokens.items() for i, token in enumerate(listed, start=1)
        ) + "#numeric-stats\n",
        "field-twice": vocab.replace(c0, f"{c0}, {c0}"),
        "twice": vocab.replace(c0, f'"c0": {json.dumps(tokens["c0"] * 2)}'),
        "not-str": vocab.replace(c0, f'"c0": {json.dumps([*tokens["c0"], 7])}'),
        "str": vocab.replace(c0, f'"c0": {json.dumps("".join(tokens["c0"]))}'),
    }
    for name, text in edits.items():
        (d / f"vocab_{name}.txt").write_text(text)
    (d / "overflow.tsv").write_text(
        "".join(f"{i % 2}\tt{i % 5}\t{'-' if i % 3 else ''}1e200\n" for i in range(200))
    )
    (d / "kind.tsv").write_text("a\tcat\nb\tcats\n")
    (d / "repeat.tsv").write_text("a\tcat\nb\tnum\na\tcat\n")
    blob = open(os.path.join(run_dir, "checkpoint.bin"), "rb").read()
    (d / "v2.bin").write_bytes(blob[:8] + struct.pack("<I", 2) + blob[12:])
    (d / "trailing.bin").write_bytes(blob + b"\0")
    edited_header(run_dir, d / "blocks.bin", lambda h: h["config"].update(n_blocks=-1))
    edited_header(run_dir, d / "fields.bin", lambda h: h["config"].update(n_fields=0))
    edited_header(run_dir, d / "cards.bin", lambda h: h.update(cardinalities=[]))
    num_run = numeric_dir / "run"
    num_vocab = (num_run / "vocab.txt").read_text()
    doc = json.loads(num_vocab)
    x = f'"x": {json.dumps(doc["numeric_stats"]["x"])}'
    c = f'"c": {json.dumps(doc["tokens"]["c"])}'
    assert x in num_vocab and c in num_vocab
    (d / "num_vocab.txt").write_text(num_vocab.replace(x, ""))
    (d / "num_vocab_no_tokens.txt").write_text(num_vocab.replace(c, ""))
    (d / "num_vocab_twice.txt").write_text(num_vocab.replace(x, f'{x}, "x": [5.0, 2.0]'))
    return {
        "data": os.path.join(synth_dir, "data.tsv"),
        "schema": os.path.join(synth_dir, "schema.tsv"),
        "checkpoint": os.path.join(run_dir, "checkpoint.bin"),
        "vocab": os.path.join(run_dir, "vocab.txt"),
        "out": str(d / "out"),
        "missing": str(d / "absent" / "x.txt"),
        "dir": str(d),
        "file": str(d / "file"),
        "link": str(d / "link"),
        "bad_data": str(d / "data.tsv"),
        "bad_schema": str(d / "schema.tsv"),
        "bad_vocab": str(d / "vocab.txt"),
        "kind_schema": str(d / "kind.tsv"),
        "repeat_schema": str(d / "repeat.tsv"),
        "ckpt_v2": str(d / "v2.bin"),
        "ckpt_trailing": str(d / "trailing.bin"),
        "ckpt_blocks": str(d / "blocks.bin"),
        "ckpt_fields": str(d / "fields.bin"),
        "ckpt_cards": str(d / "cards.bin"),
        "num_checkpoint": str(num_run / "checkpoint.bin"),
        "num_vocab": str(d / "num_vocab.txt"),
        "num_vocab_twice": str(d / "num_vocab_twice.txt"),
        "num_vocab_no_tokens": str(d / "num_vocab_no_tokens.txt"),
        "num_schema": str(numeric_dir / "schema.tsv"),
        "overflow_data": str(d / "overflow.tsv"),
        "num_data": str(numeric_dir / "data.tsv"),
        **{f"vocab_{name}": str(d / f"vocab_{name}.txt") for name in edits},
    }


class TestErrorTable:
    """Each path, option or command-line error ends in its exit code and one
    stderr line, without a usage block or a traceback, also under `python -O`."""

    @staticmethod
    def case(name, paths):
        argv, code, line = ERROR_CASES[name]
        return [a.format(**paths) for a in argv], code, "error: " + line.format(**paths)

    @pytest.mark.parametrize("name", ERROR_CASES)
    def test_in_process(self, error_paths, capsys, name):
        argv, code, line = self.case(name, error_paths)
        assert main(argv) == code
        assert capsys.readouterr().err == line + "\n"
        assert not os.path.exists(error_paths["out"])

    @pytest.mark.parametrize("name", ERROR_CASES)
    def test_optimized_subprocess(self, error_paths, name):
        argv, code, line = self.case(name, error_paths)
        result = run_optimized(argv)
        assert (result.returncode, result.stderr) == (code, line + "\n")


@pytest.fixture(scope="module")
def many_tokens_dir(tmp_path_factory):
    """12,500 rows whose field `id` holds a distinct token per row, and a
    model trained on them in run/: `explain --corpus norm --top 0` on it
    prints about 10,000 lines, more than a pipe buffers."""
    d = tmp_path_factory.mktemp("many_tokens")
    (d / "schema.tsv").write_text("id\tcat\nc\tcat\n")
    (d / "data.tsv").write_text(
        "".join(f"{i % 2}\tuser-{i:06d}-token\tt{i % 5}\n" for i in range(12_500))
    )
    code = main(
        [
            "train",
            "--data", str(d / "data.tsv"),
            "--schema", str(d / "schema.tsv"),
            "--out", str(d / "run"),
            "--embed-dim", "2",
            "--agg-width", "2",
            "--blocks", "1",
            "--epochs", "1",
        ]
    )
    assert code == 0
    return d


# A child that trains with an interrupt (a real SIGINT) at its third step.
INTERRUPTED_TRAIN = """
import os, signal, sys
from contextnet import cli, training
steps, loss_and_grads = [], training.loss_and_grads
def step(*args):
    steps.append(None)
    if len(steps) == 3:
        os.kill(os.getpid(), signal.SIGINT)
    return loss_and_grads(*args)
training.loss_and_grads = step
sys.exit(cli.main(sys.argv[1:]))
"""


class TestRunEnds:
    """An interrupt and a closed standard output each end the command with
    their documented code and no traceback, also under `python -O`."""

    @staticmethod
    def train_argv(d, out):
        return ["train", "--data", str(d / "data.tsv"), "--schema", str(d / "schema.tsv"),
                "--out", out, "--embed-dim", "2", "--agg-width", "2", "--blocks", "1",
                "--batch-size", "256", "--epochs", "1"]

    def test_interrupt_in_process(self, many_tokens_dir, tmp_path, capsys, monkeypatch):
        steps, loss_and_grads = [], training.loss_and_grads

        def step(*args):
            steps.append(None)
            if len(steps) == 3:
                raise KeyboardInterrupt  # what Python's SIGINT handler raises
            return loss_and_grads(*args)

        monkeypatch.setattr(training, "loss_and_grads", step)
        out = str(tmp_path / "out")
        try:
            code = main(self.train_argv(many_tokens_dir, out))
        except KeyboardInterrupt:  # uncaught, it would end the test session
            pytest.fail("the interrupt left main")
        assert code == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_interrupt_signal(self, many_tokens_dir, tmp_path, flags):
        out = str(tmp_path / "out")
        result = subprocess.run(
            [sys.executable, *flags, "-c", INTERRUPTED_TRAIN,
             *self.train_argv(many_tokens_dir, out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=300,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            130, "", "error: interrupted\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_closed_stdout_exits_141_quietly(self, many_tokens_dir, flags):
        """The reader takes one line and closes the pipe, as `| head -1` does."""
        run = many_tokens_dir / "run"
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "contextnet.cli", "explain",
             "--checkpoint", str(run / "checkpoint.bin"), "--vocab", str(run / "vocab.txt"),
             "--schema", str(many_tokens_dir / "schema.tsv"),
             "--data", str(many_tokens_dir / "data.tsv"), "--corpus", "norm", "--top", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, proc.wait(timeout=300), err) == (b"field\ttoken\tcount\tscore\n", 141, b"")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--epochs EPOCHS" in capsys.readouterr().out


class TestScoringChunks:
    def test_evaluate_and_corpus_explain_make_the_same_passes(
        self, synth_dir, run_dir, tmp_path, capsys, monkeypatch
    ):
        """2 * SCORE_CHUNK + 5 rows are scored in 3 tape-free passes by both."""
        lines = open(os.path.join(synth_dir, "data.tsv")).read().splitlines()
        data = tmp_path / "data.tsv"
        data.write_text(
            "".join(lines[i % len(lines)] + "\n" for i in range(2 * SCORE_CHUNK + 5))
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return predict(*args, **kwargs)

        monkeypatch.setattr(model, "predict", counted)
        inputs = [
            "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
            "--vocab", os.path.join(run_dir, "vocab.txt"),
            "--schema", os.path.join(synth_dir, "schema.tsv"),
            "--data", str(data),
        ]
        assert main(["evaluate", *inputs]) == 0
        assert calls == [{"keep_tape": False}] * 3
        calls.clear()
        assert main(["explain", *inputs, "--corpus", "norm"]) == 0
        assert calls == [{"keep_tape": False}] * 3


class TestQuickstart:
    def test_generated_demo_data_trains_evaluates_and_explains(self, tmp_path, capsys):
        """The README recipe: perfbench/gen.py writes the demo input, and
        train, evaluate and explain run on it."""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        demo, run = str(tmp_path / "demo"), str(tmp_path / "run")
        subprocess.run(
            [sys.executable, os.path.join(repo, "perfbench", "gen.py"),
             "--shape", "ml1m", "--seed", "1", "--out", demo],
            check=True,
            timeout=300,
        )
        data = ["--schema", os.path.join(demo, "schema.tsv"),
                "--data", os.path.join(demo, "data.tsv")]
        code = main(["train", *data, "--out", run, "--blocks", "3",
                     "--variant", "sffn", "--seed", "1", "--epochs", "1"])
        assert code == 0
        assert read_metrics(os.path.join(run, "metrics.txt"))["test_auc"] > 0.6
        model = ["--checkpoint", os.path.join(run, "checkpoint.bin"),
                 "--vocab", os.path.join(run, "vocab.txt"), *data]
        capsys.readouterr()
        assert main(["evaluate", *model, "--split", "test"]) == 0
        assert main(["explain", *model, "--instance", "42"]) == 0
        assert "logit" in capsys.readouterr().out


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, synth_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            code = main(
                [
                    "train",
                    "--data", os.path.join(synth_dir, "data.tsv"),
                    "--schema", os.path.join(synth_dir, "schema.tsv"),
                    "--out", out,
                    "--seed", "17",
                    "--embed-dim", "4",
                    "--agg-width", "4",
                    "--blocks", "1",
                    "--epochs", "2",
                    "--batch-size", "64",
                ]
            )
            assert code == 0
            outs.append(out)

        for name in ("checkpoint.bin", "vocab.txt", "metrics.txt"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, f"{name} differs between identical runs"
        # history matches outside the wall-clock column
        strip = lambda p: [
            line.rsplit("\t", 1)[0]
            for line in open(os.path.join(p, "history.tsv")).read().strip().split("\n")
        ]
        assert strip(outs[0]) == strip(outs[1])


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, want",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
)
def test_import_pins_blas_threads_unless_set(preset, want):
    """Importing the CLI sets each BLAS thread variable that is unset to 1."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(contextnet.__file__)))
    code = f"import os, contextnet.cli; print(*map(os.environ.get, {BLAS_VARS!r}))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.stdout.split() == want
