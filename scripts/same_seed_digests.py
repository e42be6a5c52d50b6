#!/usr/bin/env python3
"""Same-seed digests: the sha256 of what four fixed training recipes write.

A change meant to leave behaviour alone should print the same lines before
and after it. Run from the root of a source checkout:

    python3 scripts/same_seed_digests.py [--work DIR]

The lines are compared with scripts/same_seed_digests.txt: the script exits
0 when they are equal, and otherwise prints a diff of the lines that differ
on standard error and exits 1. After a deliberate change of outputs, save
the new standard output to another file and move it over that one.

Inputs come from the generators: recipes a-c share the test-support
generator's 3000 rows of 4 fields of 12 tokens (tests/synth.py, seed 3;
the first line digests its data.tsv), and recipe d reads perfbench/gen.py's
`wide` input. Training, scoring and explaining run through the command
line, each recipe from its own seed:
  a  acceptance criterion 11: `train --seed 29 --embed-dim 6 --agg-width 8
     --blocks 2 --epochs 3 --patience 3 --batch-size 256 --lr 0.001`
  b  a with `--variant pffn --sharing agg --blocks 3`; the stdout of
     `evaluate --split all`, `evaluate --split test` (which splits by the
     checkpoint header's seed), `explain --corpus norm --top 0` and
     `explain --instance 7` over its outputs is digested too
  c  a with `--sharing agg-proj --ablate ln --l2 1e-4`
  d  the benchmark's `wide` input of seed 1, trained with the `wide-sffn`
     flags of perfbench/run.py; the stdout of `evaluate --split all` and
     `explain --corpus norm --top 0` over its 16,000 rows is digested too
     (four scoring chunks each)

Each line is `recipe<TAB>output<TAB>sha256`. history.tsv is digested
without its last column, the wall-clock seconds of each epoch.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, os.path.join(ROOT, "tests")]

# importing contextnet before NumPy pins BLAS to one thread, as in the
# test suite and the benchmark
from contextnet.cli import main as cli  # noqa: E402
from perfbench import gen  # noqa: E402
import synth  # noqa: E402

SYNTH = synth.SynthSpec(
    n_fields=4, cardinalities=(12,), rows=3000, scale=0.6, latent_dim=2, seed=3
)
RECIPE_A = [
    "--seed", "29", "--embed-dim", "6", "--agg-width", "8", "--blocks", "2",
    "--epochs", "3", "--patience", "3", "--batch-size", "256", "--lr", "0.001",
]
RECIPES = {
    "a": RECIPE_A,
    "b": [*RECIPE_A, "--variant", "pffn", "--sharing", "agg", "--blocks", "3"],
    "c": [*RECIPE_A, "--sharing", "agg-proj", "--ablate", "ln", "--l2", "1e-4"],
    "d": [
        "--variant", "sffn", "--embed-dim", "10", "--agg-width", "20", "--blocks", "3",
        "--batch-size", "1024", "--epochs", "1", "--patience", "1", "--lr", "0.003",
        "--seed", "1",
    ],
}
EVALUATE = ["evaluate", "--split", "all"]
CORPUS = ["explain", "--corpus", "norm", "--top", "0"]
# commands run over a recipe's outputs, digested by their stdout
REPORTS = {
    "b": [EVALUATE, ["evaluate", "--split", "test"], CORPUS, ["explain", "--instance", "7"]],
    "d": [EVALUATE, CORPUS],
}
EXPECTED = os.path.join(ROOT, "scripts", "same_seed_digests.txt")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> str:
    """Run one command in this process; its stdout, or SystemExit on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(argv)
    if code != 0:
        raise SystemExit(f"contextnet {' '.join(argv)} exited {code}")
    return out.getvalue()


def output_digests(out: str) -> list[tuple[str, str]]:
    def read(name: str) -> bytes:
        with open(os.path.join(out, name), "rb") as fh:
            return fh.read()

    history = b"".join(
        line.rsplit(b"\t", 1)[0] + b"\n" for line in read("history.tsv").splitlines()
    )
    return [
        ("checkpoint.bin", sha256(read("checkpoint.bin"))),
        ("vocab.txt", sha256(read("vocab.txt"))),
        ("metrics.txt", sha256(read("metrics.txt"))),
        ("history.tsv without seconds", sha256(history)),
    ]


def digests(work: str):
    """Yield (recipe, output, sha256) for every recipe."""
    shared = os.path.join(work, "synth")
    with open(synth.write_dataset(synth.generate(SYNTH), shared)["data"], "rb") as fh:
        yield "abc", "data.tsv", sha256(fh.read())
    wide = os.path.join(work, "wide")
    gen.write("wide", 1, wide)
    inputs = {name: shared for name in "abc"} | {"d": wide}
    for name, flags in RECIPES.items():
        data = ["--data", os.path.join(inputs[name], "data.tsv"),
                "--schema", os.path.join(inputs[name], "schema.tsv")]
        out = os.path.join(work, name)
        run(["train", *data, "--out", out, *flags])
        for output, digest in output_digests(out):
            yield name, output, digest
        model = ["--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--vocab", os.path.join(out, "vocab.txt"), *data]
        for command in REPORTS.get(name, []):
            stdout = run([*command, *model])
            yield name, f"stdout of {' '.join(command)}", sha256(stdout.encode())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--work", help="directory for inputs and outputs (default: a temporary one)")
    args = ap.parse_args(argv)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    got = []
    with contextlib.ExitStack() as stack:
        work = args.work or stack.enter_context(tempfile.TemporaryDirectory())
        for row in digests(work):
            got.append("\t".join(row))
            print(got[-1], flush=True)
    if got == expected:
        return 0
    for line in difflib.unified_diff(
        expected, got, os.path.relpath(EXPECTED, ROOT), "this run", lineterm=""
    ):
        print(line, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
