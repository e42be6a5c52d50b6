"""Benchmark of the contextnet CLI: train, then evaluate, then explain.

Usage:
  python3 perfbench/run.py --workload ml1m-sffn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Every command runs in its own
process through perfbench/launch.py with BLAS/OpenMP limited to one thread.
A run repeats whole rounds (train -> evaluate --split all -> explain
--corpus) until --seconds have been spent, and at least MIN_ROUNDS times,
then makes the output checks and prints one JSON line: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. Generated inputs are
cached per seed under .perfbench/data; per-run outputs go to
.perfbench/work and are removed at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gen, stats, trace  # noqa: E402

# one BLAS/OpenMP thread in every command started (see README, Threads)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")
PROGRAM = os.path.join(ROOT, "src", "contextnet", "cli.py")
STATE = os.path.join(ROOT, ".perfbench")


@dataclass(frozen=True)
class Workload:
    shape: str
    variant: str
    epochs: int
    lr: float


WORKLOADS = {
    "ml1m-sffn": Workload("ml1m", "sffn", epochs=3, lr=1e-3),
    "ml1m-pffn": Workload("ml1m", "pffn", epochs=3, lr=1e-3),
    # one epoch, as is usual for Criteo-like data: a second pass memorises the
    # ID-like tokens, and test log loss then exceeds the prior on some seeds
    "wide-sffn": Workload("wide", "sffn", epochs=1, lr=3e-3),
}
MODEL_FLAGS = ("--embed-dim", "10", "--agg-width", "20", "--blocks", "3", "--batch-size", "1024")
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4  # alternating untraced and traced
# test_auc must exceed 0.5 plus this share of the lift the true
# probabilities reach, and stay below their AUC plus four standard errors
AUC_FLOOR_SHARE = 0.3

# (name, unit, better); value computed in end_to_end()
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_rows_per_s", "rows/s", "higher"),
    ("train_s", "s", "lower"),
    ("score_rows_per_s", "rows/s", "higher"),
    ("evaluate_s", "s", "lower"),
    ("explain_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_auc", "AUC", "higher"),
)

# per command: trace.layer_figures keys reported in the traced run
_TRAIN_LAYERS = (
    "data.load_records_s", "data.split_s", "data.build_vocabulary_s",
    "data.encode_dataset_s", "data.rows_encoded", "data.batch_iter_s",
    "model.init_params_s", "model.forward_s", "model.backward_s", "model.embed_s",
    "model.predict_scores_s", "model.rows_scored", "model.score_tape_mb",
    "ops.layer_norm_s", "ops.layer_norm_backward_s",
    "training.adam_step_s", "training.steps", "training.validation_s",
    "metrics.auc_s", "checkpoint.save_s", "checkpoint.bytes",
)
_EVALUATE_LAYERS = (
    "data.load_records_s", "data.encode_dataset_s", "data.rows_encoded",
    "model.embed_s", "model.predict_scores_s", "model.rows_scored",
    "model.score_tape_mb", "metrics.auc_s", "checkpoint.load_s",
)
_EXPLAIN_LAYERS = (
    "data.load_records_s", "data.encode_dataset_s", "data.rows_encoded",
    "model.embed_s", "model.score_tape_mb", "interpret.corpus_importance_s",
    "checkpoint.load_s",
)
_CLI = ("cli.self_s", "cli.cpu_s", "cli.peak_rss_mb", "cli.trace_overhead_pct")
PER_LAYER = {
    "train": _TRAIN_LAYERS + _CLI,
    "evaluate": _EVALUATE_LAYERS + _CLI,
    "explain": _EXPLAIN_LAYERS + _CLI,
}
_COUNTS = ("data.rows_encoded", "model.rows_scored", "training.steps")


def layer_unit(key: str) -> tuple[str, str]:
    """(unit, better) of a per-layer figure, read from its name."""
    if key in _COUNTS:
        return "count", "higher"
    if key.endswith("_pct"):
        return "%", "lower"
    if key.endswith("_mb"):
        return "MB", "lower"
    if key.endswith(".bytes"):
        return "B", "lower"
    return "s", "lower"


def per_layer_names() -> list[tuple[str, str, str]]:
    return [
        (f"{cmd}.{key}", *layer_unit(key)) for cmd, keys in PER_LAYER.items() for key in keys
    ]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


# ------------------------------------------------------------------ inputs


def inputs_for(shape: str, seed: int) -> dict:
    """Generate the shape's inputs for this seed once and reuse them."""
    final = os.path.join(STATE, "data", f"{shape}-{seed}")
    if not os.path.exists(os.path.join(final, "info.json")):
        tmp = f"{final}.tmp{os.getpid()}"
        gen.write(shape, seed, tmp)
        try:
            os.rename(tmp, final)
        except OSError:  # another run made it first
            shutil.rmtree(tmp)
    with open(os.path.join(final, "info.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    info["data"] = os.path.join(final, "data.tsv")
    info["schema"] = os.path.join(final, "schema.tsv")
    return info


# ---------------------------------------------------------------- commands


@dataclass
class Command:
    code: int
    wall: float
    started: float
    cpu: float
    rss_mb: float
    stdout: str
    result: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0


def launch(args: list, work: str, tag: str, traced: bool) -> Command:
    """Run `contextnet <args>` in a new process and wait for it."""
    out_path = os.path.join(work, f"{tag}.out")
    err_path = os.path.join(work, f"{tag}.err")
    res_path = os.path.join(work, f"{tag}.json")
    argv = [sys.executable, LAUNCH, res_path, "1" if traced else "0", *args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    started = time.monotonic()
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - started
    code = os.waitstatus_to_exitcode(status)
    result = {}
    if os.path.exists(res_path):
        with open(res_path, encoding="utf-8") as fh:
            result = json.load(fh)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    if code != 0:
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        print(f"perfbench: contextnet {args[0]} exited {code}: {tail}", file=sys.stderr)
    return Command(
        code, wall, started,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout=stdout, result=result,
    )


def read_pairs(text: str) -> dict[str, str]:
    """'key<TAB>value' lines -> dict (first two columns only)."""
    out = {}
    for line in text.splitlines():
        parts = line.split("\t")
        if len(parts) >= 2:
            out.setdefault(parts[0], parts[1])
    return out


def file_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@dataclass
class Round:
    traced: bool
    out: str
    commands: dict[str, Command]


def run_round(workload: Workload, info: dict, seed: int, work: str, r: int, traced: bool) -> Round:
    out = os.path.join(work, f"round{r}")
    ckpt = os.path.join(out, "checkpoint.bin")
    vocab = os.path.join(out, "vocab.txt")
    model_in = ["--checkpoint", ckpt, "--vocab", vocab, "--schema", info["schema"], "--data", info["data"]]
    cmds = {}
    cmds["train"] = launch(
        [
            "train", "--data", info["data"], "--schema", info["schema"], "--out", out,
            "--variant", workload.variant, *MODEL_FLAGS,
            "--epochs", str(workload.epochs), "--patience", str(workload.epochs),
            "--lr", repr(workload.lr), "--seed", str(seed),
        ],
        work, f"r{r}-train", traced,
    )
    if os.path.isdir(out):
        gen.flush_to_disk(out)
    cmds["evaluate"] = launch(["evaluate", *model_in, "--split", "all"], work, f"r{r}-evaluate", traced)
    cmds["explain"] = launch(
        ["explain", *model_in, "--corpus", "norm", "--top", "0"], work, f"r{r}-explain", traced
    )
    return Round(traced, out, cmds)


# ------------------------------------------------------------------ checks


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def check_round(chk: Checks, rnd: Round, info: dict, workload: Workload) -> None:
    """Checks on the outputs of one round's commands that exited 0."""
    n = info["rows"]
    train, evaluate, explain = (rnd.commands[c] for c in ("train", "evaluate", "explain"))
    if train.ok:
        history = file_text(os.path.join(rnd.out, "history.tsv")).splitlines()[1:]
        chk.expect(len(history) == workload.epochs, f"train ran {len(history)} epochs, not {workload.epochs}")
    if evaluate.ok:
        rows = sum(s[4] or 0 for s in evaluate.result["spans"] if s[0] == "model.predict_scores")
        chk.expect(rows == n, f"evaluate --split all scored {rows} rows, not {n}")
    if explain.ok:
        counts: dict[str, int] = {}
        for line in explain.stdout.splitlines()[1:]:
            name, _, count, _ = line.split("\t")
            counts[name] = counts.get(name, 0) + int(count)
        chk.expect(
            len(counts) == info["fields"] and all(c == n for c in counts.values()),
            f"explain --corpus counts per field {sorted(set(counts.values()))} != {n} rows",
        )


def check_run(chk: Checks, rounds: list[Round], extra: dict[str, Command], info: dict) -> float | None:
    """Checks across the run; returns test_auc when train succeeded."""
    n = info["rows"]
    trained = [r for r in rounds if r.commands["train"].ok]
    if not trained:
        return None
    digests = set()
    for r in trained:
        with open(os.path.join(r.out, "checkpoint.bin"), "rb") as fh:
            digests.add(hashlib.sha256(fh.read()).hexdigest())
    chk.expect(len(digests) == 1, f"checkpoint.bin differs between rounds ({len(digests)} digests)")

    metrics = read_pairs(file_text(os.path.join(trained[0].out, "metrics.txt")))
    test_auc = float(metrics["test_auc"])
    test_ll = float(metrics["test_logloss"])
    n_test = n // 10
    n_pos = max(1, round(n_test * info["positive_rate"]))
    slack = 4.0 * stats.auc_standard_error(info["true_auc"], n_pos, n_test - n_pos)
    floor = 0.5 + AUC_FLOOR_SHARE * (info["true_auc"] - 0.5)
    chk.expect(test_auc > floor, f"test_auc {test_auc:.4f} <= floor {floor:.4f}")
    chk.expect(
        test_auc < info["true_auc"] + slack,
        f"test_auc {test_auc:.4f} above true-probability AUC {info['true_auc']:.4f} + {slack:.4f}",
    )
    prior = stats.binary_entropy(info["positive_rate"])
    chk.expect(test_ll < prior, f"test log loss {test_ll:.4f} >= label-entropy prior {prior:.4f}")

    ev = extra["evaluate-test"]
    if ev.ok:
        got = float(read_pairs(ev.stdout)["auc"])
        chk.expect(abs(got - test_auc) <= 1e-9, f"evaluate --split test auc {got} != train test_auc {test_auc}")
    ex = extra["explain-instance"]
    if ex.ok:
        pairs = read_pairs(ex.stdout)
        lines = ex.stdout.splitlines()
        start = lines.index("field\ttoken\tweight") + 1
        weights = []
        for line in lines[start:]:
            if line.startswith("block-correlations"):
                break
            weights.append(float(line.split("\t")[2]))
        score, logit, intercept = (float(pairs[k]) for k in ("score", "logit", "intercept"))
        chk.expect(len(weights) == info["fields"], f"explain --instance gave {len(weights)} weights")
        chk.expect(
            abs(sum(weights) + intercept - logit) <= 1e-8 * (1 + abs(logit)),
            f"explain --instance weights + intercept {sum(weights) + intercept} != logit {logit}",
        )
        chk.expect(
            abs(1.0 / (1.0 + math.exp(-logit)) - score) <= 1e-9,
            f"explain --instance sigmoid(logit) != score {score}",
        )
    return test_auc


# ----------------------------------------------------------------- metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(rounds: list[Round], info: dict, test_auc) -> dict:
    n = info["rows"]
    n_train = n - 2 * (n // 10)
    setup, epoch_rates, score_rates, rss = [], [], [], []
    walls = {"train": [], "evaluate": [], "explain": []}
    for r in rounds:
        for name, cmd in r.commands.items():
            if cmd.ok:
                walls[name].append(cmd.wall)
        train, evaluate = r.commands["train"], r.commands["evaluate"]
        if train.ok and train.result.get("train_entry") is not None:
            entry = train.result["train_entry"] + train.result["clock_offset"]
            setup.append(entry - train.started)
            for line in file_text(os.path.join(r.out, "history.tsv")).splitlines()[1:]:
                epoch_rates.append(n_train / float(line.split("\t")[4]))
        if evaluate.ok:
            spans = evaluate.result["spans"]
            score_rates.append(n / trace.outermost_time(spans, ["model.predict_scores"]))
        if all(c.ok for c in r.commands.values()):
            rss.append(max(c.rss_mb for c in r.commands.values()))
    return {
        "setup_s": _median(setup),
        "train_rows_per_s": _median(epoch_rates),
        "train_s": _median(walls["train"]),
        "score_rows_per_s": _median(score_rates),
        "evaluate_s": _median(walls["evaluate"]),
        "explain_s": _median(walls["explain"]),
        "peak_rss_mb": _median(rss),
        "test_auc": test_auc,
    }


def per_layer(rounds: list[Round]) -> dict:
    """Medians over the traced rounds, plus the overhead against the
    untraced rounds of the same run."""
    out = {}
    absent = set()
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    for cmd, keys in PER_LAYER.items():
        samples: dict[str, list] = {k: [] for k in keys}
        for r in traced:
            c = r.commands[cmd]
            if not c.ok:
                continue
            fig = trace.layer_figures(c.result["spans"])
            fig["cli.self_s"] = c.wall - fig["traced_s"]
            fig["cli.cpu_s"] = c.cpu
            fig["cli.peak_rss_mb"] = c.rss_mb
            if cmd == "train":
                fig["checkpoint.bytes"] = float(os.path.getsize(os.path.join(r.out, "checkpoint.bin")))
            for k in keys:
                if k in fig:
                    samples[k].append(fig[k])
            absent.update(c.result["absent"])
        t_wall = _median([r.commands[cmd].wall for r in traced if r.commands[cmd].ok])
        u_wall = _median([r.commands[cmd].wall for r in plain if r.commands[cmd].ok])
        if t_wall is not None and u_wall is not None:
            samples["cli.trace_overhead_pct"].append(100.0 * (t_wall / u_wall - 1.0))
        for k in keys:
            out[f"{cmd}.{k}"] = _median(samples[k])
    for name in sorted(absent):
        print(f"perfbench: absent from the program, its figures read 0: {name}", file=sys.stderr)
    return out


# -------------------------------------------------------------------- main


def environment() -> str:
    blas = "?"
    try:
        cfg = np.show_config(mode="dicts")
        lib = cfg["Build Dependencies"]["blas"]
        blas = f"{lib.get('name')} {lib.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = " ".join(f"{v}=1" for v in THREAD_VARS)
    return f"python {sys.version.split()[0]}, numpy {np.__version__}, {blas}, {threads}, nproc {os.cpu_count()}"


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not os.path.exists(PROGRAM):
        raise BenchError(f"no program to measure: {os.path.relpath(PROGRAM, ROOT)} is missing")
    workload = WORKLOADS[workload_name]
    print(f"perfbench: {workload_name} seed {seed}; {environment()}", file=sys.stderr)
    info = inputs_for(workload.shape, seed)
    work = os.path.join(STATE, "work", f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        rounds: list[Round] = []
        need = MIN_TRACE_ROUNDS if traced else MIN_ROUNDS
        began = time.monotonic()
        while True:
            r = len(rounds)
            rounds.append(run_round(workload, info, seed, work, r, traced and r % 2 == 1))
            spent = time.monotonic() - began
            if len(rounds) >= need and spent * (len(rounds) + 1) / len(rounds) > seconds:
                break
        program = rounds[0].commands["train"].result.get("program", "")
        if not os.path.abspath(program).startswith(os.path.join(ROOT, "src") + os.sep):
            raise BenchError(f"measured {program!r}, not the program in this checkout")

        r0 = rounds[0]
        model_in = [
            "--checkpoint", os.path.join(r0.out, "checkpoint.bin"),
            "--vocab", os.path.join(r0.out, "vocab.txt"),
            "--schema", info["schema"], "--data", info["data"],
        ]
        extra = {
            "evaluate-test": launch(["evaluate", *model_in, "--split", "test"], work, "evaluate-test", False),
            "explain-instance": launch(
                ["explain", *model_in, "--instance", str((seed * 7919) % info["rows"])],
                work, "explain-instance", False,
            ),
        }
        chk = Checks()
        for rnd in rounds:
            check_round(chk, rnd, info, workload)
        test_auc = check_run(chk, rounds, extra, info)

        commands = [c for r in rounds for c in r.commands.values()] + list(extra.values())
        if traced:
            values = per_layer(rounds)
            names = per_layer_names()
        else:
            values = end_to_end(rounds, info, test_auc)
            names = END_TO_END
        missing = [name for name, _, _ in names if values.get(name) is None]
        if missing:
            raise BenchError(f"no measurement for {missing}")
        return {
            "correct": not chk.failures,
            "attempted": len(commands),
            "failed": sum(not c.ok for c in commands),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the contextnet CLI.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
