"""Tests of the benchmark's own AUC, statistics, input generator and tracer."""
import dataclasses
import itertools
import json
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

from perfbench import gen, run, stats, trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    won = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p, q in itertools.product(pos, neg))
    return won / (len(pos) * len(neg))


def test_auc_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 6, 80).astype(float)  # many ties
    labels = rng.integers(0, 2, 80)
    assert stats.auc(scores, labels) == pytest.approx(_pairwise_auc(scores, labels), abs=1e-12)


def test_auc_extremes_and_one_class():
    assert stats.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert stats.auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert stats.auc([0.5] * 4, [0, 1, 0, 1]) == 0.5
    with pytest.raises(ValueError):
        stats.auc([0.1, 0.2], [1, 1])


def test_auc_standard_error_at_chance():
    # at AUC 1/2: Q1 - A^2 = Q2 - A^2 = 1/12
    n_pos, n_neg = 40, 60
    want = ((0.25 + (n_pos - 1 + n_neg - 1) / 12.0) / (n_pos * n_neg)) ** 0.5
    assert stats.auc_standard_error(0.5, n_pos, n_neg) == pytest.approx(want)
    assert stats.auc_standard_error(0.8, 400, 600) < stats.auc_standard_error(0.8, 40, 60)


def test_spread_follows_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 30.0, 10.2, 9.8]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.binary_entropy(0.5) == pytest.approx(np.log(2.0))


@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_generator_is_a_function_of_the_seed(shape, tmp_path, monkeypatch):
    small = dataclasses.replace(gen.SHAPES[shape], rows=400)
    monkeypatch.setitem(gen.SHAPES, shape, small)
    a = gen.write(shape, 7, str(tmp_path / "a"))
    gen.write(shape, 7, str(tmp_path / "b"))
    gen.write(shape, 8, str(tmp_path / "c"))
    read = lambda d: (tmp_path / d / "data.tsv").read_bytes()  # noqa: E731
    assert read("a") == read("b") != read("c")

    schema = (tmp_path / "a" / "schema.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in read("a").decode().splitlines()]
    probs = np.load(tmp_path / "a" / "probs.npy")
    labels = np.array([int(r[0]) for r in rows])
    assert len(rows) == 400 and probs.shape == (400,)
    assert all(len(r) == len(schema) + 1 for r in rows)
    assert set(labels) == {0, 1} and np.all((probs > 0) & (probs < 1))
    assert a["true_auc"] == stats.auc(probs, labels) and a["true_auc"] > 0.6
    num = [i + 1 for i, line in enumerate(schema) if line.endswith("\tnum")]
    assert len(num) == small.n_num
    if num:  # numerical fields have missing values, categorical ones none
        assert any(r[num[0]] == "" for r in rows)
    assert all(r[c] != "" for r in rows for c in range(small.n_num + 1, len(schema) + 1))


def _spans(*rows):
    return [list(r) + [None] * (5 - len(r)) for r in rows]


def test_self_time_and_layer_figures():
    spans = _spans(
        ("training.train", -1, 0.0, 10.0),
        ("data.batch_iter", 0, 0.0, 0.5),
        ("model.loss_and_grads", 0, 0.5, 4.5),
        ("model.predict", 2, 0.5, 2.0, 123),
        ("ops.layer_norm", 3, 1.0, 1.5),
        ("ops.layer_norm_backward", 2, 3.0, 3.5),
        ("training.adam_step", 0, 4.5, 5.0),
        ("model.predict_scores", 0, 5.0, 6.0, 100),
        ("model.predict", 7, 5.0, 6.0, 2_000_000),
        ("metrics.auc", 0, 6.0, 6.25),
    )
    self_t = trace.self_times(spans)
    assert self_t[0] == pytest.approx(10.0 - 0.5 - 4.0 - 0.5 - 1.0 - 0.25)
    assert self_t[2] == pytest.approx(4.0 - 1.5 - 0.5)
    fig = trace.layer_figures(spans)
    assert fig["model.forward_s"] == pytest.approx(1.5)
    assert fig["model.backward_s"] == pytest.approx(2.0)
    assert fig["model.score_tape_mb"] == pytest.approx(2.0)  # training tapes excluded
    assert fig["model.rows_scored"] == 100
    assert fig["training.steps"] == 1
    assert fig["training.validation_s"] == pytest.approx(1.25)
    assert fig["ops.layer_norm_s"] == pytest.approx(0.5)
    assert fig["traced_s"] == pytest.approx(10.0)
    assert fig["data.split_s"] == 0.0  # nothing recorded


def test_tracer_wraps_generators_nesting_and_absent_targets():
    tracer = trace.Tracer()

    def steps(n):
        for i in range(n):
            yield i

    def outer(n):
        return sum(wrapped_steps(n))

    wrapped_steps = tracer.wrap("data.batch_iter", steps)
    assert tracer.wrap("data.load_records", outer)(3) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["data.load_records"] + ["data.batch_iter"] * 4  # 3 items + exhaustion
    assert all(s[1] == 0 for s in tracer.spans[1:])
    tracer.install([("contextnet.no_such_module", "f"), ("perfbench.stats", "no_such_name")])
    assert tracer.absent == ["contextnet.no_such_module.f", "perfbench.stats.no_such_name"]


def test_built_bytes_excludes_views_of_inputs():
    base = np.zeros((100, 10))
    made = np.ones(50)
    result = {"view": base[:10], "new": made, "again": made[5:]}
    assert trace.built_bytes(result, (base,)) == made.nbytes


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(ROOT, "perfbench", name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ml1m-sffn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
