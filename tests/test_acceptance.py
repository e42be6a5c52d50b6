"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
output. The two training criteria build synthetic datasets at desk scale
(the million-row benchmark mirrors ML-1m field statistics) and train
several models; expect the module to take tens of minutes on one CPU.
"""
import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from contextnet.cli import main as cli_main
from contextnet.data import (
    EncodedDataset,
    build_vocabulary,
    cardinalities as vocab_cardinalities,
    encode_dataset,
    load_records,
    load_schema,
    split_indices,
)
from contextnet.interpret import explain_instance
from contextnet.metrics import auc, rela_imp
from contextnet.model import (
    ModelConfig,
    init_params,
    loss_and_grads,
    predict,
    predict_scores,
)
from contextnet.ops import Rng
from contextnet.training import TrainConfig, train
from dense_grads import densify
from synth import SynthSpec, generate, integers, write_dataset

GRAD_STEP = 1e-5
GRAD_TOL = 1e-4


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


# --------------------------------------------------------------------------
# criterion 1: gradient oracle across variants, sharing strategies, ablations
# --------------------------------------------------------------------------


def _grad_cases():
    cases = []
    for variant, sharing in itertools.product(
        ("pffn", "sffn"), ("none", "agg", "agg-proj")
    ):
        ablations = [{}, {"no_tce": True}, {"no_ffn": True}, {"no_ln": True}]
        if variant == "pffn":
            ablations.append({"no_rc": True})
        for ab in ablations:
            cases.append((variant, sharing, ab))
    return cases


def _max_rel_grad_error(config, cards, seed):
    rng = Rng(seed)
    params = init_params(config, cards, seed)
    for tensor in params.values():
        tensor[...] = rng.normal(tensor.shape, scale=0.4)
    idx = np.stack([integers(rng, 0, c, (6,)) for c in cards], axis=1)
    batch = EncodedDataset((rng.random((6,)) < 0.5).astype(float), idx, np.empty((6, 0)), ())
    grads = densify(loss_and_grads(batch, params, config)[1], params, batch)
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_STEP
            up = loss_and_grads(batch, params, config)[0]
            flat[i] = orig - GRAD_STEP
            down = loss_and_grads(batch, params, config)[0]
            flat[i] = orig
            fd = (up - down) / (2 * GRAD_STEP)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


def test_criterion_01_gradient_oracle():
    """Analytic gradients match central finite differences for every
    parameter, on both variants, all sharing strategies, and each single
    ablation flag."""
    t0 = time.perf_counter()
    cards = [5, 4, 3]
    worst_overall = 0.0
    worst_case = None
    for case_index, (variant, sharing, ablation) in enumerate(_grad_cases()):
        config = ModelConfig(
            n_fields=3,
            embed_dim=4,
            agg_width=5,
            n_blocks=2,
            variant=variant,
            sharing=sharing,
            **ablation,
        )
        worst = _max_rel_grad_error(config, cards, seed=case_index)
        if worst > worst_overall:
            worst_overall = worst
            worst_case = (variant, sharing, ablation)
        assert worst < GRAD_TOL, (variant, sharing, ablation, worst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    _report(
        1,
        f"{len(_grad_cases())} configurations, max rel err {worst_overall:.2e} "
        f"at {worst_case}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: L=0 degenerates to an independently coded logistic regression
# --------------------------------------------------------------------------


def test_criterion_02_lr_degeneracy():
    cards = [7, 5, 9, 4]
    config = ModelConfig(n_fields=4, embed_dim=6, n_blocks=0)
    rng = Rng(42)
    params = init_params(config, cards, seed=42)
    params["head_w"][...] = rng.normal((24,))
    params["head_b"][0] = rng.normal((1,))[0]
    idx = np.stack([integers(rng, 0, c, (1000,)) for c in cards], axis=1)
    values = rng.normal((1000, 4), loc=1.0, scale=0.5)
    batch = EncodedDataset(np.zeros(1000), idx, values, (0, 1, 2, 3))
    scores, _ = predict(batch, params, config)

    worst = 0.0
    for i in range(1000):
        acc = float(params["head_b"][0])
        for fld in range(4):
            e = params[f"embed.{fld}"][idx[i, fld]] * values[i, fld]
            acc += float(np.dot(params["head_w"][fld * 6 : (fld + 1) * 6], e))
        lr_score = 1.0 / (1.0 + np.exp(-acc))
        worst = max(worst, abs(scores[i] - lr_score))
    assert worst < 1e-12
    _report(2, f"1000 instances, max |model - LR| = {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 3: forced all-ones context + no-ffn collapses to the L=0 model
# --------------------------------------------------------------------------


def test_criterion_03_hadamard_identity():
    cards = [6, 5, 4]
    deep_config = ModelConfig(
        n_fields=3, embed_dim=4, agg_width=5, n_blocks=3, no_ffn=True
    )
    params = init_params(deep_config, cards, seed=7)
    rng = Rng(8)
    params["head_w"][...] = rng.normal((12,))
    params["head_b"][0] = -0.4
    for name, tensor in params.items():
        if name.startswith(("agg_", "proj_w")):
            tensor[...] = 0.0
        elif name.startswith("proj_b"):
            tensor[...] = 1.0  # context embedding forced to all-ones

    l0_config = ModelConfig(n_fields=3, embed_dim=4, n_blocks=0)
    l0_params = init_params(l0_config, cards, seed=7)
    for name, tensor in l0_params.items():
        tensor[...] = params[name]

    idx = np.stack([integers(rng, 0, c, (512,)) for c in cards], axis=1)
    batch = EncodedDataset(np.zeros(512), idx, np.empty((512, 0)), ())
    deep, _ = predict(batch, params, deep_config)
    shallow, _ = predict(batch, l0_params, l0_config)
    assert np.array_equal(deep, shallow)
    _report(3, "L=3 with unit context + no-ffn equals L=0 exactly on 512 instances")


# --------------------------------------------------------------------------
# criterion 4: rank-based AUC equals pairwise brute force
# --------------------------------------------------------------------------


def _pairwise_auc(scores, labels):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.shape[0] * neg.shape[1])


def test_criterion_04_auc_oracle():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)
    rng = Rng(1234)
    worst = 0.0
    for _ in range(500):
        n = integers(rng, 2, 201)
        scores = np.round(rng.random((n,)) * 6) / 6  # deliberate ties
        labels = (rng.random((n,)) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = auc(scores, labels)
        want = _pairwise_auc(scores, labels)
        worst = max(worst, abs(got - want))
        assert worst < 1e-12
    _report(4, f"500 tied score sets, max |rank - pairwise| = {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 5: published relative-improvement columns
# --------------------------------------------------------------------------


def test_criterion_05_relaimp_reproduction():
    pairs = [
        ((0.8107, 0.7895), 7.32),
        ((0.8681, 0.8446), 6.82),
        ((0.7408, 0.7166), 11.17),
    ]
    worst = 0.0
    for (model_auc, base_auc), want_pct in pairs:
        got_pct = rela_imp(model_auc, base_auc) * 100
        worst = max(worst, abs(got_pct - want_pct))
        assert abs(got_pct - want_pct) < 0.01  # percentage points
    _report(5, f"3 published pairs, max deviation {worst:.4f}pp")


# --------------------------------------------------------------------------
# criterion 6: closed-form parameter counts at the default configuration
# --------------------------------------------------------------------------


def test_criterion_06_parameter_counts():
    f, k, t, blocks = 39, 10, 20, 3
    m = f * k
    cards = [100 + i for i in range(f)]
    emb = sum(cards) * k
    head = m + 1
    tce = {
        "none": blocks * (t * m + t) + blocks * f * (k * t + k),
        "agg": (t * m + t) + blocks * f * (k * t + k),
        "agg-proj": (t * m + t) + f * (k * t + k),
    }
    ffn = {"pffn": blocks * (2 * k * k + 2 * k), "sffn": blocks * k * k}
    ln = blocks * 2 * k

    for sharing, variant in itertools.product(tce, ffn):
        config = ModelConfig(
            n_fields=f,
            embed_dim=k,
            agg_width=t,
            n_blocks=blocks,
            variant=variant,
            sharing=sharing,
        )
        closed = emb + head + tce[sharing] + ffn[variant] + ln
        allocated = sum(t.size for t in init_params(config, cards, seed=0).values())
        assert allocated == closed, (sharing, variant)

    savings = tce["none"] - tce["agg"]
    assert savings == (blocks - 1) * (t * f * k + t)
    _report(
        6,
        f"6 sharing/variant combinations enumerate exactly; agg sharing saves "
        f"{savings} parameters",
    )


# --------------------------------------------------------------------------
# criterion 7: learning a multiplicative ground truth via the full pipeline
# --------------------------------------------------------------------------


def test_criterion_07_synthetic_oracle_learning(tmp_path):
    t0 = time.perf_counter()
    out = str(tmp_path / "synth")
    spec = SynthSpec(
        n_fields=6, cardinalities=(50,), rows=200_000, scale=0.25, latent_dim=4, seed=11
    )
    data = generate(spec)
    write_dataset(data, out)
    bayes = data.bayes_auc

    schema = load_schema(os.path.join(out, "schema.tsv"))
    columns = load_records(os.path.join(out, "data.tsv"), schema)
    tr, va, te = split_indices(len(columns[0]), seed=11)
    vocab = build_vocabulary(columns, schema, tr)
    cards = vocab_cardinalities(schema, vocab)
    dataset = encode_dataset(columns, schema, vocab)
    train_set, val_set, test_set = dataset.take(tr), dataset.take(va), dataset.take(te)
    pos_rate = float(train_set.labels.mean())
    tconf = TrainConfig(batch_size=1024, lr=1e-3, max_epochs=40, patience=3, seed=11)

    sffn_config = ModelConfig(n_fields=6)  # defaults: k=10, t=20, L=3, sffn
    sffn_params = init_params(sffn_config, cards, seed=11, pos_rate=pos_rate)
    sffn_best, _ = train(sffn_config, sffn_params, train_set, val_set, tconf)
    sffn_auc = auc(predict_scores(test_set, sffn_best, sffn_config), test_set.labels)

    lr_config = ModelConfig(n_fields=6, n_blocks=0)
    lr_params = init_params(lr_config, cards, seed=11, pos_rate=pos_rate)
    lr_best, _ = train(lr_config, lr_params, train_set, val_set, tconf)
    lr_auc = auc(predict_scores(test_set, lr_best, lr_config), test_set.labels)

    elapsed = time.perf_counter() - t0
    assert sffn_auc >= bayes - 0.03, f"sffn {sffn_auc:.4f} vs bayes {bayes:.4f}"
    assert sffn_auc >= lr_auc + 0.05, f"sffn {sffn_auc:.4f} vs LR {lr_auc:.4f}"
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    _report(
        7,
        f"bayes {bayes:.4f}, sffn {sffn_auc:.4f} (gap {bayes - sffn_auc:.4f}), "
        f"LR {lr_auc:.4f}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# criteria 8 + 9: ML-1m-scale benchmark (shared training runs)
# --------------------------------------------------------------------------

ML1M_CARDS = (2, 7, 21, 500, 800, 18, 81)

# tag -> ModelConfig flags, longest run first so that the two workers
# finish close together
ML1M_RUNS = (
    ("pffn-rc", {"variant": "pffn", "no_rc": True}),
    ("pffn-ln", {"variant": "pffn", "no_ln": True}),
    ("sffn", {"variant": "sffn"}),
    ("pffn", {"variant": "pffn"}),
    ("pffn-tce", {"variant": "pffn", "no_tce": True}),
)

# (train, val, test, cardinalities, positive rate); set before the worker
# processes fork, so they share it instead of receiving a pickled copy
_ml1m_splits = None


def _ml1m_test_auc(kwargs):
    train_set, val_set, test_set, cards, pos_rate = _ml1m_splits
    config = ModelConfig(n_fields=7, **kwargs)  # paper defaults k=10 t=20 L=3
    params = init_params(config, cards, seed=7, pos_rate=pos_rate)
    tconf = TrainConfig(batch_size=1024, lr=1e-4, max_epochs=20, patience=3, seed=11)
    best, _ = train(config, params, train_set, val_set, tconf)
    return auc(predict_scores(test_set, best, config), test_set.labels)


@pytest.fixture(scope="module")
def ml1m_results():
    """Train sffn, pffn, and the pffn ablations once on a million-row
    dataset with ML-1m-like field statistics (Zipf-skewed token
    frequencies, pairwise multiplicative ground truth).

    The five runs are independent and deterministic, so they run in two
    worker processes; each gives the same AUC as it would in this one."""
    global _ml1m_splits
    t0 = time.perf_counter()
    data = generate(
        SynthSpec(
            n_fields=7,
            cardinalities=ML1M_CARDS,
            rows=1_000_000,
            scale=0.52,
            latent_dim=2,
            token_skew=1.4,
            seed=2024,
        )
    )
    n = len(data.labels)
    ds = EncodedDataset(data.labels, data.tokens + 1, np.empty((n, 0)), ())
    tr, va, te = split_indices(n, seed=11)
    train_set = ds.take(tr)
    pos_rate = float(train_set.labels.mean())
    _ml1m_splits = (
        train_set, ds.take(va), ds.take(te), [c + 1 for c in ML1M_CARDS], pos_rate
    )
    fork = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(2, mp_context=fork) as pool:
            aucs = list(pool.map(_ml1m_test_auc, [kw for _, kw in ML1M_RUNS]))
    finally:
        _ml1m_splits = None
    results = {"bayes": data.bayes_auc}
    results.update(zip([tag for tag, _ in ML1M_RUNS], aucs))
    results["seconds"] = time.perf_counter() - t0
    return results


def test_criterion_08_ml1m_scale_training(ml1m_results):
    r = ml1m_results
    assert r["sffn"] >= 0.84, f"sffn reached only {r['sffn']:.4f}"
    assert r["sffn"] >= r["pffn"] - 0.002, (
        f"sffn {r['sffn']:.4f} below pffn {r['pffn']:.4f} tie band"
    )
    assert r["seconds"] < 3600.0
    _report(
        8,
        f"sffn {r['sffn']:.4f} (bayes {r['bayes']:.4f}), pffn {r['pffn']:.4f}, "
        f"five runs in {r['seconds']:.0f}s",
    )


def test_criterion_09_ablation_ordering(ml1m_results):
    r = ml1m_results
    assert r["pffn-tce"] < r["pffn-ln"], (
        f"-tce {r['pffn-tce']:.4f} not below -ln {r['pffn-ln']:.4f}"
    )
    assert r["pffn-tce"] < r["pffn-rc"], (
        f"-tce {r['pffn-tce']:.4f} not below -rc {r['pffn-rc']:.4f}"
    )
    _report(
        9,
        f"-tce {r['pffn-tce']:.4f} < -ln {r['pffn-ln']:.4f} and "
        f"-rc {r['pffn-rc']:.4f} (strict)",
    )


# --------------------------------------------------------------------------
# criterion 10: weight scores reconstruct the logit
# --------------------------------------------------------------------------


def test_criterion_10_interpretability_identity():
    cards = [15, 9, 12, 6]
    config = ModelConfig(n_fields=4, embed_dim=6, agg_width=8, n_blocks=2, variant="pffn")
    rng = Rng(55)
    # a briefly trained checkpoint, so the weights are non-degenerate
    n = 4000
    idx = np.stack([integers(rng, 0, c, (n,)) for c in cards], axis=1)
    labels = (rng.random((n,)) < 0.5).astype(float)
    ds = EncodedDataset(labels, idx, np.empty((n, 0)), ())
    params = init_params(config, cards, seed=55, pos_rate=0.5)
    tconf = TrainConfig(batch_size=256, lr=1e-3, max_epochs=2, patience=5, seed=55)
    trained, _ = train(config, params, ds, ds, tconf)

    worst = 0.0
    for _ in range(1000):
        inst = EncodedDataset(
            np.ones(1),
            np.array([[integers(rng, 0, c) for c in cards]], dtype=np.int64),
            np.empty((1, 0)),
            (),
        )
        report = explain_instance(trained, config, inst)
        total = report.weights.sum() + report.intercept
        worst = max(worst, abs(total - report.logit))
        assert worst < 1e-10
    _report(10, f"1000 instances, max |sum FW + w0 - logit| = {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 11: run-to-run determinism of the training command
# --------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    synth_dir = str(tmp_path / "data")
    spec = SynthSpec(
        n_fields=4, cardinalities=(12,), rows=3000, scale=0.6, latent_dim=2, seed=3
    )
    write_dataset(generate(spec), synth_dir)
    outs = []
    for name in ("one", "two"):
        out = str(tmp_path / name)
        code = cli_main(
            [
                "train",
                "--data", os.path.join(synth_dir, "data.tsv"),
                "--schema", os.path.join(synth_dir, "schema.tsv"),
                "--out", out,
                "--seed", "29",
                "--embed-dim", "6",
                "--agg-width", "8",
                "--blocks", "2",
                "--epochs", "3",
                "--patience", "3",
                "--batch-size", "256",
                "--lr", "0.001",
            ]
        )
        assert code == 0
        outs.append(out)

    identical = []
    for name in ("checkpoint.bin", "vocab.txt", "metrics.txt"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, f"{name} differs between identical runs"
        identical.append(name)

    # history matches except the wall-clock column
    def history_rows(path):
        lines = open(os.path.join(path, "history.tsv")).read().strip().split("\n")
        return [line.rsplit("\t", 1)[0] for line in lines]

    assert history_rows(outs[0]) == history_rows(outs[1])
    _report(
        11,
        f"byte-identical {', '.join(identical)}; history identical outside its "
        "wall-clock column",
    )
