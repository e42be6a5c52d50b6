"""Optimizer and training-loop tests."""
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.data import (
    DataError,
    EncodedDataset,
    build_vocabulary,
    cardinalities,
    encode_dataset,
    load_records,
    make_schema,
)
from contextnet import model as model_module
from contextnet.metrics import logloss
from contextnet.model import ModelConfig, init_params, predict_scores
from contextnet.ops import Rng
from contextnet.training import (
    AdamState,
    EpochStats,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    adam_step,
    calibration_warning,
    init_adam,
    train,
    worker_tables,
)
from dense_grads import densify
from synth import integers

CARDS = [6, 5]
CFG = ModelConfig(n_fields=2, embed_dim=3, agg_width=4, n_blocks=1)


def zeros_like(params):
    return {name: np.zeros_like(t) for name, t in params.items()}


def scalarish_params():
    """A one-parameter model stand-in: reuse head bias as the scalar."""
    config = ModelConfig(n_fields=1, embed_dim=1, n_blocks=0)
    return init_params(config, [1], seed=0)


def overflowing_grads(*names):
    """Parameters and gradients whose square, in the second moment of each
    tensor of `names`, overflows: a dense gradient, or for an embedding
    table a (rows, sums) pair with one row of 1e200."""
    params = init_params(CFG, CARDS, seed=0)
    grads = zeros_like(params)
    for name in names:
        if name.startswith("embed."):
            grads[name] = (np.array([2]), np.full((1, CFG.embed_dim), 1e200))
        else:
            grads[name][0] = 1e200
    return params, grads


class TestAdam:
    def test_zero_grad_leaves_params_unchanged(self):
        params = init_params(CFG, CARDS, seed=1)
        grads = zeros_like(params)
        state = init_adam(params, lr=0.1)
        before = [t.copy() for t in params.values()]
        adam_step(params, grads, state)
        for after, prev in zip(params.values(), before):
            assert np.array_equal(after, prev)
        assert state.step == 1

    def test_single_step_with_unit_gradient(self):
        """Bias-corrected first step moves by -lr/(1+eps), i.e. almost -lr."""
        params = scalarish_params()
        grads = zeros_like(params)
        grads["head_b"][0] = 1.0
        state = init_adam(params, lr=1e-3)
        adam_step(params, grads, state)
        assert params["head_b"][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_two_runs_bit_identical(self):
        def run():
            params = init_params(CFG, CARDS, seed=2)
            state = init_adam(params, lr=0.01)
            rng = Rng(3)
            for _ in range(5):
                grads = zeros_like(params)
                for g in grads.values():
                    g[...] = rng.normal(g.shape)
                adam_step(params, grads, state)
            return np.concatenate([t.ravel() for t in params.values()])

        assert np.array_equal(run(), run())

    def test_lr_zero_freezes_params_but_moves_moments(self):
        params = init_params(CFG, CARDS, seed=4)
        before = [t.copy() for t in params.values()]
        grads = zeros_like(params)
        for g in grads.values():
            g[...] = 1.0
        state = init_adam(params, lr=0.0)
        adam_step(params, grads, state)
        for after, prev in zip(params.values(), before):
            assert np.array_equal(after, prev)
        assert all(m.max() > 0 for m in state.m.values())
        assert all(v.max() > 0 for v in state.v.values())

    @pytest.mark.parametrize(
        "names, on_worker",
        [
            (["head_b"], ()),
            (["embed.0"], ()),
            # one table on each thread: the first in params order is named
            (["embed.0", "embed.1"], ["embed.0"]),
            (["embed.0", "embed.1"], ["embed.1"]),
        ],
    )
    def test_overflowing_moment_names_its_tensor(self, names, on_worker):
        params, grads = overflowing_grads(*names)
        with ThreadPoolExecutor(1) as worker:
            with pytest.raises(FloatingPointError, match=f"^Adam update of {names[0]}: overflow"):
                adam_step(params, grads, init_adam(params, lr=1e-3), worker, on_worker)

    def test_sparse_overflow_is_named_under_python_O(self):
        """The check is np.errstate, not an assert, so `python -O` raises it too."""
        code = (
            "from test_training import adam_step, init_adam, overflowing_grads\n"
            "params, grads = overflowing_grads('embed.0')\n"
            "try:\n"
            "    adam_step(params, grads, init_adam(params, lr=1e-3))\n"
            "except FloatingPointError as exc:\n"
            "    print(exc)\n"
        )
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
            timeout=120,
        )
        assert out.stdout.startswith("Adam update of embed.0: overflow"), out.stderr

    @given(seed=st.integers(0, 2**32), steps=st.integers(1, 4), batch=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_row_sums_update_is_the_dense_update(self, seed, steps, batch):
        """adam_step with each table's (rows, sums) leaves params, m and v
        byte-equal to adam_step with the same gradients densified."""
        cards = [60, 4]
        rng = Rng(seed)
        sparse_params = init_params(CFG, cards, seed)
        dense_params = {name: t.copy() for name, t in sparse_params.items()}
        sparse = init_adam(sparse_params, lr=0.01)
        dense = init_adam(dense_params, lr=0.01)
        for _ in range(steps):
            idx = np.stack([integers(rng, 0, c, (batch,)) for c in cards], axis=1)
            rows = [np.unique(idx[:, i]) for i in range(len(cards))]
            grads = {n: rng.normal(t.shape) for n, t in sparse_params.items()}
            for i, r in enumerate(rows):
                grads[f"embed.{i}"] = (r, rng.normal((r.size, CFG.embed_dim)))
            batch_ds = EncodedDataset(np.zeros(batch), idx, np.empty((batch, 0)), ())
            densified = densify(grads, dense_params, batch_ds)
            adam_step(sparse_params, grads, sparse)
            adam_step(dense_params, densified, dense)
        for name in sparse_params:
            for a, b in ((sparse_params, dense_params), (sparse.m, dense.m), (sparse.v, dense.v)):
                assert a[name].tobytes() == b[name].tobytes(), name


def _linearly_separable(n=400, seed=0):
    """Token 1 of field 0 means positive, token 2 means negative."""
    rng = Rng(seed)
    labels = (rng.random((n,)) < 0.5).astype(float)
    idx = np.zeros((n, 2), dtype=np.int64)
    idx[:, 0] = np.where(labels == 1.0, 1, 2)
    idx[:, 1] = integers(rng, 0, 5, (n,))
    return EncodedDataset(labels, idx, np.empty((n, 0)), ())


class TestTrainLoop:
    def test_epoch0_loss_near_label_entropy(self):
        """Prior-initialized head puts the first-epoch loss at the label
        entropy (tiny lr moves it only slightly)."""
        ds = _linearly_separable(600, seed=6)
        rate = ds.labels.mean()
        entropy = -(rate * np.log(rate) + (1 - rate) * np.log(1 - rate))
        params = init_params(CFG, CARDS, seed=6, pos_rate=float(rate))
        tconf = TrainConfig(batch_size=64, lr=1e-4, max_epochs=1, patience=5, seed=6)
        _, history = train(CFG, params, ds, ds, tconf)
        assert history.epochs[0].train_loss == pytest.approx(entropy, abs=0.01)

    def test_loss_decreases_on_separable_data(self):
        ds = _linearly_separable(400, seed=7)
        params = init_params(CFG, CARDS, seed=7, pos_rate=float(ds.labels.mean()))
        tconf = TrainConfig(batch_size=32, lr=3e-3, max_epochs=5, patience=5, seed=7)
        _, history = train(CFG, params, ds, ds, tconf)
        losses = [e.train_loss for e in history.epochs]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_all_categorical_file_trains(self, tmp_path):
        """A file of categorical fields only encodes to values of shape
        (n, 0), and the loss falls epoch by epoch on it."""
        rng = Rng(11)
        labels = (rng.random((400,)) < 0.5).astype(int).tolist()
        path = tmp_path / "data.tsv"
        path.write_text("".join(
            f"{y}\t{'np'[y]}{k % 2}\tb{k}\n"
            for y, k in zip(labels, integers(rng, 0, 5, (400,)).tolist())
        ))
        schema = make_schema([("a", "cat"), ("b", "cat")])
        columns = load_records(str(path), schema)
        vocab = build_vocabulary(columns, schema, range(400))
        ds = encode_dataset(columns, schema, vocab)
        assert (ds.values.shape, ds.numerical) == ((400, 0), ())
        params = init_params(CFG, cardinalities(schema, vocab), seed=11, pos_rate=0.5)
        tconf = TrainConfig(batch_size=32, lr=3e-3, max_epochs=5, patience=5, seed=11)
        _, history = train(CFG, params, ds, ds, tconf)
        losses = [e.train_loss for e in history.epochs]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_patience_zero_stops_at_first_non_improvement(self):
        ds = _linearly_separable(200, seed=8)
        params = init_params(CFG, CARDS, seed=8)
        # lr 1e-300 moves the zero head by ~1e-300 only, so every score
        # stays 0.5 and val AUC constant: first evaluation sets best,
        # second stops
        tconf = TrainConfig(batch_size=64, lr=1e-300, max_epochs=10, patience=0, seed=8)
        _, history = train(CFG, params, ds, ds, tconf)
        assert len(history.epochs) == 2

    def test_two_runs_identical_history(self):
        ds = _linearly_separable(300, seed=9)

        def run():
            params = init_params(CFG, CARDS, seed=9, pos_rate=0.5)
            tconf = TrainConfig(batch_size=64, lr=1e-3, max_epochs=3, patience=3, seed=9)
            _, history = train(CFG, params, ds, ds, tconf)
            return [(e.train_loss, e.val_auc, e.val_logloss) for e in history.epochs]

        assert run() == run()

    def test_best_checkpoint_returned(self):
        ds = _linearly_separable(300, seed=10)
        params = init_params(CFG, CARDS, seed=10, pos_rate=0.5)
        tconf = TrainConfig(batch_size=64, lr=3e-3, max_epochs=6, patience=6, seed=10)
        best, history = train(CFG, params, ds, ds, tconf)
        best_scores = predict_scores(ds, best, CFG)
        assert logloss(best_scores, ds.labels) <= history.epochs[0].val_logloss + 1e-9

    def test_divergence_reported_with_location(self):
        ds = _linearly_separable(100, seed=11)
        params = init_params(CFG, CARDS, seed=11)
        params["head_w"][...] = np.nan  # poisoned state -> non-finite loss
        tconf = TrainConfig(batch_size=32, lr=1e-3, max_epochs=2, patience=2, seed=11)
        with pytest.raises(TrainingDiverged) as err:
            train(CFG, params, ds, ds, tconf)
        assert str(err.value).endswith(" at epoch 0, batch 0")

    def test_adam_overflow_reported_with_tensor_and_location(self):
        ds = _linearly_separable(100, seed=11)
        config = ModelConfig(n_fields=2, embed_dim=3, agg_width=4, n_blocks=1, l2=1e300)
        params = init_params(config, CARDS, seed=11)
        tconf = TrainConfig(batch_size=32, lr=1e-3, max_epochs=2, patience=2, seed=11)
        with pytest.raises(TrainingDiverged) as err:
            train(config, params, ds, ds, tconf)
        assert str(err.value) == (
            "Adam update of embed.0: overflow encountered in multiply at epoch 0, batch 0"
        )

    def test_single_class_validation_rejected_before_first_epoch(self):
        ds = _linearly_separable(100, seed=14)
        negatives = ds.take(np.flatnonzero(ds.labels == 0.0))
        params = init_params(CFG, CARDS, seed=14)
        params["head_w"][...] = np.nan  # a first epoch would diverge
        tconf = TrainConfig(batch_size=32, lr=1e-3, max_epochs=2, seed=14)
        with pytest.raises(DataError, match="one class"):
            train(CFG, params, ds, negatives, tconf)

    def test_empty_training_set_rejected_before_first_epoch(self):
        ds = _linearly_separable(100, seed=15)
        params = init_params(CFG, CARDS, seed=15)
        with pytest.raises(DataError) as exc:
            train(CFG, params, ds.take(slice(0, 0)), ds, TrainConfig(max_epochs=1, seed=15))
        assert str(exc.value) == "the training split holds no rows"

    def test_history_tsv_format(self):
        ds = _linearly_separable(200, seed=13)
        params = init_params(CFG, CARDS, seed=13)
        tconf = TrainConfig(batch_size=64, lr=1e-3, max_epochs=2, patience=3, seed=13)
        _, history = train(CFG, params, ds, ds, tconf)
        lines = history.to_tsv().strip().split("\n")
        assert lines[0] == "epoch\ttrain_loss\tval_auc\tval_logloss\tseconds"
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 5 for line in lines[1:])


# with batches of 32, tables 0 and 2 are larger than a batch and table 1 is
# smaller; worker_tables gives table 0 to the worker and leaves table 2
WORKER_CARDS = [300, 6, 80]
WORKER_CFG = ModelConfig(n_fields=3, embed_dim=3, agg_width=4, n_blocks=3)
WORKER_TCONF = TrainConfig(batch_size=32, lr=3e-3, max_epochs=2, patience=2, seed=16)


def _worker_dataset(n, seed):
    """Labels that follow field 0's token, with 20% of them flipped."""
    rng = Rng(seed)
    idx = np.stack([integers(rng, 0, c, (n,)) for c in WORKER_CARDS], axis=1)
    labels = ((idx[:, 0] % 3 == 0) ^ (rng.random((n,)) < 0.2)).astype(float)
    return EncodedDataset(labels, idx, np.empty((n, 0)), ())


class TestTrainingWorker:
    """With model.SCORE_WORKERS > 1, train runs the parameter-gradient
    products and the large tables' Adam on one worker thread."""

    def test_worker_tables(self):
        params = init_params(WORKER_CFG, WORKER_CARDS, seed=0)
        assert worker_tables(params, WORKER_TCONF.batch_size) == ["embed.0"]
        assert worker_tables(params, 300) == []

    @pytest.mark.parametrize(
        "config",
        [
            WORKER_CFG,
            replace(WORKER_CFG, variant="pffn", sharing="agg", l2=1e-4),
            replace(WORKER_CFG, sharing="agg-proj", l2=1e-4),
            replace(WORKER_CFG, variant="pffn", sharing="agg-proj"),
            replace(WORKER_CFG, no_tce=True),
            replace(WORKER_CFG, variant="pffn", no_ffn=True, sharing="agg"),
            replace(WORKER_CFG, variant="pffn", no_ln=True, l2=1e-4),
            replace(WORKER_CFG, variant="pffn", no_rc=True, sharing="agg-proj"),
        ],
        ids=repr,
    )
    def test_worker_moves_no_bit(self, config, monkeypatch):
        """One lane and the worker (with the interpreter switching threads
        every 10 us) return byte-equal parameters and history."""
        train_set, val_set = _worker_dataset(300, seed=17), _worker_dataset(100, seed=18)

        def run(workers):
            monkeypatch.setattr(model_module, "SCORE_WORKERS", workers)
            params = init_params(config, WORKER_CARDS, seed=19, pos_rate=0.4)
            best, history = train(config, params, train_set, val_set, WORKER_TCONF)
            stats = [(e.train_loss, e.val_auc, e.val_logloss) for e in history.epochs]
            tsv = [line.rsplit("\t", 1)[0] for line in history.to_tsv().splitlines()]
            tensors = [a.tobytes() for a in (*best.values(), *params.values())]
            return tensors, stats, tsv, history.best_epoch

        one_lane = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run(2) == one_lane
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_train(self, monkeypatch):
        monkeypatch.setattr(model_module, "SCORE_WORKERS", 2)
        train_set, val_set = _worker_dataset(300, seed=20), _worker_dataset(100, seed=21)
        before = threading.active_count()
        params = init_params(WORKER_CFG, WORKER_CARDS, seed=22)
        train(WORKER_CFG, params, train_set, val_set, WORKER_TCONF)
        assert threading.active_count() == before

    def test_worker_side_overflow_is_named_as_inline(self, monkeypatch):
        """l2 = 1e300 overflows every regularized tensor: embed.0, on the
        worker, is named as on one lane, and no thread outlives train."""
        config = replace(WORKER_CFG, l2=1e300)
        train_set, val_set = _worker_dataset(300, seed=23), _worker_dataset(100, seed=24)
        before = threading.active_count()
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(model_module, "SCORE_WORKERS", workers)
            params = init_params(config, WORKER_CARDS, seed=25)
            with pytest.raises(TrainingDiverged) as err:
                train(config, params, train_set, val_set, WORKER_TCONF)
            messages.append(str(err.value))
            assert threading.active_count() == before
        assert messages == [
            "Adam update of embed.0: overflow encountered in multiply at epoch 0, batch 0"
        ] * 2

    def test_worker_follows_the_callers_error_state(self, monkeypatch):
        """Without a filterwarnings mark, any NumPy RuntimeWarning fails the
        test (pyproject.toml): a job that did not run under the caller's
        np.errstate would warn on the overflowing products it computes."""
        monkeypatch.setattr(model_module, "SCORE_WORKERS", 2)
        config = replace(WORKER_CFG, no_ln=True)
        data = _worker_dataset(300, seed=26)
        # field 2 read as numerical, at a value whose products overflow in
        # the gradient jobs, not only on the calling thread
        data = EncodedDataset(data.labels, data.indices, np.full((300, 1), 1e104), (2,))
        params = init_params(config, WORKER_CARDS, seed=27)
        rng = Rng(5)
        for t in params.values():
            t[...] = rng.normal(t.shape, scale=0.4)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged):
                train(config, params, data, data, WORKER_TCONF)


class TestCalibrationWarning:
    """The prior of labels with positive rate 1/4 is 0.562335..."""

    LABELS = np.array([1.0, 0.0, 0.0, 0.0])

    @staticmethod
    def history(val_loglosses, best_epoch):
        epochs = [EpochStats(0.5, 0.7, ll, 1.0) for ll in val_loglosses]
        return TrainHistory(epochs, best_epoch)

    def test_kept_epoch_above_prior_warns(self):
        line = calibration_warning(self.history([0.55, 0.60], 1), self.LABELS)
        assert line == (
            "warning: kept epoch 1 has validation log loss 0.600000, above the "
            "label-entropy prior 0.562335 of the validation split"
        )

    def test_kept_epoch_below_prior_is_silent(self):
        # a later epoch above the prior does not matter: it was not kept
        assert calibration_warning(self.history([0.55, 0.60], 0), self.LABELS) is None

    def test_train_command_prints_it_on_stderr_only(self, tmp_path, capsys, monkeypatch):
        """The line goes to stderr; stdout stays the same."""
        from contextnet import cli

        ds = _linearly_separable(400, seed=14)
        (tmp_path / "schema.tsv").write_text("a\tcat\nb\tcat\n")
        (tmp_path / "data.tsv").write_text(
            "".join(
                f"{int(y)}\tt{i}\tu{j}\n"
                for y, (i, j) in zip(ds.labels, ds.indices.tolist())
            )
        )
        argv = ["train", "--data", str(tmp_path / "data.tsv"), "--schema",
                str(tmp_path / "schema.tsv"), "--out", str(tmp_path / "run"),
                "--epochs", "1", "--blocks", "1", "--batch-size", "64"]
        monkeypatch.setattr(cli, "calibration_warning", lambda h, y: None)
        assert cli.main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        monkeypatch.setattr(cli, "calibration_warning", lambda h, y: "warning: x")
        assert cli.main(argv) == 0
        loud = capsys.readouterr()
        assert loud.err == "warning: x\n"
        assert loud.out == quiet.out


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=-1)
