"""Optimizer and training-loop tests."""
import numpy as np
import pytest

from contextnet.data import DataError, EncodedDataset
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
)
from synth import integers

CARDS = [6, 5]
CFG = ModelConfig(n_fields=2, embed_dim=3, agg_width=4, n_blocks=1)


def zeros_like(params):
    return {name: np.zeros_like(t) for name, t in params.items()}


def scalarish_params():
    """A one-parameter model stand-in: reuse head bias as the scalar."""
    config = ModelConfig(n_fields=1, embed_dim=1, n_blocks=0)
    return init_params(config, [1], seed=0)


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

    def test_overflowing_moment_names_its_tensor(self):
        params = scalarish_params()
        grads = zeros_like(params)
        grads["head_b"][0] = 1e200  # its square, in the second moment, overflows
        with pytest.raises(FloatingPointError, match="^Adam update of head_b: overflow"):
            adam_step(params, grads, init_adam(params))

    def test_shape_mismatch_rejected(self):
        params = init_params(CFG, CARDS, seed=5)
        other = init_params(ModelConfig(n_fields=2, embed_dim=4, n_blocks=0), CARDS, 0)
        state = init_adam(params)
        from contextnet.ops import ShapeError

        with pytest.raises(ShapeError):
            adam_step(params, zeros_like(other), state)


def _linearly_separable(n=400, seed=0):
    """Token 1 of field 0 means positive, token 2 means negative."""
    rng = Rng(seed)
    labels = (rng.random((n,)) < 0.5).astype(float)
    idx = np.zeros((n, 2), dtype=np.int64)
    idx[:, 0] = np.where(labels == 1.0, 1, 2)
    idx[:, 1] = integers(rng, 0, 5, (n,))
    return EncodedDataset(labels, idx, np.ones((n, 2)))


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
        assert err.value.epoch == 0
        assert err.value.batch_index == 0

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
        assert (err.value.epoch, err.value.batch_index) == (0, 0)

    def test_single_class_validation_rejected_before_first_epoch(self):
        ds = _linearly_separable(100, seed=14)
        negatives = ds.take(np.flatnonzero(ds.labels == 0.0))
        params = init_params(CFG, CARDS, seed=14)
        params["head_w"][...] = np.nan  # a first epoch would diverge
        tconf = TrainConfig(batch_size=32, lr=1e-3, max_epochs=2, seed=14)
        with pytest.raises(DataError, match="one class"):
            train(CFG, params, ds, negatives, tconf)

    def test_history_tsv_format(self):
        ds = _linearly_separable(200, seed=13)
        params = init_params(CFG, CARDS, seed=13)
        tconf = TrainConfig(batch_size=64, lr=1e-3, max_epochs=2, patience=3, seed=13)
        _, history = train(CFG, params, ds, ds, tconf)
        lines = history.to_tsv().strip().split("\n")
        assert lines[0] == "epoch\ttrain_loss\tval_auc\tval_logloss\tseconds"
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 5 for line in lines[1:])


class TestCalibrationWarning:
    """The prior of labels with positive rate 1/4 is 0.562335..."""

    LABELS = np.array([1.0, 0.0, 0.0, 0.0])

    @staticmethod
    def history(val_loglosses, best_epoch):
        epochs = [EpochStats(i, 0.5, 0.7, ll, 1.0) for i, ll in enumerate(val_loglosses)]
        return TrainHistory(epochs, best_epoch, 0.7)

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
