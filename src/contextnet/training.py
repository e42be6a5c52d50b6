"""Adam optimizer and the epoch loop with validation-AUC early stopping."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from contextnet.data import DataError, EncodedDataset, batch_iter
from contextnet.metrics import auc, logloss
from contextnet.model import ModelConfig, Params, grad_rows, loss_and_grads, predict_scores


class TrainingDiverged(RuntimeError):
    """Raised when the objective or an Adam update stops being finite."""

    def __init__(self, epoch: int, batch_index: int, what: str):
        super().__init__(f"{what} at epoch {epoch}, batch {batch_index}")


@dataclass
class TrainConfig:
    batch_size: int = 1024
    lr: float = 1e-4
    max_epochs: int = 20
    patience: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.lr < float("inf"):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.max_epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass
class EpochStats:
    train_loss: float
    val_auc: float
    val_logloss: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1

    def to_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tval_auc\tval_logloss\tseconds"]
        for i, e in enumerate(self.epochs):
            lines.append(
                f"{i}\t{e.train_loss:.10f}\t{e.val_auc:.10f}"
                f"\t{e.val_logloss:.10f}\t{e.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


def calibration_warning(history: TrainHistory, val_labels: np.ndarray) -> str | None:
    """A `warning:` line when the kept epoch's validation log loss is above
    the label-entropy prior of the validation split, else None: epochs are
    kept by AUC alone, so a kept model can be calibrated worse than scoring
    every row at the base rate."""
    kept = history.epochs[history.best_epoch].val_logloss
    p = float(np.mean(val_labels))
    prior = -(p * np.log(p) + (1.0 - p) * np.log1p(-p)) if 0.0 < p < 1.0 else 0.0
    if not kept > prior:
        return None
    return (
        f"warning: kept epoch {history.best_epoch} has validation log loss "
        f"{kept:.6f}, above the label-entropy prior {prior:.6f} of the validation split"
    )


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    """First/second-moment buffers keyed like the parameter tensors."""

    m: Params
    v: Params
    lr: float
    step: int = 0


def init_adam(params: Params, lr: float) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(a) for name, a in params.items()},
        v={name: np.zeros_like(a) for name, a in params.items()},
        lr=lr,
    )


def adam_step(params: Params, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, applied tensor-wise in place; a value
    that overflows or is invalid raises FloatingPointError naming its tensor.
    Moments decay at every row and add the gradient at its grad_rows only,
    bit-equal to a zero gradient elsewhere; the parameter update is dense."""
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    with np.errstate(over="raise", invalid="raise"):
        for name, p in params.items():
            rows, g = grad_rows(grads[name])
            m, v = state.m[name], state.v[name]
            try:
                m *= BETA1
                m[rows] += (1.0 - BETA1) * g
                v *= BETA2
                v[rows] += (1.0 - BETA2) * (g * g)
                p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            except FloatingPointError as exc:
                raise FloatingPointError(f"Adam update of {name}: {exc}") from None


def train(
    config: ModelConfig,
    params: Params,
    train_set: EncodedDataset,
    val_set: EncodedDataset,
    tconf: TrainConfig,
) -> tuple[Params, TrainHistory]:
    """Epoch loop: shuffled batches, Adam updates, validation-AUC stopping.

    Validates after every epoch, keeps a copy of the parameters at the best
    validation AUC and stops once more than `patience` consecutive epochs
    fail to improve (patience 0 stops at the first non-improving epoch).
    Fully deterministic for a fixed (seed, configs, data). An empty training
    set, or a validation set of one class (its AUC is undefined), is
    rejected before the first epoch.
    """
    if len(train_set) == 0:
        raise DataError("the training split holds no rows")
    val_set.require_both_classes("the validation split")
    state = init_adam(params, tconf.lr)
    history = TrainHistory()
    best_auc, stale = -np.inf, 0  # epoch 0's AUC is finite, so it sets best
    for epoch in range(tconf.max_epochs):
        t0 = time.perf_counter()
        loss_sum = 0.0
        for batch_index, batch in enumerate(
            batch_iter(train_set, tconf.batch_size, tconf.seed, epoch)
        ):
            objective, grads = loss_and_grads(batch, params, config)
            if not np.isfinite(objective):
                raise TrainingDiverged(epoch, batch_index, f"non-finite loss {objective!r}")
            try:
                adam_step(params, grads, state)
            except FloatingPointError as exc:
                raise TrainingDiverged(epoch, batch_index, str(exc)) from None
            loss_sum += objective
        train_loss = loss_sum / (batch_index + 1)

        val_scores = predict_scores(val_set, params, config)
        val_auc = auc(val_scores, val_set.labels)
        val_ll = logloss(val_scores, val_set.labels)
        history.epochs.append(
            EpochStats(train_loss, val_auc, val_ll, time.perf_counter() - t0)
        )
        if val_auc > best_auc:
            best = {name: a.copy() for name, a in params.items()}
            history.best_epoch, best_auc = epoch, val_auc
            stale = 0
        else:
            stale += 1
            if stale > tconf.patience:
                break
    return best, history
