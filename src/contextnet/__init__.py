"""Contextual-embedding CTR models: feature pipeline, model, training, interpretability."""

from contextnet.ops import Rng, sigmoid, logit, mix_seed
from contextnet.model import ModelConfig, init_params, predict, loss_and_grads
from contextnet.data import (
    FieldSchema,
    Vocabulary,
    EncodedDataset,
    load_records,
    split_indices,
    build_vocabulary,
    encode_dataset,
    batch_iter,
)
from contextnet.metrics import auc, logloss, rela_imp
from contextnet.training import TrainConfig, AdamState, init_adam, adam_step, train

__all__ = [
    "Rng",
    "sigmoid",
    "logit",
    "mix_seed",
    "ModelConfig",
    "init_params",
    "predict",
    "loss_and_grads",
    "FieldSchema",
    "Vocabulary",
    "EncodedDataset",
    "load_records",
    "split_indices",
    "build_vocabulary",
    "encode_dataset",
    "batch_iter",
    "auc",
    "logloss",
    "rela_imp",
    "TrainConfig",
    "AdamState",
    "init_adam",
    "adam_step",
    "train",
]
