"""Classifiers and the training loop."""

from .nets import (
    LOG_FLOOR,
    LinearSoftmax,
    ShallowConvNet,
    ShallowConvNetSpec,
    build_model,
    log_softmax,
    loss_weighted_ce,
    weighted_ce_from_logprobs,
)
from .trainer import (
    Adam,
    TrainConfig,
    TrainResult,
    compute_class_weights,
    gradient_check,
    load_checkpoint,
    predict,
    predict_proba,
    save_checkpoint,
    train_model,
)

__all__ = [
    "LOG_FLOOR",
    "LinearSoftmax",
    "ShallowConvNet",
    "ShallowConvNetSpec",
    "build_model",
    "log_softmax",
    "loss_weighted_ce",
    "weighted_ce_from_logprobs",
    "Adam",
    "TrainConfig",
    "TrainResult",
    "compute_class_weights",
    "gradient_check",
    "load_checkpoint",
    "predict",
    "predict_proba",
    "save_checkpoint",
    "train_model",
]
