"""Classifiers and the training loop."""

from .nets import (
    KNOWN_MODELS,
    LOG_FLOOR,
    LinearSoftmax,
    ShallowConvNet,
    ShallowConvNetSpec,
    build_model,
    log_softmax,
    weighted_ce_from_logprobs,
)
from .trainer import (
    Adam,
    TrainConfig,
    TrainResult,
    compute_class_weights,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_model,
)

__all__ = [
    "KNOWN_MODELS",
    "LOG_FLOOR",
    "LinearSoftmax",
    "ShallowConvNet",
    "ShallowConvNetSpec",
    "build_model",
    "log_softmax",
    "weighted_ce_from_logprobs",
    "Adam",
    "TrainConfig",
    "TrainResult",
    "compute_class_weights",
    "load_checkpoint",
    "predict",
    "save_checkpoint",
    "train_model",
]
