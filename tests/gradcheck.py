"""Finite-difference gradient check shared by the model and acceptance tests."""

import numpy as np

from eegdrive.models.nets import weighted_ce_from_logprobs


def gradient_check(
    model,
    x: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    seed: int = 0,
    h: float = 1e-4,
    max_elements: int = 64,
    train_mode: bool = True,
) -> dict[str, float]:
    """Central finite differences against the analytic gradients, in float64.

    Every parameter tensor is checked. Tensors with at most 256 entries are
    probed exhaustively; larger ones on a seeded random subset of entries.
    Returns the relative error per tensor: ||fd - analytic|| / max(norms).
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)
    params = model.init_params(np.random.SeedSequence(seed), dtype=np.float64)

    def loss_at() -> float:
        _, cache = model.forward(params, x, train_mode=train_mode,
                                 dropout_key=seed, step=0)
        return weighted_ce_from_logprobs(cache["logp"], labels, w)

    _, cache = model.forward(params, x, train_mode=train_mode,
                             dropout_key=seed, step=0)
    analytic = model.backward(params, cache, labels, w)

    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name in sorted(params):
        tensor = params[name]
        flat_idx = (
            np.arange(tensor.size)
            if tensor.size <= 256
            else rng.choice(tensor.size, size=max_elements, replace=False)
        )
        fd = np.empty(len(flat_idx))
        for j, fi in enumerate(flat_idx):
            orig = tensor.flat[fi]
            tensor.flat[fi] = orig + h
            hi = loss_at()
            tensor.flat[fi] = orig - h
            lo = loss_at()
            tensor.flat[fi] = orig
            fd[j] = (hi - lo) / (2.0 * h)
        an = analytic[name].flat[flat_idx]
        denom = max(np.linalg.norm(fd), np.linalg.norm(an), 1e-12)
        errors[name] = float(np.linalg.norm(fd - an) / denom)
    return errors
