"""Minibatch training loop with a hand-rolled Adam optimizer.

Determinism contract: a fixed (seed, config, data) triple reproduces the
same parameters bit for bit. The seed fans out into three independent streams
(init, shuffling, dropout) so changing the epoch count does not disturb
initialization, and dropout masks depend only on the global step index.

A step works through its batch in chunks of at most ``model.chunk``
windows (``batch_gradients``): it derives what the forward calls read and
draws the batch's dropout mask once, runs forward and backward per chunk,
adds each chunk's gradients into the step's sums, and folds the sums onto
the parameters once. A chunk's cache dies before the next chunk's forward,
so a conv-net step holds one chunk's im2col whatever the batch size, and
``predict`` works through the same chunks. The linear model takes a whole
batch per call, so its arithmetic is that of one forward and one backward.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import DataError, TrainingDiverged
from ..session import N_CLASSES
from ..tensorfile import read_checkpoint, write_checkpoint
from .nets import ShallowConvNetSpec, build_model, weighted_ce_from_logprobs

#: Adam's moment decay rates and the term that keeps its denominator positive.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: The most windows one ``predict`` forward call takes.
PREDICT_WINDOWS = 512


def compute_class_weights(counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights, rescaled so present classes average to 1.

    ``counts`` are training window counts per class code, taken before any
    oversampling. Absent classes get weight 0; they cannot occur in a batch.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or (counts < 0).any():
        raise ValueError("counts must be a 1-D array of non-negative totals")
    present = counts > 0
    if not present.any():
        raise ValueError("no training samples in any class")
    w = np.zeros_like(counts)
    w[present] = 1.0 / counts[present]
    w[present] *= present.sum() / w[present].sum()
    return w


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; Adam's other constants are ``ADAM_*``.

    The 150-epoch default keeps a full benchmark run at desk scale; raise it
    for longer schedules. learning_rate 0 is allowed and leaves parameters
    at their initialization, which the determinism tests rely on.
    """

    epochs: int = 150
    batch_size: int = 128
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must not be negative")


class Adam:
    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name in sorted(params):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            params[name] -= self.cfg.learning_rate * (m / bc1) / (
                np.sqrt(v / bc2) + ADAM_EPS
            )


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    epoch_losses: list[float]


def _fanout_seed(seed: int) -> tuple[np.random.SeedSequence, np.random.Generator, int]:
    init_ss, shuffle_ss, drop_ss = np.random.SeedSequence(seed).spawn(3)
    dropout_key = int(drop_ss.generate_state(1, np.uint64)[0])
    return init_ss, np.random.default_rng(shuffle_ss), dropout_key


def _chunks(n: int, size: int | None) -> list[slice]:
    """Consecutive slices of at most ``size`` of ``n`` rows (all of them
    for None)."""
    size = size or n
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def batch_gradients(
    model,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The log-probabilities of the batch ``x`` and the gradients of its
    weighted-CE mean, under the batch's dropout ``mask`` (None: none).

    Forward and backward run per chunk of ``model.chunk`` windows; each
    chunk's gradients are added into the first chunk's, in chunk order, and
    ``model.fold`` takes the sums onto the parameters.
    """
    derived = model.derive(params)
    logps, sums = [], None
    for part in _chunks(len(x), model.chunk):
        _, cache = model.forward(derived, x[part], None if mask is None else mask[part])
        grads = model.backward(derived, cache, labels[part], class_weights, len(x))
        logps.append(cache["logp"])
        if sums is None:
            sums = grads
        else:
            for name, g in grads.items():
                sums[name] += g
        # free this chunk's arrays before the next forward makes its own
        del cache, grads
    return np.concatenate(logps), model.fold(params, sums)


def train_model(
    model,
    data: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    cfg: TrainConfig,
    seed: int,
) -> TrainResult:
    """Train ``model`` from ``seed``, which fans out into the init, shuffle
    and dropout streams."""
    n = len(data)
    if n == 0:
        raise DataError("cannot train on an empty window set")
    if len(labels) != n:
        raise DataError("data and labels disagree on sample count")
    data = np.ascontiguousarray(data, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    weights32 = np.asarray(class_weights, dtype=np.float32)

    init_ss, shuffle_rng, dropout_key = _fanout_seed(seed)
    params = model.init_params(init_ss, dtype=np.float32)
    opt = Adam(params, cfg)

    epoch_losses: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            yb = labels[idx]
            mask = model.dropout_mask(len(idx), dropout_key, step, data.dtype)
            logp, grads = batch_gradients(model, params, data[idx], yb, weights32, mask)
            loss = weighted_ce_from_logprobs(logp, yb, class_weights)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, step {step}"
                )
            opt.step(params, grads)
            # free this step's arrays before the next step makes its own
            del mask, logp, grads
            total += loss * len(idx)
            step += 1
        epoch_losses.append(total / n)
    return TrainResult(params, epoch_losses)


def predict(model, params: dict[str, np.ndarray], data: np.ndarray) -> np.ndarray:
    """Class codes by highest probability; ties break to the lowest code.

    Each forward call takes at most ``PREDICT_WINDOWS`` windows, and at most
    ``model.chunk`` when the model sets one."""
    data = np.ascontiguousarray(data, dtype=np.float32)
    derived = model.derive(params)
    out = np.empty(len(data), dtype=np.int64)
    for part in _chunks(len(data), min(PREDICT_WINDOWS, model.chunk or PREDICT_WINDOWS)):
        # bind nothing: the chunk's cache dies with the returned tuple
        out[part] = model.forward(derived, data[part])[0].argmax(axis=1)
    return out


def save_checkpoint(path, model, params: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    """Write ``params`` as a ``tensorfile`` checkpoint whose header
    describes ``model``."""
    header = {
        "model": model.name,
        "n_channels": model.n_channels,
        "n_samples": model.n_samples,
        "n_classes": N_CLASSES,
        "spec": None if model.spec is None else asdict(model.spec),
        "extra": extra or {},
    }
    write_checkpoint(path, header, params)


def load_checkpoint(path):
    """Returns (model, params, header).

    Besides what ``read_checkpoint`` rejects, a header whose class count is
    not N_CLASSES, that ``build_model`` refuses, or whose model's
    ``param_shapes`` differ from the stored tensors is a DataError naming
    the file. Building the model allocates nothing sized by its window.
    """
    header, params = read_checkpoint(path)
    try:
        if header["n_classes"] != N_CLASSES:
            raise DataError(f"{path}: n_classes is {header['n_classes']!r}, not {N_CLASSES}")
        spec = header["spec"]
        model = build_model(header["model"], header["n_channels"], header["n_samples"],
                            None if spec is None else ShallowConvNetSpec(**spec))
        found = {k: v.shape for k, v in params.items()}
        if found != model.param_shapes():
            raise DataError(f"{path}: tensors {found} do not fit the header's model")
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header: {type(e).__name__}: {e}") from e
    return model, params, header
