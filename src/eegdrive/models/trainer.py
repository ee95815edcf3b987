"""Minibatch training loop with a hand-rolled Adam optimizer.

Determinism contract: a fixed (seed, config, data) triple reproduces the
same parameters bit for bit. The seed fans out into three independent streams
(init, shuffling, dropout) so changing the epoch count does not disturb
initialization, and dropout masks depend only on the global step index.

A step works through its batch in chunks of at most ``model.chunk``
windows (``batch_gradients``): it derives what the forward calls read and
draws the batch's dropout mask once, runs forward and backward per chunk,
adds the chunks' gradients into the step's sums in chunk order, and folds
the sums onto the parameters once. Each chunk gathers its own windows from
the training set, so no step copies its whole batch.

The chunks of a step are shared by ``StepWorkers``: the calling thread and
up to ``workers - 1`` helper threads, chunk i on worker i mod W. numpy
releases the interpreter lock inside its matrix products, and each worker
runs OpenBLAS on its own single thread, so W workers use W cores. A chunk's
arithmetic does not depend on the worker that runs it, and the sums are
taken in chunk order, so every parameter is the same bit for bit for any
W. Each worker writes its chunk's im2col and conv outputs into its own
scratch buffers, so a conv-net step holds W chunks' working sets whatever
the batch size; the helper threads and the buffers live only inside
``train_model``, so a process forked after training inherits neither.
``predict`` works through the same chunks on the calling thread. The
linear model takes a whole batch per call, so it runs one chunk per step
on one worker.
"""

from __future__ import annotations

from concurrent.futures import wait
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


class StepWorkers:
    """The workers that share each training step's chunks: the calling
    thread and ``n - 1`` helper threads, each with its own
    ``model.scratch(dtype)`` buffers. Leaving the ``with`` block joins the
    helper threads and frees the buffers."""

    def __init__(self, model, n: int, dtype):
        if n < 1:
            raise ValueError(f"a step needs at least one worker, got {n}")
        self.scratch = [model.scratch(dtype) for _ in range(n)]
        self._pool = None
        if n > 1:
            # imported on first use: a process that never trains on two
            # threads (a --jobs worker with one core) imports no thread pool
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(n - 1)

    def __enter__(self) -> StepWorkers:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
        self.scratch = []

    def map(self, fn, n_items: int) -> list:
        """``[fn(i, scratch) for i in range(n_items)]``, item i run by worker
        i mod n with that worker's ``scratch``; worker 0 is the caller."""
        n = len(self.scratch)

        def share(j):
            return [fn(i, self.scratch[j]) for i in range(j, n_items, n)]

        helpers = [self._pool.submit(share, j) for j in range(1, min(n, n_items))]
        try:
            shares = [share(0)]
        finally:
            wait(helpers)  # no helper still writes a buffer once this returns
        shares += [f.result() for f in helpers]
        return [shares[i % n][i // n] for i in range(n_items)]


def batch_gradients(
    model,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    mask: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    workers: StepWorkers | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The log-probabilities of a batch and the gradients of its
    weighted-CE mean, under the batch's dropout ``mask`` (None: none).

    The batch is ``x``, or ``x[rows]`` when ``rows`` is given; then each
    chunk gathers its own windows. Forward and backward run per chunk of
    ``model.chunk`` windows on ``workers`` (None: the calling thread, with
    no scratch buffers); the chunks' gradients are added into the first
    chunk's in chunk order, whichever worker ran them, and ``model.fold``
    takes the sums onto the parameters.
    """
    derived = model.derive(params)
    n = len(labels)
    parts = _chunks(n, model.chunk)

    def chunk(i, scratch):
        part = parts[i]
        if rows is None:
            xb = x[part]
        else:  # mode "clip" writes straight into out; "raise" would buffer it
            idx = rows[part]
            xb = np.take(x, idx, axis=0, mode="clip",
                         out=None if scratch is None else scratch["x"][: len(idx)])
        _, cache = model.forward(derived, xb, None if mask is None else mask[part], scratch)
        # only the log-probabilities and gradients outlive the chunk's cache
        return cache["logp"], model.backward(derived, cache, labels[part], class_weights, n)

    done = ([chunk(i, None) for i in range(len(parts))] if workers is None
            else workers.map(chunk, len(parts)))
    sums = done[0][1]
    for _, grads in done[1:]:
        for name, g in grads.items():
            sums[name] += g
    return np.concatenate([logp for logp, _ in done]), model.fold(params, sums)


def train_model(
    model,
    data: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    cfg: TrainConfig,
    seed: int,
    workers: int = 1,
) -> TrainResult:
    """Train ``model`` from ``seed``, which fans out into the init, shuffle
    and dropout streams. Up to ``workers`` threads share each step's
    chunks; the result is the same bit for bit for any count."""
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
    # more workers than a batch has chunks would only idle
    n_workers = min(workers, len(_chunks(min(n, cfg.batch_size), model.chunk)))
    with StepWorkers(model, n_workers, data.dtype) as crew:
        for epoch in range(cfg.epochs):
            perm = shuffle_rng.permutation(n)
            total = 0.0
            for lo in range(0, n, cfg.batch_size):
                idx = perm[lo : lo + cfg.batch_size]
                yb = labels[idx]
                mask = model.dropout_mask(len(idx), dropout_key, step, data.dtype)
                logp, grads = batch_gradients(model, params, data, yb, weights32, mask,
                                              rows=idx, workers=crew)
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
