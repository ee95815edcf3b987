"""From-scratch classifiers: a linear softmax baseline and a compact
convolutional net (temporal filters, a spatial filter bank across all
channels, square / mean-pool / log feature extraction, dropout, dense).

Everything here is plain numpy with hand-derived gradients. Convolutions
are laid out as matrix products: the temporal and spatial stages are both
linear, so their composition is evaluated as one effective kernel. Each
model splits a step into four calls, which ``trainer.batch_gradients``
composes:

- ``derive(params)``: what every forward call of one step reads. For the
  conv net that is the effective kernel, its bias and the mean-pooling
  matrix, built at the parameters' dtype, so building a net allocates
  nothing sized by the window;
- ``forward(derived, x, mask, scratch)`` over one chunk of windows, with
  that chunk's slice of the step's dropout mask (``dropout_mask``). Given
  ``scratch``, the buffers of the model's ``scratch(dtype)``, the conv net
  writes its time-major copy, ``z`` and ``z^2`` there instead of allocating
  them; the values are the same;
- ``backward(derived, cache, labels, class_weights, batch_size)``: the
  chunk's gradients with respect to what ``derive`` returned, the
  cross-entropy gradient scaled by the whole batch's size, so the chunks'
  gradients sum to the batch's;
- ``fold(params, grads)``: those sums onto the parameters. For the conv net
  that unfolds the effective-kernel gradient onto the two conv stages, one
  matrix product each.

``chunk`` is the most windows one forward call takes: ``CHUNK`` for the
conv net, whose ``z`` and ``z^2`` are its largest arrays, and None, the
whole batch, for the linear model, which has no scratch buffers.

The conv net convolves with no im2col (unrolled) copy. The chunk is
transposed once to time-major (B, S, C) and read as one run of B * S * C
floats, where the K * C inputs of frame f, numbered across the chunk's
windows, are floats [f * C, f * C + K * C), in (k, c) order; the effective
kernel is laid out (G, K, C) to match. The frames f = r (mod K) therefore
tile that run without overlap: for each residue r their inputs are one
contiguous (m_r, K * C) reshape, and K matrix products fill the rows
r, r + K, ... of the (B * S, G) output ``z``, whose row stride BLAS takes
as it is. The effective-kernel gradient is the sum over r of the same
products transposed. A window's last K - 1 frames straddle into the next
window (the chunk's last K - 1 run past its end, and are set to zero
before the bias). The (S, P) mean-pooling matrix has zero rows for every
frame l >= S - K + 1, so straddling frames reach no feature, and their
d(z^2), the product by the same matrix (times the 2 of d(z^2)/dz), is
zero: they add nothing to any gradient.

Training runs in float32. Passing float64 parameters and inputs switches
the whole computation to float64, which is what the finite-difference
gradient checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import non_integers
from ..session import N_CLASSES

LOG_FLOOR = 1e-6  # clamp below this before the log nonlinearity
#: Windows per ShallowConvNet forward and backward call, in training and in
#: prediction: the working set is one chunk's conv outputs whatever the batch.
CHUNK = 32


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, max-shifted so huge logits cannot overflow."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def weighted_ce_from_logprobs(
    logp: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
) -> float:
    """Mean over the batch of w[y] * (-logp[y]).

    The per-sample terms are accumulated in float64 in sorted order, so the
    value is exactly invariant to any permutation of the batch.
    """
    n = len(labels)
    per = -np.asarray(class_weights, dtype=np.float64)[labels] * np.asarray(
        logp[np.arange(n), labels], dtype=np.float64
    )
    return float(np.sort(per).sum() / n)


def _ce_dlogits(
    probs: np.ndarray, labels: np.ndarray, class_weights: np.ndarray, batch_size: int
) -> np.ndarray:
    """Gradient, with respect to the logits of the rows ``probs``, of the
    weighted-CE mean over a batch of ``batch_size`` windows."""
    d = probs.copy()
    d[np.arange(len(labels)), labels] -= 1.0
    w = np.asarray(class_weights, dtype=d.dtype)[labels] / batch_size
    return d * w[:, None]


def _init_params(shapes: dict[str, tuple[int, ...]], fans: dict[str, tuple[int, int]],
                 seed, dtype) -> dict[str, np.ndarray]:
    """Glorot-uniform draws for the tensors ``fans`` maps to (fan_in,
    fan_out), taken from one stream in ``shapes`` order; zeros for the rest."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in shapes.items():
        if name in fans:
            limit = np.sqrt(6.0 / sum(fans[name]))
            params[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


def _dropout_mask(shape, p: float, key: int, step: int, dtype) -> np.ndarray:
    """Keep-and-rescale mask, a pure function of (key, step)."""
    gen = np.random.default_rng(np.random.SeedSequence([key, step]))
    keep = gen.random(shape, dtype=np.float32) >= p
    return keep * np.asarray(1.0 / (1.0 - p), dtype=dtype)


class LinearSoftmax:
    """Flatten -> affine -> softmax. The distance-to-beat baseline."""

    name = "linear"
    spec = None
    chunk = None

    def __init__(self, n_channels: int, n_samples: int):
        self.n_channels = n_channels
        self.n_samples = n_samples
        self.n_features = n_channels * n_samples

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {"w": (N_CLASSES, self.n_features), "b": (N_CLASSES,)}

    def init_params(self, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
        fans = {"w": (self.n_features, N_CLASSES)}
        return _init_params(self.param_shapes(), fans, seed, dtype)

    def derive(self, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return params

    def dropout_mask(self, n: int, key: int, step: int, dtype) -> None:
        return None

    def scratch(self, dtype) -> None:
        return None

    def forward(
        self, derived: dict[str, np.ndarray], x: np.ndarray, mask: None = None,
        scratch: None = None,
    ) -> tuple[np.ndarray, dict]:
        flat = x.reshape(len(x), -1)
        logits = flat @ derived["w"].T + derived["b"]
        logp = log_softmax(logits)
        probs = np.exp(logp)
        return probs, {"flat": flat, "logp": logp, "probs": probs}

    def backward(
        self,
        derived: dict[str, np.ndarray],
        cache: dict,
        labels: np.ndarray,
        class_weights: np.ndarray,
        batch_size: int,
    ) -> dict[str, np.ndarray]:
        d = _ce_dlogits(cache["probs"], labels, class_weights, batch_size)
        return {"w": d.T @ cache["flat"], "b": d.sum(axis=0)}

    def fold(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return grads


@dataclass(frozen=True)
class ShallowConvNetSpec:
    """Architecture constants sized for 1 s windows at 125 Hz."""

    n_temporal_filters: int = 40
    temporal_kernel: int = 13
    n_spatial_filters: int = 40
    pool_len: int = 35
    pool_stride: int = 7
    dropout_p: float = 0.5

    def __post_init__(self):
        sizes = [self.n_temporal_filters, self.temporal_kernel,
                 self.n_spatial_filters, self.pool_len, self.pool_stride]
        if non_integers(sizes, 1):
            raise ValueError(f"architecture sizes must be integers >= 1, got {self}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")

    def conv_len(self, n_samples: int) -> int:
        out = n_samples - self.temporal_kernel + 1
        if out < self.pool_len:
            raise ValueError(
                f"window of {n_samples} samples leaves {out} frames after the "
                f"temporal convolution; pooling needs {self.pool_len}"
            )
        return out

    def n_frames(self, n_samples: int) -> int:
        return (self.conv_len(n_samples) - self.pool_len) // self.pool_stride + 1


class ShallowConvNet:
    """Temporal conv (valid) -> spatial conv across all channels -> square ->
    mean pool -> log -> dropout -> affine -> softmax."""

    name = "shallow"
    chunk = CHUNK

    def __init__(
        self,
        n_channels: int,
        n_samples: int,
        spec: ShallowConvNetSpec | None = None,
    ):
        self.spec = spec or ShallowConvNetSpec()
        self.n_channels = n_channels
        self.n_samples = n_samples
        self.conv_len = self.spec.conv_len(n_samples)
        self.n_frames = self.spec.n_frames(n_samples)
        self.n_features = self.spec.n_spatial_filters * self.n_frames

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        s, c = self.spec, self.n_channels
        f, k, g = s.n_temporal_filters, s.temporal_kernel, s.n_spatial_filters
        return {
            "w_temporal": (f, k),
            "b_temporal": (f,),
            "w_spatial": (g, f, c),
            "b_spatial": (g,),
            "w_dense": (N_CLASSES, self.n_features),
            "b_dense": (N_CLASSES,),
        }

    def init_params(self, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
        s, c = self.spec, self.n_channels
        f, k, g = s.n_temporal_filters, s.temporal_kernel, s.n_spatial_filters
        fans = {
            "w_temporal": (k, f * k),
            "w_spatial": (f * c, g * c),
            "w_dense": (self.n_features, N_CLASSES),
        }
        return _init_params(self.param_shapes(), fans, seed, dtype)

    def _residue_classes(self, xt: np.ndarray) -> list[tuple[slice, np.ndarray]]:
        """Per residue r < K, the frames f = r (mod K) of the time-major
        chunk ``xt`` (B, S, C) whose inputs lie inside it: their rows of
        the (B * S, G) conv output, and their inputs as a contiguous view
        (m_r, K * C) with A[j, k * C + c] = xt.flat[(r + j * K + k) * C + c],
        which is x[b, c, l + k] for frame r + j * K = b * S + l."""
        c, k = self.n_channels, self.spec.temporal_kernel
        flat = xt.reshape(-1)
        n = len(flat) // c - k + 1  # the frames whose K samples end in the chunk
        classes = []
        for r in range(k):
            rows = slice(r, n, k)
            m = len(range(r, n, k))
            classes.append((rows, flat[r * c : (r + m * k) * c].reshape(m, k * c)))
        return classes

    def _effective_kernel(self, params) -> tuple[np.ndarray, np.ndarray]:
        """Compose the two conv stages into one (G, K*C) kernel and a bias.

        z[b,g,l] = sum_{f,c,k} Ws[g,f,c] Wt[f,k] x[b,c,l+k] + Ws[g,f,c] bt[f] + bs[g]
        """
        s = self.spec
        wt, ws = params["w_temporal"], params["w_spatial"]
        w_eff = (wt.T @ ws).reshape(  # (K, F) @ (G, F, C) -> (G, K, C)
            s.n_spatial_filters, s.temporal_kernel * self.n_channels
        )
        b_eff = ws.sum(axis=2) @ params["b_temporal"] + params["b_spatial"]
        return w_eff, b_eff

    def derive(self, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The effective kernel and bias, the (S, P) mean-pooling matrix at
        the parameters' dtype, and the dense layer: what every forward
        call of one step reads."""
        s = self.spec
        w_eff, b_eff = self._effective_kernel(params)
        # column f holds 1 / pool_len on conv frames
        # [f * pool_stride, f * pool_stride + pool_len), all below conv_len:
        # the rows of the straddling frames l >= conv_len are zero
        rows = np.arange(self.n_samples)[:, None]
        starts = np.arange(self.n_frames) * s.pool_stride
        window = (rows >= starts) & (rows < starts + s.pool_len)
        pool = window * np.asarray(1.0 / s.pool_len, dtype=w_eff.dtype)
        return {"w_eff": w_eff, "b_eff": b_eff, "pool": pool,
                "w_dense": params["w_dense"], "b_dense": params["b_dense"]}

    def dropout_mask(self, n: int, key: int, step: int, dtype) -> np.ndarray | None:
        """The keep-and-rescale mask of a batch of ``n`` windows at
        ``step``, or None when the spec drops nothing."""
        s = self.spec
        if s.dropout_p == 0.0:
            return None
        return _dropout_mask((n, s.n_spatial_filters, self.n_frames), s.dropout_p,
                             key, step, dtype)

    def scratch(self, dtype) -> dict[str, np.ndarray]:
        """Buffers for one worker's forward and backward calls over up to
        ``CHUNK`` windows at ``dtype``, each indexed by window first: ``x``,
        where a caller may gather the chunk's (B, C, S) windows; ``xt``,
        their time-major copy, which the backward call reads again; ``z``,
        (B, S, G); and ``sq``, which holds z^2 in the forward and d(z^2) in
        the backward. The chunk is spent once copied, before ``z`` is
        written, so it takes the head of ``z`` when it fits."""
        c, n, g = self.n_channels, self.n_samples, self.spec.n_spatial_filters
        z = np.empty((CHUNK, n, g), dtype)
        x = (z.reshape(-1)[: CHUNK * c * n].reshape(CHUNK, c, n) if c <= g
             else np.empty((CHUNK, c, n), dtype))
        return {"x": x, "xt": np.empty((CHUNK, n, c), dtype), "z": z,
                "sq": np.empty_like(z)}

    def forward(
        self, derived: dict[str, np.ndarray], x: np.ndarray, mask: np.ndarray | None = None,
        scratch: dict[str, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, dict]:
        b, c, n = x.shape
        g, k = self.spec.n_spatial_filters, self.spec.temporal_kernel
        w_eff = derived["w_eff"]
        # a chunk of b <= CHUNK windows takes the first b windows of each buffer
        out = None if scratch is None else {name: v[:b] for name, v in scratch.items()}
        xt = np.empty((b, n, c), x.dtype) if out is None else out["xt"]
        np.copyto(xt, x.transpose(0, 2, 1))
        z = (np.empty((b * n, g), np.result_type(x, w_eff)) if out is None
             else out["z"].reshape(b * n, g))
        classes = self._residue_classes(xt)  # the backward call reads them again
        for rows, a in classes:
            np.matmul(a, w_eff.T, out=z[rows])
        z[b * n - k + 1 :] = 0.0  # frames past the chunk's end: no inputs
        z += derived["b_eff"]
        sq = np.multiply(z, z, out=None if out is None else out["sq"].reshape(b * n, g))
        pooled = (derived["pool"].T @ sq.reshape(b, n, g)).transpose(0, 2, 1)  # (B, G, P)
        np.maximum(pooled, LOG_FLOOR, out=pooled)  # the clamp the backward reads
        h = np.log(pooled, order="C")
        if mask is not None:
            h *= mask
        flat = h.reshape(b, self.n_features)
        logits = flat @ derived["w_dense"].T + derived["b_dense"]
        logp = log_softmax(logits)
        probs = np.exp(logp)
        return probs, {
            "classes": classes, "z": z, "sq": sq, "pooled": pooled, "mask": mask,
            "flat": flat, "logp": logp, "probs": probs,
        }

    def backward(
        self,
        derived: dict[str, np.ndarray],
        cache: dict,
        labels: np.ndarray,
        class_weights: np.ndarray,
        batch_size: int,
    ) -> dict[str, np.ndarray]:
        """Gradients with respect to ``w_eff``, ``b_eff`` and the dense
        layer; ``fold`` takes their sums over a batch's chunks onto the
        parameters."""
        z, pooled = cache["z"], cache["pooled"]
        b, g, p = pooled.shape
        dlogits = _ce_dlogits(cache["probs"], labels, class_weights, batch_size)
        grads: dict[str, np.ndarray] = {
            "w_dense": dlogits.T @ cache["flat"],
            "b_dense": dlogits.sum(axis=0),
        }
        dpooled = (dlogits @ derived["w_dense"]).reshape(b, g, p)
        if cache["mask"] is not None:
            dpooled *= cache["mask"]
        # log(max(u, floor)): zero slope on the clamped flat; ``pooled``
        # holds max(u, floor), above the floor exactly where u is
        dpooled *= pooled > LOG_FLOOR
        dpooled /= pooled
        pool2 = 2.0 * derived["pool"]  # d(z^2)/dz = 2z
        # z^2 is spent: d(z^2) goes over it
        dsq = np.matmul(pool2, dpooled.transpose(0, 2, 1),  # (B, S, G)
                        out=cache["sq"].reshape(b, -1, g))
        dz = dsq.reshape(z.shape)  # (B * S, G), zero on straddling frames
        dz *= z
        (rows, a), *rest = cache["classes"]
        grads["w_eff"] = dz[rows].T @ a  # (G, K * C), summed over the residues
        for rows, a in rest:
            grads["w_eff"] += dz[rows].T @ a
        grads["b_eff"] = np.ones(len(dz), dtype=dz.dtype) @ dz
        return grads

    def fold(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Unfold the effective-kernel gradient sums ``grads`` back onto
        the two conv stages; the dense gradients pass through."""
        s = self.spec
        f, k, c = s.n_temporal_filters, s.temporal_kernel, self.n_channels
        g = s.n_spatial_filters
        dw_eff = grads["w_eff"].reshape(g, k, c)
        db_eff = grads["b_eff"]
        wt, ws = params["w_temporal"], params["w_spatial"]
        bt = params["b_temporal"]
        return {
            "w_dense": grads["w_dense"],
            "b_dense": grads["b_dense"],
            "w_spatial": (  # (F, K) @ (G, K, C) -> (G, F, C)
                wt @ dw_eff + db_eff[:, None, None] * bt[None, :, None]
            ),
            "w_temporal": (  # (F, G*C) @ (G*C, K)
                ws.transpose(1, 0, 2).reshape(f, g * c)
                @ dw_eff.transpose(0, 2, 1).reshape(g * c, k)
            ),
            "b_spatial": db_eff,
            "b_temporal": ws.sum(axis=2).T @ db_eff,
        }


KNOWN_MODELS = (LinearSoftmax.name, ShallowConvNet.name)


def build_model(name: str, n_channels: int, n_samples: int,
                spec: ShallowConvNetSpec | None = None):
    """The model called ``name`` over windows of ``n_channels`` x
    ``n_samples``; ``spec`` sets a ShallowConvNet's architecture."""
    if non_integers([n_channels, n_samples], 1):
        raise ValueError(f"n_channels {n_channels!r} and n_samples {n_samples!r} "
                         "must be positive integers")
    if name == LinearSoftmax.name:
        return LinearSoftmax(n_channels, n_samples)
    if name == ShallowConvNet.name:
        return ShallowConvNet(n_channels, n_samples, spec)
    raise ValueError(f"unknown model {name!r} (expected 'linear' or 'shallow')")

