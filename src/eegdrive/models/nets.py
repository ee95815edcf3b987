"""From-scratch classifiers: a linear softmax baseline and a compact
convolutional net (temporal filters, a spatial filter bank across all
channels, square / mean-pool / log feature extraction, dropout, dense).

Everything here is plain numpy with hand-derived gradients. Convolutions
are laid out as matrix products: the temporal and spatial stages are both
linear, so their composition is evaluated as one effective kernel per
forward pass. Parameters stay separate tensors; the composition is exact.

The im2col is built from the batch transposed once to time-major
(B, S, C): the K-sample window of conv frame l is then K * C consecutive
floats, copied in one pass, so its columns run in (k, c) order and the
effective kernel is laid out (G, K, C) to match. Folding the two stages
into that kernel, and unfolding its gradient back onto them, are each one
matrix product. Mean pooling is a matrix product too, by an averaging
matrix each forward pass builds at the batch's dtype, so building a net
allocates nothing sized by the window; the backward pass is the product by
the cached matrix (times the 2 of d(z^2)/dz).

Training runs in float32. Passing float64 parameters and inputs switches
the whole computation to float64, which is what the finite-difference
gradient checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..ingest import non_integers
from ..session import N_CLASSES

LOG_FLOOR = 1e-6  # clamp below this before the log nonlinearity


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
    probs: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
) -> np.ndarray:
    """Gradient of the weighted-CE mean with respect to the logits."""
    n = len(labels)
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    w = np.asarray(class_weights, dtype=d.dtype)[labels] / n
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

    def __init__(self, n_channels: int, n_samples: int):
        self.n_channels = n_channels
        self.n_samples = n_samples
        self.n_features = n_channels * n_samples

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {"w": (N_CLASSES, self.n_features), "b": (N_CLASSES,)}

    def init_params(self, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
        fans = {"w": (self.n_features, N_CLASSES)}
        return _init_params(self.param_shapes(), fans, seed, dtype)

    def forward(
        self,
        params: dict[str, np.ndarray],
        x: np.ndarray,
        train_mode: bool = False,
        dropout_key: int = 0,
        step: int = 0,
    ) -> tuple[np.ndarray, dict]:
        flat = x.reshape(len(x), -1)
        logits = flat @ params["w"].T + params["b"]
        logp = log_softmax(logits)
        probs = np.exp(logp)
        return probs, {"flat": flat, "logp": logp, "probs": probs}

    def backward(
        self,
        params: dict[str, np.ndarray],
        cache: dict,
        labels: np.ndarray,
        class_weights: np.ndarray,
    ) -> dict[str, np.ndarray]:
        d = _ce_dlogits(cache["probs"], labels, class_weights)
        return {"w": d.T @ cache["flat"], "b": d.sum(axis=0)}


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

    def _windowed(self, x: np.ndarray) -> np.ndarray:
        """(B, C, S) -> contiguous (B * conv_len, K * C), columns in (k, c)
        order: xw[b * L + l, k * C + c] = x[b, c, l + k]."""
        b, c, n = x.shape
        kc = self.spec.temporal_kernel * c
        xt = np.ascontiguousarray(x.transpose(0, 2, 1)).reshape(b, n * c)
        # the window of frame l starts at float l * C of its time-major row
        xw = sliding_window_view(xt, kc, axis=1)[:, ::c]  # (B, L, K * C)
        return np.ascontiguousarray(xw).reshape(b * self.conv_len, kc)

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

    def forward(
        self,
        params: dict[str, np.ndarray],
        x: np.ndarray,
        train_mode: bool = False,
        dropout_key: int = 0,
        step: int = 0,
    ) -> tuple[np.ndarray, dict]:
        s = self.spec
        b = len(x)
        g, l, p = s.n_spatial_filters, self.conv_len, self.n_frames
        xw = self._windowed(x)
        w_eff, b_eff = self._effective_kernel(params)
        z = xw @ w_eff.T  # (B * L, G)
        z += b_eff
        # (L, P) mean pool: column f holds 1 / pool_len on conv frames
        # [f * pool_stride, f * pool_stride + pool_len)
        rows = np.arange(l)[:, None]
        starts = np.arange(p) * s.pool_stride
        window = (rows >= starts) & (rows < starts + s.pool_len)
        pool = window * np.asarray(1.0 / s.pool_len, dtype=x.dtype)
        pooled = (pool.T @ (z * z).reshape(b, l, g)).transpose(0, 2, 1)  # (B, G, P)
        logf = np.log(np.maximum(pooled, LOG_FLOOR))
        if train_mode and s.dropout_p > 0.0:
            mask = _dropout_mask((b, g, p), s.dropout_p, dropout_key, step, x.dtype)
            h = logf * mask
        else:
            mask = None
            h = logf
        flat = h.reshape(b, self.n_features)
        logits = flat @ params["w_dense"].T + params["b_dense"]
        logp = log_softmax(logits)
        probs = np.exp(logp)
        return probs, {
            "xw": xw, "z": z, "pool": pool, "pooled": pooled, "mask": mask,
            "flat": flat, "logp": logp, "probs": probs,
        }

    def backward(
        self,
        params: dict[str, np.ndarray],
        cache: dict,
        labels: np.ndarray,
        class_weights: np.ndarray,
    ) -> dict[str, np.ndarray]:
        s = self.spec
        z, pooled = cache["z"], cache["pooled"]
        b, g, p = pooled.shape
        dlogits = _ce_dlogits(cache["probs"], labels, class_weights)
        grads: dict[str, np.ndarray] = {
            "w_dense": dlogits.T @ cache["flat"],
            "b_dense": dlogits.sum(axis=0),
        }
        dh = (dlogits @ params["w_dense"]).reshape(b, g, p)
        if cache["mask"] is not None:
            dh = dh * cache["mask"]
        # log(max(u, floor)): zero slope on the clamped flat
        dpooled = dh * (pooled > LOG_FLOOR) / np.maximum(pooled, LOG_FLOOR)
        pool2 = 2.0 * cache["pool"]  # d(z^2)/dz = 2z
        dsq = pool2 @ dpooled.transpose(0, 2, 1)  # (B, L, G)
        dz = dsq.reshape(z.shape)  # (B * L, G)
        dz *= z
        f, k, c = s.n_temporal_filters, s.temporal_kernel, self.n_channels
        dw_eff = (dz.T @ cache["xw"]).reshape(g, k, c)
        db_eff = np.ones(len(dz), dtype=dz.dtype) @ dz
        wt, ws = params["w_temporal"], params["w_spatial"]
        bt = params["b_temporal"]
        # Unfold the effective-kernel gradient back onto the two stages.
        grads["w_spatial"] = (  # (F, K) @ (G, K, C) -> (G, F, C)
            wt @ dw_eff + db_eff[:, None, None] * bt[None, :, None]
        )
        grads["w_temporal"] = (  # (F, G*C) @ (G*C, K)
            ws.transpose(1, 0, 2).reshape(f, g * c)
            @ dw_eff.transpose(0, 2, 1).reshape(g * c, k)
        )
        grads["b_spatial"] = db_eff
        grads["b_temporal"] = ws.sum(axis=2).T @ db_eff
        return grads


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

