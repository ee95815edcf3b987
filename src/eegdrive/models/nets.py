"""From-scratch classifiers: a linear softmax baseline and a compact
convolutional net (temporal filters, a spatial filter bank across all
channels, square / mean-pool / log feature extraction, dropout, dense).

Everything here is plain numpy with hand-derived gradients. Convolutions
are laid out as matrix products: the temporal and spatial stages are both
linear, so their composition is evaluated as one effective kernel per
forward pass. Parameters stay separate tensors; the composition is exact.
Mean pooling is a matrix product too, by one fixed averaging matrix built
with the net; its backward pass is the product by the same matrix.

Training runs in float32. Passing float64 parameters and inputs switches
the whole computation to float64, which is what the finite-difference
gradient checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _dropout_mask(shape, p: float, key: int, step: int, dtype) -> np.ndarray:
    """Counter-based mask: same (key, step) always yields the same mask."""
    gen = np.random.Generator(np.random.Philox(key=key, counter=[step, 0, 0, 0]))
    keep = gen.random(shape) >= p
    return (keep / (1.0 - p)).astype(dtype)


class LinearSoftmax:
    """Flatten -> affine -> softmax. The distance-to-beat baseline."""

    name = "linear"

    def __init__(self, n_channels: int, n_samples: int, n_classes: int = N_CLASSES):
        self.n_channels = n_channels
        self.n_samples = n_samples
        self.n_classes = n_classes
        self.n_features = n_channels * n_samples

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {"w": (self.n_classes, self.n_features), "b": (self.n_classes,)}

    def init_params(self, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            "w": _glorot(rng, (self.n_classes, self.n_features),
                         self.n_features, self.n_classes, dtype),
            "b": np.zeros(self.n_classes, dtype=dtype),
        }

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
    n_classes: int = N_CLASSES

    def __post_init__(self):
        if min(self.n_temporal_filters, self.temporal_kernel,
               self.n_spatial_filters, self.pool_len, self.pool_stride) < 1:
            raise ValueError("all architecture constants must be >= 1")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")

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
        self.n_classes = self.spec.n_classes
        self.conv_len = self.spec.conv_len(n_samples)
        self.n_frames = self.spec.n_frames(n_samples)
        self.n_features = self.spec.n_spatial_filters * self.n_frames
        # (conv_len, n_frames) mean pool: column f holds 1 / pool_len on
        # conv frames [f * pool_stride, f * pool_stride + pool_len)
        s = self.spec
        rows = np.arange(self.conv_len)[:, None]
        starts = np.arange(self.n_frames) * s.pool_stride
        self.pool = ((rows >= starts) & (rows < starts + s.pool_len)) / s.pool_len

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        s = self.spec
        return {
            "w_temporal": (s.n_temporal_filters, s.temporal_kernel),
            "b_temporal": (s.n_temporal_filters,),
            "w_spatial": (s.n_spatial_filters, s.n_temporal_filters, self.n_channels),
            "b_spatial": (s.n_spatial_filters,),
            "w_dense": (self.n_classes, self.n_features),
            "b_dense": (self.n_classes,),
        }

    def init_params(self, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
        s = self.spec
        rng = np.random.default_rng(seed)
        k, c = s.temporal_kernel, self.n_channels
        f, g = s.n_temporal_filters, s.n_spatial_filters
        return {
            "w_temporal": _glorot(rng, (f, k), k, f * k, dtype),
            "b_temporal": np.zeros(f, dtype=dtype),
            "w_spatial": _glorot(rng, (g, f, c), f * c, g * c, dtype),
            "b_spatial": np.zeros(g, dtype=dtype),
            "w_dense": _glorot(rng, (self.n_classes, self.n_features),
                               self.n_features, self.n_classes, dtype),
            "b_dense": np.zeros(self.n_classes, dtype=dtype),
        }

    def _windowed(self, x: np.ndarray) -> np.ndarray:
        """(B, C, S) -> contiguous (B * conv_len, C * kernel)."""
        b = len(x)
        k = self.spec.temporal_kernel
        xw = sliding_window_view(x, k, axis=2)  # (B, C, L, K)
        xw = np.ascontiguousarray(xw.transpose(0, 2, 1, 3))  # (B, L, C, K)
        return xw.reshape(b * self.conv_len, self.n_channels * k)

    def _effective_kernel(self, params) -> tuple[np.ndarray, np.ndarray]:
        """Compose the two conv stages into one (G, C*K) kernel and a bias.

        z[b,g,l] = sum_{f,c,k} Ws[g,f,c] Wt[f,k] x[b,c,l+k] + Ws[g,f,c] bt[f] + bs[g]
        """
        s = self.spec
        wt, ws = params["w_temporal"], params["w_spatial"]
        w_eff = np.einsum("gfc,fk->gck", ws, wt).reshape(
            s.n_spatial_filters, self.n_channels * s.temporal_kernel
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
        z = xw @ w_eff.T + b_eff  # (B * L, G)
        pool = self.pool.astype(x.dtype, copy=False)
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
            "xw": xw, "z": z, "pooled": pooled, "mask": mask,
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
        pool = self.pool.astype(z.dtype, copy=False)
        dsq = pool @ dpooled.transpose(0, 2, 1)  # (B, L, G)
        dz = 2.0 * z * dsq.reshape(z.shape)  # (B * L, G)
        dw_eff = dz.T @ cache["xw"]  # (G, C*K)
        db_eff = dz.sum(axis=0)
        dw_eff = dw_eff.reshape(g, self.n_channels, s.temporal_kernel)
        wt, ws = params["w_temporal"], params["w_spatial"]
        bt = params["b_temporal"]
        # Unfold the effective-kernel gradient back onto the two stages.
        grads["w_spatial"] = (
            np.einsum("gck,fk->gfc", dw_eff, wt)
            + db_eff[:, None, None] * bt[None, :, None]
        )
        grads["w_temporal"] = np.einsum("gck,gfc->fk", dw_eff, ws)
        grads["b_spatial"] = db_eff
        grads["b_temporal"] = ws.sum(axis=2).T @ db_eff
        return grads


def build_model(name: str, n_channels: int, n_samples: int,
                spec: ShallowConvNetSpec | None = None,
                n_classes: int = N_CLASSES):
    if name == "linear":
        return LinearSoftmax(n_channels, n_samples, n_classes)
    if name == "shallow":
        if spec is None:
            spec = ShallowConvNetSpec(n_classes=n_classes)
        return ShallowConvNet(n_channels, n_samples, spec)
    raise ValueError(f"unknown model {name!r} (expected 'linear' or 'shallow')")

