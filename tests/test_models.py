"""Model and trainer tests.

The forward passes are checked against straight-line scalar loops that
follow the layer definitions one multiply at a time, and the analytic
gradients against central finite differences in float64.
"""

import math
import textwrap

import numpy as np
import pytest

from eegdrive.errors import DataError, TrainingDiverged
from eegdrive.models import (
    LinearSoftmax,
    ShallowConvNet,
    ShallowConvNetSpec,
    TrainConfig,
    build_model,
    compute_class_weights,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_model,
)
from eegdrive.models.nets import LOG_FLOOR, weighted_ce_from_logprobs
from eegdrive.models.trainer import Adam, _fanout_seed
from eegdrive.tensorfile import read_checkpoint, write_checkpoint
from gradcheck import gradient_check
from tracemem import peak_traced
from widecheckpoint import WIDE_SIZE, run_capped, write_wide_checkpoint

# small enough for scalar loops, large enough to exercise every stage
SMALL_SPEC = ShallowConvNetSpec(
    n_temporal_filters=4,
    temporal_kernel=5,
    n_spatial_filters=3,
    pool_len=10,
    pool_stride=4,
    dropout_p=0.0,
)

# (n_samples, spec) for the pooling geometries the oracle and gradient tests
# cover: windows ending on the last conv frame (26 frames, 5 windows of 10 at
# stride 4), an uncovered last frame (27 frames), and gap frames between
# windows (stride 6 > pool_len 4)
POOL_GEOMETRIES = [
    pytest.param(30, SMALL_SPEC, id="exact"),
    pytest.param(31, SMALL_SPEC, id="uncovered-tail"),
    pytest.param(
        30,
        ShallowConvNetSpec(
            n_temporal_filters=4, temporal_kernel=5, n_spatial_filters=3,
            pool_len=4, pool_stride=6, dropout_p=0.0,
        ),
        id="stride-gaps",
    ),
]


def oracle_linear_probs(params, x):
    n, C, S = x.shape
    k = params["w"].shape[0]
    out = np.zeros((n, k))
    for i in range(n):
        flat = [float(x[i, c, s]) for c in range(C) for s in range(S)]
        logits = []
        for j in range(k):
            acc = float(params["b"][j])
            for f, v in enumerate(flat):
                acc += float(params["w"][j, f]) * v
            logits.append(acc)
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        tot = sum(exps)
        out[i] = [e / tot for e in exps]
    return out


def oracle_shallow_probs(params, x, spec):
    n, C, S = x.shape
    F, K = params["w_temporal"].shape
    G = params["w_spatial"].shape[0]
    L = S - K + 1
    P = (L - spec.pool_len) // spec.pool_stride + 1
    n_classes = params["w_dense"].shape[0]
    out = np.zeros((n, n_classes))
    for i in range(n):
        # temporal convolution, valid mode, one bias per temporal filter
        temp = np.zeros((C, F, L))
        for c in range(C):
            for f in range(F):
                for l in range(L):
                    acc = float(params["b_temporal"][f])
                    for k in range(K):
                        acc += float(params["w_temporal"][f, k]) * float(x[i, c, l + k])
                    temp[c, f, l] = acc
        # spatial filters mix every (temporal filter, channel) pair
        feats = []
        for g in range(G):
            z = []
            for l in range(L):
                acc = float(params["b_spatial"][g])
                for f in range(F):
                    for c in range(C):
                        acc += float(params["w_spatial"][g, f, c]) * temp[c, f, l]
                z.append(acc)
            for p in range(P):
                lo = p * spec.pool_stride
                m = sum(v * v for v in z[lo : lo + spec.pool_len]) / spec.pool_len
                feats.append(math.log(max(m, LOG_FLOOR)))
        logits = []
        for j in range(n_classes):
            acc = float(params["b_dense"][j])
            for q, v in enumerate(feats):
                acc += float(params["w_dense"][j, q]) * v
            logits.append(acc)
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        tot = sum(exps)
        out[i] = [e / tot for e in exps]
    return out


class TestForwardOracles:
    def test_linear_matches_scalar_loops(self):
        model = LinearSoftmax(n_channels=3, n_samples=20)
        params = model.init_params(seed=5, dtype=np.float64)
        x = np.random.default_rng(6).standard_normal((4, 3, 20))
        probs, _ = model.forward(params, x)
        assert np.allclose(probs, oracle_linear_probs(params, x), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n_samples, spec", POOL_GEOMETRIES)
    def test_shallow_matches_scalar_loops(self, n_samples, spec):
        model = ShallowConvNet(n_channels=3, n_samples=n_samples, spec=spec)
        params = model.init_params(seed=7, dtype=np.float64)
        x = np.random.default_rng(8).standard_normal((3, 3, n_samples))
        probs, _ = model.forward(params, x)
        want = oracle_shallow_probs(params, x, spec)
        assert np.allclose(probs, want, atol=1e-9, rtol=0)

    def test_im2col_layout_is_time_major(self):
        # K = 5 and C = 3 differ, so a (c, k) column order cannot pass
        b, c, n = 2, 3, 30
        model = ShallowConvNet(n_channels=c, n_samples=n, spec=SMALL_SPEC)
        k, l = SMALL_SPEC.temporal_kernel, model.conv_len
        x = np.random.default_rng(9).standard_normal((b, c, n))
        xw = model._windowed(x)
        assert xw.shape == (b * l, k * c) and xw.flags.c_contiguous
        for bi in range(b):
            for li in range(l):
                for ki in range(k):
                    for ci in range(c):
                        assert xw[bi * l + li, ki * c + ci] == x[bi, ci, li + ki]

    def test_effective_kernel_composes_both_stages(self):
        model = ShallowConvNet(n_channels=3, n_samples=30, spec=SMALL_SPEC)
        params = model.init_params(seed=10, dtype=np.float64)
        params["b_temporal"] = np.random.default_rng(11).standard_normal(4)
        ws, wt = params["w_spatial"], params["w_temporal"]
        w_eff, b_eff = model._effective_kernel(params)
        want = np.einsum("gfc,fk->gkc", ws, wt).reshape(3, 5 * 3)
        assert np.allclose(w_eff, want, atol=1e-12, rtol=0)
        want_b = np.einsum("gfc,f->g", ws, params["b_temporal"]) + params["b_spatial"]
        assert np.allclose(b_eff, want_b, atol=1e-12, rtol=0)

    def test_shallow_feature_geometry(self):
        model = ShallowConvNet(n_channels=3, n_samples=30, spec=SMALL_SPEC)
        assert model.conv_len == 26
        assert model.n_frames == 5
        assert model.n_features == 15

    def test_probabilities_sum_to_one(self):
        model = ShallowConvNet(n_channels=3, n_samples=30, spec=SMALL_SPEC)
        params = model.init_params(seed=1)
        x = np.random.default_rng(2).standard_normal((6, 3, 30)).astype(np.float32)
        probs, _ = model.forward(params, x)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestLoss:
    def test_uniform_predictor_scores_ln5(self):
        probs = np.full((10, 5), 0.2)
        labels = np.arange(10) % 5
        loss = weighted_ce_from_logprobs(np.log(probs), labels, np.ones(5))
        assert math.isclose(loss, math.log(5), rel_tol=1e-12)

    def test_class_weights_scale_linearly(self):
        probs = np.full((10, 5), 0.2)
        labels = np.arange(10) % 5
        loss = weighted_ce_from_logprobs(np.log(probs), labels, np.full(5, 2.0))
        assert math.isclose(loss, 2 * math.log(5), rel_tol=1e-12)

    def test_confident_correct_predictor_scores_near_zero(self):
        labels = np.arange(8) % 5
        probs = np.full((8, 5), 1e-9)
        probs[np.arange(8), labels] = 1.0 - 4e-9
        loss = weighted_ce_from_logprobs(np.log(probs), labels, np.ones(5))
        assert 0 <= loss < 1e-8

    def test_batch_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((64, 5))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        labels = rng.integers(0, 5, size=64)
        w = rng.uniform(0.5, 2.0, size=5)
        base = weighted_ce_from_logprobs(logp, labels, w)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(64)
            assert weighted_ce_from_logprobs(logp[perm], labels[perm], w) == base


class TestGradients:
    def test_linear_every_tensor(self):
        model = LinearSoftmax(n_channels=3, n_samples=20)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 3, 20))
        labels = rng.integers(0, 5, size=4)
        errs = gradient_check(model, x, labels, np.ones(5), seed=0)
        assert set(errs) == {"w", "b"}
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"

    @pytest.mark.parametrize("n_samples, spec", POOL_GEOMETRIES)
    def test_shallow_every_tensor(self, n_samples, spec):
        model = ShallowConvNet(n_channels=3, n_samples=n_samples, spec=spec)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 3, n_samples))
        labels = rng.integers(0, 5, size=4)
        errs = gradient_check(model, x, labels, np.full(5, 1.3), seed=1)
        assert set(errs) == {
            "w_temporal", "b_temporal", "w_spatial", "b_spatial",
            "w_dense", "b_dense",
        }
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_shallow_gradients_with_dropout_active(self):
        spec = ShallowConvNetSpec(
            n_temporal_filters=4, temporal_kernel=5, n_spatial_filters=3,
            pool_len=10, pool_stride=4, dropout_p=0.5,
        )
        model = ShallowConvNet(n_channels=3, n_samples=30, spec=spec)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3, 30))
        labels = rng.integers(0, 5, size=4)
        errs = gradient_check(model, x, labels, np.ones(5), seed=2, train_mode=True)
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_dense_bias_gradient_closed_form(self):
        model = LinearSoftmax(n_channels=2, n_samples=5)
        params = model.init_params(seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2, 5))
        labels = rng.integers(0, 5, size=6)
        w = rng.uniform(0.5, 2.0, size=5)
        probs, cache = model.forward(params, x)
        grads = model.backward(params, cache, labels, w)
        want = np.zeros(5)
        for i in range(6):
            for k in range(5):
                want[k] += w[labels[i]] * (probs[i, k] - (k == labels[i])) / 6
        assert np.allclose(grads["b"], want, atol=1e-12, rtol=0)

    def test_zero_loss_means_zero_gradients(self):
        model = LinearSoftmax(n_channels=1, n_samples=5)
        params = {"w": np.zeros((5, 5)), "b": np.zeros(5)}
        for k in range(5):
            params["w"][k, k] = 2000.0  # huge margin: probs saturate at 1
        x = np.eye(5).reshape(5, 1, 5)
        labels = np.arange(5)
        probs, cache = model.forward(params, x)
        loss = weighted_ce_from_logprobs(cache["logp"], labels, np.ones(5))
        assert loss <= 1e-8
        grads = model.backward(params, cache, labels, np.ones(5))
        for name, g in grads.items():
            assert np.linalg.norm(g) <= 1e-8, name


def _toy_dataset(n=100, seed=0):
    """Five linearly separable classes: a distinct constant channel pattern."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=n)
    protos = rng.standard_normal((5, 2, 10)) * 2.0
    data = protos[labels] + 0.05 * rng.standard_normal((n, 2, 10))
    return data.astype(np.float32), labels


class TestTrainModel:
    def test_learns_separable_toy_problem(self):
        data, labels = _toy_dataset()
        model = LinearSoftmax(n_channels=2, n_samples=10)
        cfg = TrainConfig(epochs=60, batch_size=32, learning_rate=0.01)
        res = train_model(model, data, labels, np.ones(5), cfg, 0)
        acc = float((predict(model, res.params, data) == labels).mean())
        assert acc >= 0.99
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_same_seed_reproduces_bitwise(self):
        data, labels = _toy_dataset(seed=1)
        model = LinearSoftmax(n_channels=2, n_samples=10)
        cfg = TrainConfig(epochs=5, batch_size=32)
        a = train_model(model, data, labels, np.ones(5), cfg, 9)
        b = train_model(model, data, labels, np.ones(5), cfg, 9)
        assert a.epoch_losses == b.epoch_losses
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_same_seed_reproduces_bitwise_shallow_with_dropout(self):
        # 71 windows at batch 32: the last batch of every epoch is ragged
        spec = ShallowConvNetSpec(
            n_temporal_filters=4, temporal_kernel=5, n_spatial_filters=3,
            pool_len=10, pool_stride=4, dropout_p=0.5,
        )
        rng = np.random.default_rng(12)
        data = rng.standard_normal((71, 3, 30)).astype(np.float32)
        labels = rng.integers(0, 5, size=71)
        model = ShallowConvNet(3, 30, spec)
        cfg = TrainConfig(epochs=3, batch_size=32)
        a = train_model(model, data, labels, np.ones(5), cfg, 9)
        b = train_model(model, data, labels, np.ones(5), cfg, 9)
        assert a.epoch_losses == b.epoch_losses
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        data, labels = _toy_dataset(seed=1)
        model = LinearSoftmax(n_channels=2, n_samples=10)
        a = train_model(model, data, labels, np.ones(5), TrainConfig(epochs=2), 0)
        b = train_model(model, data, labels, np.ones(5), TrainConfig(epochs=2), 1)
        assert not np.array_equal(a.params["w"], b.params["w"])

    def test_zero_learning_rate_keeps_initialization(self):
        data, labels = _toy_dataset(seed=2)
        model = LinearSoftmax(n_channels=2, n_samples=10)
        short = train_model(model, data, labels, np.ones(5),
                            TrainConfig(epochs=1, learning_rate=0.0), 4)
        long = train_model(model, data, labels, np.ones(5),
                           TrainConfig(epochs=6, learning_rate=0.0), 4)
        for k in short.params:
            assert np.array_equal(short.params[k], long.params[k])

    def test_epoch_losses_length(self):
        data, labels = _toy_dataset(seed=3)
        model = LinearSoftmax(n_channels=2, n_samples=10)
        res = train_model(model, data, labels, np.ones(5), TrainConfig(epochs=7), 0)
        assert len(res.epoch_losses) == 7

    def test_shallow_trains_end_to_end(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 5, size=40)
        t = np.arange(30) / 125.0
        freqs = np.array([30.0, 15.0, 10.0, 20.0, 5.0])
        data = np.sin(2 * np.pi * freqs[labels][:, None] * t)[:, None, :]
        data = np.repeat(data, 3, axis=1) + 0.01 * rng.standard_normal((40, 3, 30))
        model = ShallowConvNet(3, 30, SMALL_SPEC)
        cfg = TrainConfig(epochs=30, batch_size=16)
        res = train_model(model, data.astype(np.float32), labels, np.ones(5), cfg, 0)
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self):
        rng = np.random.default_rng(6)
        data = (rng.standard_normal((8, 2, 10)) * 1e30).astype(np.float32)
        labels = rng.integers(0, 5, size=8)
        model = LinearSoftmax(n_channels=2, n_samples=10)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=1e30)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train_model(model, data, labels, np.ones(5), cfg, 0)

    def test_empty_data_rejected(self):
        model = LinearSoftmax(2, 10)
        with pytest.raises(DataError):
            train_model(model, np.zeros((0, 2, 10)), np.zeros(0, dtype=int),
                        np.ones(5), TrainConfig(epochs=1), 0)

    def test_length_mismatch_rejected(self):
        model = LinearSoftmax(2, 10)
        with pytest.raises(DataError):
            train_model(model, np.zeros((3, 2, 10)), np.zeros(2, dtype=int),
                        np.ones(5), TrainConfig(epochs=1), 0)


class TestPredict:
    def test_tie_breaks_to_lowest_code(self):
        model = LinearSoftmax(n_channels=1, n_samples=4)
        params = {"w": np.zeros((5, 4), np.float32), "b": np.zeros(5, np.float32)}
        x = np.random.default_rng(0).standard_normal((7, 1, 4))
        assert np.array_equal(predict(model, params, x), np.zeros(7, dtype=np.int64))

    def test_batched_predict_matches_one_forward(self):
        model = LinearSoftmax(n_channels=2, n_samples=6)
        params = model.init_params(seed=0)
        x = np.random.default_rng(1).standard_normal((700, 2, 6)).astype(np.float32)
        want, _ = model.forward(params, x)
        got = predict(model, params, x, batch_size=256)
        assert np.array_equal(got, want.argmax(axis=1))


    def test_batched_shallow_predict_matches_one_forward(self):
        model = ShallowConvNet(3, 30, SMALL_SPEC)
        params = model.init_params(seed=0)
        x = np.random.default_rng(13).standard_normal((71, 3, 30)).astype(np.float32)
        want, _ = model.forward(params, x)
        got = predict(model, params, x, batch_size=32)
        assert np.array_equal(got, want.argmax(axis=1))


def _reference_params(model, data, labels, class_weights, cfg, seed):
    """The training loop's arithmetic, statement for statement: however long
    ``train_model`` keeps a step's arrays, it must reproduce these bit for bit."""
    init_ss, shuffle_rng, dropout_key = _fanout_seed(seed)
    params = model.init_params(init_ss, dtype=np.float32)
    opt = Adam(params, cfg)
    weights32 = np.asarray(class_weights, dtype=np.float32)
    step = 0
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(len(data))
        for lo in range(0, len(data), cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            probs, cache = model.forward(
                params, data[idx], train_mode=True, dropout_key=dropout_key, step=step
            )
            grads = model.backward(params, cache, labels[idx], weights32)
            opt.step(params, grads)
            step += 1
    return params


class TestWorkingSet:
    """A run over several batches peaks within 1.25x of one batch alone, so
    one batch's arrays are alive at a time. A previous batch's cache kept
    through the next forward would read about 1.7x (training) and 1.9x
    (predict)."""

    N_CHANNELS, N_SAMPLES, BATCH = 16, 125, 128  # the rig's 1 s windows

    def _data(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(
            (3 * self.BATCH, self.N_CHANNELS, self.N_SAMPLES)).astype(np.float32)
        return data, rng.integers(0, 5, size=len(data))

    def test_training_holds_one_step(self):
        data, labels = self._data(21)
        model = ShallowConvNet(self.N_CHANNELS, self.N_SAMPLES)
        weights = np.linspace(0.5, 1.5, 5)
        cfg = TrainConfig(epochs=1, batch_size=self.BATCH)
        params = model.init_params(0)
        xb, yb = data[: self.BATCH], labels[: self.BATCH]

        def one_step():
            _, cache = model.forward(params, xb, train_mode=True, dropout_key=1)
            model.backward(params, cache, yb, weights.astype(np.float32))

        res = []
        step_peak = peak_traced(one_step)
        train_peak = peak_traced(
            lambda: res.append(train_model(model, data, labels, weights, cfg, 3)))
        assert train_peak <= 1.25 * step_peak, (train_peak, step_peak)
        want = _reference_params(model, data, labels, weights, cfg, 3)
        for k in want:
            assert np.array_equal(res[0].params[k], want[k]), k

    def test_predict_holds_one_batch(self):
        data, _ = self._data(22)
        model = ShallowConvNet(self.N_CHANNELS, self.N_SAMPLES)
        params = model.init_params(0)
        batch_peak = peak_traced(lambda: model.forward(params, data[: self.BATCH]))
        run_peak = peak_traced(
            lambda: predict(model, params, data, batch_size=self.BATCH))
        assert run_peak <= 1.25 * batch_peak, (run_peak, batch_peak)


class TestDropout:
    def test_mask_is_deterministic_per_step(self):
        spec = ShallowConvNetSpec(
            n_temporal_filters=4, temporal_kernel=5, n_spatial_filters=3,
            pool_len=10, pool_stride=4, dropout_p=0.5,
        )
        model = ShallowConvNet(3, 30, spec)
        params = model.init_params(seed=0)
        x = np.random.default_rng(2).standard_normal((4, 3, 30)).astype(np.float32)
        a, _ = model.forward(params, x, train_mode=True, dropout_key=7, step=3)
        b, _ = model.forward(params, x, train_mode=True, dropout_key=7, step=3)
        assert np.array_equal(a, b)
        c, _ = model.forward(params, x, train_mode=True, dropout_key=7, step=4)
        assert not np.array_equal(a, c)

    def test_eval_mode_ignores_dropout(self):
        spec = ShallowConvNetSpec(
            n_temporal_filters=4, temporal_kernel=5, n_spatial_filters=3,
            pool_len=10, pool_stride=4, dropout_p=0.5,
        )
        model = ShallowConvNet(3, 30, spec)
        params = model.init_params(seed=0)
        x = np.random.default_rng(3).standard_normal((2, 3, 30)).astype(np.float32)
        a, _ = model.forward(params, x, train_mode=False, dropout_key=1, step=1)
        b, _ = model.forward(params, x, train_mode=False, dropout_key=2, step=9)
        assert np.array_equal(a, b)


class TestClassWeights:
    def test_inverse_frequency_normalized_over_present(self):
        w = compute_class_weights(np.array([10, 10, 20, 0, 40]))
        inv = np.array([0.1, 0.1, 0.05, 0.0, 0.025])
        want = inv * (4 / inv.sum())
        assert np.allclose(w, want, atol=1e-12)
        assert w[3] == 0.0
        assert math.isclose(w[w > 0].mean(), 1.0, rel_tol=1e-12)

    def test_balanced_counts_give_unit_weights(self):
        assert np.allclose(compute_class_weights(np.full(5, 7)), np.ones(5))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            compute_class_weights(np.array([1, -1, 0, 0, 0]))
        with pytest.raises(ValueError):
            compute_class_weights(np.zeros(5))


class TestCheckpoint:
    def test_round_trip_linear(self, tmp_path):
        model = LinearSoftmax(2, 10)
        params = model.init_params(seed=0)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, params, extra={"delta_ms": 300})
        back_model, back_params, header = load_checkpoint(path)
        assert isinstance(back_model, LinearSoftmax)
        assert (back_model.n_channels, back_model.n_samples) == (2, 10)
        assert header["extra"] == {"delta_ms": 300}
        for k in params:
            assert np.array_equal(back_params[k], params[k])
            assert back_params[k].dtype == params[k].dtype

    def test_round_trip_shallow_restores_spec(self, tmp_path):
        model = ShallowConvNet(3, 30, SMALL_SPEC)
        params = model.init_params(seed=1)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, params)
        back_model, back_params, _ = load_checkpoint(path)
        assert isinstance(back_model, ShallowConvNet)
        assert back_model.spec == SMALL_SPEC
        x = np.random.default_rng(0).standard_normal((2, 3, 30)).astype(np.float32)
        a, _ = model.forward(params, x)
        b, _ = back_model.forward(back_params, x)
        assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(DataError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_truncated_tensor(self, tmp_path):
        model = LinearSoftmax(2, 10)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, model.init_params(seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[:-12])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "none.bin"
        with pytest.raises(DataError, match=f"{path}: no checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda blob: blob[:10],  # length prefix cut short
            lambda blob: blob[:12] + b"\xff\xfe" + blob[14:],  # header not UTF-8
            lambda blob: blob.replace(b"{", b"#", 1),  # header not JSON
            lambda blob: blob.replace(b'"tensors"', b'"tensorz"', 1),  # key missing
            lambda blob: blob.replace(b'"float32"', b'"object" ', 1),  # no buffer dtype
            lambda blob: blob.replace(b'"name": "b"', b'"name": [1]', 1),  # unhashable name
            lambda blob: blob.replace(b'"shape": [5]', b'"shape": [0]', 1),  # empty dim
            lambda blob: blob[:8] + b"\xff\xff\xff\x7f" + blob[12:],  # header past the end
        ],
        ids=["short-prefix", "not-utf8", "not-json", "missing-key", "object-dtype",
             "list-name", "zero-dim", "length-past-end"],
    )
    def test_corrupt_header_names_path(self, tmp_path, mangle):
        model = LinearSoftmax(2, 10)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, model.init_params(seed=0))
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(DataError, match=f"{path}: corrupt checkpoint header"):
            load_checkpoint(path)

    def test_class_count_other_than_5_names_path(self, tmp_path):
        model = LinearSoftmax(2, 10)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, model.init_params(seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b'"n_classes": 5', b'"n_classes": 3'))
        with pytest.raises(DataError, match=f"{path}: n_classes is 3, not 5"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "model", [LinearSoftmax(2, 10), ShallowConvNet(3, 30, SMALL_SPEC)]
    )
    def test_tensor_shapes_must_match_the_model(self, tmp_path, model):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, model.init_params(seed=0))
        blob = path.read_bytes()
        n = model.n_samples
        # same tensors, but a header whose window is one SMALL_SPEC pool stride longer
        longer = blob.replace(b'"n_samples": %d' % n, b'"n_samples": %d' % (n + 4))
        path.write_bytes(longer)
        with pytest.raises(DataError, match=f"{path}: tensors .* do not fit the header"):
            load_checkpoint(path)

    def test_non_integer_spec_size_names_path(self, tmp_path):
        model = ShallowConvNet(3, 30, SMALL_SPEC)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, model.init_params(seed=0))
        header, params = read_checkpoint(path)
        header["spec"]["pool_stride"] = 2.5
        write_checkpoint(path, header, params)
        with pytest.raises(DataError, match=f"{path}: corrupt checkpoint header: .*pool_stride=2.5"):
            load_checkpoint(path)

    def test_window_sized_header_loads_in_bounded_memory(self, tmp_path):
        """Building the model of a self-consistent checkpoint allocates
        nothing sized by its 10**5-sample window: the load returns under a
        1.5 GB address-space cap, its traced peak under 2 MB."""
        path = tmp_path / "ck.bin"
        write_wide_checkpoint(path)
        assert path.stat().st_size == WIDE_SIZE
        done = run_capped(textwrap.dedent(f"""
            from eegdrive.models import load_checkpoint
            from tracemem import peak_traced
            print(peak_traced(lambda: load_checkpoint({str(path)!r})))
        """))
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) < 2_000_000

    def test_trailing_bytes(self, tmp_path):
        model = LinearSoftmax(2, 10)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, model.init_params(seed=0))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)


class TestSpecsAndConfigs:
    def test_window_too_short_for_pooling(self):
        with pytest.raises(ValueError, match="pooling"):
            ShallowConvNet(3, 20, ShallowConvNetSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShallowConvNetSpec(dropout_p=1.0)
        with pytest.raises(ValueError):
            ShallowConvNetSpec(pool_stride=0)

    @pytest.mark.parametrize("pool_len", [2.5, True, "3"])
    def test_spec_refuses_non_integer_sizes(self, pool_len):
        with pytest.raises(ValueError, match="must be integers"):
            ShallowConvNetSpec(pool_len=pool_len)

    @pytest.mark.parametrize("name", ["linear", "shallow"])
    @pytest.mark.parametrize("n_samples", [0, -1, 2.5])
    def test_build_model_refuses_sizes_other_than_positive_integers(self, name, n_samples):
        with pytest.raises(ValueError, match="must be positive integers"):
            build_model(name, 16, n_samples)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(adam_eps=0.0)

    def test_build_model_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="resnet"):
            build_model("resnet", 16, 125)

    def test_default_architecture_at_rig_geometry(self):
        model = ShallowConvNet(16, 125)
        assert model.spec == ShallowConvNetSpec()
        assert model.conv_len == 113
        assert model.n_frames == 12
        assert model.n_features == 480
