"""Layer forward/backward correctness, loss, folding, determinism."""

import copy

import numpy as np
import pytest

from arp.nn import (
    Adam,
    AdamArray,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    Parameter,
    Sequential,
    build_model,
    fold_batchnorm,
    loss_cross_entropy,
    mean_var,
)
from arp.replace import HybridActivation


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * h)
        it.iternext()
    return g


class TestForward:
    def test_zero_weights_zero_logits(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng)
        layer.w.value[:] = 0
        out = layer.forward(rng.normal(size=(5, 3)))
        assert np.all(out == 0)

    def test_identity_dense(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 3, rng)
        layer.w.value = np.eye(3)
        layer.b.value[:] = 0
        x = rng.normal(size=(4, 3))
        assert np.array_equal(layer.forward(x), x)

    def test_seeded_model_bit_stable(self):
        x = np.random.default_rng(1).normal(size=(6, 2))
        a = build_model("mlp", seed=7).forward(x)
        b = build_model("mlp", seed=7).forward(x)
        assert np.array_equal(a, b)

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = build_model("mlp", seed=3)
        x = np.random.default_rng(2).normal(size=(4, 2))
        model.forward(x, training=True)
        model.backward(np.zeros((4, 2)))
        assert all(np.all(p.grad == 0) for p in model.params())

    def test_dense_gradient_closed_form(self):
        rng = np.random.default_rng(4)
        layer = Dense(2, 2, rng)
        x = rng.normal(size=(3, 2))
        dy = rng.normal(size=(3, 2))
        layer.forward(x)
        dx = layer.backward(dy)
        np.testing.assert_allclose(layer.w.grad, x.T @ dy)
        np.testing.assert_allclose(layer.b.grad, dy.sum(axis=0))
        np.testing.assert_allclose(dx, dy @ layer.w.value.T)

    @pytest.mark.parametrize("arch", ["mlp", "smallcnn"])
    def test_full_model_finite_differences(self, arch):
        """Backprop matches central differences to 1e-4 relative error."""
        rng = np.random.default_rng(5)
        if arch == "mlp":
            model = build_model("mlp", seed=5)
            x = rng.normal(size=(8, 2))
            y = rng.integers(0, 2, size=8)
        else:
            model = build_model("smallcnn", seed=5, num_classes=3, image_hw=4)
            x = rng.normal(size=(6, 1, 4, 4))
            y = rng.integers(0, 3, size=6)
        # freeze a mixed mask so both activation paths carry gradient
        for act in model.hybrid_layers():
            m = np.zeros(act.indicator.m.size)
            m[::2] = 1.0
            act.indicator.m = m.reshape(act.indicator.m.shape)
            act.coeffs.coeffs[:, 0] = 0.1
            act.coeffs.coeffs[:, 2] = 0.07

        def loss_value():
            logits = model.forward(x, training=True)
            return loss_cross_entropy(logits, y)[0]

        loss_value()
        _, dlog = loss_cross_entropy(model.forward(x, training=True), y)
        model.backward(dlog)
        for p in model.params():
            num = numeric_grad(loss_value, p.value)
            denom = np.maximum(np.abs(num), 1e-3)
            assert np.max(np.abs(p.grad - num) / denom) < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        for k in (2, 5, 10):
            loss, _ = loss_cross_entropy(np.zeros((3, k)), np.zeros(3, dtype=int))
            np.testing.assert_allclose(loss, np.log(k), rtol=1e-12)

    def test_confident_correct(self):
        logits = np.array([[100.0, 0.0]])
        loss, _ = loss_cross_entropy(logits, np.array([0]))
        assert loss < 1e-12

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, size=4)
        _, grad = loss_cross_entropy(logits, y)
        num = numeric_grad(lambda: loss_cross_entropy(logits, y)[0], logits)
        assert np.max(np.abs(grad - num)) < 1e-6

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            loss_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestBatchNormFolding:
    def test_fold_preserves_logits(self):
        rng = np.random.default_rng(7)
        model = build_model("smallcnn", seed=8, num_classes=4, image_hw=8)
        x = rng.normal(size=(16, 1, 8, 8))
        y = rng.integers(0, 4, size=16)
        # a few training steps so BN stats and affine params are non-trivial
        opt = Adam(model.params(), lr=1e-2)
        for _ in range(5):
            logits = model.forward(x, training=True)
            _, dlog = loss_cross_entropy(logits, y)
            model.backward(dlog)
            opt.step()
        before = model.forward(x, training=False)
        folded = fold_batchnorm(copy.deepcopy(model))
        assert not any(isinstance(l, BatchNorm2d) for l in folded.layers)
        after = folded.forward(x, training=False)
        assert np.max(np.abs(before - after)) <= 1e-6

    def test_fold_requires_preceding_conv(self):
        with pytest.raises(ValueError):
            fold_batchnorm(Sequential([BatchNorm2d(4)]))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestOneStepArithmetic:
    """The joined Adam step and one-pass statistics equal their per-array forms bit for bit."""

    def test_adam_equals_one_adamarray_per_parameter(self):
        rng = np.random.default_rng(12)
        shapes = [(2, 64), (64,), (8, 1, 3, 3), (1,)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        opt = Adam(params, lr=1e-2)
        ref_values = [p.value.copy() for p in params]
        ref_opts = [AdamArray(lr=1e-2) for _ in params]
        for step in range(5):
            lr = 1e-2 / (step + 1)
            opt.lr = lr
            for p, ref, ref_opt in zip(params, ref_values, ref_opts):
                p.grad = rng.normal(size=p.value.shape)
                ref_opt.lr = lr
            opt.step()
            for i, (p, ref_opt) in enumerate(zip(params, ref_opts)):
                ref_values[i] = ref_opt.update(ref_values[i], p.grad)
                assert same_bits(p.value, ref_values[i])

    def test_adam_without_parameters(self):
        opt = Adam([], lr=0.5)
        opt.step()
        assert opt.lr == 0.5

    @pytest.mark.parametrize("layout", ["conv", "dense"])
    def test_mean_var_equals_numpy(self, layout):
        rng = np.random.default_rng(13)
        if layout == "conv":  # batch-minor, as Conv2d.forward returns it
            x, axes = rng.normal(size=(8, 6, 6, 64)).transpose(3, 0, 1, 2), (0, 2, 3)
        else:
            x, axes = rng.normal(size=(64, 16)), (0,)
        mean, var = mean_var(x, axes)
        assert same_bits(mean, x.mean(axis=axes))
        assert same_bits(var, x.var(axis=axes))
