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
from arp.dapa import ChannelStats
from arp.replace import HybridActivation, ste_softplus_grad

from conftest import same_bits


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

    @pytest.mark.parametrize("image_hw", [0, 2, 6, -4])
    def test_smallcnn_needs_a_side_it_can_pool_twice(self, image_hw):
        with pytest.raises(ValueError, match="positive multiple of 4"):
            build_model("smallcnn", seed=0, image_hw=image_hw)


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
            act.coeffs[:, 0] = 0.1
            act.coeffs[:, 2] = 0.07

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
        x = np.ascontiguousarray(x)  # the layout every batch reduction sums over
        assert same_bits(mean, x.mean(axis=axes))
        assert same_bits(var, x.var(axis=axes))



def both_layouts(shape, seed):
    """One activation, C-ordered and batch-minor (batch axis varying fastest).

    Batch-minor is the layout Conv2d.forward returns; the two arrays hold the
    same values in different memory orders.
    """
    c_order = np.random.default_rng(seed).normal(size=shape)
    batch_minor = np.moveaxis(np.ascontiguousarray(np.moveaxis(c_order, 0, -1)), -1, 0)
    assert batch_minor.strides != c_order.strides and np.array_equal(batch_minor, c_order)
    return c_order, batch_minor


class TestLayoutIndependence:
    """Trained bits depend on values alone: both layouts of one activation give the same bits."""

    SHAPE = (8, 8, 8)

    @staticmethod
    def _same_for_both_layouts(fn, x_shape, dy_shape=None):
        xs = both_layouts(x_shape, seed=x_shape[0])
        dys = both_layouts(dy_shape or x_shape, seed=x_shape[0] + 1)
        c_order, batch_minor = fn(xs[0], dys[0]), fn(xs[1], dys[1])
        for got, want in zip(batch_minor, c_order):
            assert same_bits(got, want)

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_mean_var(self, batch):
        self._same_for_both_layouts(lambda x, dy: mean_var(x, (0, 2, 3)), (batch, *self.SHAPE))

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_channel_stats(self, batch):
        def fn(x, dy):
            st = ChannelStats(self.SHAPE[0])
            st.update(x, channel_axis=1)
            st.update(dy, channel_axis=1)
            return st.mean, st.var

        self._same_for_both_layouts(fn, (batch, *self.SHAPE))

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_hybrid_activation(self, batch):
        rng = np.random.default_rng(0)
        act = HybridActivation(self.SHAPE)
        act.coeffs = rng.normal(size=(self.SHAPE[0], 3))
        act.indicator.m_w[:] = rng.normal(size=self.SHAPE)
        act.indicator.m[:] = (rng.random(self.SHAPE) < 0.5).astype(np.float64)

        def fn(z, dy):
            act.stats = ChannelStats(self.SHAPE[0])
            out = act.forward(z, training=True)
            dz = act.backward(dy)
            grad = act.indicator_grad(ste_softplus_grad(act.indicator.m_w))
            return out, dz, grad, act.stats.mean, act.stats.var

        self._same_for_both_layouts(fn, (batch, *self.SHAPE))

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_conv2d(self, batch):
        conv = Conv2d(self.SHAPE[0], self.SHAPE[0], 3, np.random.default_rng(1))

        def fn(x, dy):
            out = conv.forward(x, training=True)
            return out, conv.backward(dy), conv.w.grad, conv.b.grad

        self._same_for_both_layouts(fn, (batch, *self.SHAPE))

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_batchnorm2d(self, batch):
        bn = BatchNorm2d(self.SHAPE[0])
        bn.gamma.value = np.random.default_rng(2).normal(size=self.SHAPE[0])

        def fn(x, dy):
            bn.running_mean, bn.running_var = np.zeros(self.SHAPE[0]), np.ones(self.SHAPE[0])
            out = bn.forward(x, training=True)
            dx = bn.backward(dy)
            return out, dx, bn.gamma.grad, bn.beta.grad, bn.running_mean, bn.running_var

        self._same_for_both_layouts(fn, (batch, *self.SHAPE))

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_avgpool2d(self, batch):
        self._same_for_both_layouts(lambda x, dy: [AvgPool2d(2).forward(x)], (batch, *self.SHAPE))

    @pytest.mark.parametrize("batch", [3, 64, 256])
    def test_dense(self, batch):
        n_in = int(np.prod(self.SHAPE))
        dense = Dense(n_in, 10, np.random.default_rng(3))

        def fn(x, dy):
            out = dense.forward(x, training=True)
            return out, dense.backward(dy), dense.w.grad, dense.b.grad

        self._same_for_both_layouts(fn, (batch, n_in), (batch, 10))
