"""Minimal differentiable networks with manual backprop.

Dense, conv (im2col), average pooling, flatten, and batch norm, plus the
Adam optimizer and the loss used by both baseline training and
replacement training.
Layers cache what their backward pass needs; one forward/backward pair per
step, gradients are overwritten rather than accumulated.  Each step does
its arithmetic once: one Adam update covers every parameter, and batch
statistics take the variance around the mean they already hold.  Both give
the same bits as one AdamArray per parameter and np.mean/np.var.
"""

from __future__ import annotations

import numpy as np

from .im2col import col2im, conv_out_hw, im2col

__all__ = [
    "Parameter",
    "Dense",
    "Conv2d",
    "BatchNorm2d",
    "AvgPool2d",
    "Flatten",
    "Sequential",
    "AdamArray",
    "Adam",
    "mean_var",
    "cosine_lr",
    "loss_cross_entropy",
    "fold_batchnorm",
    "build_model",
]


class Parameter:
    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / n_in)
        self.w = Parameter(rng.normal(0.0, scale, size=(n_in, n_out)))
        self.b = Parameter(np.zeros(n_out))
        self._x = None

    def params(self):
        return [self.w, self.b]

    def forward(self, x, training=False):
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        self.w.grad = self._x.T @ dy
        self.b.grad = dy.sum(axis=0)
        return dy @ self.w.value.T


class Conv2d:
    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 1):
        fan_in = in_ch * kernel * kernel
        self.w = Parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, kernel, kernel)))
        self.b = Parameter(np.zeros(out_ch))
        self.stride = stride
        self.padding = padding
        self._cols = None
        self._x_shape = None

    def params(self):
        return [self.w, self.b]

    def forward(self, x, training=False):
        oc, _, kh, kw = self.w.value.shape
        b, _, h, w = x.shape
        oh, ow = conv_out_hw(h, w, kh, kw, self.stride, self.padding)
        self._x_shape = x.shape
        self._cols = im2col(x, kh, kw, self.stride, self.padding)
        out = self.w.value.reshape(oc, -1) @ self._cols + self.b.value[:, None]
        return out.reshape(oc, oh, ow, b).transpose(3, 0, 1, 2)

    def backward(self, dy):
        oc, _, kh, kw = self.w.value.shape
        dy_mat = dy.transpose(1, 2, 3, 0).reshape(oc, -1)
        self.w.grad = (dy_mat @ self._cols.T).reshape(self.w.value.shape)
        self.b.grad = dy.sum(axis=(0, 2, 3))
        dcols = self.w.value.reshape(oc, -1).T @ dy_mat
        return col2im(dcols, self._x_shape, kh, kw, self.stride, self.padding)


class BatchNorm2d:
    """Training-time normalization with running stats; foldable for inference."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, training=False):
        if training:
            mean, var = mean_var(x, (0, 2, 3))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[:, None, None]) * inv[:, None, None]
        self._cache = (xhat, inv, x.shape)
        return self.gamma.value[:, None, None] * xhat + self.beta.value[:, None, None]

    def backward(self, dy):
        xhat, inv, shape = self._cache
        n = shape[0] * shape[2] * shape[3]
        self.gamma.grad = (dy * xhat).sum(axis=(0, 2, 3))
        self.beta.grad = dy.sum(axis=(0, 2, 3))
        g = self.gamma.value[:, None, None]
        dxhat = dy * g
        mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
        mean_dxhat_x = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
        return inv[:, None, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_x)


class AvgPool2d:
    def __init__(self, k: int = 2):
        self.k = k
        self._x_shape = None

    def params(self):
        return []

    def forward(self, x, training=False):
        k = self.k
        b, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"pooling {k} does not divide {h}x{w}")
        self._x_shape = x.shape
        return x.reshape(b, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, dy):
        k = self.k
        return np.repeat(np.repeat(dy, k, axis=2), k, axis=3) / (k * k)


class Flatten:
    def __init__(self):
        self._x_shape = None

    def params(self):
        return []

    def forward(self, x, training=False):
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._x_shape)


class Sequential:
    def __init__(self, layers: list):
        self.layers = layers

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dlogits):
        dy = dlogits
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def hybrid_layers(self):
        return [l for l in self.layers if hasattr(l, "indicator")]


# ---- optimizers ---------------------------------------------------------------


class AdamArray:
    """Adam over a single array; update() returns the descended value."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = None
        self.v = None
        self.t = 0

    def update(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(x)
            self.v = np.zeros_like(x)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad**2
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        return x - self.lr * mhat / (np.sqrt(vhat) + self.eps)


class Adam(AdamArray):
    """Adam over a list of parameters, as one AdamArray over their concatenation.

    Adam is elementwise, so one update of the joined values and gradients
    gives each parameter the same bits as an AdamArray of its own; each
    parameter's value then becomes its slice of the updated array.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3, **kw):
        super().__init__(lr=lr, **kw)
        self.params = params

    def step(self):
        if not self.params:
            return
        value = self.update(np.concatenate([p.value.ravel() for p in self.params]),
                            np.concatenate([p.grad.ravel() for p in self.params]))
        start = 0
        for p in self.params:
            p.value = value[start : start + p.value.size].reshape(p.value.shape)
            start += p.value.size


def cosine_lr(base: float, step: int, total: int) -> float:
    if total <= 0:
        return base
    return base * 0.5 * (1 + np.cos(np.pi * min(step, total) / total))


def mean_var(x: np.ndarray, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (biased) variance over `axes`, both with those axes dropped.

    Bit for bit x.mean(axes) and x.var(axes), but the variance is taken
    around the mean already in hand instead of summing x a second time.
    """
    total = x.sum(axis=axes, keepdims=True)
    n = x.size // total.size
    mean = total / n
    dev = x - mean
    np.square(dev, out=dev)
    return mean.squeeze(axis=axes), dev.sum(axis=axes) / n


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy; gradient is (softmax - onehot)/batch."""
    b, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels out of range for {k} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    p = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(p[np.arange(b), labels] + 1e-300)))
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


# ---- batch-norm folding ---------------------------------------------------------


def fold_batchnorm(model: Sequential) -> Sequential:
    """Fold every (Conv2d, BatchNorm2d) pair into the conv for inference."""
    out: list = []
    for layer in model.layers:
        if isinstance(layer, BatchNorm2d):
            if not out or not isinstance(out[-1], Conv2d):
                raise ValueError("batch norm without a preceding conv cannot be folded")
            conv = out[-1]
            scale = layer.gamma.value / np.sqrt(layer.running_var + layer.eps)
            conv.w.value = conv.w.value * scale[:, None, None, None]
            conv.b.value = (conv.b.value - layer.running_mean) * scale + layer.beta.value
        else:
            out.append(layer)
    return Sequential(out)


def build_model(arch: str, seed: int, num_classes: int = 2, image_hw: int = 8, t_h: float = 0.003):
    """The two built-in architectures, with all-ReLU hybrid activations.

    mlp:      2 -> 64 -> 64 -> num_classes, for the two-spiral task
    smallcnn: conv(1->8, 3x3)-BN-act-pool-conv(8->16, 3x3)-BN-act-pool-dense
    """
    from .replace import HybridActivation

    rng = np.random.default_rng(seed)
    if arch == "mlp":
        return Sequential([
            Dense(2, 64, rng),
            HybridActivation((64,), t_h=t_h),
            Dense(64, 64, rng),
            HybridActivation((64,), t_h=t_h),
            Dense(64, num_classes, rng),
        ])
    if arch == "smallcnn":
        hw2, hw4 = image_hw // 2, image_hw // 4
        return Sequential([
            Conv2d(1, 8, 3, rng, padding=1),
            BatchNorm2d(8),
            HybridActivation((8, image_hw, image_hw), channel_axis=0, t_h=t_h),
            AvgPool2d(2),
            Conv2d(8, 16, 3, rng, padding=1),
            BatchNorm2d(16),
            HybridActivation((16, hw2, hw2), channel_axis=0, t_h=t_h),
            AvgPool2d(2),
            Flatten(),
            Dense(16 * hw4 * hw4, num_classes, rng),
        ])
    raise ValueError(f"unknown architecture {arch!r}")
