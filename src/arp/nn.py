"""Minimal differentiable networks with manual backprop.

Dense, conv (im2col), average pooling, flatten, and batch norm, plus the
Adam optimizer and the loss used by both baseline training and
replacement training.
Layers cache what their backward pass needs; one forward/backward pair per
step, gradients are overwritten rather than accumulated.  Every batch
reduction goes through batch_sum, so trained bits depend on values, never
on the memory layouts numpy happens to pick.
"""

from __future__ import annotations

import itertools

import numpy as np

from .im2col import col2im, conv_out_hw, im2col, window_sum

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
    "batch_sum",
    "mean_var",
    "cosine_lr",
    "loss_cross_entropy",
    "fold_batchnorm",
    "input_shape",
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
        self._x = np.ascontiguousarray(x)  # matmuls, like sums, follow the operand layout
        return self._x @ self.w.value + self.b.value

    def backward(self, dy):
        dy = np.ascontiguousarray(dy)
        self.w.grad = self._x.T @ dy
        self.b.grad = batch_sum(dy, 0)
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
        dy_mat = np.ascontiguousarray(dy.transpose(1, 2, 3, 0)).reshape(oc, -1)
        self.w.grad = (dy_mat @ self._cols.T).reshape(self.w.value.shape)
        self.b.grad = batch_sum(dy, (0, 2, 3))
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
        axes, n = (0, 2, 3), shape[0] * shape[2] * shape[3]
        self.gamma.grad = batch_sum(dy * xhat, axes)
        self.beta.grad = batch_sum(dy, axes)
        dxhat = dy * self.gamma.value[:, None, None]
        mean_dxhat = batch_sum(dxhat, axes, keepdims=True) / n
        mean_dxhat_x = batch_sum(dxhat * xhat, axes, keepdims=True) / n
        return inv[:, None, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_x)


class AvgPool2d:
    def __init__(self, k: int = 2):
        self.k = k

    def params(self):
        return []

    def forward(self, x, training=False):
        return window_sum(x, self.k) / (self.k * self.k)

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

    def activation_elements(self) -> int:
        return sum(l.indicator.m.size for l in self.hybrid_layers())


# ---- optimizers ---------------------------------------------------------------


class AdamArray:
    """Adam over one array: update() returns the descended value.

    update_joined() descends several arrays in one update of their
    concatenation; Adam is elementwise, so each gets the same bits as alone.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = self.v = 0.0  # zero moments; the first update makes them arrays
        self.t = 0

    def update(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad**2
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        return x - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def update_joined(self, xs: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        """The descended arrays, each a view of one update over all of them joined."""
        if not xs:
            return []
        joined = self.update(np.concatenate([x.ravel() for x in xs]),
                             np.concatenate([g.ravel() for g in grads]))
        ends = itertools.accumulate(x.size for x in xs)
        return [joined[end - x.size : end].reshape(x.shape) for x, end in zip(xs, ends)]


class Adam(AdamArray):
    """Adam over a list of parameters, as one update_joined per step."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, **kw):
        super().__init__(lr=lr, **kw)
        self.params = params

    def step(self):
        values = self.update_joined([p.value for p in self.params], [p.grad for p in self.params])
        for p, value in zip(self.params, values):
            p.value = value


def cosine_lr(base: float, step: int, total: int) -> float:
    return base * 0.5 * (1 + np.cos(np.pi * min(step, total) / total))


def batch_sum(a: np.ndarray, axis, keepdims: bool = False) -> np.ndarray:
    """a.sum(axis) over a C-ordered copy of `a` (no copy if it is C-ordered already).

    numpy's summation order follows the operand's memory layout; summing one
    fixed layout makes the bits depend on the values alone.
    """
    return np.ascontiguousarray(a).sum(axis=axis, keepdims=keepdims)


def mean_var(x: np.ndarray, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (biased) variance over `axes`, both with those axes dropped.

    Bit for bit the C-ordered copy's x.mean(axes) and x.var(axes), but the
    variance is taken around the mean already in hand.
    """
    total = batch_sum(x, axes, keepdims=True)
    n = x.size // total.size
    mean = total / n
    dev = x - mean
    np.square(dev, out=dev)
    return mean.squeeze(axis=axes), batch_sum(dev, axes) / n


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


def input_shape(arch: str, image_hw: int = 8) -> tuple:
    """The shape of one example that `build_model(arch, ..., image_hw=image_hw)` takes."""
    if arch not in ("mlp", "smallcnn"):
        raise ValueError(f"unknown architecture {arch!r}")
    return (2,) if arch == "mlp" else (1, image_hw, image_hw)


def build_model(arch: str, seed: int, num_classes: int = 2, image_hw: int = 8):
    """The two built-in architectures, with all-ReLU hybrid activations.

    mlp:      2 -> 64 -> 64 -> num_classes, for the two-spiral task
    smallcnn: conv(1->8, 3x3)-BN-act-pool-conv(8->16, 3x3)-BN-act-pool-dense,
              for image_hw x image_hw images (a positive multiple of 4)
    """
    from .replace import HybridActivation

    in_shape = input_shape(arch, image_hw)
    rng = np.random.default_rng(seed)
    if arch == "mlp":
        return Sequential([
            Dense(in_shape[0], 64, rng),
            HybridActivation((64,)),
            Dense(64, 64, rng),
            HybridActivation((64,)),
            Dense(64, num_classes, rng),
        ])
    if image_hw <= 0 or image_hw % 4:
        raise ValueError(f"smallcnn needs a side that is a positive multiple of 4, got {image_hw}")
    hw2, hw4 = image_hw // 2, image_hw // 4
    return Sequential([
        Conv2d(in_shape[0], 8, 3, rng, padding=1),
        BatchNorm2d(8),
        HybridActivation((8, image_hw, image_hw), channel_axis=0),
        AvgPool2d(2),
        Conv2d(8, 16, 3, rng, padding=1),
        BatchNorm2d(16),
        HybridActivation((16, hw2, hw2), channel_axis=0),
        AvgPool2d(2),
        Flatten(),
        Dense(16 * hw4 * hw4, num_classes, rng),
    ])
