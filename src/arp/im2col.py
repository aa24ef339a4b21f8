"""Dtype-generic im2col/col2im and pooling helpers shared by the float layers and the ring ops."""

from __future__ import annotations

import numpy as np


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv output would be empty for input {h}x{w}, kernel {kh}x{kw}")
    return oh, ow


def im2col_indices(x_shape, kh: int, kw: int, stride: int, padding: int):
    """Index arrays (k, i, j) selecting conv patches from a padded NCHW tensor."""
    _, c, h, w = x_shape
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(oh), ow)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(ow), oh)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """(B, C, H, W) -> (C*kh*kw, B*oh*ow) patch matrix; preserves dtype."""
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="constant") if p else x
    k, i, j = im2col_indices(x.shape, kh, kw, stride, padding)
    cols = xp[:, k, i, j]  # (B, C*kh*kw, oh*ow)
    return cols.transpose(1, 2, 0).reshape(kh * kw * x.shape[1], -1)


def col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of im2col: scatter-add patches back to (B, C, H, W)."""
    b, c, h, w = x_shape
    p = padding
    hp, wp = h + 2 * p, w + 2 * p
    xp = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    k, i, j = im2col_indices(x_shape, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(c * kh * kw, -1, b).transpose(2, 0, 1)
    np.add.at(xp, (slice(None), k, i, j), cols_reshaped)
    if p == 0:
        return xp
    return xp[:, :, p:-p, p:-p]


def conv2d_forward(x: np.ndarray, weight: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """NCHW conv via im2col + a contraction; exact for integer dtypes (wraps like numpy)."""
    b, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"conv channel mismatch: input has {c}, kernel expects {ic}")
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    w_col = weight.reshape(oc, -1)
    # numpy's integer matmul has no BLAS and reduces along the long, strided
    # axis of `cols`; einsum's plain loop is exact too and took half the time
    # for smallcnn's (16x72) @ (72x4096) uint64 product
    out = np.einsum("ok,kn->on", w_col, cols)
    return out.reshape(oc, oh, ow, b).transpose(3, 0, 1, 2)


def window_sum(x: np.ndarray, k: int) -> np.ndarray:
    """Sums of the non-overlapping k x k windows of an NCHW array; any dtype.

    The k*k strided slices are added in one fixed order, so the bits follow
    the values, not x's layout; on batch-minor floats they equal numpy's sum.
    """
    b, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"pooling {k} does not divide {h}x{w}")
    windows = x.reshape(b, c, h // k, k, w // k, k)
    out = windows[:, :, :, 0, :, 0].copy(order="K")
    for i, j in list(np.ndindex(k, k))[1:]:
        out += windows[:, :, :, i, :, j]
    return out
