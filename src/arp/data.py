"""Dataset generation and ingestion: two-spiral CSV and the ARIM image container."""

from __future__ import annotations

import struct
import warnings

import numpy as np

from .dealer import _Cursor
from .errors import FormatError

__all__ = [
    "two_spirals",
    "toy_images",
    "save_csv",
    "load_csv",
    "write_arim",
    "read_arim",
]

ARIM_MAGIC = b"ARIM"


def two_spirals(n: int = 1024, noise: float = 0.15, turns: float = 1.75, seed: int = 0):
    """Deterministic interleaved-spirals binary classification set.

    The two arms get n/2 points each, so n must be positive and even.
    """
    if n <= 0 or n % 2:
        raise ValueError(f"two spirals need a positive even example count, got {n}")
    rng = np.random.default_rng(seed)
    half = n // 2
    t = np.sqrt(rng.uniform(0.05, 1.0, size=half)) * turns * 2 * np.pi
    dx = t * np.cos(t)
    dy = t * np.sin(t)
    x0 = np.stack([dx, dy], axis=1) + rng.normal(0, noise, size=(half, 2))
    x1 = np.stack([-dx, -dy], axis=1) + rng.normal(0, noise, size=(half, 2))
    x = np.concatenate([x0, x1]) / (turns * 2 * np.pi)
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    order = rng.permutation(len(x))
    return x[order], y[order]


def toy_images(n: int = 512, hw: int = 8, classes: int = 4, seed: int = 0):
    """Grayscale images whose class is the quadrant of a bright blob."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    imgs = rng.uniform(0, 0.25, size=(n, 1, hw, hw))
    half = hw // 2
    corners = [(0, 0), (0, half), (half, 0), (half, half)]
    for i in range(n):
        r0, c0 = corners[int(y[i]) % len(corners)]
        rr = r0 + rng.integers(0, half - 1)
        cc = c0 + rng.integers(0, half - 1)
        imgs[i, 0, rr : rr + 2, cc : cc + 2] += 0.75
    return np.clip(imgs, 0, 1), y.astype(np.int64)


def save_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    cols = ",".join(f"x{i}" for i in range(x.shape[1]))
    header = f"{cols},label"
    data = np.column_stack([x, y.astype(np.float64)])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.10g")


def load_csv(path):
    """Features and labels from a CSV with one header line and the label in
    the last column.  A file with no data rows, a cell that is not a number,
    a ragged row or a label that is not a non-negative integer is a
    FormatError naming the file."""
    with warnings.catch_warnings():
        # a file with no data rows is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # a cell that is not a number, or a ragged row
            raise FormatError(f"{path}: {exc}") from None
    if not len(data):
        raise FormatError(f"{path}: no data rows after the header line")
    if data.shape[1] < 2:
        raise FormatError(f"{path}: csv needs at least one feature column and a label column")
    labels = data[:, -1]
    bad = np.flatnonzero(~((labels >= 0) & (labels < 2.0**63) & (labels == np.floor(labels))))
    if bad.size:
        raise FormatError(f"{path}: data row {bad[0] + 1} has label {labels[bad[0]]:g}, "
                          "not a non-negative integer")
    return data[:, :-1], labels.astype(np.int64)


def write_arim(path, images: np.ndarray, labels: np.ndarray) -> None:
    """magic ARIM, u32 count, u32 H, u32 W, u8 pixels, u8 labels."""
    images = np.asarray(images)
    if images.ndim == 4:
        if images.shape[1] != 1:
            raise ValueError("ARIM stores single-channel images")
        images = images[:, 0]
    n, h, w = images.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("one label per image required")
    pixels = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(ARIM_MAGIC)
        fh.write(struct.pack("<III", n, h, w))
        fh.write(pixels.tobytes())
        fh.write(labels.astype(np.uint8).tobytes())


def read_arim(path):
    """Images and labels of an ARIM file; a FormatError names a file that is
    not ARIM, is short or long, or holds no images."""
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read(), f"{path}: ARIM")
    if cur.take(4) != ARIM_MAGIC:
        raise FormatError(f"{path}: not an ARIM file (bad magic)")
    n, h, w = cur.unpack("<III")
    if not n:
        raise FormatError(f"{path}: ARIM file holds no images")
    pixels = np.frombuffer(cur.take(n * h * w), np.uint8)
    labels = np.frombuffer(cur.take(n), np.uint8)
    if cur.pos != len(cur.buf):
        raise FormatError(f"{path}: trailing bytes after the ARIM labels")
    images = pixels.reshape(n, 1, h, w).astype(np.float64) / 255.0
    return images, labels.astype(np.int64)
