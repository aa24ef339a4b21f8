"""Versioned binary model files: architecture, plaintext weights, replacement plan.

Layout (little-endian):
  magic "ARPM", version u16, L u16, f u16, seed u64, sha256 digest (32 bytes)
  of everything after the header, descriptor length u32, descriptor JSON,
  then arrays in descriptor order: dtype tag u8 (0 float64 / 1 uint8),
  rank u8, dims u32 each, raw values.

Batch norm is folded into the preceding conv at export, so a model file
contains only layers the secure evaluator understands.  Round trips are
bit-exact; the digest is verified on load.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import struct

import numpy as np

from .dealer import _Cursor, _pack_shape
from .errors import FormatError
from .fixed import FixedConfig
from .nn import AvgPool2d, Conv2d, Dense, Flatten, Sequential, fold_batchnorm
from .replace import M_W_INIT, HybridActivation, IndicatorState

__all__ = ["serialize_model", "deserialize_model", "save_model", "load_model"]

MODEL_MAGIC = b"ARPM"
MODEL_VERSION = 1

_F64, _U8 = 0, 1


def _pack_array(arr: np.ndarray, tag: int) -> bytes:
    head = struct.pack("<B", tag) + _pack_shape(arr.shape)
    dt = "<f8" if tag == _F64 else "u1"
    return head + np.ascontiguousarray(arr).astype(dt).tobytes()


def _read_array(cur: _Cursor) -> np.ndarray:
    (tag,) = cur.unpack("<B")
    dims = cur.shape()
    count = math.prod(dims)
    if tag == _F64:
        return np.frombuffer(cur.take(count * 8), dtype="<f8").reshape(dims).astype(np.float64)
    if tag == _U8:
        return np.frombuffer(cur.take(count), dtype="u1").reshape(dims).copy()
    raise FormatError(f"unknown array dtype tag {tag}")


def _read_shaped(cur: _Cursor, shape: tuple, what: str) -> np.ndarray:
    arr = _read_array(cur)
    if arr.shape != shape:
        raise FormatError(f"{what} shape inconsistent with descriptor")
    return arr


def _int_field(entry: dict, key: str, what: str, lo: int = 1, hi: int | None = None) -> int:
    """entry[key] if it is an int (not a bool) in [lo, hi], else a FormatError naming `what`."""
    value = entry.get(key)
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise FormatError(f"{what} {value!r} is not an integer {bound}")
    return value


def _layer_entry(layer):
    """(descriptor dict, [(array, dtype tag), ...]) for one layer."""
    if isinstance(layer, Dense):
        n_in, n_out = layer.w.value.shape
        return {"kind": "dense", "in": n_in, "out": n_out}, [
            (layer.w.value, _F64),
            (layer.b.value, _F64),
        ]
    if isinstance(layer, Conv2d):
        oc, ic, kh, _ = layer.w.value.shape
        return (
            {"kind": "conv2d", "in": ic, "out": oc, "kernel": kh,
             "stride": layer.stride, "padding": layer.padding},
            [(layer.w.value, _F64), (layer.b.value, _F64)],
        )
    if isinstance(layer, AvgPool2d):
        return {"kind": "avgpool", "k": layer.k}, []
    if isinstance(layer, Flatten):
        return {"kind": "flatten"}, []
    if isinstance(layer, HybridActivation):
        return (
            {"kind": "hybrid", "feat_shape": list(layer.feat_shape),
             "channel_axis": layer.channel_axis, "degree": layer.degree},
            [
                (layer.indicator.m.astype(np.uint8), _U8),
                (layer.coeffs, _F64),
            ],
        )
    raise ValueError(f"layer {type(layer).__name__} cannot be serialized")


def serialize_model(model: Sequential, cfg: FixedConfig, seed: int = 0) -> bytes:
    """Fold batch norm and emit the model file bytes."""
    model = fold_batchnorm(copy.deepcopy(model))
    desc = []
    blobs = []
    for layer in model.layers:
        entry, arrays = _layer_entry(layer)
        desc.append(entry)
        for arr, tag in arrays:
            blobs.append(_pack_array(arr, tag))
    desc_json = json.dumps({"layers": desc}, sort_keys=True, separators=(",", ":")).encode()
    body = struct.pack("<I", len(desc_json)) + desc_json + b"".join(blobs)
    digest = hashlib.sha256(body).digest()
    header = MODEL_MAGIC + struct.pack(
        "<HHHQ", MODEL_VERSION, cfg.total_bits, cfg.frac_bits, seed
    )
    return header + digest + body


def deserialize_model(buf: bytes):
    """Rebuild (model, cfg, seed) from model file bytes; verifies the digest."""
    cur = _Cursor(buf, "model")
    if cur.take(4) != MODEL_MAGIC:
        raise FormatError("not a model file (bad magic): version mismatch or corruption")
    version, bits, frac, seed = cur.unpack("<HHHQ")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    digest = cur.take(32)
    if hashlib.sha256(cur.buf[cur.pos :]).digest() != digest:
        raise FormatError("model file digest mismatch (corrupted or truncated)")
    cfg = FixedConfig.from_header(bits, frac, "model")
    (desc_len,) = cur.unpack("<I")
    try:
        desc = json.loads(bytes(cur.take(desc_len)).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad model descriptor: {exc}") from exc

    entries = desc.get("layers") if isinstance(desc, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise FormatError("model descriptor has no list of layer objects")
    rng = np.random.default_rng(0)  # placeholder init, weights overwritten below
    layers = []
    for entry in entries:
        kind = entry.get("kind")
        if kind == "dense":
            n_in = _int_field(entry, "in", "dense input size")
            n_out = _int_field(entry, "out", "dense output size")
            w = _read_shaped(cur, (n_in, n_out), "dense weight")
            b = _read_shaped(cur, (n_out,), "dense bias")
            layer = Dense(n_in, n_out, rng)
            layer.w.value, layer.b.value = w, b
        elif kind == "conv2d":
            ic = _int_field(entry, "in", "conv input channels")
            oc = _int_field(entry, "out", "conv output channels")
            k = _int_field(entry, "kernel", "conv kernel")
            stride = _int_field(entry, "stride", "conv stride")
            padding = _int_field(entry, "padding", "conv padding", lo=0)
            w = _read_shaped(cur, (oc, ic, k, k), "conv weight")
            b = _read_shaped(cur, (oc,), "conv bias")
            layer = Conv2d(ic, oc, k, rng, stride=stride, padding=padding)
            layer.w.value, layer.b.value = w, b
        elif kind == "avgpool":
            layer = AvgPool2d(_int_field(entry, "k", "avgpool factor"))
        elif kind == "flatten":
            layer = Flatten()
        elif kind == "hybrid":
            feat = entry.get("feat_shape")
            if not isinstance(feat, list) or not feat or any(type(d) is not int or d < 1 for d in feat):
                raise FormatError(f"hybrid feature shape {feat!r} is not a non-empty list of positive ints")
            feat = tuple(feat)
            degree = _int_field(entry, "degree", "hybrid degree", hi=2)  # the secure path has no other
            axis = _int_field(entry, "channel_axis", "hybrid channel axis", lo=0, hi=len(feat) - 1)
            mask = _read_shaped(cur, feat, "hybrid mask").astype(np.float64)
            bad = mask[(mask != 0) & (mask != 1)]
            if bad.size:  # the oracle would scale a ReLU by it; the secure path keeps a plain one
                raise FormatError(f"hybrid mask of layer {len(layers)} holds {bad[0]:g}: each entry must be 0 or 1")
            coeffs = _read_shaped(cur, (feat[axis], degree + 1), "hybrid coefficient")
            layer = HybridActivation(feat, axis)
            layer.indicator = IndicatorState(mask, np.where(mask == 1, M_W_INIT, -M_W_INIT))
            layer.coeffs = coeffs
        else:
            raise FormatError(f"unknown layer kind {kind!r}")
        layers.append(layer)
    if cur.pos != len(cur.buf):
        raise FormatError("trailing bytes after last model array")
    return Sequential(layers), cfg, seed


def save_model(path, model: Sequential, cfg: FixedConfig, seed: int = 0) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model, cfg, seed))


def load_model(path):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
