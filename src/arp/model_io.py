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
from .replace import M_W_INIT, HybridActivation

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
                (layer.coeffs.coeffs, _F64),
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
    if len(buf) < 4 + 14 + 32 or buf[:4] != MODEL_MAGIC:
        raise FormatError("not a model file (bad magic): version mismatch or corruption")
    version, bits, frac, seed = struct.unpack_from("<HHHQ", buf, 4)
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    digest = buf[18:50]
    body = buf[50:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError("model file digest mismatch (corrupted or truncated)")
    cfg = FixedConfig(bits, frac)
    cur = _Cursor(body, "model")
    (desc_len,) = cur.unpack("<I")
    try:
        desc = json.loads(bytes(cur.take(desc_len)).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad model descriptor: {exc}") from exc

    rng = np.random.default_rng(0)  # placeholder init, weights overwritten below
    layers = []
    for entry in desc["layers"]:
        kind = entry["kind"]
        if kind == "dense":
            layer = Dense(entry["in"], entry["out"], rng)
            layer.w.value = _read_array(cur)
            layer.b.value = _read_array(cur)
            if layer.w.value.shape != (entry["in"], entry["out"]):
                raise FormatError("dense weight shape inconsistent with descriptor")
        elif kind == "conv2d":
            layer = Conv2d(entry["in"], entry["out"], entry["kernel"], rng,
                           stride=entry["stride"], padding=entry["padding"])
            layer.w.value = _read_array(cur)
            layer.b.value = _read_array(cur)
            if layer.w.value.shape != (entry["out"], entry["in"], entry["kernel"], entry["kernel"]):
                raise FormatError("conv weight shape inconsistent with descriptor")
        elif kind == "avgpool":
            layer = AvgPool2d(entry["k"])
        elif kind == "flatten":
            layer = Flatten()
        elif kind == "hybrid":
            feat = tuple(entry["feat_shape"])
            layer = HybridActivation(feat, entry["channel_axis"], entry["degree"])
            mask = _read_array(cur).astype(np.float64)
            coeffs = _read_array(cur)
            if mask.shape != feat:
                raise FormatError("hybrid mask shape inconsistent with descriptor")
            channels = feat[entry["channel_axis"]]
            if coeffs.shape != (channels, entry["degree"] + 1):
                raise FormatError("hybrid coefficient shape inconsistent with descriptor")
            layer.indicator.m = mask
            layer.indicator.m_w = np.where(mask == 1, M_W_INIT, -M_W_INIT)
            layer.coeffs.coeffs = coeffs
        else:
            raise FormatError(f"unknown layer kind {kind!r}")
        layers.append(layer)
    if cur.pos != len(body):
        raise FormatError("trailing bytes after last model array")
    return Sequential(layers), cfg, seed


def save_model(path, model: Sequential, cfg: FixedConfig, seed: int = 0) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model, cfg, seed))


def load_model(path):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
