"""Fixed-point encoding into the ring Z_2^L and exact two's-complement tensor math.

All ring values are stored as numpy uint64 words masked to the low L bits.
Arithmetic wraps mod 2^L; signed interpretation is two's complement.  Reals
are encoded at a scale of 2^f (f fractional bits) with round half away from
zero.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EncodeOverflowError, FormatError

__all__ = [
    "FixedConfig",
    "RingTensor",
    "encode",
    "decode",
    "truncate",
    "pack_words",
    "unpack_words",
    "flat_frame",
    "frame_payload",
]


@dataclass(frozen=True)
class FixedConfig:
    """Bit layout of the fixed-point ring: L total bits, f fractional bits."""

    total_bits: int = 64
    frac_bits: int = 16

    def __post_init__(self):
        if not 8 <= self.total_bits <= 64:
            raise ValueError(f"total_bits must be in [8, 64], got {self.total_bits}")
        if not 0 <= self.frac_bits <= self.total_bits - 2:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits - 2}], got {self.frac_bits}"
            )

    @classmethod
    def from_header(cls, bits: int, frac: int, kind: str) -> "FixedConfig":
        """The ring a `kind` file's header names; an impossible one is a format error."""
        try:
            return cls(bits, frac)
        except ValueError as exc:
            raise FormatError(f"bad ring in {kind} file header: {exc}") from None

    @property
    def mask(self) -> np.uint64:
        if self.total_bits == 64:
            return np.uint64(0xFFFFFFFFFFFFFFFF)
        return np.uint64((1 << self.total_bits) - 1)

    @property
    def scale(self) -> float:
        return float(2**self.frac_bits)

    @property
    def resolution(self) -> float:
        """Smallest representable step, one ULP."""
        return 2.0**-self.frac_bits

    @property
    def min_real(self) -> float:
        return -(2.0 ** (self.total_bits - 1 - self.frac_bits))

    @property
    def max_real(self) -> float:
        return 2.0 ** (self.total_bits - 1 - self.frac_bits) - self.resolution

    @property
    def word_bytes(self) -> int:
        return (self.total_bits + 7) // 8


def _mask_words(words: np.ndarray, cfg: FixedConfig) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint64)
    if cfg.total_bits < 64:
        words = np.asarray(words & cfg.mask)  # a 0-d operand would give a scalar
    return words


class RingTensor:
    """Dense tensor of L-bit ring elements.

    Thin wrapper over a uint64 ndarray plus the FixedConfig that defines the
    ring.  Operations return new tensors and never write into an operand, so
    values are safe to hand between threads, and the words may be read-only
    views into a tape or wire buffer (see unpack_words).  An online op may
    fill a buffer it has just allocated itself in place, but never an input,
    a tape record or a wire buffer: not a frame it has sent, which the
    in-memory peer reads as it is, nor one it has received.
    """

    __slots__ = ("words", "cfg")

    def __init__(self, words, cfg: FixedConfig):
        self.words = _mask_words(words, cfg)
        self.cfg = cfg

    # ---- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, shape, cfg: FixedConfig) -> "RingTensor":
        return cls(np.zeros(shape, dtype=np.uint64), cfg)

    @classmethod
    def from_signed(cls, ints, cfg: FixedConfig) -> "RingTensor":
        """Wrap signed integers (numpy int64 or Python ints) into the ring."""
        arr = np.asarray(ints, dtype=np.int64)
        return cls(arr.view(np.uint64) if arr.flags.c_contiguous else arr.astype(np.uint64), cfg)

    # ---- basic views ---------------------------------------------------

    @property
    def shape(self):
        return self.words.shape

    @property
    def size(self) -> int:
        return int(self.words.size)

    def signed(self) -> np.ndarray:
        """Two's-complement interpretation as int64 (sign-extended from L bits).

        At L=64 this is a view of the words, read-only when they are.
        """
        spare = 64 - self.cfg.total_bits
        if not spare:
            return self.words.view(np.int64)
        return (self.words << np.uint64(spare)).view(np.int64) >> np.int64(spare)

    def reshape(self, *shape) -> "RingTensor":
        return RingTensor(self.words.reshape(*shape), self.cfg)

    def copy(self) -> "RingTensor":
        return RingTensor(self.words.copy(), self.cfg)

    def __repr__(self):
        return f"RingTensor(shape={self.shape}, L={self.cfg.total_bits})"

    # ---- ring arithmetic (wraps mod 2^L) --------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, RingTensor):
            if other.cfg != self.cfg:
                raise ValueError("mixed FixedConfig in ring op")
            return other.words
        return _mask_words(np.asarray(other, dtype=np.uint64), self.cfg)

    def __add__(self, other) -> "RingTensor":
        return RingTensor(self.words + self._coerce(other), self.cfg)

    def __sub__(self, other) -> "RingTensor":
        return RingTensor(self.words - self._coerce(other), self.cfg)

    def __mul__(self, other) -> "RingTensor":
        return RingTensor(self.words * self._coerce(other), self.cfg)

    def __neg__(self) -> "RingTensor":
        return RingTensor(np.uint64(0) - self.words, self.cfg)

    def matmul(self, other: "RingTensor") -> "RingTensor":
        return RingTensor(self.words @ self._coerce(other), self.cfg)

    def conv2d(self, kernel: "RingTensor", stride: int = 1, padding: int = 0) -> "RingTensor":
        """Exact ring conv: NCHW input, (out_c, in_c, kh, kw) kernel."""
        from .im2col import conv2d_forward

        out = conv2d_forward(self.words, self._coerce(kernel), stride, padding)
        return RingTensor(out, self.cfg)

    # ---- bit operations (XOR sharing / adder circuits) ------------------

    def __xor__(self, other) -> "RingTensor":
        return RingTensor(self.words ^ self._coerce(other), self.cfg)

    def lshift(self, bits: int) -> "RingTensor":
        return RingTensor(self.words << np.uint64(bits), self.cfg)

    def rshift(self, bits: int) -> "RingTensor":
        """Logical right shift within the L-bit word."""
        return RingTensor(self.words >> np.uint64(bits), self.cfg)

    def __eq__(self, other):
        if not isinstance(other, RingTensor):
            return NotImplemented
        return self.cfg == other.cfg and np.array_equal(self.words, other.words)

    def __hash__(self):
        return id(self)


def _wire_header(dims) -> bytes:
    return struct.pack(f"<I{len(dims)}I", len(dims), *dims)


def flat_frame(n: int) -> np.ndarray:
    """An unfilled wire frame of n ring words framed as one rank-1 tensor.

    Word 0 holds the header (rank 1, then n, each a little-endian u32); the
    caller writes the n words into `frame[1:]` and sends the frame with
    `frame_payload`.  It is the layout of every opening on the wire.
    """
    frame = np.empty(n + 1, "<u8")
    frame[:1] = np.frombuffer(_wire_header((n,)), "<u8")
    return frame


def frame_payload(frame: np.ndarray, cfg: FixedConfig):
    """The wire payload of a filled `flat_frame`.  With 8-byte words it is the
    frame itself, as bytes; narrower rings pack the words by `pack_words`."""
    if cfg.word_bytes == 8:
        return frame.view(np.uint8)
    return b"".join((frame[:1].tobytes(), pack_words(RingTensor(frame[1:], cfg))))


def pack_words(r: RingTensor):
    """Row-major words as ceil(L/8)-byte little-endian groups, no shape header.

    With 8-byte words this is a byte view of the (contiguous, little-endian)
    word array rather than a copy; join it into the outgoing buffer.
    """
    nb = r.cfg.word_bytes
    flat = np.ascontiguousarray(r.words.reshape(-1), dtype="<u8")
    if nb == 8:
        return memoryview(flat).cast("B")
    return flat.view(np.uint8).reshape(-1, 8)[:, :nb].tobytes()


def unpack_words(buf, shape, cfg: FixedConfig) -> RingTensor:
    """Inverse of pack_words for a known shape; 8-byte words are not copied."""
    count = math.prod(shape)
    nb = cfg.word_bytes
    if len(buf) != count * nb:
        raise FormatError(f"expected {count * nb} payload bytes, got {len(buf)}")
    if nb == 8:
        return RingTensor(np.frombuffer(buf, "<u8", count).reshape(shape), cfg)
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(count, nb)
    full = np.zeros((count, 8), dtype=np.uint8)
    full[:, :nb] = raw
    return RingTensor(full.view("<u8").reshape(shape), cfg)


# ---- encode / decode / truncate ------------------------------------------


def encode(x, cfg: FixedConfig) -> RingTensor:
    """Encode reals at scale 2^f, round half away from zero, wrap mod 2^L.

    Raises EncodeOverflowError naming the first offending flat index if any
    value is non-finite or outside the representable range.
    """
    arr = np.asarray(x, dtype=np.float64)
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise EncodeOverflowError(idx, float(arr.reshape(-1)[idx]), cfg.min_real, cfg.max_real)
    out_of_range = (arr < cfg.min_real) | (arr > cfg.max_real)
    if out_of_range.any():
        idx = int(np.flatnonzero(out_of_range)[0])
        raise EncodeOverflowError(idx, float(arr.reshape(-1)[idx]), cfg.min_real, cfg.max_real)
    scaled = np.copysign(np.floor(np.abs(arr) * cfg.scale + 0.5), arr)
    return RingTensor.from_signed(scaled.astype(np.int64), cfg)


def decode(r: RingTensor, cfg: FixedConfig | None = None) -> np.ndarray:
    """Sign-extend from L bits and divide by 2^f."""
    cfg = cfg or r.cfg
    return r.signed().astype(np.float64) / cfg.scale


def truncate(r: RingTensor, cfg: FixedConfig | None = None, bits: int | None = None) -> RingTensor:
    """Arithmetic right shift of the sign-extended value, re-wrapped to L bits.

    Rescales a product of two scale-f operands back to scale f (bits defaults
    to f).  This is a floor division, so the result can sit one ULP below the
    exactly rounded value.
    """
    cfg = cfg or r.cfg
    shift = cfg.frac_bits if bits is None else bits
    if shift == 0:
        return r
    return RingTensor.from_signed(r.signed() >> np.int64(shift), cfg)
