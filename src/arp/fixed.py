"""Fixed-point encoding into the ring Z_2^L and exact two's-complement tensor math.

All ring values are stored as numpy uint64 words masked to the low L bits.
Arithmetic wraps mod 2^L; signed interpretation is two's complement.  Reals
are encoded at a scale of 2^f (f fractional bits) with round half away from
zero.

The word codec, `pack_words` and `unpack_words`, packs plain uint64 word
arrays at ceil(L/8) bytes a word; tapes and `transport`'s frames share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EncodeOverflowError, FormatError

__all__ = [
    "FixedConfig",
    "RingTensor",
    "broadcasts",
    "broadcast_view",
    "encode",
    "decode",
    "truncate",
    "pack_words",
    "unpack_words",
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
    def of_reduced(cls, words: np.ndarray, cfg: FixedConfig) -> "RingTensor":
        """Wrap uint64 words that are already reduced mod 2^L as they are:
        no copy and no mask, so a view stays a view on every ring."""
        t = cls.__new__(cls)
        t.words, t.cfg = words, cfg
        return t

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

    # ---- bit operations (XOR sharing) -----------------------------------

    def __xor__(self, other) -> "RingTensor":
        return RingTensor(self.words ^ self._coerce(other), self.cfg)

    def lshift(self, bits: int) -> "RingTensor":
        return RingTensor(self.words << np.uint64(bits), self.cfg)

    def __eq__(self, other):
        if not isinstance(other, RingTensor):
            return NotImplemented
        return self.cfg == other.cfg and np.array_equal(self.words, other.words)

    def __hash__(self):
        return id(self)


def broadcasts(shape: tuple, to: tuple) -> bool:
    """Whether an array of `shape` broadcasts to `to` unchanged, as
    `np.broadcast_shapes(shape, to) == to` says, without its cost."""
    lead = len(to) - len(shape)
    return lead >= 0 and all(d == 1 or d == n for d, n in zip(shape, to[lead:]))


def broadcast_view(a: np.ndarray, shape) -> np.ndarray:
    """`np.broadcast_to(a, shape)` for a C-contiguous `a`, built directly:
    a read-only view with stride 0 on each axis that `a` lacks or holds once,
    nothing copied.  It costs about 1 µs a call where `broadcast_to` costs
    4-6, which counts on ops of a few dozen words."""
    shape = tuple(shape)
    lead = len(shape) - a.ndim
    if lead >= 0 and a.shape == shape[lead:]:  # only axes put in front
        strides = (0,) * lead + a.strides
    elif broadcasts(a.shape, shape):
        strides = (0,) * lead + tuple(st if d == n else 0 for d, n, st in zip(a.shape, shape[lead:], a.strides))
    else:
        raise ValueError(f"shape {a.shape} does not broadcast to {shape}")
    view = np.ndarray(shape, a.dtype, a, 0, strides)
    view.setflags(write=False)
    return view


def pack_words(words: np.ndarray, cfg: FixedConfig):
    """Row-major words reduced mod 2^L, as ceil(L/8)-byte little-endian
    groups with no shape header.  With 8-byte words this is a byte view of
    the (contiguous, little-endian) words, not a copy; join it into the
    outgoing buffer."""
    nb = cfg.word_bytes
    flat = np.ascontiguousarray(np.reshape(words, -1), dtype="<u8")
    if nb == 8:
        return memoryview(flat).cast("B")
    return (flat & cfg.mask).view(np.uint8).reshape(-1, 8)[:, :nb].tobytes()


def unpack_words(buf, shape, cfg: FixedConfig) -> np.ndarray:
    """Inverse of pack_words for a known shape: the words reduced mod 2^L.
    At L=64 they are a view of `buf`, not a copy; on other rings, one fresh
    array."""
    count = math.prod(shape)
    nb = cfg.word_bytes
    if len(buf) != count * nb:
        raise FormatError(f"expected {count * nb} payload bytes, got {len(buf)}")
    if cfg.total_bits == 64:
        return np.frombuffer(buf, "<u8", count).reshape(shape)
    # each word is read as the 8 bytes from its start, the bytes past its
    # own masked off: one pass for every word width
    padded = np.empty(count * nb + 8, np.uint8)  # room for the last words' reads
    padded[: count * nb] = np.frombuffer(buf, np.uint8)
    return (np.ndarray((count,), "<u8", padded, 0, (nb,)) & cfg.mask).reshape(shape)


# ---- encode / decode / truncate ------------------------------------------


def encode(x, cfg: FixedConfig) -> RingTensor:
    """Encode reals at scale 2^f, round half away from zero, wrap mod 2^L.

    Raises EncodeOverflowError naming the first offending flat index if any
    value is non-finite or its rounded word falls outside [-2^(L-1),
    2^(L-1)), and printing that range in reals, [min_real, -min_real).  The
    check is on the rounded word, not on [min_real, max_real]: at L=64
    float64 rounds max_real up to 2^(L-1-f), whose word would wrap to
    -2^(L-1).
    """
    arr = np.asarray(x, dtype=np.float64)
    scaled = np.trunc(arr * cfg.scale + np.copysign(0.5, arr))
    top = 2.0 ** (cfg.total_bits - 1)
    if not (scaled.min(initial=0.0) >= -top and scaled.max(initial=0.0) < top):  # nan too
        idx = int(np.flatnonzero(~((scaled >= -top) & (scaled < top)))[0])
        raise EncodeOverflowError(idx, float(arr.reshape(-1)[idx]), cfg.min_real, -cfg.min_real)
    return RingTensor(scaled.astype(np.int64).view(np.uint64), cfg)


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
