"""Trusted dealer: all correlated randomness is pre-generated from a seed.

The dealer runs as an offline setup phase.  It answers a list of typed
requests (Beaver triples for elementwise/matmul/conv2d products, square
pairs, boolean AND triples) and emits one tape per party.  Tapes are
consumed strictly in order by the online protocol, so a replay with the same
seed and request sequence uses identical randomness.

Tape file layout (little-endian throughout):
  magic "ARPT", version u16, L u16, f u16, party u8, record count u32,
  then per record: tag u8 (1 beaver / 2 square / 3 and), descriptor, shapes
  (rank u8 + dims u32 each) and this party's share words packed to
  ceil(L/8) bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ProtocolDesyncError, TapeExhaustedError
from .fixed import FixedConfig, RingTensor, pack_words, unpack_words
from .im2col import conv_out_hw

__all__ = [
    "BeaverRequest",
    "SquareRequest",
    "AndRequest",
    "BeaverTriple",
    "SquarePair",
    "AndTriple",
    "Dealer",
    "Tape",
    "TapeReader",
    "write_tape",
    "read_tape",
]

TAPE_MAGIC = b"ARPT"
TAPE_VERSION = 1


# ---- requests --------------------------------------------------------------


@dataclass(frozen=True)
class BeaverRequest:
    op: str
    a_shape: tuple
    b_shape: tuple
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class SquareRequest:
    shape: tuple


@dataclass(frozen=True)
class AndRequest:
    shape: tuple


# ---- issued records --------------------------------------------------------


@dataclass
class BeaverTriple:
    """One party's halves of (A, B, Z = A (op) B); single use."""

    party: int
    op: str
    a: RingTensor
    b: RingTensor
    z: RingTensor
    stride: int = 1
    padding: int = 0
    used: bool = field(default=False, compare=False)


@dataclass
class SquarePair:
    """One party's halves of (A, Z = A * A); single use."""

    party: int
    a: RingTensor
    z: RingTensor
    used: bool = field(default=False, compare=False)


@dataclass
class AndTriple:
    """One party's XOR shares of (a, b, c = a & b) bit words; single use."""

    party: int
    a: RingTensor
    b: RingTensor
    c: RingTensor
    used: bool = field(default=False, compare=False)


def apply_product_shape(op: str, a_shape, b_shape, stride: int = 1, padding: int = 0) -> tuple:
    """Output shape of a ring product without computing it; rejects misfit operands."""
    if op == "elementwise":
        try:
            return np.broadcast_shapes(a_shape, b_shape)
        except ValueError:
            raise ValueError(f"elementwise shapes incompatible: {a_shape} vs {b_shape}") from None
    if op == "matmul":
        if len(a_shape) != 2 or len(b_shape) != 2 or a_shape[1] != b_shape[0]:
            raise ValueError(f"matmul shapes incompatible: {a_shape} @ {b_shape}")
        return (a_shape[0], b_shape[1])
    if op == "conv2d":
        b_, _, h, w = a_shape
        oc, _, kh, kw = b_shape
        oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
        return (b_, oc, oh, ow)
    raise ValueError(f"unknown product op {op!r}")


def apply_product(op: str, a: RingTensor, b: RingTensor, stride: int = 1, padding: int = 0) -> RingTensor:
    apply_product_shape(op, a.shape, b.shape, stride, padding)
    if op == "elementwise":
        return a * b
    if op == "matmul":
        return a.matmul(b)
    return a.conv2d(b, stride=stride, padding=padding)


# ---- dealer ----------------------------------------------------------------


class Dealer:
    """Counter-based seeded generator of shares and correlated randomness."""

    def __init__(self, seed: int, cfg: FixedConfig):
        self.cfg = cfg
        self._rng = np.random.Generator(np.random.Philox(seed))

    def _rand_ring(self, shape) -> RingTensor:
        words = self._rng.integers(
            0, np.iinfo(np.uint64).max, endpoint=True, dtype=np.uint64, size=shape
        )
        return RingTensor(words, self.cfg)

    def gen_shares(self, x: RingTensor) -> tuple[RingTensor, RingTensor]:
        """Split x into (r, x - r) with r uniform over the ring."""
        r = self._rand_ring(x.shape)
        return r, x - r

    def gen_triple(self, req: BeaverRequest) -> tuple[BeaverTriple, BeaverTriple]:
        a = self._rand_ring(req.a_shape)
        b = self._rand_ring(req.b_shape)
        z = apply_product(req.op, a, b, req.stride, req.padding)
        a0, a1 = self.gen_shares(a)
        b0, b1 = self.gen_shares(b)
        z0, z1 = self.gen_shares(z)
        mk = lambda p, aa, bb, zz: BeaverTriple(p, req.op, aa, bb, zz, req.stride, req.padding)
        return mk(0, a0, b0, z0), mk(1, a1, b1, z1)

    def gen_square_pair(self, req: SquareRequest) -> tuple[SquarePair, SquarePair]:
        a = self._rand_ring(req.shape)
        z = a * a
        a0, a1 = self.gen_shares(a)
        z0, z1 = self.gen_shares(z)
        return SquarePair(0, a0, z0), SquarePair(1, a1, z1)

    def gen_and_triples(self, req: AndRequest) -> tuple[AndTriple, AndTriple]:
        a = self._rand_ring(req.shape)
        b = self._rand_ring(req.shape)
        c = a & b
        a0 = self._rand_ring(req.shape)
        b0 = self._rand_ring(req.shape)
        c0 = self._rand_ring(req.shape)
        return (
            AndTriple(0, a0, b0, c0),
            AndTriple(1, a ^ a0, b ^ b0, c ^ c0),
        )

    def build_tapes(self, requests) -> tuple["Tape", "Tape"]:
        """Serve a request list in order; returns one tape per party."""
        recs0, recs1 = [], []
        for req in requests:
            if isinstance(req, BeaverRequest):
                r0, r1 = self.gen_triple(req)
            elif isinstance(req, SquareRequest):
                r0, r1 = self.gen_square_pair(req)
            elif isinstance(req, AndRequest):
                r0, r1 = self.gen_and_triples(req)
            else:
                raise TypeError(f"unknown request {req!r}")
            recs0.append(r0)
            recs1.append(r1)
        return Tape(0, self.cfg, recs0), Tape(1, self.cfg, recs1)


# ---- tapes -----------------------------------------------------------------


@dataclass
class Tape:
    party: int
    cfg: FixedConfig
    records: list

    def reader(self) -> "TapeReader":
        return TapeReader(self)


class TapeReader:
    """Sequential, validating consumer of a tape."""

    def __init__(self, tape: Tape):
        self.tape = tape
        self.pos = 0

    def remaining(self) -> int:
        return len(self.tape.records) - self.pos

    def _next(self, kind):
        if self.pos >= len(self.tape.records):
            raise TapeExhaustedError(f"tape exhausted after {self.pos} records wanting {kind.__name__}")
        rec = self.tape.records[self.pos]
        if not isinstance(rec, kind):
            raise ProtocolDesyncError(
                f"tape record {self.pos} is {type(rec).__name__}, expected {kind.__name__}"
            )
        self.pos += 1
        return rec

    def next_beaver(self, op: str, a_shape, b_shape, stride: int = 1, padding: int = 0) -> BeaverTriple:
        rec = self._next(BeaverTriple)
        if (rec.op, rec.a.shape, rec.b.shape) != (op, tuple(a_shape), tuple(b_shape)) or (
            op == "conv2d" and (rec.stride, rec.padding) != (stride, padding)
        ):
            raise ProtocolDesyncError(
                f"beaver record mismatch: tape has {rec.op} {rec.a.shape}x{rec.b.shape}, "
                f"request was {op} {tuple(a_shape)}x{tuple(b_shape)}"
            )
        return rec

    def next_square(self, shape) -> SquarePair:
        rec = self._next(SquarePair)
        if rec.a.shape != tuple(shape):
            raise ProtocolDesyncError(
                f"square record mismatch: tape has {rec.a.shape}, request was {tuple(shape)}"
            )
        return rec

    def next_and(self, shape) -> AndTriple:
        rec = self._next(AndTriple)
        if rec.a.shape != tuple(shape):
            raise ProtocolDesyncError(
                f"and record mismatch: tape has {rec.a.shape}, request was {tuple(shape)}"
            )
        return rec


# ---- tape serialization -----------------------------------------------------

_OP_CODE = {"elementwise": 0, "matmul": 1, "conv2d": 2}
_OP_NAME = {v: k for k, v in _OP_CODE.items()}


def _pack_shape(shape) -> bytes:
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)


class _Cursor:
    """Bounds-checked reader over a file's bytes; `kind` names the file in errors.

    `take` returns read-only views into the buffer, not copies.
    """

    def __init__(self, buf, kind: str):
        self.buf = memoryview(buf).toreadonly()
        self.kind = kind
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.kind} file truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def shape(self) -> tuple:
        (rank,) = self.unpack("<B")
        return tuple(self.unpack(f"<{rank}I")) if rank else ()


def tape_to_bytes(tape: Tape) -> bytes:
    cfg = tape.cfg
    out = [
        TAPE_MAGIC,
        struct.pack(
            "<HHHBI",
            TAPE_VERSION,
            cfg.total_bits,
            cfg.frac_bits,
            tape.party,
            len(tape.records),
        ),
    ]
    for rec in tape.records:
        if isinstance(rec, BeaverTriple):
            out.append(struct.pack("<BBBB", 1, _OP_CODE[rec.op], rec.stride, rec.padding))
            out.append(_pack_shape(rec.a.shape))
            out.append(_pack_shape(rec.b.shape))
            out.append(pack_words(rec.a))
            out.append(pack_words(rec.b))
            out.append(pack_words(rec.z))
        elif isinstance(rec, SquarePair):
            out.append(struct.pack("<B", 2))
            out.append(_pack_shape(rec.a.shape))
            out.append(pack_words(rec.a))
            out.append(pack_words(rec.z))
        elif isinstance(rec, AndTriple):
            out.append(struct.pack("<B", 3))
            out.append(_pack_shape(rec.a.shape))
            out.append(pack_words(rec.a))
            out.append(pack_words(rec.b))
            out.append(pack_words(rec.c))
        else:
            raise TypeError(f"unknown record {rec!r}")
    return b"".join(out)


def tape_from_bytes(buf) -> Tape:
    """Decode a tape; record arrays are read-only views into `buf`, which
    must not change while the tape is in use."""
    cur = _Cursor(buf, "tape")
    if cur.take(4) != TAPE_MAGIC:
        raise FormatError("not a tape file (bad magic)")
    version, bits, frac, party, count = cur.unpack("<HHHBI")
    if version != TAPE_VERSION:
        raise FormatError(f"unsupported tape version {version}")
    cfg = FixedConfig(bits, frac)
    nb = cfg.word_bytes

    def words(shape) -> RingTensor:
        n = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
        return unpack_words(cur.take(n * nb), shape, cfg)

    records = []
    for _ in range(count):
        (tag,) = cur.unpack("<B")
        if tag == 1:
            opc, stride, padding = cur.unpack("<BBB")
            if opc not in _OP_NAME:
                raise FormatError(f"unknown beaver op code {opc}")
            a_shape, b_shape = cur.shape(), cur.shape()
            op = _OP_NAME[opc]
            a, b = words(a_shape), words(b_shape)
            try:
                z_shape = apply_product_shape(op, a_shape, b_shape, stride, padding)
            except ValueError as exc:
                raise FormatError(f"bad beaver record shapes: {exc}") from None
            records.append(BeaverTriple(party, op, a, b, words(z_shape), stride, padding))
        elif tag == 2:
            shape = cur.shape()
            records.append(SquarePair(party, words(shape), words(shape)))
        elif tag == 3:
            shape = cur.shape()
            records.append(AndTriple(party, words(shape), words(shape), words(shape)))
        else:
            raise FormatError(f"unknown tape record tag {tag}")
    if cur.pos != len(buf):
        raise FormatError("trailing bytes after last tape record")
    return Tape(party, cfg, records)


def write_tape(tape: Tape, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tape_to_bytes(tape))


def read_tape(path) -> Tape:
    with open(path, "rb") as fh:
        return tape_from_bytes(fh.read())
