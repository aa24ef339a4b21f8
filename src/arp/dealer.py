"""Trusted dealer: all correlated randomness is pre-generated from a seed.

The dealer runs as an offline setup phase.  It answers a list of typed
requests for elementwise correlations (Beaver triples, square pairs,
boolean AND triples) and emits one tape per party.  The compute servers
hold the model weights in the clear, so no other product consumes dealer
randomness.  Tapes are consumed strictly in order by the online protocol,
which reads each record with the request that planned it; a replay with the
same seed and request sequence uses identical randomness.

Tape file layout (little-endian throughout):
  magic "ARPT", version u16, L u16, f u16, party u8, record count u32,
  then per record: tag u8 (1 beaver / 2 square / 3 and), descriptor, shapes
  (rank u8 + dims u32 each) and this party's share words packed to
  ceil(L/8) bytes.  A Beaver record keeps version 1's fixed op code 0
  (elementwise), stride 1 and padding 0 bytes and writes its shape twice.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FormatError, ProtocolDesyncError, TapeExhaustedError
from .fixed import FixedConfig, RingTensor, pack_words, unpack_words

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
    shape: tuple


@dataclass(frozen=True)
class SquareRequest:
    shape: tuple


@dataclass(frozen=True)
class AndRequest:
    shape: tuple


# ---- issued records --------------------------------------------------------


@dataclass
class BeaverTriple:
    """One party's halves of (A, B, Z = A * B); single use."""

    a: RingTensor
    b: RingTensor
    z: RingTensor
    used: bool = field(default=False, compare=False)


@dataclass
class SquarePair:
    """One party's halves of (A, Z = A * A); single use."""

    a: RingTensor
    z: RingTensor
    used: bool = field(default=False, compare=False)


@dataclass
class AndTriple:
    """One party's XOR shares of (a, b, c = a & b) bit words; single use."""

    a: RingTensor
    b: RingTensor
    c: RingTensor
    used: bool = field(default=False, compare=False)


_RECORD = {BeaverRequest: BeaverTriple, SquareRequest: SquarePair, AndRequest: AndTriple}


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
        a = self._rand_ring(req.shape)
        b = self._rand_ring(req.shape)
        a0, a1 = self.gen_shares(a)
        b0, b1 = self.gen_shares(b)
        z0, z1 = self.gen_shares(a * b)
        return BeaverTriple(a0, b0, z0), BeaverTriple(a1, b1, z1)

    def gen_square_pair(self, req: SquareRequest) -> tuple[SquarePair, SquarePair]:
        a = self._rand_ring(req.shape)
        z = a * a
        a0, a1 = self.gen_shares(a)
        z0, z1 = self.gen_shares(z)
        return SquarePair(a0, z0), SquarePair(a1, z1)

    def gen_and_triples(self, req: AndRequest) -> tuple[AndTriple, AndTriple]:
        a = self._rand_ring(req.shape)
        b = self._rand_ring(req.shape)
        c = a & b
        a0 = self._rand_ring(req.shape)
        b0 = self._rand_ring(req.shape)
        c0 = self._rand_ring(req.shape)
        return AndTriple(a0, b0, c0), AndTriple(a ^ a0, b ^ b0, c ^ c0)

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

    def take(self, request):
        """The next record, which must be `request`'s kind and shape."""
        kind = _RECORD[type(request)]
        if self.pos >= len(self.tape.records):
            raise TapeExhaustedError(f"tape exhausted after {self.pos} records wanting {kind.__name__}")
        rec = self.tape.records[self.pos]
        if not isinstance(rec, kind):
            raise ProtocolDesyncError(
                f"tape record {self.pos} is {type(rec).__name__}, expected {kind.__name__}"
            )
        if rec.a.shape != tuple(request.shape):
            raise ProtocolDesyncError(
                f"tape record {self.pos} {kind.__name__} has shape {rec.a.shape}, "
                f"request was {tuple(request.shape)}"
            )
        self.pos += 1
        return rec


# ---- tape serialization -----------------------------------------------------

# per record type: tag, fixed descriptor bytes, copies of the shape, and the
# share tensors in tape order.  A Beaver record's descriptor is op code 0
# (elementwise), stride 1, padding 0.
_LAYOUT = {
    kind: (tag, head, copies, tuple(f.name for f in fields(kind) if f.name != "used"))
    for kind, tag, head, copies in [
        (BeaverTriple, 1, b"\x00\x01\x00", 2),
        (SquarePair, 2, b"", 1),
        (AndTriple, 3, b"", 1),
    ]
}
_BY_TAG = {tag: (kind, head, copies, names) for kind, (tag, head, copies, names) in _LAYOUT.items()}


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
        struct.pack("<HHHBI", TAPE_VERSION, cfg.total_bits, cfg.frac_bits, tape.party, len(tape.records)),
    ]
    for rec in tape.records:
        if type(rec) not in _LAYOUT:
            raise TypeError(f"unknown record {rec!r}")
        tag, head, copies, names = _LAYOUT[type(rec)]
        out += [struct.pack("<B", tag), head, _pack_shape(rec.a.shape) * copies]
        out += [pack_words(getattr(rec, name)) for name in names]
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
        return unpack_words(cur.take(math.prod(shape) * nb), shape, cfg)

    records = []
    for _ in range(count):
        (tag,) = cur.unpack("<B")
        if tag not in _BY_TAG:
            raise FormatError(f"unknown tape record tag {tag}")
        kind, head, copies, names = _BY_TAG[tag]
        if cur.take(len(head)) != head:
            raise FormatError(f"bad {kind.__name__} descriptor: only elementwise records are served")
        shapes = [cur.shape() for _ in range(copies)]
        if len(set(shapes)) > 1:
            raise FormatError(f"bad {kind.__name__} shapes: {shapes} are not equal")
        records.append(kind(*[words(shapes[0]) for _ in names]))
    if cur.pos != len(buf):
        raise FormatError("trailing bytes after last tape record")
    return Tape(party, cfg, records)


def write_tape(tape: Tape, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tape_to_bytes(tape))


def read_tape(path) -> Tape:
    with open(path, "rb") as fh:
        return tape_from_bytes(fh.read())
