"""Trusted dealer: all correlated randomness is pre-generated from a seed.

The dealer runs as an offline setup phase.  It answers a list of typed
requests for elementwise correlations (Beaver triples, square pairs,
boolean AND triples) and emits one tape per party.  The compute servers
hold the model weights in the clear, so no other product consumes dealer
randomness.  Tapes are consumed strictly in order by the online protocol,
which reads each record with the request that planned it; a replay with the
same seed and request sequence uses identical randomness.

Draw order.  The dealer's Philox generator is the one source of the tapes'
randomness, read as raw 64-bit words.  `build_tapes` draws the words for
its whole request list at once; per record, in request order, come the
secret words (a and b per element, or a alone for a square pair), then
party 0's share of each field in record order.  Party 1's share of a field
is its value (a secret, or the product a*b, a*a or a&b) minus party 0's
share, or XOR it for AND triples.  Each `gen_shares` call draws one word per
element of its input, at its turn in the stream.  Words are reduced mod 2^L.

Party 1's tape needs every word of the draw, and party 0's comes with it.
Party 0's tape alone needs only its share words: dealing it by itself,
`build_tapes` moves the stream past each record's secret words with
`Philox.advance` and draws the share words where the full draw has them.
The draw order, the tape's bytes and the stream position afterwards are
those of the full draw.

One table, `_KIND`, describes each request type: its record, draw and tape layout.

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
from typing import NamedTuple

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


class _Kind(NamedTuple):
    """How one request type is dealt and laid out on tape."""

    record: type  # the record dealt for the request
    secrets: int  # secret words drawn per element
    derive: np.ufunc  # the record's last field from the secrets
    split: np.ufunc  # party 1's share from a value and party 0's share
    tag: int  # the record's tape tag
    head: bytes  # its fixed tape descriptor
    copies: int  # copies of its shape on tape
    names: tuple  # the record's share fields, in tape order


# A Beaver record's descriptor is op code 0 (elementwise), stride 1, padding 0.
_KIND = {
    req: _Kind(record, *row, tuple(f.name for f in fields(record) if f.name != "used"))
    for req, record, *row in [
        (BeaverRequest, BeaverTriple, 2, np.multiply, np.subtract, 1, b"\x00\x01\x00", 2),
        (SquareRequest, SquarePair, 1, np.square, np.subtract, 2, b"", 1),
        (AndRequest, AndTriple, 2, np.bitwise_and, np.bitwise_xor, 3, b"", 1),
    ]
}
_BY_RECORD = {k.record: k for k in _KIND.values()}
_BY_TAG = {k.tag: k for k in _KIND.values()}


def _draw_size(req) -> int:
    """Words one request draws: its secrets, then party 0's share of each
    secret and of the derived field."""
    return (2 * _KIND[type(req)].secrets + 1) * math.prod(req.shape)


# ---- dealer ----------------------------------------------------------------


class Dealer:
    """Counter-based seeded generator of shares and correlated randomness."""

    def __init__(self, seed: int, cfg: FixedConfig):
        self.cfg = cfg
        self._bits = np.random.Philox(seed)

    def gen_shares(self, x: RingTensor) -> tuple[RingTensor, RingTensor]:
        """Split x into (r, x - r) with r uniform over the ring."""
        r = RingTensor(self._bits.random_raw(x.size).reshape(x.shape), self.cfg)
        return r, x - r

    def build_tapes(self, requests, party: int | None = None) -> tuple["Tape", "Tape | None"]:
        """Serve a request list in order; returns one tape per party.

        With `party=0` only party 0's tape is dealt, and the second entry is
        None.  Otherwise one draw covers the whole list.  Each record's slice
        holds its secrets, then party 0's fields, which stay views of the
        draw; party 1's shares overwrite the secrets and the derived field in
        place.
        """
        for req in requests:
            if type(req) not in _KIND:
                raise TypeError(f"unknown request {req!r}")
        if party == 0:
            return Tape(0, self.cfg, [self._party0_record(req) for req in requests]), None
        draw = self._bits.random_raw(sum(map(_draw_size, requests)))
        recs0, recs1 = [], []
        at = 0
        for req in requests:
            c = _KIND[type(req)]
            rows = draw[at : at + _draw_size(req)].reshape(2 * c.secrets + 1, -1)
            at += rows.size
            secret, share0 = rows[: c.secrets], rows[c.secrets :]
            last = c.derive(*secret)
            c.split(last, share0[-1], out=last)
            c.split(secret, share0[:-1], out=secret)
            recs0.append(self._record(req, share0))
            recs1.append(self._record(req, (*secret, last)))
        return Tape(0, self.cfg, recs0), Tape(1, self.cfg, recs1)

    def _party0_record(self, req):
        """Party 0's record for `req`: skip the secret words, draw the share words."""
        secrets = _KIND[type(req)].secrets
        n = math.prod(req.shape)
        self._skip(secrets * n)
        return self._record(req, self._bits.random_raw((secrets + 1) * n).reshape(secrets + 1, -1))

    def _skip(self, n: int) -> None:
        """Move the stream n words on, as drawing them would.

        `Philox.advance` skips whole blocks of four words and drops any
        words still buffered, even when told to skip none; so the buffered
        words are drawn first, then whole blocks skipped, then the tail drawn.
        """
        head = min(n, 4 - self._bits.state["buffer_pos"])  # words still buffered
        self._bits.random_raw(head)
        if (n - head) // 4:
            self._bits.advance((n - head) // 4)
        self._bits.random_raw((n - head) % 4)

    def _record(self, req, rows):
        """The record for `req` whose fields hold `rows`' words, in field order."""
        kind = _KIND[type(req)].record
        return kind(*(RingTensor(w.reshape(req.shape), self.cfg) for w in rows))


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
        kind = _KIND[type(request)].record
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


# numpy asks the kernel for huge pages from this allocation size on, which
# saves most of a large join's page faults; below it a bytes join is cheaper
# (a numpy join added about 0.2 ms to the setup of a 24 KB tape)
_HUGE_PAGE_JOIN = 4 << 20


def tape_to_bytes(tape: Tape) -> bytes | memoryview:
    """The tape file's bytes, as a bytes-like object.

    A tape of 4 MiB or more is joined into one numpy buffer, which is backed
    by huge pages, and returned as a read-only memoryview; a smaller one is
    `bytes`.
    """
    cfg = tape.cfg
    out = [
        TAPE_MAGIC,
        struct.pack("<HHHBI", TAPE_VERSION, cfg.total_bits, cfg.frac_bits, tape.party, len(tape.records)),
    ]
    for rec in tape.records:
        if type(rec) not in _BY_RECORD:
            raise TypeError(f"unknown record {rec!r}")
        k = _BY_RECORD[type(rec)]
        out += [struct.pack("<B", k.tag), k.head, _pack_shape(rec.a.shape) * k.copies]
        out += [pack_words(getattr(rec, name)) for name in k.names]
    if sum(map(len, out)) < _HUGE_PAGE_JOIN:
        return b"".join(out)
    return memoryview(np.concatenate([np.frombuffer(part, np.uint8) for part in out])).toreadonly()


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
        k = _BY_TAG[tag]
        if cur.take(len(k.head)) != k.head:
            raise FormatError(f"bad {k.record.__name__} descriptor: only elementwise records are served")
        shapes = [cur.shape() for _ in range(k.copies)]
        if len(set(shapes)) > 1:
            raise FormatError(f"bad {k.record.__name__} shapes: {shapes} are not equal")
        records.append(k.record(*[words(shapes[0]) for _ in k.names]))
    if cur.pos != len(buf):
        raise FormatError("trailing bytes after last tape record")
    return Tape(party, cfg, records)


def write_tape(tape: Tape, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tape_to_bytes(tape))


def read_tape(path) -> Tape:
    with open(path, "rb") as fh:
        return tape_from_bytes(fh.read())
