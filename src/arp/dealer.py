"""Trusted dealer: all correlated randomness is pre-generated from a seed.

The dealer runs as an offline setup phase.  It answers a list of typed
requests for elementwise correlations (Beaver triples, square pairs,
boolean AND triples, truncation masks) and emits one tape per party.  The
compute servers hold the model weights in the clear, so no other product
consumes dealer randomness.  Tapes are consumed strictly in order by the online protocol,
which reads each record with the request that planned it; a replay with the
same seed and request sequence uses identical randomness.

Draw order.  Each `Dealer` reads one AES-128-CTR keystream as little-endian
64-bit words; words are reduced mod 2^L.  The key is the first 16 bytes of
SHA-256(`KEY_TAG` + the seed's decimal digits), and the counter is the whole
128-bit block, big-endian, starting at block 0: words 2i and 2i+1 are the
block AES_key(i) read as two words.  `build_tapes` draws the words of each
record in request order (consecutive records into one buffer of up to
48 MiB): the secret words (a and b per element, or a alone for a square
pair, or r alone for a truncation mask), then party 0's share of each field
in record order.  Party 1's share of a field is its value (a secret, the
product a*b, a*a or a&b, or a truncation mask's derived fields) minus party
0's share, or XOR it for AND triples.  Each `gen_shares` call draws one
word per element of its input, at its turn in the stream.

Party 0's tape alone draws every word too, keeps its share words and drops
the secret words; it derives and splits nothing.  So a one-party deal gives
the same tape bytes and leaves the stream where the full deal does.

One table, `_KIND`, describes each request type: its record, draw and tape layout.

Tape file layout (little-endian throughout):
  magic "ARPT", version u16, L u16, f u16, party u8, record count u32,
  then per record: tag u8 (1 beaver / 2 square / 3 and / 4 trunc), descriptor, shapes
  (rank u8 + dims u32 each) and this party's share words packed to
  ceil(L/8) bytes.  A Beaver record keeps version 1's fixed op code 0
  (elementwise), stride 1 and padding 0 bytes and writes its shape twice.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import FormatError, ProtocolDesyncError, TapeExhaustedError
from .fixed import FixedConfig, RingTensor, pack_words, unpack_words

__all__ = [
    "BeaverRequest",
    "SquareRequest",
    "AndRequest",
    "TruncRequest",
    "BeaverTriple",
    "SquarePair",
    "AndTriple",
    "TruncMask",
    "Dealer",
    "Tape",
    "TapeReader",
    "write_tape",
    "read_tape",
]

TAPE_MAGIC = b"ARPT"
TAPE_VERSION = 1
KEY_TAG = b"arp.dealer.aes128ctr.v1:"  # domain tag of the stream key

# plaintext of every draw, fed in slices: the keystream is its ciphertext
_ZEROS = memoryview(bytes(1 << 18))

# Consecutive records share one draw buffer of up to 48 MiB.  The sizes steer
# glibc malloc: freeing a mapped buffer under 32 MiB raises its mmap threshold
# to that size, and buffers under the threshold come from the heap.  On the
# bench plans, one buffer per record (up to 10 MiB) raised peak RSS on the
# all-ReLU smallcnn from about 0.45 to 0.6-0.7 GB, and records of 3 and 1.5 MiB
# (the replaced smallcnn) left about 1,000 page faults in each online phase;
# one 118 MB buffer for a whole request list left several thousand.
_DRAW_WORDS = 6 << 20


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


@dataclass(frozen=True)
class TruncRequest:
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


@dataclass
class TruncMask:
    """One party's additive shares of a mask r and, for s = -r mod 2^L, of
    s >> f and msb(s) * 2^(L-f); single use (see protocol's exact truncation)."""

    r: RingTensor
    hi: RingTensor
    w: RingTensor
    used: bool = field(default=False, compare=False)


def _trunc_fields(cfg: FixedConfig, r: np.ndarray) -> tuple:
    """A truncation mask's derived fields: s >> f and msb(s) * 2^(L-f), s = -r mod 2^L."""
    L, f = cfg.total_bits, cfg.frac_bits
    s = (np.uint64(0) - r) & cfg.mask
    return s >> np.uint64(f), (s >> np.uint64(L - 1)) * np.uint64((1 << (L - f)) % (1 << 64))


class _Kind(NamedTuple):
    """How one request type is dealt and laid out on tape."""

    record: type  # the record dealt for the request
    secrets: int  # secret words drawn per element
    derive: object  # (cfg, *secrets) -> the record's other fields, fresh arrays
    split: np.ufunc  # party 1's share from a value and party 0's share
    tag: int  # the record's tape tag
    head: bytes  # its fixed tape descriptor
    copies: int  # copies of its shape on tape
    names: tuple  # the record's share fields, in tape order


# A Beaver record's descriptor is op code 0 (elementwise), stride 1, padding 0.
_KIND = {
    req: _Kind(record, *row, tuple(f.name for f in fields(record) if f.name != "used"))
    for req, record, *row in [
        (BeaverRequest, BeaverTriple, 2, lambda cfg, a, b: (a * b,), np.subtract, 1, b"\x00\x01\x00", 2),
        (SquareRequest, SquarePair, 1, lambda cfg, a: (a * a,), np.subtract, 2, b"", 1),
        (AndRequest, AndTriple, 2, lambda cfg, a, b: (a & b,), np.bitwise_xor, 3, b"", 1),
        (TruncRequest, TruncMask, 1, _trunc_fields, np.subtract, 4, b"", 1),
    ]
}
_BY_RECORD = {k.record: k for k in _KIND.values()}
_BY_TAG = {k.tag: k for k in _KIND.values()}


def _draw_size(req) -> int:
    """Words one request draws: its secrets, then party 0's share of each
    field of its record."""
    c = _KIND[type(req)]
    return (c.secrets + len(c.names)) * math.prod(req.shape)


# ---- dealer ----------------------------------------------------------------


def _stream_key(seed: int) -> bytes:
    """The AES-128 key of `seed`'s stream: SHA-256(KEY_TAG + decimal seed)[:16]."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"dealer seed {seed} is negative; seeds are non-negative integers")
    return hashlib.sha256(KEY_TAG + str(seed).encode()).digest()[:16]


class Dealer:
    """Seeded generator of shares and correlated randomness from one keystream."""

    def __init__(self, seed: int, cfg: FixedConfig):
        self.cfg = cfg
        self._ctr = Cipher(algorithms.AES(_stream_key(seed)), modes.CTR(bytes(16))).encryptor()

    def _raw(self, n: int) -> np.ndarray:
        """The stream's next n words."""
        out = np.empty(n + 2, "<u8")  # update_into documents a block of room past its input
        buf = memoryview(out).cast("B")
        for at in range(0, 8 * n, len(_ZEROS)):
            m = min(len(_ZEROS), 8 * n - at)
            self._ctr.update_into(_ZEROS[:m], buf[at : at + m + 16])
        return out[:n]

    def _draws(self, sizes):
        """The stream's next words for each size in turn.  Consecutive sizes
        share one buffer of up to _DRAW_WORDS words; a larger size has its own."""
        buf = np.empty(0, np.uint64)
        for i, n in enumerate(sizes):
            if n > len(buf):
                total = n
                for m in sizes[i + 1 :]:
                    if total + m > _DRAW_WORDS:
                        break
                    total += m
                buf = self._raw(total)
            words, buf = buf[:n], buf[n:]
            yield words

    def gen_shares(self, x: RingTensor) -> tuple[RingTensor, RingTensor]:
        """Split x into (r, x - r) with r uniform over the ring."""
        r = RingTensor(self._raw(x.size).reshape(x.shape), self.cfg)
        return r, x - r

    def build_tapes(self, requests, party: int | None = None) -> tuple["Tape", "Tape | None"]:
        """Serve a request list in order; returns one tape per party.

        With `party=0` only party 0's tape is dealt, and the second entry is
        None.  Each record's words are its secrets, then party 0's fields,
        which stay views of the draw; party 1's shares overwrite the secrets
        and the derived fields in place.
        """
        for req in requests:
            if type(req) not in _KIND:
                raise TypeError(f"unknown request {req!r}")
        recs0, recs1 = [], []
        for req, words in zip(requests, self._draws([_draw_size(r) for r in requests])):
            c = _KIND[type(req)]
            rows = words.reshape(c.secrets + len(c.names), -1)
            secret, share0 = rows[: c.secrets], rows[c.secrets :]
            recs0.append(self._record(req, share0))
            if party != 0:
                derived = c.derive(self.cfg, *secret)
                for value, own in zip(derived, share0[c.secrets :]):
                    c.split(value, own, out=value)
                c.split(secret, share0[: c.secrets], out=secret)
                recs1.append(self._record(req, (*secret, *derived)))
        return Tape(0, self.cfg, recs0), None if party == 0 else Tape(1, self.cfg, recs1)

    def _record(self, req, rows):
        """The record for `req` whose fields hold `rows`' words, in field order."""
        kind = _KIND[type(req)].record
        return kind(*(RingTensor(w.reshape(req.shape), self.cfg) for w in rows))


# ---- tapes -----------------------------------------------------------------


def _shape(rec) -> tuple:
    """A record's shape: that of its first field."""
    return getattr(rec, _BY_RECORD[type(rec)].names[0]).shape


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
        if _shape(rec) != tuple(request.shape):
            raise ProtocolDesyncError(
                f"tape record {self.pos} {kind.__name__} has shape {_shape(rec)}, "
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
        out += [struct.pack("<B", k.tag), k.head, _pack_shape(_shape(rec)) * k.copies]
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
