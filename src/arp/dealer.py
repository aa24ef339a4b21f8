"""Trusted dealer: all correlated randomness is pre-generated from a seed.

The dealer runs as an offline setup phase.  It answers a list of
`Request(kind, shape)`s for elementwise correlations of five kinds
("beaver" triples, "square" pairs, boolean "and" triples, "trunc" masks
and "select" bit-injection triples) and emits one tape per party.  The
compute servers hold the model weights in the clear, so no other product
consumes dealer randomness.  Tapes are consumed strictly in order by the
online protocol: each `TapeReader.take(request)` checks the next `Record`
against the request that planned it, marks it used and returns its fields.  A `DealingReader` instead
deals each record as an op takes it, the words a tape planned up front from
the same requests holds.  A replay with the same seed and request sequence
uses identical randomness.

Draw order.  Each `Dealer` reads one AES-128-CTR keystream as little-endian
64-bit words; words are reduced mod 2^L.  The key is the first 16 bytes of
SHA-256(`KEY_TAG` + the seed's decimal digits), and the counter is the whole
128-bit block, big-endian, starting at block 0: words 2i and 2i+1 are the
block AES_key(i) read as two words.  `build_tapes` draws the words of each
record in request order: the secret words (a and b, or a and c, per
element, or a alone for a square pair, or r alone for a truncation mask),
then party 0's share of each field in record order.  Party 1's share of a
field is its value (a secret, c's low bit, a*b, a*c, a*a or a&b, or a
truncation mask's derived fields) minus party 0's share, or XOR it for AND
triples.  Each `gen_shares` call draws one word per element of its input,
at its turn in the stream.

Party 0's tape alone draws every word too, keeps its share words and drops
the secret words (or seeks the stream past them); it derives and splits
nothing.  Party 1's tape alone draws party 0's share words of each record
a chunk at a time into a small scratch buffer, and splits against them.  So
a one-party deal gives the same tape bytes and leaves the stream where the
full deal does.

Tapes are dealt as files, one per party dealt.  `build_tapes` lays out each
tape's file bytes up front and writes every word once, into its slot: the
keystream goes straight into party 0's share slots and party 1's secret
slots, and party 1's fields are derived and split in place.  A tape's
record fields are read-only views of its file bytes (on rings of under 64
bits, of the record's one read-only unpacked copy), and `tape_to_bytes`
returns those bytes without a copy.

One table, `_KIND`, describes each kind: its tape tag, its fields, and how
they are drawn, derived and split.  A new kind is one row there plus the op
that takes its record.

Tape file layout (little-endian throughout):
  magic "ARPT", version u16, L u16, f u16, party u8, record count u32,
  then per record: tag u8 (1 beaver / 2 square / 3 and / 4 trunc / 5
  select), its shape (rank u8, then dims u32 each) and this party's share
  words packed to ceil(L/8) bytes.  Version 1 tapes are refused.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import FormatError, ProtocolDesyncError, TapeExhaustedError, TripleReuseError
from .fixed import FixedConfig, RingTensor, pack_words, unpack_words

__all__ = [
    "Request",
    "Record",
    "Dealer",
    "Tape",
    "TapeReader",
    "DealingReader",
    "write_tape",
    "read_tape",
]

TAPE_MAGIC = b"ARPT"
TAPE_VERSION = 2
KEY_TAG = b"arp.dealer.aes128ctr.v1:"  # domain tag of the stream key

# plaintext of every draw, fed in slices: the keystream is its ciphertext
_ZEROS = memoryview(bytes(1 << 18))

# magic, version, L, f, party, record count
_HEADER = struct.Struct("<4sHHHBI")

# Party 0 drops each record's secret words.  Fewer bytes than this run through
# one small reused buffer; more are skipped by seeking the stream, since a new
# encryptor costs about as much as 100 KiB of keystream.  On the bench plans
# every `mlp` record runs through the buffer and every `smallcnn` record seeks.
_SEEK_BYTES = 1 << 18

# glibc serves a block from fresh mapped pages when it is at or above its mmap
# threshold, which rises to the size of each mapped block freed (up to 32 MiB).
# The deal frees no block of that size (its tape files live through the
# online phase), so it frees one of 16 MiB before it returns, for the online
# phase's buffers.  Counted as minor faults over a whole in-process request
# (one CPU, seed 1, medians of 20 requests a run), it keeps
# `cnn-plan-b256-mem` off fresh pages, at 9 faults against 1,433 without it.
# It does nothing steady for `cnn-relu-b256-tcp`, which read medians of 893
# to 970 faults with it (11 to 2,223 a request) and 10 without.  Plan-owned
# online buffers would end this coupling.
_THRESHOLD_BLOCK = 16 << 20

# Words of party 0's shares drawn at a time.  A deal splits each chunk
# against party 1's words while it is still in cache, and a party-1 deal
# needs no scratch buffer as wide as a record for them.
_CHUNK = len(_ZEROS) // 8


# ---- requests and records --------------------------------------------------


class Request(NamedTuple):
    """A request for one elementwise correlation of `kind` (a `_KIND` key)
    and `shape`."""

    kind: str
    shape: tuple


@dataclass(eq=False)
class Record:
    """One party's shares of one dealt correlation: `fields` are its kind's
    `_KIND` fields, in that order; single use."""

    kind: str
    fields: tuple
    used: bool = False


def _trunc_fields(cfg: FixedConfig, v) -> None:
    """Fill a truncation mask's derived fields v[1], v[2] from v[0] = r:
    s >> f and msb(s) * 2^(L-f), for s = -r mod 2^L."""
    L, f = cfg.total_bits, cfg.frac_bits
    r, hi, w = v
    np.subtract(np.uint64(0), r, out=w)
    w &= cfg.mask
    np.right_shift(w, np.uint64(f), out=hi)
    np.right_shift(w, np.uint64(L - 1), out=w)
    w *= np.uint64((1 << (L - f)) % (1 << 64))


class _Kind(NamedTuple):
    """How one correlation kind is dealt and laid out on tape."""

    tag: int  # its records' tape tag
    names: tuple  # its share fields, in tape order
    secrets: int  # secret words drawn per element
    derive: object  # (cfg, v) fills the fields v[secrets:] from the secrets
    split: np.ufunc  # party 1's share from a value and party 0's share


# Additive shares of (a, b, a*b), (a, a*a) and (a, c, a*c) for a uniform
# bit c (see protocol's select); XOR shares of bit words (a, b, a&b); and
# additive shares of a truncation mask r with s >> f and msb(s) * 2^(L-f)
# for s = -r (see protocol's exact truncation).
_KIND = {
    "beaver": _Kind(1, ("a", "b", "z"), 2, lambda cfg, v: np.multiply(v[0], v[1], out=v[2]), np.subtract),
    "square": _Kind(2, ("a", "z"), 1, lambda cfg, v: np.multiply(v[0], v[0], out=v[1]), np.subtract),
    "and": _Kind(3, ("a", "b", "c"), 2, lambda cfg, v: np.bitwise_and(v[0], v[1], out=v[2]), np.bitwise_xor),
    "trunc": _Kind(4, ("r", "hi", "w"), 1, _trunc_fields, np.subtract),
    "select": _Kind(5, ("a", "c", "z"), 2, lambda cfg, v: np.multiply(v[0], np.bitwise_and(v[1], 1, v[1]), out=v[2]),
                    np.subtract),
}
_BY_TAG = {k.tag: name for name, k in _KIND.items()}


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
        self._key = algorithms.AES(_stream_key(seed))
        self._ctr = Cipher(self._key, modes.CTR(bytes(16))).encryptor()
        self._drawn = 0  # words drawn so far

    def _fill(self, out, nbytes: int) -> None:
        """Write the stream's next nbytes // 8 words to out[:nbytes]; `out`
        reaches 16 bytes past that, the room update_into asks for."""
        for at in range(0, nbytes, len(_ZEROS)):
            m = min(len(_ZEROS), nbytes - at)
            self._ctr.update_into(_ZEROS[:m], out[at : at + m + 16])
        self._drawn += nbytes >> 3

    def _skip(self, n: int, scratch) -> None:
        """Move the stream n words on: through `scratch` below _SEEK_BYTES,
        else by starting a new encryptor at the block they end in."""
        if 8 * n < _SEEK_BYTES:
            self._fill(scratch, 8 * n)
        else:
            self._drawn += n
            block, odd = divmod(self._drawn, 2)
            self._ctr = Cipher(self._key, modes.CTR(block.to_bytes(16, "big"))).encryptor()
            self._ctr.update(bytes(8 * odd))

    def _raw(self, n: int) -> np.ndarray:
        """The stream's next n words."""
        out = np.empty(n + 2, "<u8")
        self._fill(memoryview(out).cast("B"), 8 * n)
        return out[:n]

    def gen_shares(self, x: RingTensor) -> tuple[RingTensor, RingTensor]:
        """Split x into (r, x - r) with r uniform over the ring."""
        r = RingTensor(self._raw(x.size).reshape(x.shape), self.cfg)
        return r, x - r

    def build_tapes(self, requests, party: int | None = None) -> tuple["Tape", ...]:
        """Serve a request list in order; returns the dealt tapes in party
        order: both for `party=None`, else a 1-tuple of `party`'s.

        Each tape is laid out as its file up front, and each word is written
        once: party 0's share words are keystream, and party 1's fields are
        derived from the secrets drawn into its own slots, then split there
        against party 0's words, a chunk at a time.  A party-1 deal draws
        party 0's words into a chunk-sized scratch buffer; on rings whose
        words take fewer than 8 bytes, all words pass through scratch and
        are packed into the slots.
        """
        cfg, nb = self.cfg, self.cfg.word_bytes
        layout, size, widest, dropped = [], _HEADER.size, 0, 0
        for req in requests:
            if req.kind not in _KIND:
                raise ValueError(f"unknown correlation kind {req.kind!r}: expected one of {', '.join(_KIND)}")
            c = _KIND[req.kind]
            n = math.prod(req.shape)
            head = bytes((c.tag,)) + _pack_shape(req.shape)
            layout.append((c, n, size, head))
            size += len(head) + len(c.names) * n * nb
            widest = max(widest, len(c.names) * n)
            if 8 * c.secrets * n < _SEEK_BYTES:
                dropped = max(dropped, c.secrets * n)
        files = {p: np.empty(size + 16, np.uint8) for p in ((0, 1) if party is None else (party,))}
        for p, file in files.items():
            view = memoryview(file)
            view[: _HEADER.size] = _HEADER.pack(TAPE_MAGIC, TAPE_VERSION, cfg.total_bits,
                                                cfg.frac_bits, p, len(layout))
            for c, n, at, head in layout:
                view[at : at + len(head)] = head
        drop = np.empty(8 * dropped + 16, np.uint8) if party == 0 else None
        # words that are not 64-bit words of a dealt file are drawn into a
        # scratch buffer: party 0's a chunk at a time, party 1's per record
        share0 = np.empty(8 * _CHUNK + 16, np.uint8) if nb != 8 or 0 not in files else None
        wide1 = np.empty(8 * widest + 16, np.uint8) if nb != 8 and 1 in files else None
        for c, n, at, head in layout:
            at += len(head)
            k, m = c.secrets * n, len(c.names) * n
            if party == 0:
                self._skip(k, drop)
            else:
                room = (files[1][at:] if wide1 is None else wide1)[: 8 * m + 16]
                self._fill(room, 8 * k)
                w1 = room[: 8 * m].view("<u8")
                c.derive(cfg, w1.reshape(len(c.names), n))
            for lo in range(0, m, _CHUNK):
                j = min(_CHUNK, m - lo)
                room = files[0][at + 8 * lo :] if share0 is None else share0
                self._fill(room, 8 * j)
                w0 = room[: 8 * j].view("<u8")
                if party != 0:
                    c.split(w1[lo : lo + j], w0, out=w1[lo : lo + j])
                if 0 in files:
                    _store(cfg, files[0], at + nb * lo, w0)
            if 1 in files:
                _store(cfg, files[1], at, w1)
        np.empty(_THRESHOLD_BLOCK, np.uint8)  # freed at once; see _THRESHOLD_BLOCK
        return tuple(Tape(p, cfg, memoryview(file)[:size].toreadonly()) for p, file in files.items())


def _store(cfg: FixedConfig, file: np.ndarray, at: int, w: np.ndarray) -> None:
    """Reduce the drawn words `w` mod 2^L: in place if they are 8-byte words,
    which were drawn into the file itself, else packed into `file` at byte
    `at` by `pack_words`."""
    nb = cfg.word_bytes
    if nb != 8:
        file[at : at + nb * w.size] = np.frombuffer(pack_words(w, cfg), np.uint8)
    elif cfg.total_bits < 64:
        w &= cfg.mask


# ---- tapes -----------------------------------------------------------------


class Tape:
    """One party's tape: the tape file's bytes, read-only and of exactly the
    file's length, and its records in draw order, read on first use: their
    fields are read-only views of those bytes (on rings of under 64 bits, of
    one read-only unpacked copy per record)."""

    def __init__(self, party: int, cfg: FixedConfig, buf: memoryview, records: list | None = None):
        self.party = party
        self.cfg = cfg
        self.buf = buf
        self._records = records

    @property
    def records(self) -> list:
        if self._records is None:
            self._records = tape_from_bytes(self.buf).records
        return self._records

    def reader(self) -> "TapeReader":
        return TapeReader(self)


class TapeReader:
    """Sequential, validating consumer of a tape."""

    def __init__(self, tape: Tape):
        self.tape = tape
        self.pos = 0

    def remaining(self) -> int:
        return len(self.tape.records) - self.pos

    def take(self, request: Request) -> tuple:
        """The fields of the next record, which must be `request`'s kind and
        shape and not used before; the record is then used."""
        kind, shape = request.kind, tuple(request.shape)
        if self.pos >= len(self.tape.records):
            raise TapeExhaustedError(f"tape exhausted after {self.pos} records wanting {kind!r}")
        rec = self.tape.records[self.pos]
        if rec.kind != kind:
            raise ProtocolDesyncError(f"tape record {self.pos} is {rec.kind!r}, expected {kind!r}")
        if rec.fields[0].shape != shape:
            raise ProtocolDesyncError(
                f"tape record {self.pos} {kind!r} has shape {rec.fields[0].shape}, request was {shape}"
            )
        if rec.used:
            raise TripleReuseError(f"tape record {self.pos} {kind!r} consumed twice")
        rec.used = True
        self.pos += 1
        return rec.fields


class DealingReader:
    """A tape reader that deals each record alone, for `party` from
    `dealer`'s stream, when an op takes it; `records` keeps them in order."""

    def __init__(self, dealer: Dealer, party: int):
        self.dealer, self.party, self.records = dealer, party, []

    def take(self, request: Request) -> tuple:
        (rec,) = self.dealer.build_tapes([request], self.party)[0].records
        rec.used = True
        self.records.append(rec)
        return rec.fields


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


def tape_to_bytes(tape: Tape) -> memoryview:
    """The tape file's bytes: the tape's own read-only buffer, not a copy."""
    return tape.buf


def tape_from_bytes(buf) -> Tape:
    """Decode a tape; record arrays are read-only views into `buf`, which
    must not change while the tape is in use, and the tape keeps `buf`."""
    cur = _Cursor(buf, "tape")
    if cur.take(4) != TAPE_MAGIC:
        raise FormatError("not a tape file (bad magic)")
    version, bits, frac, party, count = cur.unpack("<HHHBI")
    if version != TAPE_VERSION:
        raise FormatError(f"unsupported tape version {version}")
    if party not in (0, 1):
        raise FormatError(f"bad tape party {party}: a tape is party 0's or party 1's")
    cfg = FixedConfig.from_header(bits, frac, "tape")
    records = []
    for _ in range(count):
        (tag,) = cur.unpack("<B")
        if tag not in _BY_TAG:
            raise FormatError(f"unknown tape record tag {tag}")
        kind = _BY_TAG[tag]
        names, shape = _KIND[kind].names, cur.shape()
        packed = cur.take(len(names) * math.prod(shape) * cfg.word_bytes)
        words = unpack_words(packed, (len(names), *shape), cfg)
        words.setflags(write=False)  # one unpacked copy on rings of under 64 bits
        records.append(Record(kind, tuple(RingTensor.of_reduced(words[i, ...], cfg)
                                          for i in range(len(names)))))
    if cur.pos != len(cur.buf):
        raise FormatError("trailing bytes after last tape record")
    return Tape(party, cfg, cur.buf, records)


def write_tape(tape: Tape, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tape_to_bytes(tape))


def read_tape(path) -> Tape:
    with open(path, "rb") as fh:
        return tape_from_bytes(fh.read())
