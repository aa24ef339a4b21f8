"""Online two-party operations on additive and XOR shares.

Round and opening accounting (asserted by tests):
  lin_combine / mul_public / msb   0 rounds, nothing opened
  mul_beaver                       1 round, opens 2|X| words
  square                           1 round, opens |X| words
  b2a                              1 round (one Beaver multiply)
  a2b                              1 + ceil(log2 L) rounds (initial AND plus
                                   one batched AND per prefix-adder level)

Model weights and polynomial coefficients are public to both compute
servers; only activations are secret shared.  So every interactive op is
elementwise, and it reads its dealer record (Beaver triple, square pair or
AND triple) from the session's tape with the same kind of request that the
planners below hand the dealer.

Truncation after a product is a local arithmetic shift of each party's
share, which costs nothing in communication but can leave the reconstruction
one ULP below the value-level shift.  It also wraps, giving a wildly wrong
result, with probability about |v| * 2^(2f-L) per element for a product of
decoded magnitude |v| held at scale 2f (e.g. 1.2% at L=32, f=12, |v|=3).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dealer as dl
from .errors import TripleReuseError
from .fixed import FixedConfig, RingTensor, encode, truncate
from .transport import Channel

__all__ = [
    "PHASES",
    "ShareTensor",
    "BinaryShareTensor",
    "Session",
    "lin_combine",
    "mul_public",
    "add_public",
    "mul_beaver",
    "square",
    "and_shares",
    "a2b",
    "msb",
    "b2a",
    "ltz",
    "relu_secure",
    "dapa_eval_secure",
    "a2b_requests",
    "ltz_requests",
    "relu_requests",
    "dapa_requests",
    "hybrid_requests",
]


@dataclass
class ShareTensor:
    """One party's additive share; reconstructs as payload_0 + payload_1 mod 2^L."""

    party: int
    payload: RingTensor
    scale: int

    @property
    def shape(self):
        return self.payload.shape

    @property
    def size(self) -> int:
        return self.payload.size

    def _check(self, other: "ShareTensor"):
        if self.shape != other.shape:
            raise ValueError(f"share shape mismatch: {self.shape} vs {other.shape}")
        if self.scale != other.scale:
            raise ValueError(f"share scale mismatch: {self.scale} vs {other.scale}")

    def __add__(self, other: "ShareTensor") -> "ShareTensor":
        self._check(other)
        return ShareTensor(self.party, self.payload + other.payload, self.scale)

    def __sub__(self, other: "ShareTensor") -> "ShareTensor":
        self._check(other)
        return ShareTensor(self.party, self.payload - other.payload, self.scale)

    def __neg__(self) -> "ShareTensor":
        return ShareTensor(self.party, -self.payload, self.scale)

    def reshape(self, *shape) -> "ShareTensor":
        return ShareTensor(self.party, self.payload.reshape(*shape), self.scale)


@dataclass
class BinaryShareTensor:
    """One party's XOR share; reconstructs as payload_0 XOR payload_1."""

    party: int
    payload: RingTensor

    @property
    def shape(self):
        return self.payload.shape


PHASES = ("dealer", "linear", "comparison", "polynomial")


class Session:
    """One party's view of a protocol run: channel, tape, and counters.

    Phase accounting: `phases` holds one row per phase of bytes sent and
    received, rounds, opened words and seconds.  "dealer" covers tape
    generation (setup), "linear" covers public-weight layers, pooling and
    the final logit opening, "comparison" covers secure ReLU (including its
    multiply), "polynomial" covers the secure polynomial path.
    """

    def __init__(self, party: int, cfg: FixedConfig, channel: Channel, tape: dl.TapeReader | None = None):
        if party not in (0, 1):
            raise ValueError("party must be 0 or 1")
        self.party = party
        self.cfg = cfg
        self.channel = channel
        self.tape = tape
        self.opened_words = 0
        self.phases = {p: dict(bytes_sent=0, bytes_received=0, rounds=0, opened_words=0, seconds=0.0)
                       for p in PHASES}

    @contextmanager
    def measure(self, phase: str):
        """Charge the traffic, openings and time inside the block to `phase`."""
        ch = self.channel
        before = (ch.bytes_sent, ch.bytes_received, ch.rounds, self.opened_words, time.perf_counter())
        yield
        row = self.phases[phase]
        row["bytes_sent"] += ch.bytes_sent - before[0]
        row["bytes_received"] += ch.bytes_received - before[1]
        row["rounds"] += ch.rounds - before[2]
        row["opened_words"] += self.opened_words - before[3]
        row["seconds"] += time.perf_counter() - before[4]

    # -- share plumbing ---------------------------------------------------

    def share_of(self, words, scale: int | None = None) -> ShareTensor:
        scale = self.cfg.frac_bits if scale is None else scale
        return ShareTensor(self.party, RingTensor(words, self.cfg), scale)

    def zeros_like(self, shape, scale: int = 0) -> ShareTensor:
        return ShareTensor(self.party, RingTensor.zeros(shape, self.cfg), scale)

    def reveal_many(self, tensors: list[RingTensor], mode: str = "add") -> list[RingTensor]:
        """Open several masked tensors in one message (one round)."""
        theirs = self.channel.exchange(tensors).words
        combine = np.add if mode == "add" else np.bitwise_xor
        # one buffer for all opened parts: a fresh array per part took about
        # 45% more page faults per request (smallcnn, batch 256, all ReLU)
        opened = np.empty_like(theirs)
        out, at = [], 0
        for t in tensors:
            part = opened[at : at + t.size]
            combine(t.words.reshape(-1), theirs[at : at + t.size], out=part)
            out.append(RingTensor(part.reshape(t.shape), self.cfg))
            at += t.size
        self.opened_words += at
        return out

    def reveal(self, x: ShareTensor) -> RingTensor:
        """Joint recovery: both parties learn payload_0 + payload_1."""
        return self.reveal_many([x.payload], mode="add")[0]

    def reveal_bits(self, x: BinaryShareTensor) -> RingTensor:
        return self.reveal_many([x.payload], mode="xor")[0]


def _open_masked(sess: Session, pairs, mode: str = "add"):
    """Open share - mask ("add") or share ^ mask ("xor") for each (share,
    mask) pair in one message.

    The masked words are written into the rows of one fresh buffer, which
    are returned with the opened tensors; once the message is sent the rows
    belong to the calling op, which may reuse them for its output.
    """
    share, _ = pairs[0]
    combine = np.subtract if mode == "add" else np.bitwise_xor
    buf = np.empty((len(pairs), *share.shape), dtype=np.uint64)
    rows = [buf[i, ...] for i in range(len(pairs))]  # arrays, even for 0-d shares
    for row, (v, m) in zip(rows, pairs):
        combine(v.words, m.words, out=row)
    return rows, sess.reveal_many([RingTensor(row, share.cfg) for row in rows], mode)


def _zeros(shape, cfg: FixedConfig) -> RingTensor:
    """Read-only all-zero words that take no memory."""
    return RingTensor(np.broadcast_to(np.uint64(0), shape), cfg)


def _consume(record):
    if record.used:
        raise TripleReuseError(f"{type(record).__name__} consumed twice")
    record.used = True
    return record


def _rescale(x: ShareTensor, raw_scale: int) -> ShareTensor:
    """Shift a product share back down to at most f fractional bits."""
    f = x.payload.cfg.frac_bits
    out_scale = min(f, raw_scale)
    shift = raw_scale - out_scale
    payload = truncate(x.payload, bits=shift) if shift else x.payload
    return ShareTensor(x.party, payload, out_scale)


# ---- local (round-free) operations -----------------------------------------


def lin_combine(a: float, x: ShareTensor, y: ShareTensor) -> ShareTensor:
    """Public-scalar combination a*X + Y; zero rounds, zero bytes."""
    return mul_public(x, encode(a, x.payload.cfg)) + y


def mul_public(x: ShareTensor, w: RingTensor, op: str = "elementwise", *,
               stride: int = 1, padding: int = 0) -> ShareTensor:
    """Multiply a share by a public ring tensor at scale f; local, zero rounds."""
    if op == "elementwise":
        raw = x.payload * w
    elif op == "matmul":
        raw = x.payload.matmul(w)
    elif op == "conv2d":
        raw = x.payload.conv2d(w, stride=stride, padding=padding)
    else:
        raise ValueError(f"unknown product op {op!r}")
    return _rescale(ShareTensor(x.party, raw, x.scale), x.scale + x.payload.cfg.frac_bits)


def add_public(x: ShareTensor, c: RingTensor) -> ShareTensor:
    """Add a public constant: only party 0 contributes it; party 1's share is returned as is.

    Both parties refuse a constant that does not broadcast to the share's shape.
    """
    if np.broadcast_shapes(x.shape, c.shape) != x.shape:  # numpy raises for clashing shapes
        raise ValueError(f"public constant of shape {c.shape} does not broadcast to {x.shape}")
    if x.party == 0:
        return ShareTensor(0, x.payload + c, x.scale)
    return x


def public_complement(x: ShareTensor) -> ShareTensor:
    """1 - x for a scale-0 bit share."""
    one = RingTensor(np.ones(x.shape, dtype=np.uint64), x.payload.cfg)
    if x.party == 0:
        return ShareTensor(0, one - x.payload, 0)
    return ShareTensor(1, -x.payload, 0)


# ---- interactive operations --------------------------------------------------


def mul_beaver(sess: Session, x: ShareTensor, y: ShareTensor) -> ShareTensor:
    """Elementwise secure product via one Beaver triple; one round, opens 2|X| words."""
    if x.shape != y.shape:
        raise ValueError(f"mul_beaver needs equal shapes, got {x.shape} and {y.shape}")
    triple = _consume(sess.tape.take(dl.BeaverRequest(x.shape)))
    (r, t), (e, f_) = _open_masked(sess, [(x.payload, triple.a), (y.payload, triple.b)])
    np.multiply(x.payload.words, f_.words, out=r)
    np.multiply(e.words, y.payload.words, out=t)
    r += t
    r += triple.z.words
    if sess.party == 1:
        np.multiply(e.words, f_.words, out=t)
        r -= t
    return _rescale(ShareTensor(sess.party, RingTensor(r, x.payload.cfg), 0), x.scale + y.scale)


def square(sess: Session, x: ShareTensor) -> ShareTensor:
    """Elementwise secure square; one round, opens |X| words (half a multiply)."""
    pair = _consume(sess.tape.take(dl.SquareRequest(x.shape)))
    (r,), (e,) = _open_masked(sess, [(x.payload, pair.a)])
    np.multiply(e.words, pair.a.words, out=r)
    r *= np.uint64(2)
    r += pair.z.words
    if sess.party == 0:
        r += np.square(e.words)
    return _rescale(ShareTensor(sess.party, RingTensor(r, x.payload.cfg), 0), 2 * x.scale)


def and_shares(sess: Session, x: RingTensor, y: RingTensor) -> RingTensor:
    """Bitwise AND of XOR-shared words via one AND triple; one round."""
    triple = _consume(sess.tape.take(dl.AndRequest(x.shape)))
    (z, t), (e, f_) = _open_masked(sess, [(x, triple.a), (y, triple.b)], "xor")
    # z = c ^ (e & b) ^ (a & f) [^ (e & f) on party 0]
    np.bitwise_and(e.words, triple.b.words, out=z)
    z ^= triple.c.words
    np.bitwise_and(triple.a.words, f_.words, out=t)
    z ^= t
    if sess.party == 0:
        np.bitwise_and(e.words, f_.words, out=t)
        z ^= t
    return RingTensor(z, x.cfg)


def a2b(sess: Session, x: ShareTensor) -> BinaryShareTensor:
    """Arithmetic to binary sharing via a Kogge-Stone adder over XOR shares.

    Each party XOR-shares its own arithmetic share locally, then the two
    L-bit summands are added with a carry-lookahead circuit: 1 + ceil(log2 L)
    rounds, one batched AND per level.
    """
    cfg = x.payload.cfg
    own, zero = x.payload, _zeros(x.shape, cfg)
    a, b = (own, zero) if sess.party == 0 else (zero, own)

    g = and_shares(sess, a, b).words  # a fresh buffer, updated in place below
    # p = a ^ b is the party's own share, since the other summand is zero
    p = own
    shifted = np.empty((2, *x.shape), dtype=np.uint64)
    for level in range(math.ceil(math.log2(cfg.total_bits))):
        k = np.uint64(1 << level)
        np.left_shift(g, k, out=shifted[0, ...])
        np.left_shift(p.words, k, out=shifted[1, ...])
        lhs = RingTensor(np.broadcast_to(p.words, shifted.shape), cfg)
        both = and_shares(sess, lhs, RingTensor(shifted, cfg))
        g ^= both.words[0]
        p = RingTensor(both.words[1], cfg)
    np.left_shift(g, np.uint64(1), out=g)  # the carries
    g ^= own.words
    return BinaryShareTensor(sess.party, RingTensor(g, cfg))


def msb(x: BinaryShareTensor) -> BinaryShareTensor:
    """Extract the sign bit plane; local, zero rounds."""
    bits = x.payload.cfg.total_bits
    return BinaryShareTensor(x.party, x.payload.rshift(bits - 1))


def b2a(sess: Session, bit: BinaryShareTensor) -> ShareTensor:
    """Convert a 1-bit XOR sharing to an arithmetic sharing at scale 0.

    b0 XOR b1 = b0 + b1 - 2*b0*b1; the cross term costs one Beaver multiply.
    """
    cfg = bit.payload.cfg
    zero = _zeros(bit.shape, cfg)
    own = bit.payload
    x0 = ShareTensor(sess.party, own if sess.party == 0 else zero, 0)
    x1 = ShareTensor(sess.party, own if sess.party == 1 else zero, 0)
    cross = mul_beaver(sess, x0, x1)
    return ShareTensor(sess.party, own - cross.payload * np.uint64(2), 0)


def ltz(sess: Session, x: ShareTensor) -> ShareTensor:
    """Exact comparison with zero: reconstructs to 1 iff decode(x) < 0.

    Zero counts as non-negative.  Composition: a2b, local sign-bit extract,
    then b2a.
    """
    return b2a(sess, msb(a2b(sess, x)))


def relu_secure(sess: Session, x: ShareTensor) -> ShareTensor:
    """max(x, 0) on shares: one comparison plus one Beaver multiply."""
    b = ltz(sess, x)
    return mul_beaver(sess, public_complement(b), x)


def dapa_eval_secure(sess: Session, x: ShareTensor, c0, c1, c2=None) -> ShareTensor:
    """Evaluate the public polynomial c2*x^2 + c1*x + c0 on a share.

    Coefficients are numpy arrays broadcastable to x's shape (per channel or
    per element).  Degree 2 (c2 given, even if all zero) costs one square
    (one round); c2 None is communication free.

    All terms are combined at double scale and shifted down once, so the
    result sits within 2 ULP of the fixed-point reference: one possible ULP
    from the square's rescale propagated through c2 (|c2| < 1), one from the
    final shift.  Keeping intermediates at scale 2f also keeps the rare
    truncation-wrap probability at the same level as a plain multiply.
    """
    cfg = x.payload.cfg
    f = cfg.frac_bits
    if x.scale != f:
        raise ValueError(f"polynomial evaluation expects scale {f}, got {x.scale}")

    def enc(c) -> RingTensor:
        # encoded at its own (say per-channel) shape; the ring products
        # broadcast it over the batch
        c = np.asarray(c, dtype=np.float64)
        if np.broadcast_shapes(c.shape, x.shape) != x.shape:
            raise ValueError(f"coefficient shape {c.shape} does not broadcast to {x.shape}")
        return encode(c, cfg)

    e0, e1 = enc(c0), enc(c1)
    e2 = enc(c2) if c2 is not None else None

    acc = x.payload * e1  # scale 2f
    if e2 is not None:
        sq = square(sess, x)  # scale f, one rescale inside
        acc = acc + sq.payload * e2
    if sess.party == 0:
        acc = acc + e0.lshift(f)
    return _rescale(ShareTensor(sess.party, acc, 0), 2 * f)


# ---- tape request planning ---------------------------------------------------
# These mirror the consumption order of the operations above and of
# runtime.hybrid_activation_secure; the runtime builds its dealer tapes from
# them and tests assert that running an op leaves exactly zero unused records.


def a2b_requests(shape, cfg: FixedConfig) -> list:
    levels = math.ceil(math.log2(cfg.total_bits))
    return [dl.AndRequest(tuple(shape))] + [dl.AndRequest((2, *shape)) for _ in range(levels)]


def ltz_requests(shape, cfg: FixedConfig) -> list:
    return a2b_requests(shape, cfg) + [dl.BeaverRequest(tuple(shape))]


def relu_requests(shape, cfg: FixedConfig) -> list:
    return ltz_requests(shape, cfg) + [dl.BeaverRequest(tuple(shape))]


def dapa_requests(shape, degree: int = 2) -> list:
    return [dl.SquareRequest(tuple(shape))] if degree >= 2 else []


def hybrid_requests(batch: int, mask: np.ndarray, cfg: FixedConfig, degree: int = 2) -> list:
    flat_m = np.asarray(mask).reshape(-1).astype(bool)
    n_relu = int(flat_m.sum())
    n_poly = flat_m.size - n_relu
    reqs: list = []
    if n_relu:
        reqs += relu_requests((batch, n_relu), cfg)
    if n_poly:
        reqs += dapa_requests((batch, n_poly), degree)
    return reqs
