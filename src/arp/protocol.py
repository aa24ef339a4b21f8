"""Online two-party operations on additive and XOR shares.

Round and opening accounting (asserted by tests):
  msb                              0 rounds, nothing opened
  lin_combine / mul_public         0 rounds, nothing opened, on rings that
                                   truncate locally; else one exact
                                   truncation
  mul_beaver                       1 round, opens 2|X| words
  square                           1 round, opens |X| words
  b2a                              1 round (one Beaver multiply)
  a2b                              1 + ceil(log2 L) rounds (initial AND plus
                                   one batched AND per prefix-adder level)
  exact truncation                 1 round, opens |X| words, per rescale

Model weights and polynomial coefficients are public to both compute
servers; only activations are secret shared.  So every interactive op is
elementwise, and it reads its dealer record (Beaver triple, square pair or
AND triple) from the session's tape with the same kind of request that the
planners below hand the dealer.

Frames and blocks: every opening goes through `_finish`.  An op writes its
masked words once, straight into the `fixed.flat_frame` it sends
(`_open_masked`); `Session.reveal` and `reveal_bits` mask with zeros, so
their frame carries the share itself.  Once sent, a frame belongs to the
channel, and the in-memory peer reads the very array, so no op writes into
a frame it has sent or received; both are read-only.  The op then builds its
result into one fresh array one block of `_BLOCK` flat words at a time: it
combines both parties' words of the block into small scratch rows and
applies its own arithmetic while the block's operands are in cache.  An op
of at most `_BLOCK` words is one block.

Every rescale after a product (`_rescale`, which every op hands its
session) follows one rule, chosen by the ring alone.  Where
`exact_truncation(cfg)` is false, as on the default L=64, f=16 ring, it is a
local arithmetic shift of each party's share, which costs nothing in
communication but can leave the reconstruction one ULP below the
value-level shift.  It also wraps, giving a wildly wrong result, with
probability about |v| * 2^(2f-L) per element for a product of decoded
magnitude |v| held at scale 2f (e.g. 1.2% at L=32, f=12, |v|=3); a wrapped
element is off by 2^(L-f) ULP, which is 2^(L-2f) decoded.  On rings where
that rate is high the parties instead open the value plus a dealer mask r
and correct for the mask's wrap with dealt shares of (-r) >> f and of its
top bit, as in CrypTen's trusted-third-party truncation (Knott et al.,
NeurIPS 2021).  That costs one round and |X| opened words per rescale, and
the result is the floor of the shifted value or one ULP above it, for any
|value| < 2^(L-2) at scale 2f.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dealer as dl
from .errors import TripleReuseError
from .fixed import FixedConfig, RingTensor, encode, flat_frame, truncate
from .transport import Channel

__all__ = [
    "PHASES",
    "exact_truncation",
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
    "trunc_requests",
]


def exact_truncation(cfg: FixedConfig) -> bool:
    """Whether inference at `cfg` truncates exactly rather than locally.

    Local truncation wraps at about |v| * 2^(2f-L) per element; it is kept
    where that rate is at most |v| * 2^-32 (L=64 with f <= 16, the default
    ring), since exact truncation costs a round per rescale.  A ring with
    f = 0 never rescales.
    """
    return cfg.frac_bits > 0 and 2 * cfg.frac_bits - cfg.total_bits > -32


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

    def reveal(self, x: ShareTensor) -> RingTensor:
        """Joint recovery: both parties learn payload_0 + payload_1."""
        return self._open(x.payload, "add")

    def reveal_bits(self, x: BinaryShareTensor) -> RingTensor:
        """Joint recovery of an XOR sharing: payload_0 ^ payload_1."""
        return self._open(x.payload, "xor")

    def _open(self, x: RingTensor, mode: str) -> RingTensor:
        # an opening with an all-zero mask: the frame carries the share itself
        out = _finish(self, [(x, _zeros(x.shape, x.cfg))], mode, np.copyto)
        return RingTensor(out, self.cfg)


# how a share is masked for opening, and how both parties' words combine
_MASK = {"add": np.subtract, "xor": np.bitwise_xor}
_OPEN = {"add": np.add, "xor": np.bitwise_xor}

# Words of each operand in one block of an op's finish: the ~7 operands of a
# block (opened words, tape fields, inputs, output) then fit in a 2 MiB L2.
_BLOCK = 1 << 14


def _mode(table: dict, mode: str):
    if mode not in table:
        raise ValueError(f"unknown opening mode {mode!r}: expected 'add' or 'xor'")
    return table[mode]


def _open_masked(sess: Session, pairs, mode: str = "add"):
    """Open share - mask ("add") or share ^ mask ("xor") for each (share,
    mask) pair in one message.

    The masked words are written once, straight into the rows of the frame
    that is sent.  Returns this party's rows and the peer's, each a read-only
    (len(pairs), size) array, uncombined.  On rings narrower than 64 bits
    this party's words are not reduced mod 2^L (the wire packs their low
    bytes), so a caller that shifts or compares their combination reduces it.
    """
    mask_op = _mode(_MASK, mode)
    share = pairs[0][0]
    k, n = len(pairs), share.size
    frame = flat_frame(k * n)
    for row, (v, m) in zip(frame[1:].reshape(k, n), pairs):
        mask_op(v.words, m.words, out=row.reshape(share.shape))
    theirs = sess.channel.exchange_frame(frame, share.cfg)
    sess.opened_words += k * n
    return frame[1:].reshape(k, n), theirs.reshape(k, n)


def _finish(sess: Session, pairs, mode: str, kernel, *operands: RingTensor) -> np.ndarray:
    """Open `pairs` as `_open_masked` does, then build the op's result one
    block of `_BLOCK` flat words at a time, while the block is in cache.

    For each block, both parties' words are combined into scratch rows, one
    per pair, and `kernel(out, *opened, *operands)` writes the block of the
    result from the block of each scratch row, which it may overwrite, and
    of each operand.  Returns the fresh result, shaped like the first share.
    """
    combine = _mode(_OPEN, mode)
    mine, theirs = _open_masked(sess, pairs, mode)
    k, n = mine.shape
    flat = [t.words.reshape(-1) for t in operands]  # views, also of `_zeros`
    out = np.empty(n, np.uint64)
    scratch = np.empty((k, min(n, _BLOCK)), np.uint64)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        opened = scratch[:, : hi - lo]
        combine(mine[:, lo:hi], theirs[:, lo:hi], out=opened)
        kernel(out[lo:hi], *opened, *(w[lo:hi] for w in flat))
    return out.reshape(pairs[0][0].shape)


def _zeros(shape, cfg: FixedConfig) -> RingTensor:
    """Read-only all-zero words that take no memory."""
    return RingTensor(np.broadcast_to(np.uint64(0), shape), cfg)


def _consume(record):
    if record.used:
        raise TripleReuseError(f"{type(record).__name__} consumed twice")
    record.used = True
    return record


def _rescale(sess: Session, x: ShareTensor, raw_scale: int) -> ShareTensor:
    """Shift a product share back down to at most f fractional bits: exactly
    if its ring truncates exactly, else locally."""
    f = x.payload.cfg.frac_bits
    out_scale = min(f, raw_scale)
    shift = raw_scale - out_scale
    if not shift:
        return ShareTensor(x.party, x.payload, out_scale)
    if exact_truncation(x.payload.cfg):
        if shift != f:
            raise ValueError(f"exact truncation shifts by f={f} bits, not {shift}")
        return _truncate_exact(sess, x.payload)
    return ShareTensor(x.party, truncate(x.payload, bits=shift), out_scale)


def _truncate_exact(sess: Session, x: RingTensor) -> ShareTensor:
    """Shift a share at scale 2f down by f bits with one truncation mask.

    For y = x + 2^(L-2), which lies in [0, 2^(L-1)) when |x| < 2^(L-2), the
    parties open c = y + s with s = -r.  y + s wraps past 2^L exactly when
    msb(s) is set and msb(c) is not, so y >> f is (c >> f) - (s >> f) +
    wrap * 2^(L-f), less the borrow from the low f bits, which the result
    keeps: it is y >> f or one more.  Subtracting 2^(L-2-f) gives x's.
    """
    cfg = x.cfg
    L, f = cfg.total_bits, cfg.frac_bits
    mask = _consume(sess.tape.take(dl.TruncRequest(x.shape)))
    y = x + np.uint64(1 << (L - 2)) if sess.party == 0 else x

    def kernel(out, c, w, hi):
        c &= cfg.mask  # the opened sum may carry past L bits
        np.right_shift(c, np.uint64(L - 1), out=out)
        np.subtract(np.uint64(1), out, out=out)  # 1 where c's top bit is clear
        out *= w
        out -= hi
        if sess.party == 0:
            c >>= np.uint64(f)
            out += c
            out -= np.uint64(1 << (L - 2 - f))

    out = _finish(sess, [(y, mask.r)], "add", kernel, mask.w, mask.hi)
    return ShareTensor(sess.party, RingTensor(out, cfg), f)


# ---- local (round-free) operations -----------------------------------------


def lin_combine(sess: Session, a: float, x: ShareTensor, y: ShareTensor) -> ShareTensor:
    """Public-scalar combination a*X + Y; one rescale, as in `mul_public`."""
    return mul_public(sess, x, encode(a, x.payload.cfg)) + y


def mul_public(sess: Session, x: ShareTensor, w: RingTensor, op: str = "elementwise", *,
               stride: int = 1, padding: int = 0) -> ShareTensor:
    """Multiply a share by a public ring tensor at scale f.  Local, zero
    rounds, on rings that truncate locally; one round where the ring
    truncates exactly."""
    if op == "elementwise":
        raw = x.payload * w
    elif op == "matmul":
        raw = x.payload.matmul(w)
    elif op == "conv2d":
        raw = x.payload.conv2d(w, stride=stride, padding=padding)
    else:
        raise ValueError(f"unknown product op {op!r}")
    return _rescale(sess, ShareTensor(x.party, raw, x.scale), x.scale + x.payload.cfg.frac_bits)


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

    def kernel(r, e, f_, xw, yw, z):
        # r = x*f + e*y + z [- e*f on party 1]
        np.multiply(xw, f_, out=r)
        r += z
        if sess.party == 1:
            f_ *= e
            r -= f_
        e *= yw
        r += e

    r = _finish(sess, [(x.payload, triple.a), (y.payload, triple.b)], "add", kernel,
                x.payload, y.payload, triple.z)
    return _rescale(sess, ShareTensor(sess.party, RingTensor(r, x.payload.cfg), 0), x.scale + y.scale)


def square(sess: Session, x: ShareTensor) -> ShareTensor:
    """Elementwise secure square; one round, opens |X| words (half a multiply)."""
    pair = _consume(sess.tape.take(dl.SquareRequest(x.shape)))

    def kernel(r, e, a, z):
        # r = 2*e*a + z [+ e*e on party 0]
        np.multiply(e, a, out=r)
        r += r
        r += z
        if sess.party == 0:
            e *= e
            r += e

    r = _finish(sess, [(x.payload, pair.a)], "add", kernel, pair.a, pair.z)
    return _rescale(sess, ShareTensor(sess.party, RingTensor(r, x.payload.cfg), 0), 2 * x.scale)


def and_shares(sess: Session, x: RingTensor, y: RingTensor) -> RingTensor:
    """Bitwise AND of XOR-shared words via one AND triple; one round."""
    triple = _consume(sess.tape.take(dl.AndRequest(x.shape)))

    def kernel(z, e, f_, a, b, c):
        # z = c ^ (e & b) ^ (a & f) [^ (e & f) on party 0]
        np.bitwise_and(e, b, out=z)
        z ^= c
        if sess.party == 0:
            e &= f_
            z ^= e
        f_ &= a
        z ^= f_

    z = _finish(sess, [(x, triple.a), (y, triple.b)], "xor", kernel, triple.a, triple.b, triple.c)
    return RingTensor(z, x.cfg)


def _adder_levels(cfg: FixedConfig) -> int:
    """Prefix-adder levels of an L-bit a2b: ceil(log2 L), one batched AND each."""
    return math.ceil(math.log2(cfg.total_bits))


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
    for level in range(_adder_levels(cfg)):
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
    (one round); c2 None is communication free.  Exact truncation adds a
    round to each of the square's and the final rescale.

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
    return _rescale(sess, ShareTensor(sess.party, acc, 0), 2 * f)


# ---- tape request planning ---------------------------------------------------
# These mirror the consumption order of the operations above, as
# runtime.hybrid_requests does for runtime.hybrid_activation_secure; the
# runtime builds its dealer tapes from them and tests assert that running an
# op leaves exactly zero unused records.


def a2b_requests(shape, cfg: FixedConfig) -> list:
    levels = _adder_levels(cfg)
    return [dl.AndRequest(tuple(shape))] + [dl.AndRequest((2, *shape)) for _ in range(levels)]


def ltz_requests(shape, cfg: FixedConfig) -> list:
    return a2b_requests(shape, cfg) + [dl.BeaverRequest(tuple(shape))]


def relu_requests(shape, cfg: FixedConfig) -> list:
    return ltz_requests(shape, cfg) + [dl.BeaverRequest(tuple(shape))]


def trunc_requests(shape, cfg: FixedConfig) -> list:
    """The truncation mask of one rescale of a `shape` share, if `cfg`'s ring
    truncates exactly."""
    return [dl.TruncRequest(tuple(shape))] if exact_truncation(cfg) else []


def dapa_requests(shape, cfg: FixedConfig, degree: int = 2) -> list:
    square = [dl.SquareRequest(tuple(shape)), *trunc_requests(shape, cfg)] if degree >= 2 else []
    return square + trunc_requests(shape, cfg)
