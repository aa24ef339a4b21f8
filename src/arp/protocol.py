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
elementwise, and it takes its dealer record's fields (a "beaver" triple, a
"square" pair, an "and" triple or a "trunc" mask) from the session's tape
with the one `dealer.Request` it builds; ops never list the records they
will take.  `runtime.SecureEvaluator.plan` lists a whole run's.

Share types: an additive share is a `ShareTensor` (ring words and a
scale); an XOR share is a plain `RingTensor`.  Neither stores its party:
every op that needs it reads it from the session, which it takes first.

Frames and blocks: every opening goes through `_finish`.  An op writes its
masked words once, straight into the `transport.flat_frame` it sends
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
from .fixed import FixedConfig, RingTensor, broadcast_view, broadcasts, encode, truncate
from .transport import Channel, flat_frame

__all__ = [
    "PHASES",
    "exact_truncation",
    "ShareTensor",
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
    "adder_levels",
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
    """One party's additive share; reconstructs as payload_0 + payload_1 mod
    2^L.  Its party is that of the session it is used in."""

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
        return ShareTensor(self.payload + other.payload, self.scale)

    def __sub__(self, other: "ShareTensor") -> "ShareTensor":
        self._check(other)
        return ShareTensor(self.payload - other.payload, self.scale)

    def __neg__(self) -> "ShareTensor":
        return ShareTensor(-self.payload, self.scale)

    def reshape(self, *shape) -> "ShareTensor":
        return ShareTensor(self.payload.reshape(*shape), self.scale)


PHASES = ("dealer", "linear", "comparison", "polynomial")


class Session:
    """One party's view of a protocol run: channel, tape, and counters.

    Phase accounting: `phases` holds one row per phase of bytes sent (as
    many as are received), rounds, opened words and seconds.  "dealer"
    covers tape generation (setup), "linear" covers public-weight layers,
    pooling and the final logit opening, "comparison" covers secure ReLU
    (including its multiply), "polynomial" covers the secure polynomial path.
    """

    def __init__(self, party: int, cfg: FixedConfig, channel: Channel,
                 tape: dl.TapeReader | dl.DealingReader | None = None):
        if party not in (0, 1):
            raise ValueError("party must be 0 or 1")
        self.party = party
        self.cfg = cfg
        self.channel = channel
        self.tape = tape
        self.opened_words = 0
        self.phases = {p: dict(bytes_sent=0, rounds=0, opened_words=0, seconds=0.0) for p in PHASES}

    @contextmanager
    def measure(self, phase: str):
        """Charge the traffic, openings and time inside the block to `phase`."""
        ch = self.channel
        before = (ch.bytes_sent, ch.rounds, self.opened_words, time.perf_counter())
        yield
        after = (ch.bytes_sent, ch.rounds, self.opened_words, time.perf_counter())
        row = self.phases[phase]  # its columns, in the order of `before`
        for key, was, now in zip(row, before, after):
            row[key] += now - was

    # -- share plumbing ---------------------------------------------------

    def share_of(self, words, scale: int | None = None) -> ShareTensor:
        scale = self.cfg.frac_bits if scale is None else scale
        return ShareTensor(RingTensor(words, self.cfg), scale)

    def zeros_like(self, shape, scale: int = 0) -> ShareTensor:
        return ShareTensor(RingTensor.zeros(shape, self.cfg), scale)

    def reveal(self, x: ShareTensor) -> RingTensor:
        """Joint recovery: both parties learn payload_0 + payload_1."""
        return self._open(x.payload, "add")

    def reveal_bits(self, x: RingTensor) -> RingTensor:
        """Joint recovery of an XOR sharing: x_0 ^ x_1."""
        return self._open(x, "xor")

    def _open(self, x: RingTensor, mode: str) -> RingTensor:
        # an opening with an all-zero mask: the frame carries the share itself
        out = _finish(self, [(x, _zeros(x.shape, x.cfg))], mode, np.copyto)
        return RingTensor(out, self.cfg)


# each opening mode's mask op (share - mask, or share ^ mask) and the op
# that combines both parties' masked words
_MODES = {"add": (np.subtract, np.add), "xor": (np.bitwise_xor, np.bitwise_xor)}

# Words of each operand in one block of an op's finish: the ~7 operands of a
# block (opened words, tape fields, inputs, output) then fit in a 2 MiB L2.
_BLOCK = 1 << 14


def _open_masked(sess: Session, pairs, mode: str = "add"):
    """Open share - mask ("add") or share ^ mask ("xor") for each (share,
    mask) pair in one message.

    The masked words are written once, straight into the rows of the frame
    that is sent.  Returns this party's rows and the peer's, each a read-only
    (len(pairs), size) array, uncombined.  On rings narrower than 64 bits
    this party's words are not reduced mod 2^L (the wire packs their low
    bytes), so a caller that shifts or compares their combination reduces it.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown opening mode {mode!r}: expected 'add' or 'xor'")
    mask_op = _MODES[mode][0]
    share = pairs[0][0]
    k, n = len(pairs), share.words.size
    frame = flat_frame(k * n)
    rows = frame[1:].reshape(k, *share.shape)
    for i, (v, m) in enumerate(pairs):
        mask_op(v.words, m.words, out=rows[i, ...])
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
    mine, theirs = _open_masked(sess, pairs, mode)
    combine = _MODES[mode][1]
    k, n = mine.shape
    flat = [t.words.reshape(n) for t in operands]  # views, also of `_zeros`
    out = np.empty(n, np.uint64)
    if n <= _BLOCK:  # one block, whole
        kernel(out, *combine(mine, theirs), *flat)
        return out.reshape(pairs[0][0].shape)
    scratch = np.empty((k, _BLOCK), np.uint64)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        opened = scratch[:, : hi - lo]
        combine(mine[:, lo:hi], theirs[:, lo:hi], out=opened)
        kernel(out[lo:hi], *opened, *(w[lo:hi] for w in flat))
    return out.reshape(pairs[0][0].shape)


# the one word every `_zeros` view reads
_ZERO_WORD = np.zeros((), np.uint64)
_ZERO_WORD.setflags(write=False)


def _zeros(shape, cfg: FixedConfig) -> RingTensor:
    """Read-only all-zero words that take no memory: a view of one word."""
    return RingTensor.of_reduced(broadcast_view(_ZERO_WORD, shape), cfg)


def _rescale(sess: Session, x: ShareTensor, raw_scale: int) -> ShareTensor:
    """Shift a product share back down to at most f fractional bits: exactly
    if its ring truncates exactly, else locally."""
    f = x.payload.cfg.frac_bits
    out_scale = min(f, raw_scale)
    shift = raw_scale - out_scale
    if not shift:
        return ShareTensor(x.payload, out_scale)
    if exact_truncation(x.payload.cfg):
        if shift != f:
            raise ValueError(f"exact truncation shifts by f={f} bits, not {shift}")
        return _truncate_exact(sess, x.payload)
    return ShareTensor(truncate(x.payload, bits=shift), out_scale)


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
    r, hi, w = sess.tape.take(dl.Request("trunc", x.shape))
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

    out = _finish(sess, [(y, r)], "add", kernel, w, hi)
    return ShareTensor(RingTensor(out, cfg), f)


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
    return _rescale(sess, ShareTensor(raw, x.scale), x.scale + x.payload.cfg.frac_bits)


def add_public(sess: Session, x: ShareTensor, c: RingTensor) -> ShareTensor:
    """Add a public constant: only party 0 contributes it; party 1's share is returned as is.

    Both parties refuse a constant that does not broadcast to the share's shape.
    """
    if not broadcasts(c.shape, x.shape):
        raise ValueError(f"public constant of shape {c.shape} does not broadcast to {x.shape}")
    if sess.party == 0:
        return ShareTensor(x.payload + c, x.scale)
    return x


def public_complement(sess: Session, x: ShareTensor) -> ShareTensor:
    """1 - x for a scale-0 bit share."""
    if sess.party == 1:
        return ShareTensor(-x.payload, 0)
    one = RingTensor(np.ones(x.shape, dtype=np.uint64), x.payload.cfg)
    return ShareTensor(one - x.payload, 0)


# ---- interactive operations --------------------------------------------------


def mul_beaver(sess: Session, x: ShareTensor, y: ShareTensor) -> ShareTensor:
    """Elementwise secure product via one Beaver triple; one round, opens 2|X| words."""
    if x.shape != y.shape:
        raise ValueError(f"mul_beaver needs equal shapes, got {x.shape} and {y.shape}")
    a, b, z = sess.tape.take(dl.Request("beaver", x.shape))

    def kernel(r, e, f_, xw, yw, z):
        # r = x*f + e*y + z [- e*f on party 1]
        np.multiply(xw, f_, out=r)
        r += z
        if sess.party == 1:
            f_ *= e
            r -= f_
        e *= yw
        r += e

    r = _finish(sess, [(x.payload, a), (y.payload, b)], "add", kernel, x.payload, y.payload, z)
    return _rescale(sess, ShareTensor(RingTensor(r, x.payload.cfg), 0), x.scale + y.scale)


def square(sess: Session, x: ShareTensor) -> ShareTensor:
    """Elementwise secure square; one round, opens |X| words (half a multiply)."""
    a, z = sess.tape.take(dl.Request("square", x.shape))

    def kernel(r, e, a, z):
        # r = 2*e*a + z [+ e*e on party 0]
        np.multiply(e, a, out=r)
        r += r
        r += z
        if sess.party == 0:
            e *= e
            r += e

    r = _finish(sess, [(x.payload, a)], "add", kernel, a, z)
    return _rescale(sess, ShareTensor(RingTensor(r, x.payload.cfg), 0), 2 * x.scale)


def and_shares(sess: Session, x: RingTensor, y: RingTensor) -> RingTensor:
    """Bitwise AND of XOR-shared words via one AND triple; one round."""
    a, b, c = sess.tape.take(dl.Request("and", x.shape))

    def kernel(z, e, f_, a, b, c):
        # z = c ^ (e & b) ^ (a & f) [^ (e & f) on party 0]
        np.bitwise_and(e, b, out=z)
        z ^= c
        if sess.party == 0:
            e &= f_
            z ^= e
        f_ &= a
        z ^= f_

    # XORs and ANDs of reduced words are reduced
    return RingTensor.of_reduced(_finish(sess, [(x, a), (y, b)], "xor", kernel, a, b, c), x.cfg)


def adder_levels(cfg: FixedConfig) -> int:
    """Prefix-adder levels of an L-bit a2b: ceil(log2 L), one batched AND each."""
    return math.ceil(math.log2(cfg.total_bits))


def a2b(sess: Session, x: ShareTensor) -> RingTensor:
    """Arithmetic to binary sharing via a Kogge-Stone adder; returns this
    party's XOR share of x's words.

    Each party XOR-shares its own arithmetic share locally, then the two
    L-bit summands are added with a carry-lookahead circuit: 1 + ceil(log2 L)
    rounds, one batched AND per level.
    """
    cfg = x.payload.cfg
    own, zero = x.payload, _zeros(x.shape, cfg)
    a, b = (own, zero) if sess.party == 0 else (zero, own)

    g = and_shares(sess, a, b).words  # a fresh buffer, updated in place below
    # p = a ^ b is the party's own share, since the other summand is zero
    p = own.words if own.words.flags.c_contiguous else own.words.copy()
    shifted = np.empty((2, *x.shape), dtype=np.uint64)
    for level in range(adder_levels(cfg)):
        k = np.uint64(1 << level)
        np.left_shift(g, k, out=shifted[0, ...])
        np.left_shift(p, k, out=shifted[1, ...])
        # p against both rows of `shifted`: a view, as p is already reduced
        lhs = RingTensor.of_reduced(broadcast_view(p, shifted.shape), cfg)
        both = and_shares(sess, lhs, RingTensor(shifted, cfg)).words
        g ^= both[0, ...]
        p = both[1, ...]
    np.left_shift(g, np.uint64(1), out=g)  # the carries
    g ^= own.words
    return RingTensor(g, cfg)


def msb(x: RingTensor) -> RingTensor:
    """Extract the sign bit plane of an XOR share; local, zero rounds."""
    return x.rshift(x.cfg.total_bits - 1)


def b2a(sess: Session, bit: RingTensor) -> ShareTensor:
    """Convert this party's share `bit` of a 1-bit XOR sharing to an
    arithmetic sharing at scale 0.

    b0 XOR b1 = b0 + b1 - 2*b0*b1; the cross term costs one Beaver multiply.
    """
    zero = _zeros(bit.shape, bit.cfg)
    x0 = ShareTensor(bit if sess.party == 0 else zero, 0)
    x1 = ShareTensor(bit if sess.party == 1 else zero, 0)
    cross = mul_beaver(sess, x0, x1)
    return ShareTensor(bit - cross.payload * np.uint64(2), 0)


def ltz(sess: Session, x: ShareTensor) -> ShareTensor:
    """Exact comparison with zero: reconstructs to 1 iff decode(x) < 0.

    Zero counts as non-negative.  Composition: a2b, local sign-bit extract,
    then b2a.
    """
    return b2a(sess, msb(a2b(sess, x)))


def relu_secure(sess: Session, x: ShareTensor) -> ShareTensor:
    """max(x, 0) on shares: one comparison plus one Beaver multiply."""
    b = ltz(sess, x)
    return mul_beaver(sess, public_complement(sess, b), x)


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
        if not broadcasts(c.shape, x.shape):
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
    return _rescale(sess, ShareTensor(acc, 0), 2 * f)
