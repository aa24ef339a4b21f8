"""Online two-party operations on additive and XOR shares.

Round and opening accounting (asserted by tests):
  lin_combine / mul_public         0 rounds, nothing opened, on rings that
                                   truncate locally; else one exact
                                   truncation
  mul_beaver / and_shares          1 round, opens 2|X| words
  square                           1 round, opens |X| words
  a2b (the sign bit only)          1 + ceil(log2(L-1)) rounds (the generate
                                   AND, then one batched AND per carry-tree
                                   level); opens 2g + 4(n-1) words per
                                   plane word, W = ceil(|X| / B) of them
                                   (`a2b_geometry`): at L=64, 378 per 64
                                   elements or fewer
  select (x * bit)                 1 round, opens |X| + W words
  b2a (select of the public one)   1 round, opens |X| + W words
  relu_secure (a2b, then select)   2 + ceil(log2(L-1)) rounds
  exact truncation                 1 round, opens |X| words, per rescale

Model weights and polynomial coefficients are public to both compute
servers; only activations are secret shared.  So every interactive op is
elementwise, and it takes its dealer record's fields (a "beaver", "and" or
"select" triple, a "square" pair or a "trunc" mask) from the session's tape
with the one `dealer.Request` it builds; ops never list the records they
will take.  `runtime.SecureEvaluator.plan` lists a whole run's.
`mul_beaver` and `and_shares` are one op, `_triple`, over the two rings:
multiply and add on additive shares, AND and XOR on XOR shares.

Share types: an additive share is a `ShareTensor` (ring words and a
scale); an XOR share is a plain `RingTensor`.  Neither stores its party:
every op that needs it reads it from the session, which it takes first.

Frames and blocks: every opening goes through `_finish`.  An op writes its
masked words once, straight into the `transport.flat_frame` it sends
(`_open_masked`); one frame may carry parts of different sizes and modes,
as `select`'s does.  `Session.reveal` and `reveal_bits` mask with zeros, so
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

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

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
    "a2b_geometry",
    "select",
    "b2a",
    "ltz",
    "relu_secure",
    "dapa_eval_secure",
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
    (a2b and its select), "polynomial" covers the secure polynomial path.
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


# each opening mode's mask op (share - mask, or share ^ mask), the op that
# combines both parties' masked words, and its ring's product
_MODES = {"add": (np.subtract, np.add, np.multiply),
          "xor": (np.bitwise_xor, np.bitwise_xor, np.bitwise_and)}

# Words of each operand in one block of an op's finish: the ~7 operands of a
# block (opened words, tape fields, inputs, output) then fit in a 2 MiB L2.
_BLOCK = 1 << 14


def _open_masked(sess: Session, pairs, mode="add") -> list:
    """Open share - mask ("add") or share ^ mask ("xor") for each (share,
    mask) pair in one message; `mode` is one mode for all pairs, or one per
    pair, and pairs may differ in size.

    The masked words are written once, straight into the frame that is
    sent.  Returns, per pair, the ufunc that combines both parties' words,
    and this party's and the peer's flat words, read-only and uncombined.
    On rings narrower than 64 bits this party's words are not reduced mod
    2^L (the wire packs their low bytes), so a caller that shifts or
    compares their combination reduces it.
    """
    modes = (mode,) * len(pairs) if isinstance(mode, str) else mode
    cuts, lo = [], 1  # each pair's mode and words of the frame
    for (v, _), m in zip(pairs, modes):
        if m not in _MODES:
            raise ValueError(f"unknown opening mode {m!r}: expected 'add' or 'xor'")
        cuts.append((m, lo, lo := lo + v.words.size))
    frame = flat_frame(lo - 1)
    for (v, mask), (m, a, b) in zip(pairs, cuts):
        _MODES[m][0](v.words, mask.words, out=frame[a:b].reshape(v.shape))
    theirs = sess.channel.exchange_frame(frame, pairs[0][0].cfg)
    sess.opened_words += lo - 1
    return [(_MODES[m][1], frame[a:b], theirs[a - 1 : b - 1]) for m, a, b in cuts]


def _finish(sess: Session, pairs, mode, kernel, *operands: RingTensor) -> np.ndarray:
    """Open `pairs` as `_open_masked` does, then build the op's result one
    block of `_BLOCK` flat words at a time, while the block is in cache.

    For each block, both parties' words are combined into scratch rows, one
    per pair, and `kernel(out, *opened, *operands)` writes the block of the
    result from the block of each scratch row, which it may overwrite, and
    of each operand.  Blocks cut the first pair's n words; block [lo, hi) of
    a pair of m words is [lo*m // n, hi*m // n).  Returns the fresh result,
    shaped like the first share.
    """
    parts = _open_masked(sess, pairs, mode)
    n = parts[0][1].size
    flat = [t.words.reshape(n) for t in operands]  # views, also of `_zeros`
    out = np.empty(n, np.uint64)
    if n <= _BLOCK:  # one block, whole
        kernel(out, *[combine(mine, theirs) for combine, mine, theirs in parts], *flat)
        return out.reshape(pairs[0][0].shape)
    scratch = [np.empty(_BLOCK * mine.size // n + 1, np.uint64) for _, mine, _ in parts]
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        opened = []
        for (combine, mine, theirs), row in zip(parts, scratch):
            a, b = lo * mine.size // n, hi * mine.size // n
            opened.append(combine(mine[a:b], theirs[a:b], out=row[: b - a]))
        kernel(out[lo:hi], *opened, *(w[lo:hi] for w in flat))
    return out.reshape(pairs[0][0].shape)


def _word(v: int) -> np.ndarray:
    """A read-only 0-d uint64 array: a ufunc takes it faster than a scalar."""
    a = np.array(v, np.uint64)
    a.setflags(write=False)
    return a


# the one word every `_zeros` view reads
_ZERO_WORD = _word(0)
_ONE = _word(1)


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


# ---- interactive operations --------------------------------------------------


def _triple(sess: Session, kind: str, mode: str, x: RingTensor, y: RingTensor) -> np.ndarray:
    """x * y by one `kind` triple (a, b, c = a * b) in `mode`'s ring, the
    product of "add" and the AND of "xor": one round opens e = x - a and f =
    y - b (x ^ a and y ^ b), and each party gets c_i + e * b_i + a_i * f,
    plus e * f on party 0 (Beaver, CRYPTO 1991).  Returns the fresh words,
    unreduced on an "add" ring narrower than 64 bits."""
    if x.shape != y.shape:
        raise ValueError(f"a {kind!r} triple needs equal shapes, got {x.shape} and {y.shape}")
    a, b, c = sess.tape.take(dl.Request(kind, x.shape))
    _, plus, times = _MODES[mode]

    def kernel(z, e, f_, a, b, c):
        times(e, b, out=z)
        plus(z, c, out=z)
        if sess.party == 0:
            times(e, f_, out=e)
            plus(z, e, out=z)
        times(f_, a, out=f_)
        plus(z, f_, out=z)

    return _finish(sess, [(x, a), (y, b)], mode, kernel, a, b, c)


def mul_beaver(sess: Session, x: ShareTensor, y: ShareTensor) -> ShareTensor:
    """Elementwise secure product via one Beaver triple; one round, opens 2|X| words."""
    r = _triple(sess, "beaver", "add", x.payload, y.payload)
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
    # XORs and ANDs of reduced words are reduced
    return RingTensor.of_reduced(_triple(sess, "and", "xor", x, y), x.cfg)


class _Layout(NamedTuple):
    """The bit planes and carry tree of an a2b on one ring (see
    `a2b_geometry`)."""

    B: int  # element bits of a plane word
    n: int  # leaves
    g: int  # rows of the generate AND
    top: np.ndarray  # 0-d L-1
    ident: np.ndarray  # 0-d word of bits L-1..n-1: the identity leaves
    rest: np.ndarray  # 0-d word of the other bits


@functools.lru_cache(maxsize=None)
def _layout(total_bits: int) -> _Layout:
    """The a2b layout of an L-bit ring, built once."""
    B = 1 << (total_bits.bit_length() - 1)
    n = 1 << (total_bits - 2).bit_length()
    ident = ((1 << n) - 1) ^ ((1 << (total_bits - 1)) - 1)
    return _Layout(B, n, n - (n > total_bits - 1), _word(total_bits - 1), _word(ident), _word(ident ^ (2**64 - 1)))


def a2b_geometry(cfg: FixedConfig, size: int) -> tuple[int, int, int]:
    """The bit-plane layout of an a2b of `size` elements: (W, n, g).

    A plane holds one bit of every element, B = 2^floor(log2 L) of them to a
    word (the largest power of two <= L, so plane words are reduced on every
    ring), in W = ceil(size / B) words.  The carry tree has n =
    2^ceil(log2(L-1)) leaves: bits 0..L-2, then n - (L-1) identity leaves,
    which pass the carry on.  The generate AND covers rows 0..g-1 of the
    tree, all but row n-1 when that row holds an identity leaf.  So an a2b
    takes an AND of shape (g, W), then one of shape (2, h, W) for each h =
    n/2, n/4, ..., 1.
    """
    layout = _layout(cfg.total_bits)
    return -(-size // layout.B), layout.n, layout.g


# the three steps of an 8x8 bit-block transpose of a word whose byte s is
# row s: each swaps the off-diagonal halves of its 2x2, 4x4 or 8x8 blocks
_TRANSPOSE_STEPS = tuple((_word(shift), _word(mask)) for shift, mask in
                         ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _bit_planes(sess: Session, words: np.ndarray, layout: _Layout, W: int) -> np.ndarray:
    """This party's leaf planes of the carry tree over `words`.

    Returns `tree`, a fresh (2, n, W) array: row tree[1, k] is this party's
    share of the propagate plane of leaf rev(k), k's log2(n) bits reversed,
    and tree[0] is zero.  So at every level of the tree the low groups fill
    the first half of the rows and each one's high partner sits half the
    rows further on.  Leaf j < L-1 is bit j of this party's words, and word
    w of its plane holds element w*B + t at its bit t.  An identity leaf
    propagates and generates nothing: party 0's planes hold ones there and
    party 1's zeros, so their AND is zero.  Bits past the last element are
    zero in every plane.

    Words are read as little-endian bytes, as the wire codec reads them,
    one block of `_BLOCK` elements at a time, while the block is in cache.
    Byte k of each group of 8 elements is gathered into one word, whose 8x8
    bit block is then transposed in place, so byte r holds bit 8k + r of
    the 8 elements.  Leaf j = 8k + r then goes to row rev(j) in one strided
    copy: reversing j's bits reverses the axes of its (2, ..., 2) shape.
    """
    B, n = layout.B, layout.n
    U, m = B // 8, n.bit_length() - 1  # bytes of a plane word; tree levels
    padded = np.zeros(W * B, "<u8")  # the elements, then zero words up to whole plane words
    if sess.party == 0:
        np.bitwise_or(words.reshape(-1), layout.ident, out=padded[: words.size])
    else:
        np.bitwise_and(words.reshape(-1), layout.rest, out=padded[: words.size])
    tree = np.zeros((2, n, W), np.uint64)
    # byte u of word w of leaf j, j's bits most significant first, sits in
    # row rev(j) of tree[1]: bit a of the row number is j's bit m-1-a
    row_strides = (8, 1) + tuple(8 * W << a for a in range(m))
    step = _BLOCK // B  # plane words a block
    for lo in range(0, W, step):
        c = min(step, W - lo)
        # [group of 8 elements, byte k < n/8, element in group]: a group's
        # elements are 8 bytes apart
        blocks = np.ndarray((c * U, n // 8, 8), np.uint8, padded, 8 * B * lo, (64, 1, 8)).copy()
        x = blocks.view("<u8")
        t = np.empty_like(x)
        for shift, mask in _TRANSPOSE_STEPS:
            np.right_shift(x, shift, out=t)
            t ^= x
            t &= mask
            x ^= t
            t <<= shift
            x ^= t
        rows = np.ndarray((c, U) + (2,) * m, np.uint8, tree, 8 * (n * W + lo), row_strides)
        rows[...] = blocks.reshape((c, U) + (2,) * m)
    return tree


def a2b(sess: Session, x: ShareTensor) -> RingTensor:
    """This party's XOR share of each element's sign bit, one 0/1 word per
    element; no other bit of x is computed.

    The sign of x_0 + x_1 is both summands' bit L-1 XOR the carry into it.
    Each party transposes its own share into bit planes (`_bit_planes`), so
    a leaf's propagate plane a_j ^ b_j is shared as each party's own plane,
    and one AND gives the generate planes a_j & b_j.  A parallel-prefix
    carry tree (ABY3's bit extraction, Mohassel and Rindal, CCS 2018) then
    combines adjacent groups, G = G_hi ^ P_hi & G_lo and P = P_hi & P_lo, in
    one batched AND per level until one plane holds the carry: 1 +
    ceil(log2(L-1)) rounds.  Leaves sit in bit-reversed rows, so each
    level's operands are row slices of the last level's result, or a
    stride-0 view of one.

    At L=64 an element count that is a multiple of 64 opens 378 bits
    (47.25 B) an element.  Plane words are whole, so any count up to B
    opens the same words as B elements: 378 at L=64.  Padding bits past the
    last element are zero in both parties' planes, and the identity leaves
    that pad the tree to a power of two hold public constants (ones in party
    0's planes, zeros in party 1's), so padding opens only masked public
    values.
    """
    cfg = x.payload.cfg
    layout = _layout(cfg.total_bits)
    W, n, g = a2b_geometry(cfg, x.size)
    tree = _bit_planes(sess, x.payload.words, layout, W)
    own, zero = RingTensor.of_reduced(tree[1, :g], cfg), _zeros((g, W), cfg)
    a, b = (own, zero) if sess.party == 0 else (zero, own)
    tree[0, :g] = and_shares(sess, a, b).words
    h = n // 2
    while h:
        hi_p = RingTensor.of_reduced(broadcast_view(tree[1, h:], (2, h, W)), cfg)
        both = and_shares(sess, hi_p, RingTensor.of_reduced(tree[:, :h], cfg)).words
        both[0] ^= tree[0, h:]  # (G_hi ^ P_hi & G_lo, P_hi & P_lo)
        tree, h = both, h // 2
    sign = np.right_shift(x.payload.words.reshape(-1), layout.top)
    sign ^= _unpack(tree[0, 0], layout, x.size)  # the carries into bit L-1
    return RingTensor.of_reduced(sign.reshape(x.shape), cfg)


def _unpack(plane: np.ndarray, layout: _Layout, size: int) -> np.ndarray:
    """The first `size` bits of contiguous plane words, one 0/1 byte each."""
    rows = plane.view(np.uint8).reshape(-1, 8)[:, : layout.B // 8]
    return np.unpackbits(rows, axis=1, bitorder="little").reshape(-1)[:size]


def select(sess: Session, x: ShareTensor, bit: RingTensor) -> ShareTensor:
    """x * bit, exactly, for an XOR-shared bit (one 0/1 word per element);
    one round, opens |X| + W words (`a2b_geometry`'s W).

    A "select" record holds shares of a uniform word a, a uniform bit c and
    a*c (bit injection, as in ABY3, Mohassel and Rindal, CCS 2018); the low
    bits of c's additive shares XOR to c.  One frame opens e = x - a, masked
    by a uniform word, and d = bit ^ c, masked by a uniform bit and packed
    as a2b's planes; pad bits past the last element are public zeros.  t =
    e*c_i + z_i reconstructs to x*c, and bit is c where d = 0, else 1 - c,
    so the result is t where d = 0, else x_i - t.
    """
    if x.shape != bit.shape:
        raise ValueError(f"select needs equal shapes, got {x.shape} and {bit.shape}")
    cfg = x.payload.cfg
    layout = _layout(cfg.total_bits)
    W = a2b_geometry(cfg, x.size)[0]
    a, c, z = sess.tape.take(dl.Request("select", x.shape))
    low = np.zeros((W, layout.B), np.uint8)  # bit_i ^ c_i's low bits, zero past the elements
    np.bitwise_xor(bit.words.reshape(-1), c.words.reshape(-1), out=low.reshape(-1)[: x.size], casting="unsafe")
    low &= 1
    plane = np.zeros((W, 8), np.uint8)  # this party's part of d: word w holds element w*B + t at bit t
    plane[:, : layout.B // 8] = np.packbits(low, axis=1, bitorder="little")
    d = RingTensor.of_reduced(plane.view("<u8").reshape(W), cfg)

    def kernel(out, e, d, xw, c, z):
        # t = e*c_i + z_i; out = t + d*(x_i - 2t)
        np.multiply(e, c, out=out)
        out += z
        np.subtract(xw, out, out=e)
        e -= out
        e *= _unpack(d, layout, out.size)
        out += e

    out = _finish(sess, [(x.payload, a), (d, _zeros((W,), cfg))], ("add", "xor"), kernel, x.payload, c, z)
    return ShareTensor(RingTensor(out, cfg), x.scale)


def b2a(sess: Session, bit: RingTensor) -> ShareTensor:
    """Convert this party's share `bit` of a 1-bit XOR sharing to an
    arithmetic sharing at scale 0: `select` of the public one by `bit`."""
    one = broadcast_view(_ONE if sess.party == 0 else _ZERO_WORD, bit.shape)
    return select(sess, ShareTensor(RingTensor.of_reduced(one, bit.cfg), 0), bit)


def ltz(sess: Session, x: ShareTensor) -> ShareTensor:
    """Exact comparison with zero: reconstructs to 1 iff decode(x) < 0.

    Zero counts as non-negative.  Composition: a2b, which gives the sign
    bit, then b2a.
    """
    return b2a(sess, a2b(sess, x))


def relu_secure(sess: Session, x: ShareTensor) -> ShareTensor:
    """max(x, 0) on shares: `a2b`'s sign bit, complemented (party 0 flips
    its share), selects x; 2 + ceil(log2(L-1)) rounds."""
    keep = a2b(sess, x)
    if sess.party == 0:
        keep.words ^= _ONE  # a2b's fresh words
    return select(sess, x, keep)


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
