"""Secure ops against fixed-point plaintext references, plus exact accounting.

The reference route encodes operands, applies the op on the reconstructed
value with value-level truncation, and decodes; the secure route truncates
per share.  Declared tolerances: 1 ULP for lin_combine/mul_public/
mul_beaver/square, exact for comparison/select/b2a, 2 ULP for the polynomial,
4 ULP for the hybrid layer.
"""

import hashlib
import math
import queue

import numpy as np
import pytest

from arp.dealer import Dealer, DealingReader, Request
from arp.errors import ProtocolDesyncError, TripleReuseError
from arp import protocol
from arp.fixed import FixedConfig, RingTensor, decode, encode, truncate
from arp.protocol import (
    Session,
    ShareTensor,
    a2b,
    add_public,
    and_shares,
    b2a,
    dapa_eval_secure,
    exact_truncation,
    lin_combine,
    ltz,
    mul_beaver,
    mul_public,
    relu_secure,
    select,
    square,
)
from arp.runtime import hybrid_activation_secure, run_both
from arp.transport import InMemoryChannel, memory_channel_pair

from conftest import CFG8, CFG64, as_share, share_reals, share_ring, two_party

ULP = CFG64.resolution
BLOCK = protocol._BLOCK
MULTI_BLOCK = (5, BLOCK // 2 + 7)  # three blocks, the last one short
CFG20 = FixedConfig(20, 5)  # 3-byte words


def ref_mul(x, y, cfg=CFG64):
    return decode(truncate(encode(x, cfg) * encode(y, cfg), cfg), cfg)


def ref_square(x, cfg=CFG64):
    return decode(truncate(encode(x, cfg) * encode(x, cfg), cfg), cfg)


def ref_poly(x, c0, c1, c2, cfg=CFG64):
    """Value-level mirror of the secure polynomial's truncation schedule."""
    xe = encode(x, cfg)
    sq = truncate(xe * xe, cfg)
    acc = xe * encode(np.broadcast_to(c1, x.shape), cfg)
    if c2 is not None:
        acc = acc + sq * encode(np.broadcast_to(c2, x.shape), cfg)
    acc = acc + encode(np.broadcast_to(c0, x.shape), cfg).lshift(cfg.frac_bits)
    return decode(truncate(acc, cfg), cfg)


class TestLinCombine:
    def test_identity(self):
        x = np.array([1.25, -2.0, 0.5])
        xs = share_reals(x)

        def fn(sess):
            xt = as_share(sess, xs)
            zero = sess.zeros_like(x.shape, scale=CFG64.frac_bits)
            out = lin_combine(sess, 1.0, xt, zero)
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert np.max(np.abs(r - x)) <= ULP

    def test_scaled_sum(self):
        xs = share_reals(np.array([1.5]))
        ys = share_reals(np.array([0.25]), seed=2)

        def fn(sess):
            out = lin_combine(sess, 2.0, as_share(sess, xs), as_share(sess, ys))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert abs(r[0] - 3.25) <= ULP

    def test_local_no_communication(self):
        xs = share_reals(np.array([1.0, 2.0]))

        def fn(sess):
            xt = as_share(sess, xs)
            yt = as_share(sess, xs)
            before = (sess.channel.rounds, sess.channel.bytes_sent)
            for _ in range(100):
                lin_combine(sess, 0.5, xt, yt)
            return (sess.channel.rounds, sess.channel.bytes_sent) == before

        (ok0, ok1) = two_party(fn)
        assert ok0 and ok1


class TestMulPublic:
    def test_identity_matrix(self):
        x = np.array([[1.5, -2.25], [0.5, 3.0]])
        xs = share_reals(x)

        def fn(sess):
            out = mul_public(sess, as_share(sess, xs), encode(np.eye(2), CFG64), "matmul")
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert np.max(np.abs(r - x)) <= ULP

    def test_conv_all_ones_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        xs = share_reals(x)

        def fn(sess):
            out = mul_public(sess, as_share(sess, xs), encode(w, CFG64), "conv2d", stride=1, padding=1)
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        from arp.im2col import conv2d_forward

        plain = conv2d_forward(x, w, 1, 1)
        # 9 encoded operands per output, one truncation
        assert np.max(np.abs(r - plain)) <= 10 * ULP

    def test_zero_weight(self):
        xs = share_reals(np.array([5.0, -5.0]))

        def fn(sess):
            out = mul_public(sess, as_share(sess, xs), encode(np.zeros(2), CFG64))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert np.all(r == 0)

    def test_dense_wrong_fan_in_raises_value_error(self):
        x0, _ = share_reals(np.ones((2, 3)))
        sess = Session(0, CFG64, memory_channel_pair()[0])
        with pytest.raises(ValueError):
            mul_public(sess, ShareTensor(x0, CFG64.frac_bits), encode(np.ones((4, 2)), CFG64), "matmul")


class TestAddPublic:
    def test_adds_broadcast_constant(self):
        x = np.array([[1.5, -2.25, 0.5], [0.5, 3.0, -1.0]])
        c = np.array([0.25, -1.0, 2.0])
        xs = share_reals(x)

        def fn(sess):
            xt = as_share(sess, xs)
            out = add_public(sess, xt, encode(c, CFG64))
            return decode(sess.reveal(out)), out is xt

        (r0, same0), (r1, same1) = two_party(fn)
        assert np.max(np.abs(r0 - (x + c))) <= ULP and np.array_equal(r0, r1)
        assert not same0 and same1  # party 1 contributes nothing and allocates nothing

    @pytest.mark.parametrize("c_shape", [(2, 3, 4), (3,), (2, 4)])
    @pytest.mark.parametrize("party", [0, 1])
    def test_constant_that_does_not_broadcast_is_refused(self, party, c_shape):
        share = share_reals(np.ones((3, 4)))[party]
        sess = Session(party, CFG64, memory_channel_pair()[party])
        with pytest.raises(ValueError, match="broadcast"):
            add_public(sess, ShareTensor(share, CFG64.frac_bits), RingTensor.zeros(c_shape, CFG64))


class TestMulBeaver:
    def test_values(self):
        xs = share_reals(np.array([2.0]))
        ys = share_reals(np.array([3.0]), seed=2)

        def fn(sess):
            out = mul_beaver(sess, as_share(sess, xs), as_share(sess, ys))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert abs(r[0] - 6.0) <= ULP

    def test_annihilation(self):
        xs = share_reals(np.array([1.7, -0.3]))
        ys = share_reals(np.zeros(2), seed=2)

        def fn(sess):
            out = mul_beaver(sess, as_share(sess, xs), as_share(sess, ys))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert np.max(np.abs(r)) <= ULP

    def test_random_against_reference(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-30, 30, size=2000)
        y = rng.uniform(-30, 30, size=2000)
        xs, ys = share_reals(x), share_reals(y, seed=2)

        def fn(sess):
            out = mul_beaver(sess, as_share(sess, xs), as_share(sess, ys))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert np.max(np.abs(r - ref_mul(x, y))) <= ULP

    def test_triple_reuse_is_hard_error(self):
        xs = share_reals(np.array([1.0]))
        tapes = Dealer(5, CFG64).build_tapes([Request("beaver", (1,))])
        for tape in tapes:  # a faulty tape that holds one record twice
            tape.records.append(tape.records[0])

        def fn(sess):
            sess.tape = tapes[sess.party].reader()
            xt = as_share(sess, xs)
            mul_beaver(sess, xt, xt)
            with pytest.raises(TripleReuseError):
                mul_beaver(sess, xt, xt)
            return True

        ok0, ok1 = two_party(fn)
        assert ok0 and ok1

    def test_triple_shape_mismatch(self):
        xs = share_reals(np.array([1.0, 2.0]))

        def fn(sess):
            xt = as_share(sess, xs)
            with pytest.raises(ProtocolDesyncError, match="request was"):
                mul_beaver(sess, xt, xt)
            return sess.channel.rounds

        assert two_party(fn, [Request("beaver", (3,))]) == (0, 0)


class TestSquare:
    def test_values(self):
        xs = share_reals(np.array([-1.5, 0.0]))

        def fn(sess):
            out = square(sess, as_share(sess, xs))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert abs(r[0] - 2.25) <= ULP
        assert abs(r[1]) <= ULP

    def test_random_against_reference(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-100, 100, size=3000)
        xs = share_reals(x)

        def fn(sess):
            out = square(sess, as_share(sess, xs))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert np.max(np.abs(r - ref_square(x))) <= ULP

    def test_opens_half_of_multiply(self):
        n = 64
        x = np.linspace(-5, 5, n)
        xs = share_reals(x)

        def fn(sess):
            xt = as_share(sess, xs)
            mul_beaver(sess, xt, xt)
            after_mul = sess.opened_words
            square(sess, xt)
            after_sq = sess.opened_words - after_mul
            return after_mul, after_sq

        (mul_words, sq_words), _ = two_party(fn)
        assert mul_words == 2 * n
        assert sq_words == n


class TestExactTruncation:
    """Sessions that truncate exactly: each rescale takes one truncation mask
    and one round, opens |X| words, and lands on the value-level floor or one
    ULP above it for any |product| < 2^(L-2), where local truncation wraps."""

    def test_rings_that_truncate_exactly(self):
        assert [exact_truncation(FixedConfig(*c)) for c in [(64, 16), (64, 8), (32, 0)]] == [False] * 3
        assert [exact_truncation(FixedConfig(*c)) for c in [(64, 17), (48, 16), (32, 8), (8, 4)]] == [True] * 4

    @pytest.mark.parametrize("cfg", [FixedConfig(32, 8), FixedConfig(16, 4), CFG8], ids=["L32", "L16", "L8"])
    def test_products_against_floor(self, cfg):
        L, f = cfg.total_bits, cfg.frac_bits
        top = 2 ** (L - 2 - f)  # |x| < top and |y| <= 2^f keep |x * y| < 2^(L-2)
        rng = np.random.default_rng(L)
        xi = np.concatenate([[top - 1, 1 - top, 0, -1], rng.integers(1 - top, top, 4000)])
        yi = np.concatenate([[2**f, -(2**f), 3, 2**f], rng.integers(-(2**f), 2**f, 4000, endpoint=True)])
        n = len(xi)
        xs = share_ring(RingTensor.from_signed(xi, cfg), seed=5)
        y = RingTensor.from_signed(yi, cfg)

        def fn(sess):
            xt = as_share(sess, xs, f)
            local = sess.reveal(ShareTensor(truncate(xt.payload * y, bits=f), f)).signed()
            r0, w0 = sess.channel.rounds, sess.opened_words
            out = mul_public(sess, xt, y)
            cost = (sess.channel.rounds - r0, sess.opened_words - w0, len(sess.tape.records))
            return local, sess.reveal(out).signed(), out.scale, cost

        (local, exact, scale, cost), _ = two_party(fn, cfg=cfg)
        floor = np.array([(int(a) * int(b)) >> f for a, b in zip(xi, yi)])
        assert scale == f and cost == (1, n, 1)
        assert set(np.unique(exact - floor)) <= {0, 1}
        assert np.count_nonzero(np.abs(local - floor) > 1) > 0  # the same shares wrap when shifted locally

    @pytest.mark.parametrize("op", ["lin_combine", "mul_public"])
    def test_local_ops_rescale_exactly(self, op):
        """The ring alone picks the rescale: on L=32, f=8 the local ops take
        one truncation mask and one round too, and land on the floor or one
        ULP above it where a local shift would wrap (`test_products_against_floor`)."""
        cfg = FixedConfig(32, 8)
        f, n = cfg.frac_bits, 3000
        rng = np.random.default_rng(23)
        xi = rng.integers(-(2**21), 2**21, n)
        yi = rng.integers(-(2**20), 2**20, n)
        wi = rng.integers(-(2**f), 2**f, n, endpoint=True)
        xs = share_ring(RingTensor.from_signed(xi, cfg), seed=6)
        ys = share_ring(RingTensor.from_signed(yi, cfg), seed=7)

        def fn(sess):
            xt, yt = as_share(sess, xs, f), as_share(sess, ys, f)
            r0, w0 = sess.channel.rounds, sess.opened_words
            if op == "lin_combine":
                out = lin_combine(sess, 0.75, xt, yt)
            else:
                out = mul_public(sess, xt, RingTensor.from_signed(wi, cfg))
            cost = (sess.channel.rounds - r0, sess.opened_words - w0, len(sess.tape.records))
            return sess.reveal(out).signed(), out.scale, cost

        (got, scale, cost), _ = two_party(fn, cfg=cfg)
        if op == "lin_combine":
            floor = ((xi * 192) >> f) + yi  # 0.75 encodes to 192 at f=8
        else:
            floor = (xi * wi) >> f
        assert scale == f and cost == (1, n, 1)
        assert set(np.unique(got - floor)) <= {0, 1}

    def test_shift_other_than_f_is_refused(self):
        xs = share_reals(np.ones(3), CFG8)

        def fn(sess):
            mul_public(sess, ShareTensor(xs[sess.party], 2), encode(np.ones(3), CFG8))

        with pytest.raises(ValueError, match="exact truncation shifts by f=4 bits, not 2"):
            two_party(fn, cfg=CFG8)

    @pytest.mark.parametrize("case", ["square", "dapa", "hybrid"])
    def test_plans_are_consumed_exactly(self, case):
        cfg = FixedConfig(32, 8)
        rng = np.random.default_rng(22)
        x = rng.uniform(-4, 4, size=(3, 5))
        mask = np.array([1, 0, 1, 1, 0], dtype=np.float64)
        xs = share_reals(x, cfg)

        def fn(sess):
            xt = as_share(sess, xs)
            if case == "square":
                out = square(sess, xt)
            elif case == "dapa":
                out = dapa_eval_secure(sess, xt, 0.28, 0.5, 0.14)
            else:
                out = hybrid_activation_secure(sess, xt, mask, 0.28, 0.5, 0.14)
            masks = sum(rec.kind == "trunc" for rec in sess.tape.records)
            return masks, decode(sess.reveal(out))

        (masks, got), _ = two_party(fn, cfg=cfg)
        poly = ref_poly(x, 0.28, 0.5, 0.14, cfg)
        want = {"square": ref_square(x, cfg), "dapa": poly,
                "hybrid": np.where(mask.astype(bool), np.maximum(decode(encode(x, cfg)), 0), poly)}[case]
        assert masks == {"square": 1, "dapa": 2, "hybrid": 2}[case]  # one per rescale
        assert np.max(np.abs(got - want)) <= 2 * cfg.resolution


class TestLocalTruncationFaults:
    """The fault model of the default ring: a local rescale of a product held
    at scale 2f wraps with probability about |v| * 2^(2f-L) per element of
    decoded magnitude |v|, and a wrapped element is off by 2^(L-f) ULP,
    which is 2^(L-2f) = 2^32 decoded at L=64, f=16."""

    def test_wrap_count_matches_the_predicted_rate(self):
        from scipy.stats import poisson

        L, f, n = CFG64.total_bits, CFG64.frac_bits, 100_000
        predicted, counted = 0.0, 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = encode(rng.uniform(-800, 800, n), CFG64)
            w = encode(rng.uniform(-800, 800, n), CFG64)
            shares = share_ring(a, seed=seed)
            # local rescales touch no channel, so each party runs alone
            outs = [mul_public(Session(p, CFG64, ch), ShareTensor(shares[p], f), w)
                    for p, ch in enumerate(memory_channel_pair())]
            off = (outs[0].payload + outs[1].payload).signed() - ((a.signed() * w.signed()) >> f)
            wrapped = np.abs(off) > 2**f  # off by more than one decoded unit
            assert np.all(np.abs(np.abs(off[wrapped]) - 2 ** (L - f)) <= 1)
            counted += int(np.count_nonzero(wrapped))
            predicted += float(np.sum(np.abs(decode(a) * decode(w)))) * 2.0 ** (2 * f - L)
        lo, hi = poisson.interval(0.999, predicted)
        assert lo <= counted <= hi, (counted, predicted)


def sign_shares(sh, cfg):
    """Both parties' reconstructions of a2b's XOR-shared sign bits of `sh`."""
    return two_party(lambda sess: sess.reveal_bits(a2b(sess, ShareTensor(sh[sess.party], 0))).words, cfg=cfg)


def assert_signs(ring: RingTensor, seed: int):
    want = (ring.signed() < 0).astype(np.uint64)
    for got in sign_shares(share_ring(ring, seed=seed), ring.cfg):
        assert got.shape == ring.shape
        assert np.array_equal(got, want)


SIGN_RINGS = [9, 13, 16, 17, 20, 32, 33, 48, 64]


class TestA2B:
    """a2b gives each element's XOR-shared sign bit and nothing more, exactly
    on every ring width, element count and pad layout."""

    def test_exhaustive_l8(self):
        assert_signs(RingTensor(np.arange(256, dtype=np.uint64), CFG8), seed=5)

    @pytest.mark.parametrize("L", SIGN_RINGS)
    def test_random_and_boundary_values(self, L):
        """0, +-1 ULP, the least and greatest ring values, as words and as
        encoded reals, among uniform words."""
        cfg = FixedConfig(L, L // 4)
        top = 1 << (L - 1)
        edges = np.array([0, 1, (1 << L) - 1, top, top - 1, top + 1, top - 2], dtype=np.uint64)
        # at L=64 float64 rounds max_real up past the ring; the float below it is the greatest
        hi = cfg.max_real if cfg.max_real * cfg.scale < top else np.nextafter(cfg.max_real, 0.0)
        edge_reals = [0.0, cfg.resolution, -cfg.resolution, cfg.min_real, hi]
        reals = encode(np.array(edge_reals), cfg)
        assert np.array_equal(decode(reals), edge_reals)
        rand = ring_words(np.random.default_rng(L), 200, cfg)
        assert_signs(RingTensor(np.concatenate([edges, reals.words, rand.words]), cfg), seed=L)

    @pytest.mark.parametrize("cfg", [CFG64, CFG20], ids=["L64", "L20"])
    @pytest.mark.parametrize("count", ["1", "B-1", "B", "B+1", "multi-block"])
    def test_element_counts(self, cfg, count):
        """Counts around one plane word of B elements, and one whose ANDs
        finish in several blocks of `protocol._BLOCK` words."""
        B = protocol._layout(cfg.total_bits).B
        size = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "multi-block": 2 * BLOCK + 1}[count]
        W, n, g = protocol.a2b_geometry(cfg, size)
        assert W == -(-size // B)
        if count == "multi-block":
            assert g * W > BLOCK
        assert_signs(ring_words(np.random.default_rng(size), (size,), cfg), seed=size)

    @pytest.mark.parametrize("shape", [(), (3, 5)])
    def test_shapes(self, shape):
        ring = encode(np.random.default_rng(2).uniform(-4, 4, size=shape), CFG64)
        assert_signs(ring, seed=6)

    @pytest.mark.parametrize("party", [0, 1])
    @pytest.mark.parametrize("L", [8, *SIGN_RINGS])
    @pytest.mark.parametrize("size", [1, 13, 100])
    def test_planes_match_unpackbits(self, L, size, party):
        """Row k of tree[1] is the plane of leaf rev(k): bit j < L-1 of every
        element, packed B to a word, or for an identity leaf j >= L-1 ones in
        party 0's planes and zeros in party 1's; bits past the last element
        are zero.  tree[0] is zero."""
        cfg = FixedConfig(L, 0)
        words = ring_words(np.random.default_rng(L * size), size, cfg).words
        W, n, g = protocol.a2b_geometry(cfg, size)
        B = protocol._layout(L).B
        tree = protocol._bit_planes(Session(party, cfg, None), words, protocol._layout(L), W)
        bits = np.zeros((W * B, 64), np.uint8)
        bits[:size] = np.unpackbits(words.astype("<u8").view(np.uint8).reshape(size, 8), axis=1, bitorder="little")
        bits[:size, L - 1:] = 1 - party  # leaves L-1 and up are identity leaves, not the top bit
        packed = np.zeros((64, W, 8), np.uint8)
        packed[:, :, : B // 8] = np.packbits(bits.T.reshape(64, W, B), axis=2, bitorder="little")
        leaves = packed.view("<u8")[..., 0][:n]  # leaves[j, w]: bit j of elements w*B .. w*B + B-1
        rev = [int(f"{k:0{n.bit_length() - 1}b}"[::-1], 2) for k in range(n)]
        assert np.array_equal(tree[1], leaves[rev])
        assert not tree[0].any()
        assert g == n - (L - 1 < n)

    @pytest.mark.parametrize("L", [8, *SIGN_RINGS])
    def test_rounds_and_opened_words(self, L):
        """1 + ceil(log2(L-1)) rounds; the generate AND opens its g planes
        twice, each level its (2, h) rows twice."""
        cfg = FixedConfig(L, 0)
        sh = share_ring(ring_words(np.random.default_rng(3), 70, cfg), seed=8)
        W, n, g = protocol.a2b_geometry(cfg, 70)

        def fn(sess):
            a2b(sess, ShareTensor(sh[sess.party], 0))
            return sess.channel.rounds, sess.opened_words

        for rounds, opened in two_party(fn, cfg=cfg):
            assert rounds == 1 + math.ceil(math.log2(L - 1))
            assert opened == 2 * g * W + 4 * (n - 1) * W

    def test_kept_element_opens_378_bits_at_l64(self):
        """At L=64 a count that fills its plane words opens 378 bits (47.25 B)
        an element, against 26 words for the full 64-bit adder."""
        sh = share_ring(ring_words(np.random.default_rng(4), 128, CFG64), seed=9)

        def fn(sess):
            a2b(sess, ShareTensor(sh[sess.party], 0))
            return sess.opened_words, sess.channel.bytes_sent

        for opened, sent in two_party(fn):
            assert opened * 64 == 378 * 128
            assert sent == 8 * opened + 12 * 7


class TestB2A:
    def _convert(self, b0_bits, b1_bits):
        def fn(sess):
            mine = np.array(b0_bits if sess.party == 0 else b1_bits, dtype=np.uint64)
            out = b2a(sess, RingTensor(mine, CFG64))
            return sess.reveal(out).words

        (vals, _) = two_party(fn)
        return vals

    def test_examples(self):
        assert self._convert([1], [0]).tolist() == [1]
        assert self._convert([1], [1]).tolist() == [0]

    def test_random_agrees_with_xor(self):
        rng = np.random.default_rng(14)
        b0 = rng.integers(0, 2, size=10_000)
        b1 = rng.integers(0, 2, size=10_000)
        got = self._convert(b0.tolist(), b1.tolist())
        assert np.array_equal(got, (b0 ^ b1).astype(np.uint64))


class TestLtz:
    def test_examples(self):
        x = np.array([-0.01, 0.0, 2.5])
        xs = share_reals(x)

        def fn(sess):
            out = ltz(sess, as_share(sess, xs))
            return sess.reveal(out).words

        (bits, _) = two_party(fn)
        assert bits.tolist() == [1, 0, 0]

    def test_exhaustive_l8(self):
        """Comparison is exact for every ring value at L=8, f=4."""
        ring = RingTensor(np.arange(256, dtype=np.uint64), CFG8)
        sh = share_ring(ring, seed=7)

        def fn(sess):
            out = ltz(sess, ShareTensor(sh[sess.party], CFG8.frac_bits))
            return sess.reveal(out).words

        (bits, _) = two_party(fn, cfg=CFG8)
        assert np.array_equal(bits.astype(bool), ring.signed() < 0)


class TestReluSecure:
    def test_examples(self):
        x = np.array([2.5, -2.5])
        xs = share_reals(x)

        def fn(sess):
            out = relu_secure(sess, as_share(sess, xs))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        assert r.tolist() == [2.5, 0.0]

    def test_random_against_plaintext(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-50, 50, size=4000)
        xs = share_reals(x)

        def fn(sess):
            out = relu_secure(sess, as_share(sess, xs))
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        plain = np.maximum(decode(encode(x, CFG64)), 0.0)
        assert np.max(np.abs(r - plain)) <= ULP


def random_bit_shares(rng, shape, cfg):
    """A uniform bit of `shape` and both parties' XOR shares of it, one 0/1
    word per element."""
    bit, r = (rng.integers(0, 2, size=shape, dtype=np.uint64) for _ in range(2))
    return RingTensor(bit, cfg), (RingTensor(bit ^ r, cfg), RingTensor(r, cfg))


def assert_select_and_relu(ring: RingTensor, seed: int):
    """select(x, bit) reconstructs to x*bit for uniform XOR-shared bits, and
    relu_secure(x) to x where x >= 0, else 0, on both parties, exactly."""
    cfg = ring.cfg
    bit, bs = random_bit_shares(np.random.default_rng(seed), ring.shape, cfg)
    xs = share_ring(ring, seed=seed)

    def fn(sess):
        x = ShareTensor(xs[sess.party], 0)
        return sess.reveal(select(sess, x, bs[sess.party])).words, sess.reveal(relu_secure(sess, x)).words

    want = (ring * bit).words, np.where(ring.signed() < 0, np.uint64(0), ring.words)
    for got in two_party(fn, cfg=cfg, seed=seed):
        assert all(g.shape == ring.shape and np.array_equal(g, w) for g, w in zip(got, want))


class TestSelect:
    """select(x, bit) is x*bit, and relu_secure (a2b, then select) is
    max(x, 0), exactly on every ring width, element count and pad layout
    of select's d plane."""

    def test_exhaustive_l8(self):
        assert_select_and_relu(RingTensor(np.arange(256, dtype=np.uint64), CFG8), seed=5)

    @pytest.mark.parametrize("L", SIGN_RINGS)
    def test_random_and_boundary_values(self, L):
        cfg = FixedConfig(L, L // 4)
        top = 1 << (L - 1)
        edges = np.array([0, 1, (1 << L) - 1, top, top - 1, top + 1, top - 2], dtype=np.uint64)
        rand = ring_words(np.random.default_rng(L), 200, cfg)
        assert_select_and_relu(RingTensor(np.concatenate([edges, rand.words]), cfg), seed=L)

    @pytest.mark.parametrize("cfg", [CFG64, CFG20], ids=["L64", "L20"])
    @pytest.mark.parametrize("count", ["1", "B-1", "B", "B+1", "multi-block"])
    def test_element_counts(self, cfg, count):
        """Counts around one plane word of B elements, and one whose opening
        finishes in several blocks, each with its own plane words."""
        B = protocol._layout(cfg.total_bits).B
        size = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "multi-block": 2 * BLOCK + 1}[count]
        assert_select_and_relu(ring_words(np.random.default_rng(size), (size,), cfg), seed=size)

    @pytest.mark.parametrize("shape", [(), (3, 5)])
    def test_shapes(self, shape):
        assert_select_and_relu(encode(np.random.default_rng(2).uniform(-4, 4, size=shape), CFG64), seed=6)

    @pytest.mark.parametrize("L", [8, *SIGN_RINGS])
    @pytest.mark.parametrize("size", [1, 70, 2 * BLOCK + 1])
    def test_rounds_opened_words_and_bytes(self, L, size):
        """select takes 1 round and opens |X| + W words, each as wide as the
        wire packs it, plus 12 bytes of frame header; relu_secure takes 2 +
        ceil(log2(L-1)) rounds and opens a2b's words and select's."""
        cfg = FixedConfig(L, 0)
        rng = np.random.default_rng(L + size)
        xs = share_ring(ring_words(rng, (size,), cfg), seed=8)
        _, bs = random_bit_shares(rng, (size,), cfg)

        def fn(sess):
            x, ch, counts = ShareTensor(xs[sess.party], 0), sess.channel, []
            for op in (lambda: select(sess, x, bs[sess.party]), lambda: relu_secure(sess, x)):
                before = ch.rounds, sess.opened_words, ch.bytes_sent
                op()
                counts.append(tuple(now - was for now, was in zip((ch.rounds, sess.opened_words, ch.bytes_sent), before)))
            return counts

        W, n, g = protocol.a2b_geometry(cfg, size)
        for sel, relu in two_party(fn, cfg=cfg):
            assert sel == (1, size + W, cfg.word_bytes * (size + W) + 12)
            assert relu[:2] == (2 + math.ceil(math.log2(L - 1)), 2 * g * W + 4 * (n - 1) * W + size + W)

    def test_kept_relu_opens_443_bits_at_l64(self):
        """At L=64 a count that fills its plane words opens 378 + 65 bits an
        element in a ReLU, under 7 words; 8 B per word plus 12 per round."""
        sh = share_ring(ring_words(np.random.default_rng(4), 128, CFG64), seed=9)

        def fn(sess):
            relu_secure(sess, ShareTensor(sh[sess.party], 0))
            return sess.opened_words, sess.channel.bytes_sent

        for opened, sent in two_party(fn):
            assert opened * 64 == 443 * 128
            assert sent == 8 * opened + 12 * 8

    def test_unequal_shapes_are_refused_before_the_tape(self):
        def fn(sess):
            with pytest.raises(ValueError, match="equal shapes"):
                select(sess, sess.zeros_like((2,)), RingTensor.zeros((3,), CFG64))
            return sess.tape.remaining(), sess.channel.rounds

        assert two_party(fn, [Request("select", (2,))]) == ((1, 0), (1, 0))


class TestDapaEvalSecure:
    COEFFS = (0.28, 0.5, 0.14)

    def _eval(self, x, c0, c1, c2):
        xs = share_reals(x)

        def fn(sess):
            out = dapa_eval_secure(sess, as_share(sess, xs), c0, c1, c2)
            rounds = sess.channel.rounds
            return decode(sess.reveal(out)), rounds

        (r, rounds), _ = two_party(fn)
        return r, rounds

    def test_constant_at_zero(self):
        r, _ = self._eval(np.array([0.0]), *self.COEFFS)
        assert abs(r[0] - 0.28) <= 2 * ULP

    def test_identity_coeffs(self):
        x = np.array([1.5, -2.0, 0.75])
        r, rounds = self._eval(x, 0.0, 1.0, None)
        assert np.max(np.abs(r - x)) <= 2 * ULP
        assert rounds == 0  # degree 1 skips the square entirely

    def test_paper_point(self):
        x = np.array([2.0])
        r, _ = self._eval(x, *self.COEFFS)
        # 2 ULP against the fixed-point reference; the float value additionally
        # carries the coefficient-encoding error (|enc(c2)-c2| * x^2)
        assert abs(r[0] - ref_poly(x, *self.COEFFS)[0]) <= 2 * ULP
        assert abs(r[0] - 1.84) <= 3 * ULP

    def test_random_against_reference(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-8, 8, size=4000)
        c0, c1, c2 = self.COEFFS
        r, _ = self._eval(x, c0, c1, c2)
        assert np.max(np.abs(r - ref_poly(x, c0, c1, c2))) <= 2 * ULP

    def test_coefficients_must_broadcast_to_the_input(self):
        xs = share_reals(np.zeros((2, 6)))

        def fn(sess):
            xt = as_share(sess, xs)
            with pytest.raises(ValueError):
                dapa_eval_secure(sess, xt, np.zeros(5), 0.5, 0.1)
            with pytest.raises(ValueError):  # broadcasts, but only to a larger shape
                dapa_eval_secure(sess, xt, 0.0, 0.5, np.zeros((3, 2, 6)))
            return sess.channel.rounds

        assert two_party(fn) == (0, 0)


class TestHybridSecure:
    COEFFS = (0.28, 0.5, 0.14)

    def _run(self, x, mask):
        xs = share_reals(x)
        c0, c1, c2 = self.COEFFS

        def fn(sess):
            out = hybrid_activation_secure(sess, as_share(sess, xs), mask, c0, c1, c2)
            return decode(sess.reveal(out))

        (r, _) = two_party(fn)
        return r

    def test_all_ones_is_relu(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-5, 5, size=(4, 6))
        r = self._run(x, np.ones(6))
        plain = np.maximum(decode(encode(x, CFG64)), 0)
        assert np.max(np.abs(r - plain)) <= ULP

    def test_all_zeros_is_polynomial(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(-5, 5, size=(4, 6))
        r = self._run(x, np.zeros(6))
        c0, c1, c2 = self.COEFFS
        assert np.max(np.abs(r - ref_poly(x, c0, c1, c2))) <= 2 * ULP

    def test_random_mask_against_plaintext(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-5, 5, size=(8, 32))
        mask = rng.integers(0, 2, size=32).astype(np.float64)
        r = self._run(x, mask)
        c0, c1, c2 = self.COEFFS
        plain = mask * np.maximum(x, 0) + (1 - mask) * (c2 * x**2 + c1 * x + c0)
        assert np.max(np.abs(r - plain)) <= 4 * ULP

    def test_mask_shape_mismatch_raises_value_error(self):
        xs = share_reals(np.zeros((2, 6)))

        def fn(sess):
            with pytest.raises(ValueError, match="mask shape"):
                hybrid_activation_secure(sess, as_share(sess, xs), np.ones(5), *self.COEFFS)
            return sess.channel.rounds

        assert two_party(fn) == (0, 0)


def _per_column(x, lo, hi):
    """Coefficients that differ along x's last axis, or one for a scalar share."""
    return np.linspace(lo, hi, x.shape[-1]) if x.shape else lo


def _read_only_bits(y: ShareTensor) -> RingTensor:
    """The low bits of a share's words, read-only: an XOR-shared bit."""
    bits = y.payload.words & np.uint64(1)
    bits.setflags(write=False)
    return RingTensor.of_reduced(bits, y.payload.cfg)


class TestInputsStayUnwritten:
    """Online ops never write into their input shares or their tape records,
    and return a share of their input's shape.  Records are read-only on
    every ring, so a write into one raises."""

    OPS = {
        "a2b": lambda sess, x, y: a2b(sess, x),
        "relu_secure": lambda sess, x, y: relu_secure(sess, x),
        "select": lambda sess, x, y: select(sess, x, _read_only_bits(y)),
        "b2a": lambda sess, x, y: b2a(sess, _read_only_bits(y)),
        "mul_beaver": mul_beaver,
        "square": lambda sess, x, y: square(sess, x),
        "dapa_eval_secure": lambda sess, x, y: dapa_eval_secure(
            sess, x, _per_column(x, 0.2, -0.3), _per_column(x, 0.5, -1.0), _per_column(x, 0.1, 0.4)),
    }

    @pytest.mark.parametrize("shape", [(3, 4), (), MULTI_BLOCK])
    @pytest.mark.parametrize("cfg", [CFG64, CFG8], ids=["L64", "L8"])
    @pytest.mark.parametrize("op", list(OPS))
    def test_read_only_inputs(self, op, cfg, shape):
        fn_op = self.OPS[op]
        rng = np.random.default_rng(21)
        xs = share_reals(rng.uniform(-1, 1, size=shape), cfg, seed=1)
        ys = share_reals(rng.uniform(-1, 1, size=shape), cfg, seed=2)
        inputs = [t.words for t in (*xs, *ys)]
        for w in inputs:
            w.setflags(write=False)
        before = [w.copy() for w in inputs]

        def fn(sess):
            out = fn_op(sess, as_share(sess, xs), as_share(sess, ys))
            return out.shape, [v.words.flags.writeable for rec in sess.tape.records for v in rec.fields]

        for got_shape, writeable in two_party(fn, cfg=cfg):
            assert got_shape == shape
            assert writeable and not any(writeable)
        assert all(np.array_equal(w, b) for w, b in zip(inputs, before))


def ring_words(rng, shape, cfg) -> RingTensor:
    """Uniform ring elements of `shape`."""
    return RingTensor(rng.integers(0, 2**64 - 1, size=shape, dtype=np.uint64, endpoint=True), cfg)


def xor_shares(x: RingTensor, rng) -> tuple[RingTensor, RingTensor]:
    r = ring_words(rng, x.shape, x.cfg)
    return x ^ r, r


BLOCK_SHAPES = {
    "blocks-short-last": MULTI_BLOCK,
    "row-wider-than-block": (2, BLOCK + 5),
    "1d-multi-block": (2 * BLOCK + 3,),
    "1d-small": (5,),
    "0d": (),
}


class TestBlockwiseFinish:
    """Interactive ops finish one block of `protocol._BLOCK` words at a time.
    Every block layout reconstructs exactly, at the widest and the narrowest
    ring, and at L=20, whose 3-byte wire words leave each party's own opened
    words unreduced, so a product is reduced after the kernel."""

    @pytest.mark.parametrize("shape", list(BLOCK_SHAPES.values()), ids=list(BLOCK_SHAPES))
    @pytest.mark.parametrize("cfg", [CFG64, CFG20, CFG8], ids=["L64", "L20", "L8"])
    @pytest.mark.parametrize("op", ["and_shares", "mul_beaver", "square", "relu_secure", "select"])
    def test_reconstructs(self, op, cfg, shape):
        rng = np.random.default_rng(31)
        x, y = ring_words(rng, shape, cfg), ring_words(rng, shape, cfg)
        bit, bs = random_bit_shares(rng, shape, cfg)
        if op == "and_shares":
            xs, ys = xor_shares(x, rng), xor_shares(y, rng)
            want = x.words & y.words

            def fn(sess):
                out = and_shares(sess, xs[sess.party], ys[sess.party])
                return sess.reveal_bits(out).words, out.words
        else:
            xs, ys = share_ring(x, seed=3), share_ring(y, seed=4)
            want = {
                "mul_beaver": (x * y).words,
                "square": (x * x).words,
                "relu_secure": np.where(x.signed() < 0, np.uint64(0), x.words),
                "select": (x * bit).words,
            }[op]

            def fn(sess):
                xt, yt = as_share(sess, xs, 0), as_share(sess, ys, 0)
                out = {"mul_beaver": lambda: mul_beaver(sess, xt, yt),
                       "square": lambda: square(sess, xt),
                       "relu_secure": lambda: relu_secure(sess, xt),
                       "select": lambda: select(sess, xt, bs[sess.party])}[op]()
                return sess.reveal(out).words, out.payload.words

        for got, own in two_party(fn, cfg=cfg):
            assert got.shape == shape
            assert np.array_equal(got, want)
            assert not np.any(own >> np.uint64(cfg.total_bits))  # each party's share is reduced

    @pytest.mark.parametrize("shape", [MULTI_BLOCK, (5,), ()], ids=["multi-block", "1d-small", "0d"])
    @pytest.mark.parametrize("cfg", [CFG64, CFG20, CFG8], ids=["L64", "L20", "L8"])
    @pytest.mark.parametrize("op", ["and_shares", "mul_beaver"])
    def test_zero_stride_operands(self, op, cfg, shape):
        """Each party's own words against an all-zero broadcast for the
        peer's, as a2b passes them."""
        rng = np.random.default_rng(32)
        own = ring_words(rng, shape, cfg), ring_words(rng, shape, cfg)

        def fn(sess):
            zero = RingTensor(np.broadcast_to(np.uint64(0), shape), cfg)
            a, b = (own[0], zero) if sess.party == 0 else (zero, own[1])
            if op == "and_shares":
                return sess.reveal_bits(and_shares(sess, a, b)).words
            return sess.reveal(mul_beaver(sess, ShareTensor(a, 0), ShareTensor(b, 0))).words

        want = {"and_shares": own[0].words & own[1].words, "mul_beaver": (own[0] * own[1]).words}[op]
        for got in two_party(fn, cfg=cfg):
            assert np.array_equal(got, want)

    def test_exact_truncation_across_blocks(self):
        cfg = FixedConfig(32, 8)
        rng = np.random.default_rng(33)
        x, y = rng.uniform(-8, 8, size=MULTI_BLOCK), rng.uniform(-8, 8, size=MULTI_BLOCK)
        xs, ys = share_reals(x, cfg, seed=5), share_reals(y, cfg, seed=6)

        def fn(sess):
            out = mul_beaver(sess, as_share(sess, xs), as_share(sess, ys))
            return decode(sess.reveal(out))

        (got, _) = two_party(fn, cfg=cfg)
        assert np.max(np.abs(got - ref_mul(x, y, cfg))) <= cfg.resolution

    # both parties' transcript hashes of relu_secure plus square at (64, 600),
    # several blocks per op; re-pinned when relu_secure became a2b, then select
    MULTI_BLOCK_HASHES = (
        "d80490f663f2ccd26ec12c12c3668dd8c94b3b90a8aeac844f72947ccf4b4535",
        "dafaa6621d5d1edd21d07d32f4f09e99618da033312d8b81dac3da2a0f9aef95",
    )

    def test_multi_block_transcript_is_pinned(self):
        shape = (64, 600)
        xs = share_reals(np.random.default_rng(41).uniform(-4, 4, size=shape), seed=42)

        def fn(sess):
            xt = as_share(sess, xs)
            sess.reveal(relu_secure(sess, xt) + square(sess, xt))
            return sess.channel.transcript_hash

        assert two_party(fn, seed=43) == self.MULTI_BLOCK_HASHES


class TestZeroStrideViews:
    """The all-zero operands of a2b, select and the reveals, b2a's public
    one, and a2b's operand at each carry-tree level, are read-only views
    that allocate nothing."""

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    @pytest.mark.parametrize("cfg", [CFG64, CFG8], ids=["L64", "L8"])
    def test_zeros_view_the_one_zero_word(self, cfg, shape):
        z = protocol._zeros(shape, cfg).words
        assert z.shape == shape and z.dtype == np.uint64 and not z.any()
        assert z.strides == (0,) * len(shape)
        assert z.ctypes.data == protocol._ZERO_WORD.ctypes.data  # no buffer of its own
        assert not z.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            z[...] = 1
        assert not protocol._ZERO_WORD

    def test_a2b_level_operands_view_their_share(self, monkeypatch):
        """At every carry-tree level a2b ANDs the high groups' propagate
        planes against the low groups' generate and propagate rows at once:
        both rows of the left operand are the one slice, read through stride
        0, and the right operand is a slice of the last level's rows."""
        ring = RingTensor(np.arange(-100, 100, dtype=np.int64).view(np.uint64), CFG64)
        sh = share_ring(ring, seed=9)
        ops = []
        real = protocol.and_shares

        def spy(sess, x, y):
            ops.append((x.words, y.words))
            return real(sess, x, y)

        monkeypatch.setattr(protocol, "and_shares", spy)
        bits = two_party(lambda sess: sess.reveal_bits(a2b(sess, ShareTensor(sh[sess.party], 0))).words)
        assert all(np.array_equal(b, (ring.signed() < 0).astype(np.uint64)) for b in bits)
        W, n, _ = protocol.a2b_geometry(CFG64, ring.size)
        levels = [(x, y) for x, y in ops if x.ndim == 3]
        assert sorted(x.shape for x, _ in levels) == sorted(2 * [(2, n >> k, W) for k in range(1, 7)])  # both parties
        for x, y in levels:
            assert x.strides == (0, 8 * W, 8) and np.shares_memory(x[0], x[1])
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0
            assert y.base is not None and y[0].flags.c_contiguous and y[1].flags.c_contiguous


    def test_b2a_selects_a_stride_zero_one(self, monkeypatch):
        """b2a selects the public one, on each party a stride-0 view of one
        word, by `bit`, and select masks the d plane it opens with `_zeros`;
        select writes neither, nor its input bit."""
        seen = []
        real = protocol._open_masked

        def spy(sess, pairs, mode="add"):
            if mode == ("add", "xor"):
                seen.append((sess.party, [(v.words, m.words) for v, m in pairs]))
            return real(sess, pairs, mode)

        monkeypatch.setattr(protocol, "_open_masked", spy)
        rng = np.random.default_rng(3)
        bit, bs = random_bit_shares(rng, (2, 70), CFG64)
        for b in bs:
            b.words.setflags(write=False)
        got = two_party(lambda sess: sess.reveal(b2a(sess, bs[sess.party])).words)
        assert all(np.array_equal(g, bit.words) for g in got)
        assert sorted(party for party, _ in seen) == [0, 1]
        for party, ((one, a), (d, zero)) in seen:
            word = protocol._ONE if party == 0 else protocol._ZERO_WORD
            assert one.shape == (2, 70) and one.strides == (0, 0) and one.ctypes.data == word.ctypes.data
            assert zero.shape == d.shape == (3,) and zero.strides == (0,)
            assert zero.ctypes.data == protocol._ZERO_WORD.ctypes.data
            assert not (one.flags.writeable or zero.flags.writeable)
        assert protocol._ONE == 1 and not protocol._ZERO_WORD


class TestFrames:
    def test_frames_are_never_written_after_sending(self):
        """Each in-memory frame hashes the same at send and after both parties
        finish: neither the sender nor the peer that read it wrote into it."""

        class Keeper(InMemoryChannel):
            def __init__(self, *args):
                super().__init__(*args)
                self.sent = []

            def _swap(self, prefix, payload):
                self.sent.append((payload, hashlib.sha256(payload).hexdigest()))
                return super()._swap(prefix, payload)

        shape = MULTI_BLOCK
        xs = share_reals(np.random.default_rng(42).uniform(-4, 4, size=shape), seed=7)
        q01, q10 = queue.Queue(), queue.Queue()
        channels = Keeper(q10, q01), Keeper(q01, q10)
        sessions = [Session(p, CFG64, channels[p], DealingReader(Dealer(8, CFG64), p)) for p in (0, 1)]

        def fn(sess):
            xt = as_share(sess, xs)
            sess.reveal(mul_beaver(sess, relu_secure(sess, xt), square(sess, xt)))

        run_both(lambda: fn(sessions[0]), lambda: fn(sessions[1]))
        for ch, sess in zip(channels, sessions):  # one opening per record, then the result's
            assert len(ch.sent) == ch.rounds == len(sess.tape.records) + 1
            assert all(hashlib.sha256(payload).hexdigest() == digest for payload, digest in ch.sent)

    @pytest.mark.parametrize("opener", ["_finish", "_open_masked"])
    def test_unknown_opening_mode_is_refused_before_any_round(self, opener):
        ch, _ = memory_channel_pair(timeout=0.05)
        sess = Session(0, CFG64, ch)
        t = RingTensor(np.arange(4, dtype=np.uint64), CFG64)
        with pytest.raises(ValueError, match="unknown opening mode 'and'"):
            if opener == "_finish":
                protocol._finish(sess, [(t, t)], "and", np.copyto)
            else:
                protocol._open_masked(sess, [(t, t)], "and")
        assert (ch.bytes_sent, ch.rounds, sess.opened_words) == (0, 0, 0)


class TestAccounting:
    def test_round_counts(self):
        """lin_combine/mul_public: 0; mul/square/select/b2a: 1; a2b:
        1+ceil(log2(L-1)); relu: 2+ceil(log2(L-1))."""
        x = np.array([1.0, -2.0])
        xs = share_reals(x)

        def fn(sess):
            xt = as_share(sess, xs)
            counts = {}
            r0 = sess.channel.rounds
            lin_combine(sess, 2.0, xt, xt)
            mul_public(sess, xt, encode(np.ones(2), CFG64))
            counts["local"] = sess.channel.rounds - r0

            r0 = sess.channel.rounds
            mul_beaver(sess, xt, xt)
            counts["mul"] = sess.channel.rounds - r0

            r0 = sess.channel.rounds
            square(sess, xt)
            counts["square"] = sess.channel.rounds - r0

            r0 = sess.channel.rounds
            xb = a2b(sess, xt)
            counts["a2b"] = sess.channel.rounds - r0

            r0 = sess.channel.rounds
            b2a(sess, xb)
            counts["b2a"] = sess.channel.rounds - r0

            r0 = sess.channel.rounds
            select(sess, xt, xb)
            counts["select"] = sess.channel.rounds - r0

            r0 = sess.channel.rounds
            relu_secure(sess, xt)
            counts["relu"] = sess.channel.rounds - r0
            return counts

        (c, _) = two_party(fn)
        assert c["local"] == 0
        assert c["mul"] == 1
        assert c["square"] == 1
        assert c["a2b"] == 1 + math.ceil(math.log2(63))
        assert c["b2a"] == c["select"] == 1
        assert c["relu"] == 2 + math.ceil(math.log2(63))

    def test_a2b_rounds_l8(self):
        ring = RingTensor(np.arange(4, dtype=np.uint64), CFG8)
        sh = share_ring(ring, seed=8)

        def fn(sess):
            r0 = sess.channel.rounds
            a2b(sess, ShareTensor(sh[sess.party], 0))
            return sess.channel.rounds - r0

        (rounds, _) = two_party(fn, cfg=CFG8)
        assert rounds == 1 + math.ceil(math.log2(7))

    def test_transcript_determinism(self):
        """Fixed seeds give byte-identical transcripts run over run."""
        x = np.linspace(-3, 3, 16)

        def once():
            xs = share_reals(x, seed=33)

            def fn(sess):
                out = relu_secure(sess, as_share(sess, xs))
                sess.reveal(out)
                return sess.channel.transcript_hash

            return two_party(fn, seed=44)

        first = once()
        second = once()
        assert first == second
