"""Fixed-point encoding and exact two's-complement ring arithmetic."""

import warnings

import numpy as np
import pytest

from arp.errors import EncodeOverflowError, FormatError
from arp.fixed import (FixedConfig, RingTensor, decode, encode, flat_frame, frame_payload, pack_words,
                       truncate, unpack_words)


class TestEncode:
    def test_basic_values(self):
        assert encode(1.5, FixedConfig(16, 8)).words == 384
        assert encode(-1.0, FixedConfig(8, 4)).words == 240  # two's complement of 16

    def test_big_integer_rounding(self):
        # round(0.3 * 2^16) computed with exact integer arithmetic
        cfg = FixedConfig(32, 16)
        expected = (3 * 2**16 + 5) // 10  # 19660.8 rounds to 19661
        assert expected == 19661
        r = encode(0.3, cfg)
        assert r.words == expected
        assert abs(decode(r, cfg).item() - 0.3) <= 2**-17

    def test_overflow_names_index(self):
        cfg = FixedConfig(16, 8)
        with pytest.raises(EncodeOverflowError) as exc:
            encode(np.array([0.0, 1.0, 1e6]), cfg)
        assert exc.value.index == 2

    def test_non_finite_rejected(self):
        cfg = FixedConfig(64, 16)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(EncodeOverflowError):
                encode(np.array([1.0, bad]), cfg)

    def test_boundary_values(self):
        cfg = FixedConfig(16, 8)
        encode(cfg.min_real, cfg)
        encode(cfg.max_real, cfg)
        with pytest.raises(EncodeOverflowError):
            encode(cfg.max_real + cfg.resolution, cfg)

    def test_monotone(self):
        cfg = FixedConfig(64, 16)
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(-1000, 1000, size=5000))
        s = encode(x, cfg).signed()
        assert np.all(np.diff(s) >= 0)


class TestDecode:
    def test_examples(self):
        assert decode(RingTensor(np.uint64(384), FixedConfig(16, 8))) == 1.5
        assert decode(RingTensor(np.uint64(240), FixedConfig(8, 4))) == -1.0
        # most negative value
        assert decode(RingTensor(np.uint64(2**15), FixedConfig(16, 8))) == -128.0

    def test_roundtrip_half_ulp(self):
        cfg = FixedConfig(64, 16)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1e4, 1e4, size=20000)
        back = decode(encode(x, cfg), cfg)
        assert np.max(np.abs(back - x)) <= 2.0 ** -(cfg.frac_bits + 1)


class TestScalarShape:
    @pytest.mark.parametrize("bits", [8, 32, 64])
    def test_scalar_tensor_stays_scalar(self, bits):
        """signed, decode and truncate of a 0-d tensor keep its shape ()."""
        cfg = FixedConfig(bits, 4)
        r = encode(-3.0, cfg)
        assert np.shape(r.signed()) == ()
        assert np.shape(decode(r)) == ()
        assert truncate(r, bits=1).shape == ()
        assert decode(r) == -3.0
        assert decode(truncate(r, bits=1)) == -1.5

    @pytest.mark.parametrize("bits", [8, 32, 64])
    def test_scalar_words_are_an_array(self, bits):
        """A 0-d tensor's words are a 0-d ndarray that ufuncs can write into."""
        t = RingTensor(np.array(5, np.uint64), FixedConfig(bits, 4))
        assert isinstance(t.words, np.ndarray) and t.words.shape == ()
        np.add(t.words, np.uint64(1), out=t.words)
        assert int(t.words) == 6
        assert isinstance((t + 1).words, np.ndarray)


class TestTruncate:
    def test_exact_product(self):
        cfg = FixedConfig(64, 16)
        prod = encode(1.5, cfg) * encode(2.0, cfg)
        assert decode(truncate(prod, cfg), cfg) == 3.0

    def test_negative_product(self):
        # exact rational: -0.5 * 0.5 = -0.25, both encodable exactly
        cfg = FixedConfig(64, 16)
        prod = encode(-0.5, cfg) * encode(0.5, cfg)
        got = decode(truncate(prod, cfg), cfg).item()
        assert abs(got - (-0.25)) <= cfg.resolution

    def test_zero(self):
        cfg = FixedConfig(64, 16)
        assert truncate(RingTensor.zeros((4,), cfg), cfg).words.sum() == 0


class TestRingArithmetic:
    @pytest.mark.parametrize("bits", [8, 24, 64])
    def test_matches_big_integer_arithmetic(self, bits):
        """add/sub/mul agree with Python big-int arithmetic mod 2^L."""
        cfg = FixedConfig(bits, 4)
        rng = np.random.default_rng(bits)
        n = 40000
        a = rng.integers(0, 2**64 - 1, size=n, endpoint=True, dtype=np.uint64)
        b = rng.integers(0, 2**64 - 1, size=n, endpoint=True, dtype=np.uint64)
        ra, rb = RingTensor(a, cfg), RingTensor(b, cfg)
        mod = 1 << bits
        ai = [int(v) % mod for v in a]
        bi = [int(v) % mod for v in b]
        assert (ra + rb).words.tolist() == [(x + y) % mod for x, y in zip(ai, bi)]
        assert (ra - rb).words.tolist() == [(x - y) % mod for x, y in zip(ai, bi)]
        assert (ra * rb).words.tolist() == [(x * y) % mod for x, y in zip(ai, bi)]

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("bits", [8, 64])
    def test_ops_wrap_without_overflow_warnings(self, bits, shape):
        """Every arithmetic op wraps mod 2^L silently, on 0-d operands too:
        the words are always arrays, and numpy warns only in scalar math."""
        cfg = FixedConfig(bits, 4)
        mod = 1 << bits

        def ring(v):
            return RingTensor(np.full(shape, v % mod, dtype=np.uint64), cfg)

        top, one = ring(-1), ring(1)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "overflow encountered", RuntimeWarning)
            assert top + one == ring(0) and top + 2 == ring(1)
            assert one - top == ring(2) and ring(0) - 3 == ring(-3)
            assert top * top == one and top * 3 == ring(-3)
            assert -one == top and -ring(0) == ring(0)
            assert top.lshift(1) == ring(-2)
            if shape:  # matmul needs at least one axis
                assert top.matmul(top) == RingTensor(np.uint64(3), cfg)

    def test_matmul_wraps(self):
        cfg = FixedConfig(64, 16)
        a = RingTensor(np.full((2, 2), 2**62, dtype=np.uint64), cfg)
        b = RingTensor(np.full((2, 2), 4, dtype=np.uint64), cfg)
        # 2 * (2^62 * 4) = 2^65 = 0 mod 2^64
        assert np.all(a.matmul(b).words == 0)

    @pytest.mark.parametrize("bits", [8, 24, 64])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_conv2d_matches_big_integer_arithmetic(self, bits, batch, stride, padding):
        """conv2d of full-range words agrees with a Python big-int conv mod 2^L."""
        cfg = FixedConfig(bits, 4)
        rng = np.random.default_rng(bits + 10 * batch + stride + padding)
        x = rng.integers(0, 2**64 - 1, size=(batch, 2, 5, 6), endpoint=True, dtype=np.uint64)
        w = rng.integers(0, 2**64 - 1, size=(3, 2, 3, 3), endpoint=True, dtype=np.uint64)
        rx, rw = RingTensor(x, cfg), RingTensor(w, cfg)
        got = rx.conv2d(rw, stride=stride, padding=padding)

        mod = 1 << bits
        xi = np.zeros((batch, 2, 5 + 2 * padding, 6 + 2 * padding), dtype=object)  # Python int zeros
        xi[:, :, padding : padding + 5, padding : padding + 6] = rx.words.astype(object)
        wi = rw.words.astype(object)
        oh = (5 + 2 * padding - 3) // stride + 1
        ow = (6 + 2 * padding - 3) // stride + 1
        want = np.empty((batch, 3, oh, ow), dtype=object)
        for i in range(oh):
            for j in range(ow):
                patch = xi[:, :, i * stride : i * stride + 3, j * stride : j * stride + 3]
                want[:, :, i, j] = np.tensordot(patch, wi, axes=([1, 2, 3], [1, 2, 3]))
        assert got.shape == want.shape
        assert got.words.tolist() == (want % mod).tolist()

    def test_signed_view_all_bit_widths(self):
        for bits in (8, 13, 32, 63, 64):
            cfg = FixedConfig(bits, 2)
            top = RingTensor(np.uint64(1 << (bits - 1)), cfg)
            assert top.signed() == -(1 << (bits - 1))
            ones = RingTensor(np.uint64((1 << bits) - 1), cfg)
            assert ones.signed() == -1


class TestWireEncoding:
    """Every opening travels as one `flat_frame`: a rank-1 header, then the
    words packed at ceil(L/8) bytes each."""

    def test_header_layout(self):
        cfg = FixedConfig(64, 16)
        frame = flat_frame(4)
        frame[1:] = np.arange(4)
        raw = bytes(frame_payload(frame, cfg))
        # rank u32 + one dim u32 + 4 words of 8 bytes
        assert len(raw) == 4 + 4 + 32
        assert raw[:4] == (1).to_bytes(4, "little")
        assert raw[4:8] == (4).to_bytes(4, "little")
        assert unpack_words(raw[8:], (4,), cfg).words.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("bits", [8, 24, 40, 64])
    def test_roundtrip(self, bits):
        cfg = FixedConfig(bits, 4)
        rng = np.random.default_rng(bits)
        r = RingTensor(rng.integers(0, 2**64 - 1, size=15, endpoint=True, dtype=np.uint64), cfg)
        frame = flat_frame(15)
        frame[1:] = r.words
        raw = bytes(frame_payload(frame, cfg))
        assert len(raw) == 8 + 15 * cfg.word_bytes and raw[:8] == frame[:1].tobytes()
        assert unpack_words(raw[8:], (15,), cfg) == r

    def test_word_packing_roundtrip(self):
        cfg = FixedConfig(24, 8)
        rng = np.random.default_rng(0)
        r = RingTensor(rng.integers(0, 2**24, size=17, dtype=np.uint64), cfg)
        assert unpack_words(pack_words(r), (17,), cfg) == r
        assert len(pack_words(r)) == 17 * 3

    def test_truncated_payload_rejected(self):
        cfg = FixedConfig(64, 16)
        frame = flat_frame(4)
        frame[1:] = np.arange(4)
        raw = bytes(frame_payload(frame, cfg))
        with pytest.raises(FormatError, match="expected 32 payload bytes, got 31"):
            unpack_words(raw[8:-1], (4,), cfg)

    @pytest.mark.parametrize("bits", [24, 64])
    def test_from_bytes_accepts_any_bytes_like(self, bits):
        """Words decode from any bytes-like payload, keeping the shape asked for."""
        cfg = FixedConfig(bits, 8)
        r = RingTensor(np.arange(6, dtype=np.uint64).reshape(2, 3) * 977, cfg)
        raw = bytes(pack_words(r))
        got = [unpack_words(b, (2, 3), cfg) for b in (raw, bytearray(raw), memoryview(raw))]
        assert all(g == r and g.shape == (2, 3) for g in got)

    def test_wrong_length_word_buffer_rejected(self):
        cfg = FixedConfig(64, 16)
        for n in (15, 17, 24):
            with pytest.raises(FormatError, match="expected 16 payload bytes"):
                unpack_words(bytes(n), (2,), cfg)
