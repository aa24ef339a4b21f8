"""Dealer correctness: triple identities, determinism, tape format, share uniformity.

The ring matmul and conv the public-weight layers use are checked here
against big-integer oracles.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from scipy import stats

from arp import dealer
from arp.dealer import (
    Dealer,
    DealingReader,
    Request,
    read_tape,
    tape_from_bytes,
    tape_to_bytes,
    write_tape,
)
from arp.errors import FormatError, ProtocolDesyncError, TapeExhaustedError, TripleReuseError
from arp.fixed import FixedConfig, RingTensor, pack_words
from arp.protocol import mul_beaver

from conftest import two_party

CFG = FixedConfig(64, 16)
CFG8 = FixedConfig(8, 4)


def rand_ring(rng, shape, cfg=CFG):
    words = rng.integers(0, np.iinfo(np.uint64).max, endpoint=True, dtype=np.uint64, size=shape)
    return RingTensor(words, cfg)


def naive_conv2d(x, w, stride, padding, mod):
    """Independent conv oracle: plain Python loops over big ints."""
    b, c, h, ww = x.shape
    oc, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * padding, ww + 2 * padding), dtype=object)
    xp[:, :, padding : padding + h, padding : padding + ww] = x.astype(object)
    out = np.zeros((b, oc, oh, ow), dtype=object)
    for bi in range(b):
        for oci in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = 0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += int(xp[bi, ci, i * stride + ki, j * stride + kj]) * int(
                                    w[oci, ci, ki, kj]
                                )
                    out[bi, oci, i, j] = acc % mod
    return out


class TestShares:
    def test_reconstruct(self):
        d = Dealer(0, CFG8)
        x = RingTensor(np.uint64(5), CFG8)
        s0, s1 = d.gen_shares(x)
        assert (s0 + s1).words == 5

    def test_zero_reconstructs(self):
        d = Dealer(3, CFG)
        s0, s1 = d.gen_shares(RingTensor.zeros((8,), CFG))
        assert np.all((s0 + s1).words == 0)
        assert np.array_equal(s1.words, (-s0).words)

    def test_seed_determinism(self):
        x = RingTensor(np.arange(100, dtype=np.uint64), CFG)
        a = Dealer(42, CFG)
        b = Dealer(42, CFG)
        for _ in range(5):
            sa, sb = a.gen_shares(x), b.gen_shares(x)
            assert sa[0] == sb[0] and sa[1] == sb[1]

    def test_marginal_uniformity_chi_squared(self):
        """Each single share is uniform; checked at L=8 over 1e5 draws."""
        d = Dealer(9, CFG8)
        x = RingTensor(np.full(100_000, 7, dtype=np.uint64), CFG8)
        s0, s1 = d.gen_shares(x)
        for share in (s0, s1):
            counts = np.bincount(share.words.astype(np.int64), minlength=256)
            assert stats.chisquare(counts).pvalue > 1e-3


class TestStream:
    """The dealer's words are the AES-128-CTR keystream of the documented key."""

    def test_known_answer(self):
        """The first words from seed 2024 are AES-128-ECB of counter blocks
        0, 1, 2, ... (128-bit big-endian) under SHA-256(tag + "2024")[:16],
        read as little-endian 64-bit words."""
        key = hashlib.sha256(b"arp.dealer.aes128ctr.v1:2024").digest()[:16]
        ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        blocks = ecb.update(b"".join(i.to_bytes(16, "big") for i in range(9))) + ecb.finalize()
        s0, _ = Dealer(2024, CFG).gen_shares(RingTensor.zeros((17,), CFG))
        assert np.array_equal(s0.words, np.frombuffer(blocks, "<u8")[:17])

    def test_split_draws_equal_one_draw(self):
        """Odd counts, empty draws and a draw longer than one keystream
        slice, split across calls, continue the stream of one draw."""
        sizes = [1, 3, 0, 5, (1 << 15) + 3, 7]
        whole = Dealer(5, CFG)._raw(sum(sizes))
        split = Dealer(5, CFG)
        assert np.array_equal(np.concatenate([split._raw(n) for n in sizes]), whole)

    @pytest.mark.parametrize("cap", [1, 40, 50])
    def test_draw_buffers_do_not_move_the_stream(self, cap, monkeypatch):
        """Party 0 drops a record's secret words through its reused buffer
        below `_SEEK_BYTES` and seeks the stream past them from there on; a
        cap of 1 byte seeks past every record, and 40 or 50 bytes mix the
        two, from odd and even word positions.  Either way it deals the
        full deal's tape 0 and leaves the stream at the same word."""
        reqs = TestTapes()._requests()
        full = Dealer(3, CFG)
        want = bytes(tape_to_bytes(full.build_tapes(reqs)[0]))
        monkeypatch.setattr(dealer, "_SEEK_BYTES", cap)
        alone = Dealer(3, CFG)
        assert bytes(tape_to_bytes(alone.build_tapes(reqs, 0)[0])) == want
        nxt = RingTensor.zeros((3,), CFG)
        assert alone.gen_shares(nxt)[0] == full.gen_shares(nxt)[0]

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match="negative"):
            Dealer(seed, CFG)


def check_beaver(cfg, p0, p1):
    a, b, z = (u + v for u, v in zip(p0, p1))
    assert z == a * b


def check_square(cfg, p0, p1):
    a, z = (u + v for u, v in zip(p0, p1))
    assert z == a * a


def check_and(cfg, p0, p1):
    a, b, c = ((u ^ v).words for u, v in zip(p0, p1))
    assert np.array_equal(c, a & b)


def check_select(cfg, p0, p1):
    """z = a*c with c a bit, whose XOR sharing is the shares' low bits."""
    a, c, z = (u + v for u, v in zip(p0, p1))
    assert z == a * c
    assert set(np.unique(c.words).tolist()) == {0, 1}
    assert np.array_equal((p0[1].words ^ p1[1].words) & np.uint64(1), c.words)


def check_trunc(cfg, p0, p1):
    """hi and w reconstruct to s >> f and msb(s) * 2^(L-f) for s = -r,
    checked on Python ints."""
    bits, frac = cfg.total_bits, cfg.frac_bits
    r, hi, w = ([int(x) for x in (u + v).words] for u, v in zip(p0, p1))
    size = 1 << bits
    s = [(-x) % size for x in r]
    assert hi == [v >> frac for v in s]
    assert w == [((v >> (bits - 1)) << (bits - frac)) % size for v in s]
    assert {v >> (bits - 1) for v in s} == {0, 1}


# each correlation kind's identity on both parties' reconstructed fields
IDENTITIES = {"beaver": check_beaver, "square": check_square, "and": check_and, "trunc": check_trunc,
              "select": check_select}


def check_identity(kind, bits, frac, seed, shape):
    """Deal one `kind` record of `shape` from `seed` and check its identity."""
    cfg = FixedConfig(bits, frac)
    p0, p1 = (t.records[0].fields for t in Dealer(seed, cfg).build_tapes([Request(kind, shape)]))
    IDENTITIES[kind](cfg, p0, p1)


class TestTriples:
    def test_elementwise_identity(self):
        check_identity("beaver", 8, 4, 1, (3,))

    def test_square_pair_property(self):
        check_identity("square", 8, 4, 5, (10_000,))

    def test_and_triples_exhaustive(self):
        check_identity("and", 8, 4, 7, (100_000,))

    @pytest.mark.parametrize("bits,frac", [(8, 4), (32, 8), (64, 16), (64, 0)])
    def test_trunc_mask_fields(self, bits, frac):
        check_identity("trunc", bits, frac, 8, (20_000,))

    @pytest.mark.parametrize("bits,frac", [(8, 4), (32, 8), (64, 16)])
    def test_select_triple_fields(self, bits, frac):
        check_identity("select", bits, frac, 9, (20_000,))

    def test_every_kind_has_an_identity_check(self):
        assert set(IDENTITIES) == set(dealer._KIND)

    def test_matmul_identity_against_bigint(self):
        rng = np.random.default_rng(2)
        a, b = rand_ring(rng, (2, 3)), rand_ring(rng, (3, 4))
        z = a.matmul(b).words
        a, b = a.words, b.words
        assert z.shape == (2, 4)
        mod = 1 << 64
        for i in range(2):
            for j in range(4):
                expect = sum(int(a[i, k]) * int(b[k, j]) for k in range(3)) % mod
                assert int(z[i, j]) == expect

    def test_conv_identity_against_naive_oracle(self):
        rng = np.random.default_rng(3)
        a, b = rand_ring(rng, (1, 1, 4, 4)), rand_ring(rng, (2, 1, 3, 3))
        z = a.conv2d(b, stride=1, padding=1).words
        expect = naive_conv2d(a.words, b.words, 1, 1, 1 << 64)
        assert np.array_equal(z.astype(object), expect)

    def test_incompatible_shapes(self):
        """mul_beaver rejects unequal shapes before it reads the tape."""

        def fn(sess):
            with pytest.raises(ValueError, match="equal shapes"):
                mul_beaver(sess, sess.zeros_like((2,)), sess.zeros_like((3,)))
            return sess.tape.remaining(), sess.channel.rounds

        assert two_party(fn, [Request("beaver", (2,))]) == ((1, 0), (1, 0))

    def test_square_scalar(self):
        d = Dealer(6, FixedConfig(8, 0))
        (a0, z0), (a1, z1) = (t.records[0].fields for t in d.build_tapes([Request("square", (1,))]))
        a = int((a0 + a1).words[0])
        z = int((z0 + z1).words[0])
        assert z == (a * a) % 256


PINNED_STREAM = [
    (64, 16, ("7fd5924daf49677427f6a3ed2aa4871814068456c53be34015070a1ea1743cee",
              "e47a99fe69ef8f50ee7eb5630ff9d3938686df33680c346d5133357bf8ac43cf",
              "07b1697319f5815e3897a5a709d90743b56acb8d7f2b6918dc1812edcbc2d968")),
    (32, 12, ("2f428fafa8ac8316208f23ff3a85f0898e8d95f7e2f153b35952d8d00064c386",
              "6c2e3bfa596ea5c42bd6423c360296917a60781f55ff97de48bc15692b38f02e",
              "a8f82ed4863451742bd4b6e8639ad3198debf0f498959c3e227c9ddae7189191")),
    # 3-byte words: packing clears the top 4 bits of each word's last byte
    (20, 5, ("4a2f026ec8706e8019015accd7961f1e196ea4ae691cc03c974228ed940a9428",
             "bd9c4341ba1c86f14bbde853c58372cf4b0bc56919b3dbf1519eea1639fbfb33",
             "8f9122c514bae9275fe0a2903f2a81373a61eff1fa504a76ee95fc10ff3d1309")),
]

# each kind's record tag on tape, in tape format version 2
RECORD_TAGS = {"beaver": 1, "square": 2, "and": 3, "trunc": 4, "select": 5}


def packed_tape(tape) -> bytes:
    """The tape file packed record by record from `tape.records`: header
    (version 2), then each record's tag, its shape and its share words
    packed with `pack_words`."""
    cfg = tape.cfg
    out = [b"ARPT", struct.pack("<HHHBI", 2, cfg.total_bits, cfg.frac_bits, tape.party, len(tape.records))]
    for rec in tape.records:
        shape = rec.fields[0].shape
        out += [bytes([RECORD_TAGS[rec.kind]]), struct.pack(f"<B{len(shape)}I", len(shape), *shape)]
        out += [bytes(pack_words(v.words, cfg)) for v in rec.fields]
    return b"".join(out)


def pinned_stream_digests(bits, frac, party):
    """SHA-256 of the tapes `build_tapes(reqs, party)` deals from seed 2024
    (None for a tape not dealt), then of the input shares dealt after them."""
    cfg = FixedConfig(bits, frac)
    reqs = [Request("beaver", (3,)), Request("square", (2, 5)), Request("and", (1, 1, 4, 4)),
            Request("beaver", (2, 5)), Request("and", (3,)), Request("square", (1, 1, 4, 4))]
    d = Dealer(2024, cfg)
    dealt = d.build_tapes(reqs, party)
    tapes = dealt if party is None else [dealt[0] if p == party else None for p in (0, 1)]
    s0, s1 = d.gen_shares(RingTensor(np.arange(7, dtype=np.uint64), cfg))
    blobs = [tape_to_bytes(t) if t is not None else None for t in tapes]
    blobs.append(bytes(pack_words(s0.words, cfg)) + bytes(pack_words(s1.words, cfg)))
    return tuple(hashlib.sha256(b).hexdigest() if b is not None else None for b in blobs)


class TestTapes:
    def _requests(self):
        return [
            Request("beaver", (3,)),
            Request("beaver", (2, 3)),
            Request("beaver", (1, 1, 4, 4)),
            Request("square", (2, 2)),
            Request("and", (5,)),
            Request("trunc", (2, 3)),
            Request("select", (2, 2)),
        ]

    def test_serialization_bit_identical(self, tmp_path):
        tapes = Dealer(11, CFG).build_tapes(self._requests())
        for tape in tapes:
            raw = tape_to_bytes(tape)
            assert bytes(raw) == packed_tape(tape)
            again = tape_to_bytes(tape_from_bytes(raw))
            assert raw == again
            path = tmp_path / f"tape{tape.party}.arpt"
            write_tape(tape, path)
            loaded = read_tape(path)
            assert tape_to_bytes(loaded) == raw

    def test_replay_consumes_identical_randomness(self):
        reqs = self._requests()
        t_a = Dealer(21, CFG).build_tapes(reqs)
        t_b = Dealer(21, CFG).build_tapes(reqs)
        assert tape_to_bytes(t_a[0]) == tape_to_bytes(t_b[0])
        assert tape_to_bytes(t_a[1]) == tape_to_bytes(t_b[1])

    def test_reader_validation(self):
        tapes = Dealer(12, CFG).build_tapes([Request("square", (2,))])
        rd = tapes[0].reader()
        with pytest.raises(ProtocolDesyncError, match="is 'square', expected 'beaver'"):
            rd.take(Request("beaver", (2,)))
        with pytest.raises(ProtocolDesyncError, match=r"has shape \(2,\), request was \(3,\)"):
            rd.take(Request("square", (3,)))
        assert rd.remaining() == 1
        assert rd.take(Request("square", (2,))) is tapes[0].records[0].fields
        with pytest.raises(TapeExhaustedError):
            rd.take(Request("square", (2,)))
        with pytest.raises(TripleReuseError, match="consumed twice"):  # a second reader of the same tape
            tapes[0].reader().take(Request("square", (2,)))

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown correlation kind 'mul'"):
            Dealer(12, CFG).build_tapes([Request("square", (2,)), Request("mul", (2,))])

    def test_bad_magic(self):
        raw = tape_to_bytes(Dealer(13, CFG).build_tapes([Request("and", (1,))])[0])
        with pytest.raises(FormatError):
            tape_from_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            tape_from_bytes(raw[:-2])

    def test_version_1_tapes_are_refused(self):
        """A version-1 tape, whose Beaver records carried a fixed descriptor
        (op 0, stride 1, padding 0) and their shape twice, is refused by
        its version in one line."""
        dim2 = (2).to_bytes(4, "little")
        words = b"".join(struct.pack("<Q", w) for w in range(6))  # a, b and z of 2 elements
        raw = (b"ARPT" + struct.pack("<HHHBI", 1, 64, 16, 0, 1)
               + bytes([1, 0, 1, 0, 1]) + dim2 + bytes([1]) + dim2 + words)
        with pytest.raises(FormatError, match=r"^unsupported tape version 1$"):
            tape_from_bytes(raw)

    @pytest.mark.parametrize("at, value, reason", [
        (6, struct.pack("<H", 70), "total_bits must be in"),
        (8, struct.pack("<H", 63), "frac_bits must be in"),
        (10, bytes([2]), "bad tape party 2")])
    def test_impossible_header_is_a_format_error(self, at, value, reason):
        """A tape carries no digest, so its ring (L at byte 6, f at byte 8)
        and its party byte (10) are checked on read."""
        raw = bytearray(tape_to_bytes(Dealer(15, CFG).build_tapes([Request("and", (2,))])[0]))
        raw[at : at + len(value)] = value
        with pytest.raises(FormatError, match=reason):
            tape_from_bytes(bytes(raw))

    @pytest.mark.parametrize("bits, frac, digests", PINNED_STREAM)
    def test_dealer_stream_is_pinned(self, bits, frac, digests):
        """SHA-256 of both tapes and of input shares dealt after them: any
        change to the draw order or the share arithmetic moves these."""
        assert pinned_stream_digests(bits, frac, party=None) == digests

    @pytest.mark.parametrize("party", [0, 1])
    @pytest.mark.parametrize("bits, frac, digests", PINNED_STREAM)
    def test_one_party_deal_keeps_the_pinned_stream(self, bits, frac, digests, party):
        """A one-party deal gives that party's pinned tape, and the input
        shares dealt after it are the pinned ones too."""
        got = pinned_stream_digests(bits, frac, party)
        assert (got[party], got[2]) == (digests[party], digests[2])


class TestPartyZeroDeal:
    """Party 0 deals its tape alone by drawing every word of the stream and
    keeping only its share words; party 1 deals its own alone by drawing
    party 0's words into a scratch buffer.  Either tape, and the stream
    position after it, equal the full deal's."""

    KINDS = tuple(RECORD_TAGS)

    def random_requests(self, rng):
        """Up to 8 requests of rank 0 to 3; dims 0 to 6, so element counts
        are often odd and some shapes are empty."""
        return [Request(self.KINDS[rng.integers(len(self.KINDS))], tuple(int(d) for d in rng.integers(0, 7, rng.integers(0, 4))))
                for _ in range(rng.integers(0, 9))]

    @pytest.mark.parametrize("bits", [8, 20, 24, 32, 48, 64])
    def test_random_request_lists(self, bits):
        cfg = FixedConfig(bits, bits // 4)
        rng = np.random.default_rng(bits)
        for trial in range(60):
            reqs = self.random_requests(rng)
            full, *alone = (Dealer(trial, cfg) for _ in range(3))
            lead = int(rng.integers(0, 6))  # start the deal off a 2-word block boundary
            for d in (full, *alone):
                d.gen_shares(RingTensor.zeros((lead,), cfg))
            pair = full.build_tapes(reqs)
            for party, d in enumerate(alone):
                (only,) = d.build_tapes(reqs, party)
                assert only.party == party
                assert tape_to_bytes(only) == tape_to_bytes(pair[party]), (party, reqs)
                assert bytes(tape_to_bytes(only)) == packed_tape(only), (party, reqs)
            for n in (1, 3, 5):  # same stream position: the next words agree
                want = full.gen_shares(RingTensor.zeros((n,), cfg))[0]
                assert all(d.gen_shares(RingTensor.zeros((n,), cfg))[0] == want for d in alone)

    @pytest.mark.parametrize("bits", [24, 64])
    @pytest.mark.parametrize("chunk", [1, 5])
    def test_chunks_do_not_change_the_tapes(self, bits, chunk, monkeypatch):
        """Party 0's words are drawn, split and packed a chunk at a time;
        chunks of 1 or 5 words deal the same tapes, for both parties and
        each alone, and leave the stream at the same word."""
        cfg = FixedConfig(bits, bits // 4)
        rng = np.random.default_rng(bits + chunk)
        lists = [self.random_requests(rng) for _ in range(20)]

        def deal(reqs):
            out = []
            for party in (None, 0, 1):
                d = Dealer(9, cfg)
                out += [bytes(tape_to_bytes(t)) for t in d.build_tapes(reqs, party)]
                out.append(d.gen_shares(RingTensor.zeros((3,), cfg))[0].words.tobytes())
            return out

        want = [deal(reqs) for reqs in lists]
        monkeypatch.setattr(dealer, "_CHUNK", chunk)
        assert [deal(reqs) for reqs in lists] == want

    def test_zero_size_and_scalar_records(self):
        reqs = [Request("and", (0,)), Request("beaver", ()), Request("square", (3, 0)), Request("and", (1,)),
                Request("beaver", (0, 2))]
        tape0, _ = Dealer(1, CFG).build_tapes(reqs)
        (only0,) = Dealer(1, CFG).build_tapes(reqs, 0)
        assert [r.fields[0].shape for r in only0.records] == [(0,), (), (3, 0), (1,), (0, 2)]
        assert tape_to_bytes(only0) == tape_to_bytes(tape0)

    @pytest.mark.parametrize("bits", [64, 32, 20])
    def test_dealing_reader_deals_the_planned_tape(self, bits):
        """Dealt one record at a time as an op takes it, a party's records
        hold the words of its tape planned up front, and the stream ends at
        the same word; the large records' secret words take party 0's seek
        path."""
        cfg = FixedConfig(bits, bits // 4)
        big = 2 * dealer._SEEK_BYTES // 8
        reqs = [Request("beaver", (3, 2)), Request("trunc", (big,)), Request("and", ()), Request("beaver", (big,)),
                Request("square", (5,)), Request("and", (2, 7)), Request("select", (big,)), Request("select", (3,))]
        planned = Dealer(4, cfg).build_tapes(reqs)
        for party in (0, 1):
            d = Dealer(4, cfg)
            reader = DealingReader(d, party)
            taken = [reader.take(req) for req in reqs]
            assert [(r.kind, r.used) for r in reader.records] == [(req.kind, True) for req in reqs]
            for got, rec in zip(taken, planned[party].records):
                assert [v.words.tobytes() for v in got] == [v.words.tobytes() for v in rec.fields]
            after = Dealer(4, cfg)
            after.build_tapes(reqs, party)
            assert d.gen_shares(RingTensor.zeros((3,), cfg))[0] == after.gen_shares(RingTensor.zeros((3,), cfg))[0]


class TestTapeBuffers:
    """The tape codec reads records as views into the tape bytes."""

    @pytest.mark.parametrize("bits", [24, 32])
    def test_narrow_ring_tapes_round_trip(self, bits):
        cfg = FixedConfig(bits, 8)
        reqs = [Request("beaver", (2, 3)), Request("square", (4,)), Request("and", (5,)), Request("trunc", (3,))]
        for tape in Dealer(5, cfg).build_tapes(reqs):
            raw = tape_to_bytes(tape)
            loaded = tape_from_bytes(raw)
            assert tape_to_bytes(loaded) == raw
            assert loaded.records[0].fields[2] == tape.records[0].fields[2]

    def test_loaded_records_are_read_only(self):
        reqs = [Request("beaver", (3,)), Request("square", (2,)), Request("and", (4,))]
        loaded = tape_from_bytes(tape_to_bytes(Dealer(6, CFG).build_tapes(reqs)[0]))
        arrays = [v.words for rec in loaded.records for v in rec.fields]
        assert len(arrays) == 3 + 2 + 3
        for words in arrays:
            assert not words.flags.writeable
            with pytest.raises(ValueError):
                words[...] = 0

    @pytest.mark.parametrize("bits", [64, 32, 20])
    def test_records_are_read_only_on_every_ring(self, bits):
        """Narrow rings' records are unpacked copies, read-only all the same,
        and so are scalar records'."""
        cfg = FixedConfig(bits, bits // 4)
        reqs = [Request("beaver", (3,)), Request("trunc", ()), Request("and", (2, 2))]
        for tape in Dealer(7, cfg).build_tapes(reqs):
            arrays = [v.words for rec in tape.records for v in rec.fields]
            assert len(arrays) == 9 and not any(w.flags.writeable for w in arrays)

    @pytest.mark.parametrize("bits", [32, 20])
    def test_narrow_ring_records_are_unpacked_once(self, bits):
        """On a ring of under 64 bits a record's fields are read-only views of
        its one unpacked array, the file's words reduced mod 2^L: packed again,
        with each record's head, they give back the file's bytes."""
        cfg = FixedConfig(bits, bits // 4)
        reqs = [Request("beaver", (4, 6)), Request("trunc", (5,)), Request("and", ()), Request("square", (3,)),
                Request("select", (2, 3))]
        for tape in Dealer(9, cfg).build_tapes(reqs):
            raw = bytes(tape_to_bytes(tape))
            loaded = tape_from_bytes(raw)
            rebuilt = raw[: dealer._HEADER.size]
            for req, rec in zip(reqs, loaded.records):
                words = [v.words for v in rec.fields]
                base = words[0].base
                assert all(w.base is base for w in words)  # no per-field copies
                assert base.nbytes == 8 * len(words) * math.prod(req.shape)  # and no second one
                for w in words:
                    assert w.shape == req.shape and not w.flags.writeable
                    assert not np.any(w >> np.uint64(bits))
                    with pytest.raises(ValueError, match="read-only"):
                        w[...] = 0
                rebuilt += bytes((dealer._KIND[rec.kind].tag,)) + dealer._pack_shape(req.shape)
                rebuilt += b"".join(bytes(pack_words(w, cfg)) for w in words)
            assert rebuilt == raw

    def test_inference_consumes_a_read_only_tape(self, monkeypatch):
        import arp.runtime as runtime
        from arp.data import two_spirals
        from arp.nn import build_model

        loaded = []

        def spy(buf):
            tape = tape_from_bytes(buf)
            loaded.append(tape)
            return tape

        monkeypatch.setattr(runtime, "tape_from_bytes", spy)
        x, _ = two_spirals(8, seed=1)
        # _run_party raises when records are left over after evaluation
        runtime.private_inference_memory(build_model("mlp", seed=0), CFG, x)
        assert len(loaded) == 2 and all(t.records for t in loaded)
        assert all(not r.fields[0].words.flags.writeable for t in loaded for r in t.records)

    def test_a_kept_tape_keeps_its_bytes(self, monkeypatch):
        """A tape a run has consumed still holds its own deal after the same
        plan is dealt and run again from another seed: no later deal writes
        into a file that a tape or record still views."""
        import arp.runtime as runtime
        from arp.data import two_spirals
        from arp.nn import build_model

        loaded = []

        def spy(buf):
            loaded.append(tape_from_bytes(buf))
            return loaded[-1]

        monkeypatch.setattr(runtime, "tape_from_bytes", spy)
        model, (x, _) = build_model("mlp", seed=0), two_spirals(8, seed=1)
        runtime.private_inference_memory(model, CFG, x, dealer_seed=1)
        first = [(bytes(tape_to_bytes(t)), [bytes(r.fields[0].words) for r in t.records]) for t in loaded]
        runtime.private_inference_memory(model, CFG, x, dealer_seed=2)
        kept = [(bytes(tape_to_bytes(t)), [bytes(r.fields[0].words) for r in t.records]) for t in loaded[:2]]
        assert kept == first
        assert [bytes(tape_to_bytes(t)) for t in loaded[2:]] != [b for b, _ in first]

    @pytest.mark.parametrize("bits, n", [(64, 200_000), (24, 500_000)])
    def test_large_tape_joins_into_a_read_only_buffer(self, bits, n, tmp_path):
        """A large tape is one read-only buffer whose bytes equal the tape
        packed record by record, and it round-trips through the codec and a
        file."""
        cfg = FixedConfig(bits, 8)
        tape = Dealer(8, cfg).build_tapes([Request("and", (n,)), Request("beaver", (3,))])[1]
        raw = tape_to_bytes(tape)
        assert isinstance(raw, memoryview) and raw.readonly
        assert len(raw) >= 4 << 20
        joined = packed_tape(tape)
        assert bytes(raw) == joined
        assert bytes(tape_to_bytes(tape_from_bytes(raw))) == joined
        path = tmp_path / "large.arpt"
        write_tape(tape, path)
        assert path.read_bytes() == joined
        assert bytes(tape_to_bytes(read_tape(path))) == joined

    def test_small_tape_is_bytes(self):
        """A tape under 4 MiB is its file bytes too: a read-only buffer equal
        to the tape packed record by record."""
        tape = Dealer(9, CFG).build_tapes([Request("and", (100_000,))])[0]
        raw = tape_to_bytes(tape)
        assert raw.readonly and 2 << 20 < len(raw) < 4 << 20
        assert bytes(raw) == packed_tape(tape)

    @pytest.mark.parametrize("party", [None, 0, 1])
    def test_dealt_tape_bytes_are_not_copied(self, party):
        """`tape_to_bytes` of a dealt L=64 tape is the buffer the deal wrote:
        read-only, exactly the file's length, and the memory its records
        view; a tape read back keeps the buffer it was read from."""
        reqs = [Request("and", (1000,)), Request("beaver", (3, 2)), Request("square", (5,)), Request("trunc", (4,))]
        for tape in Dealer(10, CFG).build_tapes(reqs, party):
            raw = tape_to_bytes(tape)
            assert raw.readonly and len(raw) == len(packed_tape(tape)) == raw.nbytes
            assert tape_to_bytes(tape) is raw
            whole = np.frombuffer(raw, np.uint8)
            fields = [v.words for rec in tape.records for v in rec.fields]
            assert len(fields) == 3 + 3 + 2 + 3
            assert all(np.shares_memory(whole, w) and not w.flags.writeable for w in fields)
            assert tape_to_bytes(tape_from_bytes(raw)) == raw
            assert np.shares_memory(whole, tape_from_bytes(raw).records[0].fields[2].words)
