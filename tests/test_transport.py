"""Framed exchange, counters, and backend transcript equivalence."""

import os
import socket
import struct
import threading
import time
import types

import numpy as np
import pytest

from arp.errors import ProtocolDesyncError, TransportError
from arp.fixed import FixedConfig, flat_frame, frame_payload
from arp.runtime import run_both
from arp import transport
from arp.transport import (
    _FRAME_KEY,
    Channel,
    TcpChannel,
    memory_channel_pair,
    tcp_bind,
    tcp_connect,
    tcp_listen,
)

from conftest import free_port

CFG = FixedConfig(64, 16)


def frame_of(vals):
    """One opening's frame of the words `vals`."""
    frame = flat_frame(len(vals))
    frame[1:] = vals
    return frame


def exchange(ch, vals):
    """Open the words `vals` in one frame; the peer's words."""
    return ch.exchange_frame(frame_of(vals), CFG)


class TestExchange:
    def test_swap(self):
        ch0, ch1 = memory_channel_pair()
        r0, r1 = run_both(lambda: exchange(ch0, [1, 2]), lambda: exchange(ch1, [3, 4]))
        assert r0.tolist() == [3, 4]
        assert r1.tolist() == [1, 2]

    def test_byte_accounting(self):
        # 4-byte length prefix + 8-byte shape header + 32 bytes payload
        ch0, ch1 = memory_channel_pair()
        run_both(lambda: exchange(ch0, [1, 2, 3, 4]), lambda: exchange(ch1, [5, 6, 7, 8]))
        for ch in (ch0, ch1):
            assert ch.bytes_sent == 44
            assert ch.bytes_received == 44
            assert ch.rounds == 1

    def test_shape_mismatch_desync(self):
        ch0, ch1 = memory_channel_pair()
        with pytest.raises(ProtocolDesyncError):
            run_both(lambda: exchange(ch0, [1, 2]), lambda: exchange(ch1, [1, 2, 3]))

    def test_payload_of_another_length_desyncs(self):
        """Every exchange is symmetric: a raw payload longer than this
        party's is refused too."""
        ch0, ch1 = memory_channel_pair()
        with pytest.raises(ProtocolDesyncError, match="peer sent a 3-byte payload, this party sent 2"):
            run_both(lambda: ch0.exchange_bytes(b"ab"), lambda: ch1.exchange_bytes(b"abc"))

    @pytest.mark.parametrize("header", [(3, 1, 1, 2), (1, 4)], ids=["rank3", "longer-dim"])
    def test_same_length_frame_with_another_header_desyncs(self, header):
        """A peer frame as long as this party's but headed differently is
        refused, whatever words follow."""
        sent = bytes(frame_payload(frame_of([1, 2, 3]), CFG))
        head = struct.pack(f"<{len(header)}I", *header)
        forged = head + bytes(len(sent) - len(head))
        assert len(forged) == len(sent)
        ch0, ch1 = memory_channel_pair()
        with pytest.raises(ProtocolDesyncError):
            run_both(lambda: exchange(ch0, [1, 2, 3]), lambda: ch1.exchange_bytes(forged))

    def test_timeout(self):
        ch0, _ = memory_channel_pair(timeout=0.05)
        with pytest.raises(TransportError):
            exchange(ch0, [1])

    def test_rounds_monotone(self):
        ch0, ch1 = memory_channel_pair()
        for k in range(5):
            run_both(lambda: exchange(ch0, [k]), lambda: exchange(ch1, [k]))
        assert ch0.rounds == ch1.rounds == 5


class Echo(Channel):
    """A channel whose peer sends back each frame; no thread needed."""

    def _swap(self, prefix, payload, want=None):
        return payload


def fingerprint(*payloads) -> str:
    ch = Echo()
    for p in payloads:
        ch.exchange_bytes(p)
    return ch.transcript_hash


def flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestFingerprint:
    """The transcript hash covers every frame's prefix and payload, in order."""

    PAYLOAD = bytes(range(256)) * 40 + b"tail"

    @pytest.mark.parametrize("bit", [0, 7, 8 * len(PAYLOAD) - 1], ids=["first", "first-msb", "last"])
    def test_payload_bit_flip_changes_it(self, bit):
        assert fingerprint(b"x", flip(self.PAYLOAD, bit)) != fingerprint(b"x", self.PAYLOAD)

    @pytest.mark.parametrize("bit", [0, 31])
    def test_prefix_bit_flip_changes_it(self, bit, monkeypatch):
        base = fingerprint(self.PAYLOAD)
        real = struct.pack
        monkeypatch.setattr(transport, "struct", types.SimpleNamespace(
            pack=lambda fmt, n: flip(real(fmt, n), bit), unpack=struct.unpack))
        assert fingerprint(self.PAYLOAD) != base

    def test_frame_order_changes_it(self):
        a, b = b"frame-a", b"frame-b"
        assert fingerprint(a, b) != fingerprint(b, a)

    def test_memoryview_payload_matches_bytes(self):
        words = np.arange(1000, dtype="<u8")
        assert fingerprint(memoryview(words).cast("B")) == fingerprint(words.tobytes())

    def test_numpy_payload_matches_bytes(self):
        """A frame sent as a numpy byte array fingerprints like the equal bytes."""
        words = np.arange(1000, dtype="<u8")
        words.flags.writeable = False
        assert fingerprint(words.view(np.uint8)) == fingerprint(words.tobytes())
        assert fingerprint(np.frombuffer(self.PAYLOAD, np.uint8)) == fingerprint(self.PAYLOAD)

    def test_reading_mid_run_keeps_counting(self):
        ch = Echo()
        ch.exchange_bytes(b"one")
        mid = ch.transcript_hash
        ch.exchange_bytes(b"two")
        assert ch.transcript_hash != mid
        assert ch.transcript_hash == fingerprint(b"one", b"two")
        assert mid == fingerprint(b"one")

    def test_frame_key_is_not_zero(self):
        # an all-zero Poly1305 key tags every payload with 16 zero bytes
        assert len(_FRAME_KEY) == 32 and any(_FRAME_KEY)


class TestTcpBackend:
    def _run_script(self, ch, values):
        out = []
        for v in values:
            out.append(exchange(ch, v).tolist())
        return out, ch.transcript_hash, ch.bytes_sent

    def _assert_backends_agree(self, script0, script1):
        """Both backends return the same words, transcripts and byte counts."""
        m0, m1 = memory_channel_pair()
        memory = run_both(lambda: self._run_script(m0, script0),
                          lambda: self._run_script(m1, script1))

        port = free_port()
        holder = {}

        def p0():
            ch = holder[0] = tcp_listen(tcp_bind("127.0.0.1", port), timeout=10)
            return self._run_script(ch, script0)

        def p1():
            ch = holder[1] = tcp_connect("127.0.0.1", port, timeout=10)
            return self._run_script(ch, script1)

        try:
            tcp = run_both(p0, p1)
        finally:
            for ch in holder.values():
                ch.close()
        assert tcp == memory

    def test_transcript_matches_memory(self):
        """Same seeded exchange sequence gives byte-identical transcripts."""
        rng = np.random.default_rng(17)
        script0 = [rng.integers(0, 2**63, size=7).tolist() for _ in range(4)]
        script1 = [rng.integers(0, 2**63, size=7).tolist() for _ in range(4)]
        self._assert_backends_agree(script0, script1)

    def test_large_frame_transcript_matches_memory(self):
        """A frame past the socket buffers is sent in parts over TCP and
        fingerprinted as one frame, as in memory."""
        rng = np.random.default_rng(18)
        big = 600_000  # 4.8 MB of words
        script0 = [rng.integers(0, 2**63, size=n).tolist() for n in (3, big, 5)]
        script1 = [rng.integers(0, 2**63, size=n).tolist() for n in (3, big, 5)]
        self._assert_backends_agree(script0, script1)

    def test_large_symmetric_exchange(self):
        """A payload well past socket buffers must not deadlock."""
        port = free_port()
        big = np.arange(300_000, dtype=np.uint64)

        def p0():
            ch = tcp_listen(tcp_bind("127.0.0.1", port), timeout=15)
            got = exchange(ch, big)
            ch.close()
            return got

        def p1():
            ch = tcp_connect("127.0.0.1", port, timeout=15)
            got = exchange(ch, big + np.uint64(1))
            ch.close()
            return got

        r0, r1 = run_both(p0, p1)
        assert np.array_equal(r0, big + np.uint64(1))
        assert np.array_equal(r1, big)


def loopback_pair():
    """Two connected TCP sockets over 127.0.0.1."""
    with socket.create_server(("127.0.0.1", 0)) as srv:
        a = socket.create_connection(srv.getsockname())
        b, _ = srv.accept()
    return a, b


def recv_exactly(sock, n):
    out = b""
    while len(out) < n:
        chunk = sock.recv(n - len(out))
        assert chunk, "peer closed early"
        out += chunk
    return out


class TestTcpLoop:
    """The TCP receive path reads exactly one frame per exchange."""

    def test_zero_length_payload(self):
        ch0, ch1 = (TcpChannel(s, timeout=5) for s in loopback_pair())
        try:
            r0, r1 = run_both(lambda: ch0.exchange_bytes(b""), lambda: ch1.exchange_bytes(b""))
        finally:
            ch0.close()
            ch1.close()
        assert bytes(r0) == bytes(r1) == b""
        assert (ch0.bytes_sent, ch0.bytes_received) == (4, 4)

    def test_peer_closing_mid_frame(self):
        a, b = loopback_pair()
        ch = TcpChannel(a, timeout=5)

        def peer():
            recv_exactly(b, 4 + 3)  # take this side's whole frame, then fail mid-frame
            b.sendall(struct.pack("<I", 3) + bytes(1))
            b.close()

        t = threading.Thread(target=peer)
        t.start()
        try:
            with pytest.raises(TransportError, match="peer closed"):
                ch.exchange_bytes(b"abc")
        finally:
            t.join(timeout=5)
            ch.close()
        assert not t.is_alive()

    def test_missized_ring_frame_is_refused_at_its_prefix(self):
        """A peer that announces a longer ring frame than this party's, then
        sends nothing more, desyncs the exchange at once: no buffer is sized
        by its length and no timeout is waited out."""
        a, b = loopback_pair()
        ch = TcpChannel(a, timeout=5)
        sent = len(frame_payload(frame_of([1, 2, 3]), CFG))

        def peer():
            recv_exactly(b, 4 + sent)
            b.sendall(struct.pack("<I", sent + 8))

        t = threading.Thread(target=peer)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(ProtocolDesyncError, match=f"peer sent a {sent + 8}-byte payload"):
                exchange(ch, [1, 2, 3])
            assert time.monotonic() - t0 < 1.0
        finally:
            t.join(timeout=5)
            ch.close()
            b.close()
        assert not t.is_alive()

    def test_silent_peer_times_out(self):
        a, b = loopback_pair()
        ch = TcpChannel(a, timeout=0.2)
        try:
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                ch.exchange_bytes(b"hello")
            assert time.monotonic() - t0 >= 0.2
        finally:
            ch.close()
            b.close()

    def test_back_to_back_frames_never_merge_or_split(self):
        ch0, ch1 = (TcpChannel(s, timeout=10) for s in loopback_pair())
        sent0 = [bytes([k % 251]) * (k % 9) for k in range(200)]
        sent1 = [bytes([k % 13 + 1]) * (k % 9) for k in range(200)]

        def eager():
            return [bytes(ch0.exchange_bytes(p)) for p in sent0]

        def sleepy():
            got = []
            for p in sent1:
                time.sleep(0.0005)  # the eager side's next frame is queued by now
                got.append(bytes(ch1.exchange_bytes(p)))
            return got

        try:
            got0, got1 = run_both(eager, sleepy)
        finally:
            ch0.close()
            ch1.close()
        assert got0 == sent1 and got1 == sent0
        assert ch0.rounds == ch1.rounds == 200

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_channels_release_descriptors(self):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(100):
            for ch in [TcpChannel(s) for s in loopback_pair()]:
                ch.close()
        assert len(os.listdir("/proc/self/fd")) <= before

    def test_connect_before_listener(self):
        port = free_port()

        def late_listener():
            time.sleep(0.1)
            return tcp_listen(tcp_bind("127.0.0.1", port), timeout=5)

        ch1, ch0 = run_both(lambda: tcp_connect("127.0.0.1", port, timeout=5), late_listener)
        try:
            r1, r0 = run_both(lambda: exchange(ch1, [1]), lambda: exchange(ch0, [2]))
        finally:
            ch0.close()
            ch1.close()
        assert r1.tolist() == [2] and r0.tolist() == [1]

    def test_unreachable_port_times_out(self):
        port = free_port()
        t0 = time.monotonic()
        with pytest.raises(TransportError, match=f"could not reach 127.0.0.1:{port} within 0.2s"):
            tcp_connect("127.0.0.1", port, timeout=0.2)
        assert time.monotonic() - t0 >= 0.2
