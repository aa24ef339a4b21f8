"""Reliable ordered message exchange between exactly two parties.

Framing is a 4-byte little-endian payload length followed by the payload.
Every ring payload is one opening's frame, which this module alone builds
and reads: rank 1 and the word count as two u32s, then the words packed by
`fixed.pack_words`.  Counters track the bytes sent and the rounds; a
fingerprint of the sent frames lets tests compare transcripts across
backends.

The fingerprint is a running SHA-256 over each frame's length prefix and
the 16-byte Poly1305 tag of its payload under one fixed public key,
`_FRAME_KEY`, so the bulk of the bytes pass through the faster universal
hash only.  It catches accidental divergence: for a random key, two
different payloads of at most l 16-byte blocks get the same tag with
probability at most 8l/2^106, and SHA-256 chains the prefixes and tags in
order.  It is not authentication: the key is public, so a peer could craft
payloads whose tags collide.

A frame travels as two buffers, the length prefix and the payload (at L=64
the frame's own bytes), so the payload is never copied to prepend its
prefix; the frame is read-only once sent.  The in-memory channel hands the
payload object itself to the peer, so neither party may write into a frame
it has sent or received.  Both parties send equal payloads in every
exchange, so each receives exactly as many bytes as it sends, into one
uninitialized numpy buffer sized by its own payload before the exchange
starts.  It refuses a peer prefix that announces another length as soon as
the prefix is in, and reads no byte past a peer frame of its own length.
`exchange_frame` also refuses a peer frame with another header, such as one
as long from another ring.

The TCP channel's socket is blocking, and one loop drives each exchange.
Each `sendmsg` of the pending buffers takes what the socket buffer holds
without waiting (`MSG_DONTWAIT`).  While some of the frame is unsent, reads
do not wait either, and a selector waits for the socket to take or bring
bytes, so two large frames sent at once cannot deadlock.  Once the whole
frame is sent, which is at the first `sendmsg` for any frame the socket
buffer holds, the loop waits in a blocking `recv_into`, bounded by the time
left to the exchange's deadline (`SO_RCVTIMEO`), so a small exchange costs
one send and usually one receive call.
"""

from __future__ import annotations

import hashlib
import math
import queue
import selectors
import socket
import struct
import time

import numpy as np
from cryptography.hazmat.primitives.poly1305 import Poly1305

from .errors import ProtocolDesyncError, TransportError
from .fixed import FixedConfig, pack_words, unpack_words

__all__ = [
    "flat_frame",
    "frame_payload",
    "Channel",
    "InMemoryChannel",
    "TcpChannel",
    "memory_channel_pair",
    "tcp_bind",
    "tcp_listen",
    "tcp_connect",
]

DEFAULT_TIMEOUT = 30.0
_FRAME_KEY = hashlib.sha256(b"arp.transport.frame.v1").digest()  # public Poly1305 key


def flat_frame(n: int) -> np.ndarray:
    """An unfilled frame of n ring words, its header in word 0; the caller
    fills `frame[1:]`.  A frame of 2^32 or more words is refused."""
    (header,) = struct.unpack("<Q", struct.pack("<II", 1, n))  # before any allocation
    frame = np.empty(n + 1, "<u8")
    frame[0] = header
    return frame


def frame_payload(frame: np.ndarray, cfg: FixedConfig):
    """The wire payload of a filled `flat_frame`.  With 8-byte words it is the
    frame itself, as bytes; narrower rings pack the words by `pack_words`."""
    if cfg.word_bytes == 8:
        return frame.view(np.uint8)
    return b"".join((frame[:1].tobytes(), pack_words(frame[1:], cfg)))


class Channel:
    """Duplex link to the peer party with byte/round accounting."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self.bytes_sent = 0
        self.rounds = 0
        self._sent_digest = hashlib.sha256()

    # backend hooks ------------------------------------------------------

    def _swap(self, prefix: bytes, payload: bytes):
        """Send one frame (its length prefix, then its payload); return the
        peer's payload, without its prefix, as a bytes-like object, refusing
        one of another length (`_check_length`) as soon as that is known."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # public API -----------------------------------------------------------

    @property
    def transcript_hash(self) -> str:
        """SHA-256 hex digest over every frame sent so far: each frame's
        length prefix, then its payload's Poly1305 tag under `_FRAME_KEY`.

        It tells transcripts apart by accident, not by adversary: the key
        is public, so colliding payloads can be crafted.
        """
        return self._sent_digest.hexdigest()

    def exchange_bytes(self, payload: bytes):
        """Send one framed payload (bytes, or a 1-d byte array such as a
        frame's) and receive the peer's, which must be as long; one round."""
        prefix = struct.pack("<I", len(payload))
        self._sent_digest.update(prefix)
        self._sent_digest.update(Poly1305.generate_tag(_FRAME_KEY, payload))
        self.bytes_sent += len(prefix) + len(payload)
        inbound = self._swap(prefix, payload)
        self.rounds += 1
        return inbound

    def exchange_frame(self, frame: np.ndarray, cfg: FixedConfig) -> np.ndarray:
        """Send a filled `flat_frame` as it is and return the peer's words: a
        read-only array as long as `frame[1:]`; one round.

        The frame becomes read-only first: the in-memory peer reads the very
        array sent.  A peer frame of another length or header desyncs.
        """
        frame.setflags(write=False)
        inbound = self.exchange_bytes(frame_payload(frame, cfg))
        full = cfg.total_bits == 64  # the payload is the peer's frame, all its words reduced
        peer = np.frombuffer(inbound, "<u8", -1 if full else 1)
        if peer[0] != frame[0]:  # word 0, the header
            raise ProtocolDesyncError(f"peer sent frame header {peer[:1].tobytes().hex()}, "
                                      f"this party sent {frame[:1].tobytes().hex()}")
        words = peer[1:] if full else unpack_words(memoryview(inbound)[8:], (frame.size - 1,), cfg)
        words.setflags(write=False)
        return words


def _check_length(length: int, want: int) -> None:
    if length != want:
        raise ProtocolDesyncError(f"peer sent a {length}-byte payload, this party sent {want} bytes")


class InMemoryChannel(Channel):
    """One endpoint of an in-process duplex queue pair."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(timeout)
        self._inbox = inbox
        self._outbox = outbox

    def _swap(self, prefix: bytes, payload: bytes):
        self._outbox.put(payload)
        try:
            inbound = self._inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(f"no message from peer within {self.timeout}s") from None
        _check_length(len(inbound), len(payload))
        return inbound


def memory_channel_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[InMemoryChannel, InMemoryChannel]:
    q01: queue.Queue = queue.Queue()
    q10: queue.Queue = queue.Queue()
    return InMemoryChannel(q10, q01, timeout), InMemoryChannel(q01, q10, timeout)


class TcpChannel(Channel):
    """TCP endpoint on a blocking socket, driven by one loop per exchange.

    Sends never wait (`MSG_DONTWAIT`).  While this party's frame is still
    going out, reads do not wait either, and when neither direction moves,
    the loop waits on a selector for both, so a large exchange, which both
    parties send at once, cannot deadlock on full socket buffers.  Once the
    whole frame is sent, the loop waits in a blocking `recv_into`.  Its
    `SO_RCVTIMEO` never exceeds the time left to the exchange's deadline,
    so the deadline holds however the peer's bytes trickle in, and less
    than a microsecond left, which `SO_RCVTIMEO` would read as no timeout
    at all, is a timeout.
    """

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(timeout)
        self._sock = sock
        self._sock.setblocking(True)
        self._rcvtimeo_us = 0  # SO_RCVTIMEO as last set, 0 for none
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sel = selectors.DefaultSelector()
        self._sel.register(sock, selectors.EVENT_READ)

    def close(self) -> None:
        self._sel.close()
        try:
            self._sock.close()
        except OSError:
            pass

    def _timed_out(self) -> TransportError:
        return TransportError(f"peer exchange timed out after {self.timeout}s")

    def _wait(self, events: int, deadline: float) -> None:
        """Block until the socket is ready for one of `events`."""
        self._sel.modify(self._sock, events)  # a no-op when `events` is unchanged
        if not self._sel.select(timeout=max(0.0, deadline - time.monotonic())):
            raise self._timed_out()

    def _swap(self, prefix: bytes, payload: bytes):
        """Drive the socket until the frame is fully sent and the peer's
        whole frame has been received.  The peer's frame is read into one
        buffer, its payload 8-byte aligned after the prefix; its length is
        checked as soon as the prefix is in."""
        deadline = time.monotonic() + self.timeout
        out = [memoryview(b) for b in (prefix, payload) if len(b)]
        want = len(payload)
        inbound = np.empty(8 + want, np.uint8)  # recv_into fills all but 4 spare bytes
        view = memoryview(inbound)[4:]  # unfilled part of the peer's frame
        while out or view:
            if not out:  # the whole frame is sent: wait in the receive
                n = self._recv_some(view, deadline)
            else:
                sent = self._send_some(out)
                # while some of the frame is unsent, take only what has come
                n = self._recv_some(view, None) if out and view else 0
                if not (sent or n):
                    self._wait((selectors.EVENT_READ if view else 0) | selectors.EVENT_WRITE, deadline)
            if n:
                view = view[n:]
                if len(view) <= want:  # the prefix is in
                    _check_length(int.from_bytes(inbound[4:8], "little"), want)
        return inbound[8:]

    def _send_some(self, out: list) -> bool:
        """Send what the socket takes now of the pending buffers and drop
        it from `out`; False when it takes nothing."""
        try:
            n = self._sock.sendmsg(out, (), socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise TransportError(f"peer closed the connection: {exc}") from None
        while n:
            if n < len(out[0]):
                out[0], n = out[0][n:], 0
            else:
                n -= len(out.pop(0))
        return True

    def _bound_wait(self, deadline: float) -> None:
        """Keep `SO_RCVTIMEO` at most the microseconds left to `deadline`,
        and at least half of them, so a blocking receive that times out
        early is retried and one that does not ends by the deadline.  Within
        those bounds the last value set stands: an exchange of the usual
        length costs no `setsockopt`."""
        usec = math.floor((deadline - time.monotonic()) * 1e6)
        if usec <= 0:  # SO_RCVTIMEO reads 0 as no timeout, and a negative time as 0
            raise self._timed_out()
        if not max(1, usec // 2) <= self._rcvtimeo_us <= usec:
            timeval = struct.pack("@ll", *divmod(usec, 1_000_000))  # seconds, microseconds
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
            self._rcvtimeo_us = usec

    def _recv_some(self, view: memoryview, deadline: float | None) -> int:
        """Bytes read into `view`.  With no deadline it takes only what has
        arrived, 0 if nothing has; else it waits for some, at most until
        `deadline`, and returns 0 if none came (the next call raises once
        the deadline has passed)."""
        try:
            if deadline is None:
                n = self._sock.recv_into(view, 0, socket.MSG_DONTWAIT)
            else:
                self._bound_wait(deadline)
                n = self._sock.recv_into(view)
        except BlockingIOError:  # nothing yet, or SO_RCVTIMEO ran out
            return 0
        except ConnectionResetError as exc:
            raise TransportError(f"peer closed the connection: {exc}") from None
        if n == 0:
            raise TransportError("peer closed the connection")
        return n


def tcp_bind(host: str, port: int) -> socket.socket:
    """A socket listening on host:port for one peer; `tcp_listen` accepts
    the peer later, so a peer may connect before this party is ready."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind((host, port))
    except OSError as e:  # the port is taken, or the host is not local
        srv.close()
        raise TransportError(f"cannot listen on {host}:{port}: {e}") from None
    srv.listen(1)
    return srv


def tcp_listen(server: socket.socket, timeout: float = DEFAULT_TIMEOUT) -> TcpChannel:
    """Accept one peer on a socket from `tcp_bind`, then close that socket."""
    with server:
        server.settimeout(timeout)
        try:
            conn, _ = server.accept()
        except socket.timeout:
            host, port = server.getsockname()
            raise TransportError(f"no peer connected to {host}:{port} within {timeout}s") from None
    return TcpChannel(conn, timeout)


def tcp_connect(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> TcpChannel:
    """Connect to a listening peer, retrying (1 ms backoff, doubling to 50 ms)
    until it is up or `timeout` has passed."""
    deadline = time.monotonic() + timeout
    delay = 0.001
    last_err: Exception | None = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=1.0)
            return TcpChannel(sock, timeout)
        except OSError as e:  # listener may not be up yet
            last_err = e
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(2 * delay, 0.05)
    raise TransportError(f"could not reach {host}:{port} within {timeout}s: {last_err}")
