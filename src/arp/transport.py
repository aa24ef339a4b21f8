"""Reliable ordered message exchange between exactly two parties.

Framing is a 4-byte little-endian payload length followed by the payload.
Every ring payload is one opening's `fixed.flat_frame`: rank 1 and the word
count as two u32 words, then the ring words.  Counters track bytes in each
direction and protocol rounds; a fingerprint of the sent frames lets tests
compare transcripts across backends.

The fingerprint is a running SHA-256 over each frame's length prefix and
the 16-byte Poly1305 tag of its payload under one fixed public key,
`_FRAME_KEY`, so the bulk of the bytes pass through the faster universal
hash only.  It catches accidental divergence: for a random key, two
different payloads of at most l 16-byte blocks get the same tag with
probability at most 8l/2^106, and SHA-256 chains the prefixes and tags in
order.  It is not authentication: the key is public, so a peer could craft
payloads whose tags collide.

A frame travels as two buffers, the length prefix and the payload, so the
payload is never copied to prepend its prefix.  An opening's payload is the
`fixed.flat_frame` its op filled (at L=64 the frame's own bytes), sent by
`exchange_frame` as it is; the frame is read-only from then on.  The
in-memory channel hands the payload object itself to the peer, so neither
party may write into a frame it has sent or received.  The TCP channel sends
both buffers with one `sendmsg` per writable turn, reads the 4-byte prefix,
then reads the payload with `recv_into` an uninitialized numpy buffer of
exactly the announced size, which it fills, so it never reads past the frame
it is waiting for.  Both parties send equal payloads in every exchange, so
each refuses a peer payload of another length than its own as soon as the
length is known, before any buffer is allocated for it; `exchange_frame`
also refuses a peer frame with another header once it arrives.
"""

from __future__ import annotations

import hashlib
import queue
import selectors
import socket
import struct
import time

import numpy as np
from cryptography.hazmat.primitives.poly1305 import Poly1305

from .errors import ProtocolDesyncError, TransportError
from .fixed import FixedConfig, frame_payload, unpack_words

__all__ = [
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


class Channel:
    """Duplex link to the peer party with byte/round accounting."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rounds = 0
        self._sent_digest = hashlib.sha256()

    # backend hooks ------------------------------------------------------

    def _swap(self, prefix: bytes, payload: bytes, want: int):
        """Send one frame (its length prefix, then its payload); return the
        peer's payload, without its prefix, as a bytes-like object.  A peer
        payload whose length is not `want`, this payload's, is refused by
        `_check_length` as soon as its length is known."""
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
        inbound = self._swap(prefix, payload, len(payload))
        self.bytes_received += len(inbound) + 4
        self.rounds += 1
        return inbound

    def exchange_frame(self, frame: np.ndarray, cfg: FixedConfig) -> np.ndarray:
        """Send a filled `flat_frame` as it is and return the peer's words: a
        read-only array as long as `frame[1:]`; one round.

        The frame becomes read-only first: the in-memory peer reads the very
        array sent.  A peer frame of another length or header desyncs.
        """
        frame.flags.writeable = False
        inbound = self.exchange_bytes(frame_payload(frame, cfg))
        sent = frame[:1].tobytes()
        head = bytes(memoryview(inbound)[: len(sent)])
        if head != sent:
            raise ProtocolDesyncError(f"peer sent frame header {head.hex()}, this party sent {sent.hex()}")
        words = unpack_words(memoryview(inbound)[len(sent) :], (frame.size - 1,), cfg).words
        words.flags.writeable = False
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

    def _swap(self, prefix: bytes, payload: bytes, want: int):
        self._outbox.put(payload)
        try:
            inbound = self._inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(f"no message from peer within {self.timeout}s") from None
        _check_length(len(inbound), want)
        return inbound


def memory_channel_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[InMemoryChannel, InMemoryChannel]:
    q01: queue.Queue = queue.Queue()
    q10: queue.Queue = queue.Queue()
    return InMemoryChannel(q10, q01, timeout), InMemoryChannel(q01, q10, timeout)


class TcpChannel(Channel):
    """TCP endpoint; sends and receives are interleaved so a large exchange,
    which both parties send at once, cannot deadlock on full socket buffers."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(timeout)
        self._sock = sock
        self._sock.setblocking(False)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sel = selectors.DefaultSelector()
        self._sel.register(sock, selectors.EVENT_READ)

    def close(self) -> None:
        self._sel.close()
        try:
            self._sock.close()
        except OSError:
            pass

    def _wait(self, events: int, deadline: float) -> None:
        """Block until the socket is ready for one of `events`."""
        self._sel.modify(self._sock, events)  # a no-op when `events` is unchanged
        if not self._sel.select(timeout=max(0.0, deadline - time.monotonic())):
            raise TransportError(f"peer exchange timed out after {self.timeout}s")

    def _swap(self, prefix: bytes, payload: bytes, want: int):
        """Drive the socket until the frame is fully sent and the peer's
        whole frame has been received; each side is tried before blocking."""
        deadline = time.monotonic() + self.timeout
        out = [memoryview(b) for b in (prefix, payload) if len(b)]
        head = bytearray(4)
        body = None
        view = memoryview(head)  # unfilled part of the buffer being received
        while out or view is not None:
            moved = bool(out) and self._send_some(out)
            if view is not None and (n := self._recv_some(view)):
                moved = True
                view = view[n:] if n < len(view) else None
                if view is None and body is None:
                    (length,) = struct.unpack("<I", head)
                    _check_length(length, want)
                    body = np.empty(length, np.uint8)  # recv_into fills every byte
                    view = memoryview(body) if length else None
            if not moved:
                self._wait((selectors.EVENT_READ if view is not None else 0)
                           | (selectors.EVENT_WRITE if out else 0), deadline)
        return body

    def _send_some(self, out: list) -> bool:
        """Send what the socket takes of the pending buffers and drop it
        from `out`; False when the socket takes nothing now."""
        try:
            n = self._sock.sendmsg(out)
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

    def _recv_some(self, view: memoryview) -> int:
        """Bytes read into `view`; 0 when the socket has none ready."""
        try:
            n = self._sock.recv_into(view)
        except BlockingIOError:
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
