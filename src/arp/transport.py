"""Reliable ordered message exchange between exactly two parties.

Framing is a 4-byte little-endian payload length followed by the payload
(rank u32, dims u32 each, ring words).  Counters track bytes in each
direction and protocol rounds; a running digest of the sent frames lets
tests compare transcripts across backends.
"""

from __future__ import annotations

import hashlib
import queue
import selectors
import socket
import struct
import time

from .errors import ProtocolDesyncError, TransportError
from .fixed import FixedConfig, RingTensor

__all__ = [
    "Channel",
    "InMemoryChannel",
    "TcpChannel",
    "memory_channel_pair",
    "tcp_listen",
    "tcp_connect",
]

DEFAULT_TIMEOUT = 30.0


class Channel:
    """Duplex link to the peer party with byte/round accounting."""

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rounds = 0
        self._sent_digest = hashlib.sha256()

    # backend hooks ------------------------------------------------------

    def _swap(self, frame: bytes) -> bytes:
        """Send one whole frame; return the peer's frame without its length prefix."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # public API -----------------------------------------------------------

    @property
    def transcript_hash(self) -> str:
        """Hex digest over every frame sent so far."""
        return self._sent_digest.hexdigest()

    def exchange_bytes(self, payload: bytes) -> bytes:
        """Send one framed payload and receive the peer's; one round."""
        frame = struct.pack("<I", len(payload)) + payload
        self._sent_digest.update(frame)
        self.bytes_sent += len(frame)
        inbound = self._swap(frame)
        self.bytes_received += len(inbound) + 4
        self.rounds += 1
        return inbound

    def exchange(self, outbound: RingTensor) -> RingTensor:
        """Swap tensors with the peer; shapes must agree on both sides."""
        got = RingTensor.from_bytes(self.exchange_bytes(outbound.to_bytes()), outbound.cfg)
        if got.shape != outbound.shape:
            raise ProtocolDesyncError(
                f"peer sent shape {got.shape}, this party sent {outbound.shape}"
            )
        return got


class InMemoryChannel(Channel):
    """One endpoint of an in-process duplex queue pair."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(timeout)
        self._inbox = inbox
        self._outbox = outbox

    def _swap(self, frame: bytes) -> bytes:
        self._outbox.put(frame)
        try:
            frame = self._inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(f"no message from peer within {self.timeout}s") from None
        return frame[4:]


def memory_channel_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[InMemoryChannel, InMemoryChannel]:
    q01: queue.Queue = queue.Queue()
    q10: queue.Queue = queue.Queue()
    return InMemoryChannel(q10, q01, timeout), InMemoryChannel(q01, q10, timeout)


class TcpChannel(Channel):
    """TCP endpoint; sends and receives are interleaved so a large symmetric
    exchange cannot deadlock on full socket buffers."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(timeout)
        self._sock = sock
        self._sock.setblocking(False)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rxbuf = bytearray()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def _swap(self, frame: bytes) -> bytes:
        """Drive the socket until `frame` is fully sent and one whole frame
        has been received."""
        deadline = time.monotonic() + self.timeout
        view = memoryview(frame)
        inbound = self._try_pop_frame()
        with selectors.DefaultSelector() as sel:
            sel.register(self._sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
            while view is not None or inbound is None:
                need_rx = inbound is None
                events = (selectors.EVENT_READ if need_rx else 0) | (
                    selectors.EVENT_WRITE if view is not None else 0
                )
                sel.modify(self._sock, events)
                ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
                if not ready:
                    raise TransportError(f"peer exchange timed out after {self.timeout}s")
                mask = ready[0][1]
                if view is not None and mask & selectors.EVENT_WRITE:
                    try:
                        n = self._sock.send(view)
                        view = view[n:] if n < len(view) else None
                    except BlockingIOError:
                        pass
                if need_rx and mask & selectors.EVENT_READ:
                    try:
                        chunk = self._sock.recv(1 << 20)
                        if not chunk:
                            raise TransportError("peer closed the connection")
                        self._rxbuf.extend(chunk)
                    except BlockingIOError:
                        pass
                    inbound = self._try_pop_frame()
        return inbound

    def _try_pop_frame(self) -> bytes | None:
        if len(self._rxbuf) < 4:
            return None
        (length,) = struct.unpack_from("<I", self._rxbuf, 0)
        if len(self._rxbuf) < 4 + length:
            return None
        payload = bytes(self._rxbuf[4 : 4 + length])
        del self._rxbuf[: 4 + length]
        return payload


def tcp_listen(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> TcpChannel:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    srv.settimeout(timeout)
    try:
        conn, _ = srv.accept()
    except socket.timeout:
        raise TransportError(f"no peer connected to {host}:{port} within {timeout}s") from None
    finally:
        srv.close()
    return TcpChannel(conn, timeout)


def tcp_connect(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> TcpChannel:
    deadline = time.monotonic() + timeout
    last_err: Exception | None = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=1.0)
            return TcpChannel(sock, timeout)
        except OSError as e:  # listener may not be up yet
            last_err = e
            time.sleep(0.05)
    raise TransportError(f"could not reach {host}:{port} within {timeout}s: {last_err}")
