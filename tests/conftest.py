"""Shared two-party test harness."""

import numpy as np
import pytest

from arp.dealer import Dealer, DealingReader
from arp.fixed import FixedConfig, RingTensor, encode
from arp.protocol import Session, ShareTensor
from arp.runtime import run_both
from arp.transport import memory_channel_pair

CFG64 = FixedConfig(64, 16)
CFG8 = FixedConfig(8, 4)


def two_party(fn, requests=None, cfg=CFG64, seed=99, timeout=20.0):
    """Run fn(session) concurrently for both parties over an in-memory pair.

    Each party's records are dealt from `seed`'s stream as its ops take them
    (a `DealingReader`), unless a `requests` list deals both tapes up front,
    as tests of the tape reader need."""
    if requests is None:
        readers = [DealingReader(Dealer(seed, cfg), p) for p in (0, 1)]
    else:
        readers = [tape.reader() for tape in Dealer(seed, cfg).build_tapes(list(requests))]
    ch0, ch1 = memory_channel_pair(timeout)
    s0 = Session(0, cfg, ch0, readers[0])
    s1 = Session(1, cfg, ch1, readers[1])
    return run_both(lambda: fn(s0), lambda: fn(s1))


def same_bits(a, b) -> bool:
    """Equal shapes and bit-identical float64 values, whatever the memory layouts."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def share_reals(x, cfg=CFG64, seed=1):
    """Additive shares of encoded reals; returns (share_party0, share_party1)."""
    return Dealer(seed, cfg).gen_shares(encode(np.asarray(x, dtype=np.float64), cfg))


def share_ring(r: RingTensor, seed=1):
    return Dealer(seed, r.cfg).gen_shares(r)


def as_share(sess, pair, scale=None):
    scale = sess.cfg.frac_bits if scale is None else scale
    return ShareTensor(pair[sess.party], scale)


@pytest.fixture
def cfg64():
    return CFG64


@pytest.fixture
def cfg8():
    return CFG8


def free_port() -> int:
    import socket

    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port
