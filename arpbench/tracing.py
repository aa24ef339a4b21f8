"""In-memory span tracer wrapped around the calls into each arp layer.

Only the traced run installs it.  `Tracer.install()` swaps chosen module
attributes and methods for wrappers that record a span (name, request id,
thread, start, end, parent) plus the channel bytes, rounds and opened words
moved inside it; `uninstall()` puts the originals back.  Spans stay in
memory and are written out when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

Targets that a given version of arp lacks are skipped and listed in
`Tracer.missing`, so the benchmark keeps running while the code changes.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

TRAINER_SPANS = ("nn.pretrain", "replace.replace")


@dataclass
class Span:
    name: str
    request: int
    thread: int
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0
    party: int = -1
    bytes_sent: int = 0
    rounds: int = 0
    opened_words: int = 0
    count: int = 0  # span-specific: tape bytes, tape records

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _session_counters(sess):
    ch = sess.channel
    return ch.bytes_sent, ch.rounds, sess.opened_words


@dataclass
class Target:
    """One wrapped callable: `module:attr` or `module:Class.method`."""

    path: str
    span: str
    sess_arg: int | None = None  # position of a Session argument, for counters
    skip_inside: tuple = ()  # record nothing while one of these spans is open
    count: object = None  # fn(result) -> int stored in Span.count


TARGETS = (
    Target("arp.runtime:_run_party", "runtime.party"),
    Target("arp.runtime:SecureEvaluator.plan", "runtime.plan"),
    Target("arp.runtime:SecureEvaluator.run", "runtime.evaluate"),
    Target("arp.nn:Sequential.forward", "nn.forward", skip_inside=TRAINER_SPANS),
    Target("arp.dealer:Dealer.build_tapes", "dealer.build_tapes",
           count=lambda tapes: len(tapes[0].records)),
    Target("arp.dealer:Dealer.gen_shares", "dealer.gen_shares",
           skip_inside=("dealer.build_tapes",)),
    Target("arp.runtime:tape_to_bytes", "dealer.tape_codec", count=len),
    Target("arp.runtime:tape_from_bytes", "dealer.tape_codec"),
    Target("arp.runtime:relu_secure", "protocol.comparison", sess_arg=0),
    Target("arp.protocol:a2b", "protocol.a2b", sess_arg=0),
    Target("arp.runtime:dapa_eval_secure", "protocol.polynomial", sess_arg=0),
    Target("arp.runtime:mul_public", "protocol.linear"),
    Target("arp.fixed:RingTensor.conv2d", "fixed.conv2d"),
    Target("arp.transport:Channel.exchange_bytes", "transport.exchange"),
    Target("arp.runtime:tcp_listen", "transport.connect"),
    Target("arp.runtime:tcp_connect", "transport.connect"),
    Target("arp.runtime:memory_channel_pair", "transport.connect"),
    Target("arp.replace:channelwise_coeffs", "dapa.fit"),
    # the trainer entry points, as the benchmark's own models module calls them
    Target("models:pretrain", "nn.pretrain"),
    Target("models:replace", "replace.replace"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.missing: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []  # (owner, attr, original, owned)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_names(self) -> set:
        return {self.spans[i].name for i in self._stack()}

    def call(self, name: str, fn, args, kwargs, sess_arg=None, skip_inside=(), count=None):
        """Run fn inside a span named `name`."""
        if skip_inside and self._open_names() & set(skip_inside):
            return fn(*args, **kwargs)
        stack = self._stack()
        sess = args[sess_arg] if sess_arg is not None and len(args) > sess_arg else None
        span = Span(name, self.request, threading.get_ident(), stack[-1] if stack else -1, 0.0)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        before = _session_counters(sess) if sess is not None else None
        stack.append(idx)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.dur
        if sess is not None:
            after = _session_counters(sess)
            span.party = sess.party
            span.bytes_sent, span.rounds, span.opened_words = (a - b for a, b in zip(after, before))
        if count is not None:
            span.count = count(out)
        return out

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            mod_name, _, attr_path = t.path.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(t.path)
                continue
            owned = attr in vars(owner)
            raw = vars(owner)[attr] if owned else original

            def wrapper(*args, _fn=raw, _t=t, **kwargs):
                return self.call(_t.span, _fn, args, kwargs, _t.sess_arg, _t.skip_inside, _t.count)

            functools.update_wrapper(wrapper, raw)
            self._saved.append((owner, attr, raw, owned))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def to_json(self) -> list:
        return [{"name": s.name, "request": s.request, "thread": s.thread, "parent": s.parent,
                 "start": s.start, "end": s.end, "self_s": s.dur - s.child_s, "party": s.party,
                 "bytes_sent": s.bytes_sent, "rounds": s.rounds,
                 "opened_words": s.opened_words, "count": s.count} for s in self.spans]
