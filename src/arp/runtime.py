"""Two-party inference orchestration: planning, evaluation, the run report.

The client is simulated in-process: it encodes the input batch, splits
shares from a seed, and both parties derive the same dealer tapes from
another seed, so in-memory and TCP runs of the same seeds produce
byte-identical transcripts.  Per-phase cost accounting lives on the
protocol `Session` (see its docstring).

Offline, then online.  The offline phase (`_offline`) plans the batch,
deals its tapes, splits the input shares and round-trips each tape through
the tape file format; its seconds are the party's "dealer" row.  The online
phase starts only when both offline phases are done:
- over TCP each party deals only its own tape (see `dealer`).  Party 0
  listens before it deals and accepts after; party 1 connects after it deals.  A
  wait for the slower dealer so falls in connection setup, never in the
  first exchange;
- in memory, `private_inference_memory` runs one offline phase for both
  parties before it starts the party threads.  It deals the pair and shares
  the input batch once, and both dealer rows count those seconds; each also
  counts its own tape codec, and each thread gets only its own tape.  It
  computes the plaintext oracle once for both reports.

The declared logit error budget is a worst-case ULP propagation: encode
contributes half an ULP, each truncating op up to two ULPs, linear layers
amplify by their max absolute input-weight sum, and the polynomial path by
|c1| + 2|c2|*R with R = 8 decoded units of assumed activation range.
At L=64, f=16 observed deviations sit far below it (the bound multiplies
worst cases that cannot align); private logits are asserted against it in
the acceptance suite alongside the much tighter classification-agreement
check.  Rings where local truncation wraps often (see
`protocol.exact_truncation`) truncate exactly at one round per rescale; a
ring too small for the values still breaks the budget, and the CLI flags
such a run and exits non-zero.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from threading import Thread

import numpy as np

from .dealer import Dealer, Request, tape_from_bytes, tape_to_bytes
from .errors import ArpError, FormatError
from .fixed import FixedConfig, broadcast_view, decode, encode
from .im2col import conv_out_hw, window_sum
from .nn import AvgPool2d, Conv2d, Dense, Flatten, Sequential
from .protocol import (
    Session,
    ShareTensor,
    a2b_geometry,
    add_public,
    dapa_eval_secure,
    exact_truncation,
    mul_public,
    relu_secure,
)
from .replace import HybridActivation
from .transport import memory_channel_pair, tcp_bind, tcp_connect, tcp_listen

__all__ = [
    "InferenceReport",
    "SecureEvaluator",
    "hybrid_activation_secure",
    "error_budget_ulp",
    "run_both",
    "private_inference_memory",
    "private_inference_tcp",
]

POLY_RANGE = 8.0  # assumed |activation| bound feeding the budget heuristic


def hybrid_activation_secure(sess: Session, x: ShareTensor, mask: np.ndarray, c0, c1, c2=None) -> ShareTensor:
    """Route masked elements through secure ReLU, the rest through the polynomial.

    `mask` has the per-element activation shape (x's shape without the
    leading batch axis); coefficient arrays are broadcastable to that same
    shape.  Kept elements are gathered into a single batched comparison,
    charged to the session's "comparison" phase; the rest go to "polynomial".
    A layer with a single path hands its (batch, n) view over without a
    gather, and keeps that path's result without a scatter.
    """
    batch, feat_shape = x.shape[0], x.shape[1:]
    m = np.asarray(mask)
    if m.shape != feat_shape:
        raise ValueError(f"mask shape {m.shape} does not match activation shape {feat_shape}")
    flat_m = m.reshape(-1).astype(bool)
    relu_idx = np.flatnonzero(flat_m)
    poly_idx = np.flatnonzero(~flat_m)
    words = x.payload.words.reshape(batch, -1)

    def cols(a, idx):
        """Columns `idx` of `a`: all of `a`, uncopied, when `idx` is every column."""
        return a if idx.size == flat_m.size else a.take(idx, axis=-1)

    def sel(c):
        return cols(broadcast_view(np.ascontiguousarray(c, dtype=np.float64), feat_shape).reshape(-1), poly_idx)

    parts = []
    if relu_idx.size:
        with sess.measure("comparison"):
            xr = sess.share_of(cols(words, relu_idx), x.scale)
            parts.append((relu_idx, relu_secure(sess, xr).payload.words))
    if poly_idx.size:
        with sess.measure("polynomial"):
            xp = sess.share_of(cols(words, poly_idx), x.scale)
            c2p = sel(c2) if c2 is not None else None
            parts.append((poly_idx, dapa_eval_secure(sess, xp, sel(c0), sel(c1), c2p).payload.words))
    if len(parts) == 1:  # a single path's result is already in column order
        out = parts[0][1]
    else:
        out = np.empty_like(words)
        for idx, part in parts:
            out[:, idx] = part
    return sess.share_of(out.reshape(x.shape), x.scale)


def _hybrid_requests(batch: int, layer: HybridActivation, cfg: FixedConfig) -> list:
    """The dealer requests of `hybrid_activation_secure` on `layer`, in the
    order it takes them: the ReLU's (a2b's AND triples, on its bit planes,
    then the select triple), then the polynomial's square and masks."""
    n_relu = int(np.count_nonzero(layer.indicator.m))
    relu, poly = (batch, n_relu), (batch, layer.indicator.m.size - n_relu)
    masks = [Request("trunc", poly)] if exact_truncation(cfg) else []  # one per rescale
    reqs: list = []
    if n_relu:
        W, n, g = a2b_geometry(cfg, batch * n_relu)
        reqs += [Request("and", (g, W)), *(Request("and", (2, n >> k, W)) for k in range(1, n.bit_length())),
                 Request("select", relu)]
    if poly[1]:
        reqs += ([Request("square", poly), *masks] if layer.degree >= 2 else []) + masks
    return reqs


class SecureEvaluator:
    """Layer-by-layer secure forward pass plus its dealer-tape plan.

    plan() is the one list of the records a run takes: the protocol ops
    take their records one by one and never describe them.  plan() and
    run() walk the model in the same order, and a run takes its plan's tape
    exactly (a test holds plan() to what run() takes).  Where
    `exact_truncation(cfg)` holds, each linear layer's and polynomial's
    rescale takes a truncation mask.
    """

    def __init__(self, model: Sequential, cfg: FixedConfig):
        self.model = model
        self.cfg = cfg
        for layer in model.layers:
            if not isinstance(layer, (Dense, Conv2d, AvgPool2d, Flatten, HybridActivation)):
                raise ArpError(f"layer {type(layer).__name__} has no secure evaluation")

    # -- planning -----------------------------------------------------------

    def plan(self, in_shape: tuple) -> list:
        """The dealer requests of a run on an input of shape `in_shape`
        (batch first); a FormatError refuses an empty batch or names the
        first layer that does not take its input's shape."""
        reqs: list = []
        shape = tuple(in_shape)
        if shape[:1] == (0,):
            raise FormatError(f"input batch of shape {shape} has no examples")
        for i, layer in enumerate(self.model.layers):
            if isinstance(layer, HybridActivation):
                if shape[1:] != layer.feat_shape:
                    feat = ", ".join(map(str, layer.feat_shape))
                    raise _misfit(i, layer, f"(batch, {feat})", shape)
                reqs += _hybrid_requests(shape[0], layer, self.cfg)
            else:
                shape = _out_shape(i, layer, shape)
                if exact_truncation(self.cfg) and not isinstance(layer, Flatten):
                    reqs.append(Request("trunc", shape))
        return reqs

    # -- evaluation ----------------------------------------------------------

    def run(self, sess: Session, x: ShareTensor) -> ShareTensor:
        cfg = self.cfg
        for layer in self.model.layers:
            if isinstance(layer, Dense):
                with sess.measure("linear"):
                    x = mul_public(sess, x, encode(layer.w.value, cfg), "matmul")
                    x = add_public(sess, x, encode(layer.b.value, cfg))
            elif isinstance(layer, Conv2d):
                with sess.measure("linear"):
                    x = mul_public(sess, x, encode(layer.w.value, cfg), "conv2d",
                                   stride=layer.stride, padding=layer.padding)
                    x = add_public(sess, x, encode(layer.b.value.reshape(-1, 1, 1), cfg))
            elif isinstance(layer, AvgPool2d):
                with sess.measure("linear"):
                    x = sess.share_of(window_sum(x.payload.words, layer.k), x.scale)
                    x = mul_public(sess, x, encode(1.0 / (layer.k * layer.k), cfg))
            elif isinstance(layer, Flatten):
                x = x.reshape(x.shape[0], -1)
            elif isinstance(layer, HybridActivation):
                c2 = layer.term(2) if layer.degree >= 2 else None
                x = hybrid_activation_secure(sess, x, layer.indicator.m, layer.term(0),
                                             layer.term(1), c2)
        return x


def _misfit(i: int, layer, expected: str, shape: tuple) -> FormatError:
    return FormatError(f"layer {i} ({type(layer).__name__}) takes input {expected}, got {shape}")


def _out_shape(i: int, layer, shape: tuple) -> tuple:
    """The shape of layer `i`'s secure output, for a linear, pooling or
    flatten layer; a FormatError if it does not take an input of `shape`."""
    if isinstance(layer, Dense):
        n_in, n_out = layer.w.value.shape
        if len(shape) != 2 or shape[1] != n_in:
            raise _misfit(i, layer, f"(batch, {n_in})", shape)
        return (shape[0], n_out)
    if isinstance(layer, Conv2d):
        oc, ic, kh, kw = layer.w.value.shape
        try:
            if len(shape) == 4 and shape[1] == ic:
                return (shape[0], oc, *conv_out_hw(*shape[2:], kh, kw, layer.stride, layer.padding))
        except ValueError:  # an empty output
            pass
        raise _misfit(i, layer, f"(batch, {ic}, H, W) with a non-empty output", shape)
    if isinstance(layer, AvgPool2d):
        k = layer.k
        if len(shape) != 4 or shape[2] % k or shape[3] % k:
            raise _misfit(i, layer, f"(batch, C, H, W) with H and W multiples of {k}", shape)
        return (*shape[:2], shape[2] // k, shape[3] // k)
    return (shape[0], math.prod(shape[1:]))


def error_budget_ulp(model: Sequential) -> int:
    """Documented worst-case ULP budget for the logits (see module docstring)."""
    e = 0.5
    for layer in model.layers:
        if isinstance(layer, Dense):
            amp = float(np.max(np.sum(np.abs(layer.w.value), axis=0)))
            e = max(amp, 1.0) * e + 1.0
        elif isinstance(layer, Conv2d):
            amp = float(np.max(np.sum(np.abs(layer.w.value), axis=(1, 2, 3))))
            e = max(amp, 1.0) * e + 1.0
        elif isinstance(layer, AvgPool2d):
            e = e + 1.0
        elif isinstance(layer, HybridActivation):
            c1 = float(np.max(np.abs(layer.term(1))))
            c2 = float(np.max(np.abs(layer.term(2)))) if layer.degree >= 2 else 0.0
            poly_amp = c1 + 2.0 * c2 * POLY_RANGE
            e = max(poly_amp, 1.0) * e + 2.0
    return int(np.ceil(e))


@dataclass
class InferenceReport:
    party: int
    cfg: FixedConfig
    plain_logits: np.ndarray
    private_logits: np.ndarray
    phases: dict
    budget_ulp: int
    transcript_hash: str
    dealer_seed: int
    input_seed: int
    totals: dict = field(init=False)

    def __post_init__(self):
        rows = list(self.phases.values())
        self.totals = {k: sum(row[k] for row in rows) for k in rows[0]}

    @property
    def agreement(self) -> float:
        return float(np.mean(
            np.argmax(self.plain_logits, axis=1) == np.argmax(self.private_logits, axis=1)
        ))

    @property
    def max_dev_ulp(self) -> float:
        return float(np.max(np.abs(self.plain_logits - self.private_logits)) / self.cfg.resolution)

    @property
    def within_budget(self) -> bool:
        return self.max_dev_ulp <= self.budget_ulp

    def to_json(self) -> dict:
        """The run as plain JSON types: header, phase rows and totals, per-example results."""
        dev = np.max(np.abs(self.plain_logits - self.private_logits), axis=1) / self.cfg.resolution
        return {
            "party": self.party,
            "L": self.cfg.total_bits,
            "f": self.cfg.frac_bits,
            "budget_ulp": self.budget_ulp,
            "agreement": self.agreement,
            "max_dev_ulp": self.max_dev_ulp,
            "within_budget": self.within_budget,
            "transcript": self.transcript_hash,
            "dealer_seed": self.dealer_seed,
            "input_seed": self.input_seed,
            "phases": self.phases,
            "totals": self.totals,
            "examples": {
                "plain_class": np.argmax(self.plain_logits, axis=1).tolist(),
                "private_class": np.argmax(self.private_logits, axis=1).tolist(),
                "max_dev_ulp": dev.tolist(),
            },
        }


def _offline(model: Sequential, cfg: FixedConfig, inputs: np.ndarray, dealer_seed: int,
             input_seed: int, party: int | None = None) -> list:
    """Plan and deal the tapes (`party`'s alone if given), share the input
    batch once, and round-trip each wanted tape through the tape file format.
    Returns each wanted party's (tape, input share, dealer seconds)."""
    t0 = time.perf_counter()
    # inputs that do not fit the model or the ring are refused before any dealing
    reqs = SecureEvaluator(model, cfg).plan(inputs.shape)
    x = encode(inputs, cfg)
    tapes = Dealer(dealer_seed, cfg).build_tapes(reqs, party)
    shares = Dealer(input_seed, cfg).gen_shares(x)
    shared_s = time.perf_counter() - t0
    setups = []
    for tape in tapes:
        t0 = time.perf_counter()
        # exercise the on-disk format even for in-process runs
        loaded = tape_from_bytes(tape_to_bytes(tape))
        setups.append((loaded, shares[tape.party], shared_s + time.perf_counter() - t0))
    return setups


def _run_party(party: int, channel, model: Sequential, cfg: FixedConfig, setup: tuple,
               plain: np.ndarray, dealer_seed: int, input_seed: int) -> InferenceReport:
    """The online phase on a connected channel, after the offline phase
    `setup` (see `_offline`), and its report against the plaintext logits `plain`."""
    tape, input_share, offline_s = setup
    sess = Session(party, cfg, channel, tape.reader())
    sess.phases["dealer"]["seconds"] += offline_s
    x = ShareTensor(input_share, cfg.frac_bits)
    logits_share = SecureEvaluator(model, cfg).run(sess, x)
    with sess.measure("linear"):
        logits = decode(sess.reveal(logits_share), cfg)
    if sess.tape.remaining():
        raise ArpError(f"{sess.tape.remaining()} unused tape records after evaluation")

    report = InferenceReport(
        party=party,
        cfg=cfg,
        plain_logits=plain,
        private_logits=logits,
        phases=sess.phases,
        budget_ulp=error_budget_ulp(model),
        transcript_hash=channel.transcript_hash,
        dealer_seed=dealer_seed,
        input_seed=input_seed,
    )
    if (report.totals["bytes_sent"], report.totals["rounds"]) != (channel.bytes_sent, channel.rounds):
        raise ArpError("phase accounting does not cover all channel traffic")
    return report


def run_both(fn0, fn1):
    """Run the two party closures concurrently; re-raise the first failure."""
    results: list = [None, None]
    errors: list = [None, None]

    def wrap(i, fn):
        def target():
            try:
                results[i] = fn()
            except BaseException as exc:  # surfaced in the caller
                errors[i] = exc
        return target

    threads = [Thread(target=wrap(0, fn0)), Thread(target=wrap(1, fn1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for err in errors:
        if err is not None:
            raise err
    return results[0], results[1]


def private_inference_memory(model: Sequential, cfg: FixedConfig, inputs: np.ndarray,
                             dealer_seed: int = 7, input_seed: int = 11,
                             timeout: float = 30.0) -> tuple[InferenceReport, InferenceReport]:
    setups = _offline(model, cfg, inputs, dealer_seed, input_seed)
    plain = model.forward(inputs, training=False)
    channels = memory_channel_pair(timeout)

    def online(p: int) -> InferenceReport:
        return _run_party(p, channels[p], model, cfg, setups[p], plain, dealer_seed, input_seed)

    return run_both(lambda: online(0), lambda: online(1))


def private_inference_tcp(model: Sequential, cfg: FixedConfig, inputs: np.ndarray, party: int,
                          host: str, port: int, dealer_seed: int = 7, input_seed: int = 11,
                          timeout: float = 30.0) -> InferenceReport:
    # the oracle runs after `_offline`, which refuses inputs the model does not take
    if party == 0:
        with tcp_bind(host, port) as server:  # closed on every path
            (setup,) = _offline(model, cfg, inputs, dealer_seed, input_seed, party)
            plain = model.forward(inputs, training=False)
            channel = tcp_listen(server, timeout)
    else:
        (setup,) = _offline(model, cfg, inputs, dealer_seed, input_seed, party)
        plain = model.forward(inputs, training=False)
        channel = tcp_connect(host, port, timeout)
    try:
        return _run_party(party, channel, model, cfg, setup, plain, dealer_seed, input_seed)
    finally:
        channel.close()
