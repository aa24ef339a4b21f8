"""Two-party inference orchestration: planning, evaluation, the run report.

The client is simulated in-process: it encodes the input batch, splits
shares from a seed, and both parties derive the same dealer tapes from
another seed, so in-memory and TCP runs of the same seeds produce
byte-identical transcripts.  Per-phase cost accounting lives on the
protocol `Session` (see its docstring).

The declared logit error budget is a worst-case ULP propagation: encode
contributes half an ULP, each truncating op up to two ULPs, linear layers
amplify by their max absolute input-weight sum, and the polynomial path by
|c1| + 2|c2|*R with R = 8 decoded units of assumed activation range.
At L=64, f=16 observed deviations sit far below it (the bound multiplies
worst cases that cannot align); private logits are asserted against it in
the acceptance suite alongside the much tighter classification-agreement
check.  Smaller rings can break it through truncation wrap faults (see
`protocol`); the CLI flags such a run and exits non-zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import Thread

import numpy as np

from .dealer import Dealer, tape_from_bytes, tape_to_bytes
from .errors import ArpError
from .fixed import FixedConfig, decode, encode
from .im2col import window_sum
from .nn import AvgPool2d, Conv2d, Dense, Flatten, Sequential
from .protocol import (
    Session,
    ShareTensor,
    add_public,
    dapa_eval_secure,
    hybrid_requests,
    mul_public,
    relu_secure,
)
from .replace import HybridActivation
from .transport import memory_channel_pair, tcp_connect, tcp_listen

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
        return a if idx.size == flat_m.size else a[..., idx]

    def sel(c):
        return cols(np.broadcast_to(np.asarray(c, dtype=np.float64), feat_shape).reshape(-1), poly_idx)

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


class SecureEvaluator:
    """Layer-by-layer secure forward pass plus its dealer-tape plan.

    plan() and run() walk the model in the same order; a run consumes its
    plan's tape exactly (tests assert zero leftover records).
    """

    def __init__(self, model: Sequential, cfg: FixedConfig):
        self.model = model
        self.cfg = cfg
        for layer in model.layers:
            if not isinstance(layer, (Dense, Conv2d, AvgPool2d, Flatten, HybridActivation)):
                raise ArpError(f"layer {type(layer).__name__} has no secure evaluation")

    # -- planning -----------------------------------------------------------

    def plan(self, batch: int) -> list:
        reqs: list = []
        for layer in self.model.layers:
            if isinstance(layer, HybridActivation):
                reqs += hybrid_requests(batch, layer.indicator.m, self.cfg, layer.degree)
        return reqs

    # -- evaluation ----------------------------------------------------------

    def run(self, sess: Session, x: ShareTensor) -> ShareTensor:
        cfg = self.cfg
        for layer in self.model.layers:
            if isinstance(layer, Dense):
                with sess.measure("linear"):
                    x = mul_public(x, encode(layer.w.value, cfg), "matmul")
                    x = add_public(x, encode(layer.b.value, cfg))
            elif isinstance(layer, Conv2d):
                with sess.measure("linear"):
                    x = mul_public(x, encode(layer.w.value, cfg), "conv2d",
                                   stride=layer.stride, padding=layer.padding)
                    x = add_public(x, encode(layer.b.value.reshape(-1, 1, 1), cfg))
            elif isinstance(layer, AvgPool2d):
                with sess.measure("linear"):
                    x = sess.share_of(window_sum(x.payload.words, layer.k), x.scale)
                    x = mul_public(x, encode(1.0 / (layer.k * layer.k), cfg))
            elif isinstance(layer, Flatten):
                x = x.reshape(x.shape[0], -1)
            elif isinstance(layer, HybridActivation):
                c2 = layer.term(2) if layer.degree >= 2 else None
                x = hybrid_activation_secure(sess, x, layer.indicator.m, layer.term(0),
                                             layer.term(1), c2)
        return x


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
            c1 = float(np.max(np.abs(layer.coeffs.term(1))))
            c2 = float(np.max(np.abs(layer.coeffs.term(2)))) if layer.degree >= 2 else 0.0
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
        self.totals = dict(bytes_sent=0, bytes_received=0, rounds=0, opened_words=0, seconds=0.0)
        for row in self.phases.values():
            for k in self.totals:
                self.totals[k] += row[k]

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


def _run_party(party: int, channel, model: Sequential, cfg: FixedConfig, inputs: np.ndarray,
               dealer_seed: int, input_seed: int) -> InferenceReport:
    evaluator = SecureEvaluator(model, cfg)
    t0 = time.perf_counter()
    requests = evaluator.plan(len(inputs))
    # exercise the on-disk format even for in-process runs; keep no reference
    # to the dealt pair, so the other party's tape is freed before the online phase
    tape = tape_from_bytes(tape_to_bytes(Dealer(dealer_seed, cfg).build_tapes(requests)[party]))
    my_input_share = Dealer(input_seed, cfg).gen_shares(encode(inputs, cfg))[party]
    setup_seconds = time.perf_counter() - t0

    sess = Session(party, cfg, channel, tape.reader())
    sess.phases["dealer"]["seconds"] += setup_seconds
    x = ShareTensor(party, my_input_share, cfg.frac_bits)
    logits_share = evaluator.run(sess, x)
    with sess.measure("linear"):
        logits = decode(sess.reveal(logits_share), cfg)
    if sess.tape.remaining():
        raise ArpError(f"{sess.tape.remaining()} unused tape records after evaluation")

    plain = model.forward(inputs, training=False)
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
    ch0, ch1 = memory_channel_pair(timeout)
    return run_both(
        lambda: _run_party(0, ch0, model, cfg, inputs, dealer_seed, input_seed),
        lambda: _run_party(1, ch1, model, cfg, inputs, dealer_seed, input_seed),
    )


def private_inference_tcp(model: Sequential, cfg: FixedConfig, inputs: np.ndarray, party: int,
                          host: str, port: int, dealer_seed: int = 7, input_seed: int = 11,
                          timeout: float = 30.0) -> InferenceReport:
    channel = tcp_listen(host, port, timeout) if party == 0 else tcp_connect(host, port, timeout)
    try:
        return _run_party(party, channel, model, cfg, inputs, dealer_seed, input_seed)
    finally:
        channel.close()

