"""The benchmark's hooks into arp: the names it wraps and the report it gates.

arpbench/tracing.py lists its targets by module path and name, and skips the
ones it cannot find.  A rename in arp would silently drop a span from the
benchmark's per-layer metrics, so this guards every target.  arpbench's gate
reads each request's reports (agreement, budget, phase rows and totals); a
report change that breaks it would fail every benchmark request.  The
per-layer metrics also count calls: `dealer.tape_bytes` is half the bytes
that the traced `tape_to_bytes` calls return, so each party must encode
exactly its own tape once.
"""

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "arpbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == set()


def test_gate_reads_the_report(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads
    from arp.data import two_spirals
    from arp.fixed import FixedConfig
    from arp.nn import build_model
    from arp.runtime import private_inference_memory

    x, labels = two_spirals(16, seed=1)
    model = build_model("mlp", seed=0)
    result = workloads.gate(private_inference_memory(model, FixedConfig(64, 16), x, 7, 11), labels)
    assert result.ok, result.reason
    assert result.setup_s > 0
    assert result.online_s > 0


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_traced_request_deals_each_party_its_own_tape(monkeypatch, transport):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing
    import workloads
    from arp.data import two_spirals
    from arp.dealer import Dealer, tape_to_bytes
    from arp.fixed import FixedConfig
    from arp.nn import build_model
    from arp.runtime import SecureEvaluator

    cfg = FixedConfig(64, 16)
    x, labels = two_spirals(16, seed=1)
    model = build_model("mlp", seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = workloads.run_inference(model, cfg, x, transport, 7, 11)
    finally:
        tracer.uninstall()
    result = workloads.gate(reports, labels)
    assert result.ok, result.reason

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    # tape_to_bytes spans count the bytes returned; tape_from_bytes spans count nothing
    encodes = [s for s in spans("dealer.tape_codec") if s.count]
    tapes = Dealer(7, cfg).build_tapes(SecureEvaluator(model, cfg).plan(x.shape))
    assert sorted(s.count for s in encodes) == sorted(len(tape_to_bytes(t)) for t in tapes)
    assert len(spans("dealer.tape_codec")) == 4
    # memory runs deal the pair, share the input and run the plaintext oracle
    # once; each TCP party does each for itself
    once = 1 if transport == "memory" else 2
    assert len(spans("dealer.build_tapes")) == len(spans("nn.forward")) == once
    assert len(spans("dealer.gen_shares")) == once
    assert {s.count for s in spans("dealer.build_tapes")} == {len(tapes[0].records)}
