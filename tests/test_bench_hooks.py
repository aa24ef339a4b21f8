"""The benchmark's hooks into arp: the names it wraps and the report it gates.

arpbench/tracing.py lists its targets by module path and name, and skips the
ones it cannot find.  A rename in arp would silently drop a span from the
benchmark's per-layer metrics, so this guards every target.  arpbench's gate
reads each request's reports (agreement, budget, phase rows and totals); a
report change that breaks it would fail every benchmark request.
"""

from pathlib import Path

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
