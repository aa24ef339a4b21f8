"""The benchmark wraps named arp functions from outside; they must all exist.

arpbench/tracing.py lists its targets by module path and name, and skips the
ones it cannot find.  A rename in arp would silently drop a span from the
benchmark's per-layer metrics, so this guards every target.
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
