"""Run one arp benchmark workload and print its metrics.

Usage (from the repository root):

    python3 arpbench/run.py --workload mlp-plan-b1-tcp --seed 1 --seconds 20 --trace 0

The run builds (or reuses) the trained models, pins itself to one CPU, warms
up, checks that memory and TCP give the same transcript for one same-seed
request, then drives a closed loop with one client for `--seconds`.  Every
request is gated (see workloads.gate).  With `--trace 0` the last stdout line
holds the end-to-end metrics; with `--trace 1` it alternates untraced and
traced requests and reports per-layer metrics and the tracing overhead
instead.  Details and the spans go to `.bench_build/arpbench/`.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so BLAS pools never oversubscribe the cores
# the party threads run on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

WARMUP = {"infer": 2, "train": 1}
MIN_TIMED = 3
MAX_FAILURES = 3
# layers whose self time differs from their single named span
LAYERS = ("runtime", "dealer", "protocol", "transport", "nn", "replace")
# counts that must repeat exactly; arpbench/test_pins.py pins them
EXACT = ("bytes_per_example", "rounds_per_request", "dealer.tape_bytes",
         "protocol.comparison_opened_words", "replace.kept_relus")


def median(values):
    import numpy as np

    return float(np.median(values)) if len(values) else 0.0


class Run:
    """Attempted/failed bookkeeping around every request the run makes."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def request(self, traced: bool = False):
        self.attempted += 1
        if traced:
            self.tracer.request = self.attempted
            self.tracer.install()
        try:
            res = self.w.request()
        except Exception:  # a failed request is counted, reported and never dropped
            res = None
            self.reasons.append(traceback.format_exc(limit=3))
        finally:
            if traced:
                self.tracer.uninstall()
        if res is not None and not res.ok:
            self.reasons.append(res.reason)
        if res is None or not res.ok:
            self.failed += 1
            return None
        res.extra["request"] = self.attempted
        return res

    def too_many_failures(self) -> bool:
        return self.failed >= MAX_FAILURES


def end_to_end(timed) -> dict:
    walls = [r.wall_s for r in timed]
    served = sum(r.batch for r in timed)
    return {
        # per median request: the mean is dominated by how many queries lose
        # the TCP connect race in a run (see README.md, finding 1)
        "examples_per_s": (timed[0].examples / median(walls), "1/s"),
        "latency_p50_ms": (1e3 * median(walls), "ms"),
        "setup_s": (median([r.setup_s for r in timed]), "s"),
        "online_p50_ms": (1e3 * median([r.online_s for r in timed]), "ms"),
        "bytes_per_example": (timed[0].bytes_sent / timed[0].batch, "B"),
        "rounds_per_request": (timed[0].rounds, "count"),
        "agreement": (sum(r.agreement * r.batch for r in timed) / served, "fraction"),
        "plan_accuracy": (sum(r.accuracy * r.batch for r in timed) / served, "fraction"),
    }


def latency_detail(timed) -> dict:
    """Closed-loop rate over the whole run, and p95 where ten samples lie beyond it."""
    import numpy as np

    walls = [r.wall_s for r in timed]
    out = {"samples": len(walls)}
    if walls:
        out["examples_per_s_mean"] = sum(r.examples for r in timed) / sum(walls)
    if len(walls) >= 200:
        out["latency_p95_ms"] = 1e3 * float(np.percentile(walls, 95))
    return out


def by_request(spans) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.request, []).append(s)
    return out


def per_layer(traced, spans) -> dict:
    """Per-request medians over the traced requests; see README.md for the units."""
    by_req = by_request(spans)

    def per_request(fn):
        return median([fn(by_req.get(r.extra["request"], []), r) for r in traced])

    def total_s(name):
        return lambda ss, r: sum(s.dur for s in ss if s.name == name)

    def half_sum(name, field):
        return lambda ss, r: sum(getattr(s, field) for s in ss if s.name == name) / 2

    def party_sum(name, field):
        return lambda ss, r: sum(getattr(s, field) for s in ss if s.name == name and s.party == 0)

    def layer_self(layer):
        return lambda ss, r: sum(s.dur - s.child_s for s in ss if s.layer == layer)

    out = {
        "runtime.plan_s": (per_request(total_s("runtime.plan")), "s"),
        "runtime.oracle_s": (per_request(total_s("nn.forward")), "s"),
        "dealer.build_tapes_s": (per_request(total_s("dealer.build_tapes")), "s"),
        "dealer.tape_codec_s": (per_request(total_s("dealer.tape_codec")), "s"),
        "dealer.gen_shares_s": (per_request(total_s("dealer.gen_shares")), "s"),
        "dealer.tape_bytes": (per_request(half_sum("dealer.tape_codec", "count")), "B"),
        "dealer.records": (per_request(half_sum("dealer.build_tapes", "count")), "count"),
        "protocol.comparison_s": (per_request(total_s("protocol.comparison")), "s"),
        "protocol.a2b_s": (per_request(total_s("protocol.a2b")), "s"),
        "protocol.comparison_bytes": (per_request(party_sum("protocol.comparison", "bytes_sent")), "B"),
        "protocol.comparison_rounds": (per_request(party_sum("protocol.comparison", "rounds")), "count"),
        "protocol.comparison_opened_words": (
            per_request(party_sum("protocol.comparison", "opened_words")), "count"),
        "protocol.polynomial_s": (per_request(total_s("protocol.polynomial")), "s"),
        "protocol.polynomial_bytes": (per_request(party_sum("protocol.polynomial", "bytes_sent")), "B"),
        "protocol.polynomial_rounds": (per_request(party_sum("protocol.polynomial", "rounds")), "count"),
        "protocol.linear_s": (per_request(total_s("protocol.linear")), "s"),
        "fixed.conv2d_s": (per_request(total_s("fixed.conv2d")), "s"),
        "transport.exchanges": (
            per_request(lambda ss, r: sum(s.name == "transport.exchange" for s in ss) / 2), "count"),
        "transport.wait_s": (per_request(total_s("transport.exchange")), "s"),
        "transport.connect_s": (per_request(total_s("transport.connect")), "s"),
        "nn.pretrain_s": (per_request(total_s("nn.pretrain")), "s"),
        "replace.replace_s": (per_request(total_s("replace.replace")), "s"),
        "replace.kept_relus": (per_request(lambda ss, r: r.kept_relus), "count"),
        "replace.epochs_run": (per_request(lambda ss, r: r.extra.get("epochs_run", 0)), "count"),
        "replace.flips": (per_request(lambda ss, r: r.extra.get("flips", 0)), "count"),
        "dapa.fit_s": (per_request(total_s("dapa.fit")), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_request(layer_self(layer)), "s")
    out["trace.spans_per_request"] = (len(spans) / len(traced), "count")
    return out


def spans_match_phases(traced, spans) -> list[str]:
    """Comparison/polynomial span bytes and rounds must equal each party's PhaseMeter rows."""
    by_req = by_request(spans)
    for r in traced:
        mine = by_req.get(r.extra["request"], [])
        for party, rep in enumerate(r.reports):
            for phase, name in (("comparison", "protocol.comparison"),
                                ("polynomial", "protocol.polynomial")):
                got = [(s.bytes_sent, s.rounds) for s in mine if s.name == name and s.party == party]
                got = (sum(b for b, _ in got), sum(n for _, n in got))
                want = (rep.phases[phase]["bytes_sent"], rep.phases[phase]["rounds"])
                if got != want:
                    return [f"request {r.extra['request']} party {party} {phase}: "
                            f"spans {got} != phases {want}"]
    return []


def exact_counts(name: str, seed: int) -> dict:
    """The EXACT metrics of one traced request of workload `name`."""
    import models
    import tracing
    import workloads

    tracer = tracing.Tracer()
    run = Run(workloads.make(name, seed, models.ensure_models()), tracer)
    try:
        res = run.request(traced=True)
    finally:
        run.w.close()
    if res is None:
        raise RuntimeError(run.reasons[-1])
    metrics = {**end_to_end([res]), **per_layer([res], tracer.spans)}
    return {k: metrics[k][0] for k in EXACT}


def environment() -> dict:
    import numpy as np

    import workloads

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "tcp_host": workloads.HOST,
        "tcp_loopback_only": True,
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "arp" / "__init__.py").is_file():
        print(f"arpbench: no arp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import models
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"arpbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    model_dir = models.ensure_models()
    # Both party threads share one CPU: on a shared 2-vCPU host, waking a
    # thread on the other vCPU made requests up to 3x slower while the host
    # was busy, so unpinned runs spread far beyond any bound (README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    w = workloads.make(args.workload, args.seed, model_dir)
    run = Run(w, tracer)
    untraced, traced = [], []
    try:
        for _ in range(WARMUP[w.spec.kind]):
            run.request()
        run.attempted += 2  # the transcript check makes one memory and one TCP request
        check = workloads.transcript_check(w)
        if not check[0]:
            run.failed += 1
            run.reasons.append(f"transcript check: {check[1]}")
        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or len(untraced) + len(traced) < MIN_TIMED) \
                and not run.too_many_failures():
            # the traced run alternates untraced and traced requests
            into = traced if args.trace and len(untraced) > len(traced) else untraced
            res = run.request(traced=into is traced)
            if res is not None:
                into.append(res)
    finally:
        w.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = untraced + traced
    problems = list(run.reasons)
    counts = {(r.bytes_sent, r.rounds, r.kept_relus) for r in timed}
    if len(counts) > 1:
        problems.append(f"bytes/rounds/kept ReLUs differ between requests: {sorted(counts)}")
    metrics = {}
    if args.trace and traced and untraced:
        problems += spans_match_phases(traced, tracer.spans)
        metrics = per_layer(traced, tracer.spans)
        overhead = median([r.wall_s for r in traced]) / median([r.wall_s for r in untraced])
        metrics["trace.overhead_frac"] = (overhead - 1.0, "fraction")
        metrics["process.peak_rss_mb"] = (rss_mb, "MB")
    elif not args.trace and timed:
        metrics = end_to_end(timed)
    else:
        problems.append("too few requests completed")

    env = environment()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "transcript_check": check,
        "latency": latency_detail(timed), "peak_rss_mb": rss_mb, "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "missing_trace_targets": sorted(tracer.missing) if tracer else [],
    }
    out_dir = models.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
    for p in problems:
        print(f"# problem: {p}", file=sys.stderr)
    print(f"# env {json.dumps(env)}")
    print(f"# {json.dumps(detail['latency'])} peak_rss_mb={rss_mb:.1f} transcript={check[1]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
