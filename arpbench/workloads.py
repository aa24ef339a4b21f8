"""The benchmark's workloads: each request is one call to a public arp entry point.

Inference requests call `runtime.private_inference_memory`, or
`runtime.private_inference_tcp` in two threads (party 0 started first,
through `runtime.run_both`) over one loopback connection on a fresh port.
Training requests run the public trainer and then serve the trained plan
privately, so the trainer's output passes the same gate as a served model.
"""

from __future__ import annotations

import ipaddress
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import models

HOST = "127.0.0.1"
TIMEOUT_S = 20.0  # per-request transport timeout handed to the runtime
AGREEMENT_MIN = 0.99
ONLINE_PHASES = ("linear", "comparison", "polynomial")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "infer" or "train"
    model: str  # models.RECIPES key: the served model, or the recipe the job retrains
    batch: int  # examples per inference request; minibatch size for "train"
    transport: str
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("cnn-relu-b256-tcp", "infer", "cnn-relu", 256, "tcp",
             "paper baseline: all 768 smallcnn activations are ReLU, so comparison, "
             "dealer AND triples and bulk TCP frames dominate"),
    Workload("cnn-plan-b256-mem", "infer", "cnn-plan", 256, "memory",
             "paper outcome after budget-200 replacement: conv, square and the "
             "plaintext oracle dominate; comparison and TCP are bypassed (control)"),
    Workload("mlp-plan-b1-tcp", "infer", "mlp-plan", 1, "tcp",
             "interactive single queries over TCP: bound by rounds, connection "
             "set-up and per-call fixed costs, many tiny exchanges"),
    Workload("train-mlp-b64", "train", "mlp-plan", models.BATCH_SIZE, "memory",
             "the only workload that runs nn, replace and dapa: pretrain, replace "
             "to budget 64, then serve the plan privately"),
)}


@dataclass
class Result:
    """One gated request, as seen from outside the runtime."""

    reports: tuple  # both parties' InferenceReport
    batch: int  # examples served privately
    ok: bool
    reason: str
    setup_s: float  # dealer phase, max over the parties
    online_s: float  # the other phases, max over the parties
    accuracy: float  # private class == true label
    wall_s: float = 0.0
    examples: int = 0  # examples processed; example-epochs for training
    kept_relus: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def bytes_sent(self) -> int:
        return self.reports[0].totals["bytes_sent"]

    @property
    def rounds(self) -> int:
        return self.reports[0].totals["rounds"]

    @property
    def agreement(self) -> float:
        return self.reports[0].agreement


def free_loopback_port() -> int:
    if not ipaddress.ip_address(HOST).is_loopback:
        raise ValueError(f"{HOST} is not a loopback address")
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def run_inference(model, cfg, x, transport: str, dealer_seed: int, input_seed: int):
    """One private inference request; returns both parties' reports."""
    from arp.runtime import private_inference_memory, private_inference_tcp, run_both

    if transport == "memory":
        return private_inference_memory(model, cfg, x, dealer_seed, input_seed, timeout=TIMEOUT_S)
    port = free_loopback_port()
    call = lambda p: private_inference_tcp(model, cfg, x, p, HOST, port, dealer_seed, input_seed,
                                           timeout=TIMEOUT_S)
    return run_both(lambda: call(0), lambda: call(1))


def gate(reps, labels) -> Result:
    """The per-request correctness checks, and the numbers the metrics are made of."""
    rep0, rep1 = reps
    reason = ""
    if not np.array_equal(rep0.private_logits, rep1.private_logits):
        reason = "parties revealed different logits"
    elif rep0.agreement < AGREEMENT_MIN:
        reason = f"agreement {rep0.agreement:.4f} < {AGREEMENT_MIN}"
    elif rep0.max_dev_ulp > rep0.budget_ulp:
        reason = f"max_dev_ulp {rep0.max_dev_ulp:.1f} > budget_ulp {rep0.budget_ulp}"
    elif rep0.totals["bytes_sent"] != rep1.totals["bytes_sent"] \
            or rep0.totals["rounds"] != rep1.totals["rounds"]:
        reason = "parties counted different bytes or rounds"
    return Result(
        reports=reps, batch=len(labels), ok=not reason, reason=reason,
        setup_s=max(r.phases["dealer"]["seconds"] for r in reps),
        online_s=max(sum(r.phases[p]["seconds"] for p in ONLINE_PHASES) for r in reps),
        accuracy=float(np.mean(np.argmax(rep0.private_logits, axis=1) == labels)),
        examples=len(labels),
    )


def kept_relus(model) -> int:
    return sum(int(a.indicator.m.sum()) for a in model.hybrid_layers())


class InferenceWorkload:
    """Closed loop of private inference requests on one cached model."""

    def __init__(self, spec: Workload, seed: int, model_dir: Path):
        from arp.model_io import load_model

        self.spec = spec
        self.seed = seed
        self.model, self.cfg, _ = load_model(model_dir / f"{spec.model}.arpm")
        self.x, self.y = models.dataset(models.RECIPES[spec.model][1], 1024, seed)
        self.i = 0

    def request(self) -> Result:
        lo = (self.i * self.spec.batch) % len(self.x)
        x, y = self.x[lo : lo + self.spec.batch], self.y[lo : lo + self.spec.batch]
        dealer_seed = self.seed * 1_000_003 + 2 * self.i
        self.i += 1
        t0 = time.perf_counter()
        reps = run_inference(self.model, self.cfg, x, self.spec.transport,
                             dealer_seed, dealer_seed + 1)
        wall = time.perf_counter() - t0
        res = gate(reps, y)
        res.wall_s = wall
        res.kept_relus = kept_relus(self.model)
        return res

    def check_inputs(self):
        """(model, cfg, x, labels) that the transcript check serves."""
        return self.model, self.cfg, self.x[: self.spec.batch], self.y[: self.spec.batch]

    def close(self) -> None:
        pass


class TrainWorkload:
    """Closed loop of training jobs on one seeded two-spiral set.

    A job builds the mlp, pretrains it, replaces to the recipe's budget,
    saves and reloads the plan with model_io, then serves it privately on the
    held-out split.  The wall time covers the whole job.
    """

    def __init__(self, spec: Workload, seed: int, model_dir: Path):
        from arp.fixed import FixedConfig

        self.spec = spec
        self.seed = seed
        self.budget = models.RECIPES[spec.model][2]
        self.train, self.test = models.split(*models.dataset("two-spiral", 1024, seed))
        self.cfg = FixedConfig(64, 16)
        models.WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(prefix="train-", dir=models.WORK)
        self.served = None

    def request(self) -> Result:
        from arp.model_io import load_model, save_model

        t0 = time.perf_counter()
        model = models.pretrain("mlp", *self.train, num_classes=2)
        model, plan, history = models.replace(model, self.train, self.test, self.budget)
        path = Path(self.tmp.name) / "plan.arpm"
        save_model(path, model, self.cfg, models.MODEL_SEED)
        self.served, cfg, _ = load_model(path)
        reps = run_inference(self.served, cfg, self.test[0], self.spec.transport,
                             self.seed * 1_000_003, self.seed * 1_000_003 + 1)
        wall = time.perf_counter() - t0
        res = gate(reps, self.test[1])
        res.wall_s = wall
        res.kept_relus = plan.relu_count
        res.examples = len(self.train[0]) * (models.PRETRAIN_EPOCHS + len(history.epochs))
        res.extra = {"epochs_run": len(history.epochs),
                     "flips": sum(row["flips"] for row in history.epochs)}
        return res

    def check_inputs(self):
        return self.served, self.cfg, self.test[0], self.test[1]

    def close(self) -> None:
        self.tmp.cleanup()


def transcript_check(workload) -> tuple[bool, str]:
    """One same-seed request must give equal transcripts in memory and over TCP."""
    model, cfg, x, y = workload.check_inputs()
    if model is None:
        return False, "no model to check"
    try:
        results = [gate(run_inference(model, cfg, x, t, 5, 6), y) for t in ("memory", "tcp")]
    except Exception as exc:  # reported as a failed check, never raised past the run
        return False, f"{type(exc).__name__}: {exc}"
    bad = [r.reason for r in results if not r.ok]
    if bad:
        return False, bad[0]
    memory, tcp = ((r.reports[0].transcript_hash, r.reports[1].transcript_hash) for r in results)
    if memory != tcp:
        return False, f"memory transcript {memory[0][:16]} != tcp {tcp[0][:16]}"
    return True, memory[0][:16]


def make(name: str, seed: int, model_dir: Path):
    spec = WORKLOADS[name]
    cls = InferenceWorkload if spec.kind == "infer" else TrainWorkload
    return cls(spec, seed, model_dir)
