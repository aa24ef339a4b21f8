"""Command-line surface: gen-data, train-replace, dapa-fit, export, infer-private.

Shared flags, accepted only by the commands that read them: --seed
(gen-data, train-replace, dapa-fit; the ARP_SEED env var wins, and is
parsed as the flag is) and --fixed-bits/--frac-bits (train-replace, export).
infer-private's tcp mode takes --party 0 --listen or --party 1 --connect,
its memory mode neither.
Exit codes: 0 success, 2 a usage error (a flag the command does not take or
would ignore, or a value it cannot use, such as a malformed HOST:PORT, a
negative seed, a --budget above the activation count or images smallcnn
cannot pool; all refused before any training), 3 tape exhaustion, 4 I/O or
format error (a malformed model file or descriptor field, inputs that do not
fit the model, a non-numeric CSV, or a value the ring cannot hold; inputs are
refused before any dealing), 5 peer or transport error (no peer in
--timeout, a refused or lost connection, a listen port in use), 6 private
logits outside the declared error budget (the run still writes its summary
and --report), 7 protocol desync, 8 train-replace still over its --budget
after the tail epochs (no model file is written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import data as datamod
from .dapa import GaussianStats, empirical_loss, fit_closed_form, fit_closed_form_linear, \
    fit_monte_carlo, min_approx_loss
from .errors import DegenerateDistributionError, EncodeOverflowError, FormatError, \
    ProtocolDesyncError, ReluBudgetError, TapeExhaustedError, TransportError
from .fixed import FixedConfig
from .model_io import load_model, save_model
from .nn import build_model
from .replace import ReplacementConfig, train_replace, train_supervised, evaluate
from .runtime import private_inference_memory, private_inference_tcp

EXIT_TAPE = 3
EXIT_FORMAT = 4
EXIT_TRANSPORT = 5
EXIT_BUDGET = 6
EXIT_DESYNC = 7
EXIT_RELU_BUDGET = 8
ROLE_FLAG = {0: "listen", 1: "connect"}  # the tcp address flag each --party takes


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_non_negative_int, default=0, help="master seed (ARP_SEED overrides)")
    p.set_defaults(usage_error=p.error)


def _add_ring(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fixed-bits", type=int, default=64, help="ring bit width L")
    p.add_argument("--frac-bits", type=int, default=16, help="fractional bits f")


def _hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (port.isdecimal() and 0 < int(port) < 65536):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 1-65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _number(cast, ok, expected: str):
    """An argparse type: `cast` of the text, refused unless ok(value)."""

    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number(float, lambda v: 0 < v < math.inf, "a positive number")
_non_negative_float = _number(float, lambda v: 0 <= v < math.inf, "a non-negative number")


def _gaussian_stats(text: str) -> GaussianStats:
    try:
        mu, var = (float(v) for v in text.split(","))
        if math.isfinite(mu) and 0 < var < math.inf:
            return GaussianStats(mu, var)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected MU,VAR with a positive VAR, got {text!r}")


def _load_inputs(path: str, limit: int | None):
    if path.endswith(".arim"):
        x, y = datamod.read_arim(path)
    else:
        x, y = datamod.load_csv(path)
    if limit:
        x, y = x[:limit], y[:limit]
    return x, y


def cmd_gen_data(args) -> int:
    if args.dataset == "two-spiral":
        try:
            x, y = datamod.two_spirals(args.n, args.noise, seed=args.seed)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        datamod.save_csv(args.out, x, y)
    elif args.dataset == "toy-images":
        imgs, y = datamod.toy_images(args.n, seed=args.seed)
        datamod.write_arim(args.out, imgs, y)
    else:
        raise FormatError(f"unknown dataset {args.dataset}")
    print(f"wrote {args.n} examples to {args.out}")
    return 0


def cmd_train_replace(args) -> int:
    x, y = _load_inputs(args.dataset, None)
    n_train = int(0.8 * len(x))
    xtr, ytr, xte, yte = x[:n_train], y[:n_train], x[n_train:], y[n_train:]
    num_classes = int(y.max()) + 1
    cfg = ReplacementConfig(
        relu_budget=args.budget, mu=args.mu, epochs=args.epochs, t_h=args.th,
        batch_size=args.batch_size, seed=args.seed,
    )
    try:
        model = build_model(args.arch, args.seed, num_classes, image_hw=x.shape[-1])
        cfg.validate(model.activation_elements())
    except ValueError as exc:
        args.usage_error(str(exc))

    train_supervised(model, xtr, ytr, epochs=args.pretrain_epochs, lr=1e-3,
                     batch_size=args.batch_size, seed=args.seed)
    base_acc = evaluate(model, xte, yte)
    print(f"baseline test accuracy: {base_acc:.4f}")

    model, plan, history = train_replace(model, (xtr, ytr), cfg, eval_data=(xte, yte))
    final = history.epochs[-1]
    print(f"final test accuracy: {final['accuracy']:.4f} "
          f"relu count: {plan.relu_count}/{plan.budget}")

    fixed = FixedConfig(args.fixed_bits, args.frac_bits)
    save_model(args.out, model, fixed, args.seed)
    print(f"wrote model to {args.out}")
    if args.history:
        with open(args.history, "w") as fh:
            json.dump(history.to_json(), fh)
        print(f"wrote history to {args.history}")
    return 0


def cmd_dapa_fit(args) -> int:
    rows = ["source,mu,var,degree," + ",".join(f"c{i}" for i in range(args.degree + 1)) + ",loss"]
    if args.stats:
        for g in args.stats:
            mu, var = g.mean, g.var
            if args.degree == 2:
                c = fit_closed_form(g)
                loss = min_approx_loss(g)
            elif args.degree == 1:
                c = fit_closed_form_linear(g)
                rng = np.random.default_rng(args.seed)
                loss = empirical_loss(rng.normal(mu, np.sqrt(var), 200_000), c)
            else:
                raise FormatError("closed-form fitting covers degrees 1 and 2")
            coeffs = ",".join(f"{ci:.10g}" for ci in c)
            rows.append(f"closed-form,{mu},{var},{args.degree},{coeffs},{loss:.10g}")
    if args.samples:
        try:
            z = np.loadtxt(args.samples).reshape(-1)
            fit = fit_monte_carlo(z, args.degree)
        except (ValueError, DegenerateDistributionError) as exc:
            raise FormatError(f"{args.samples}: {exc}") from None
        loss = empirical_loss(z, fit)
        coeffs = ",".join(f"{ci:.10g}" for ci in fit)
        rows.append(f"samples,{z.mean():.6g},{z.var():.6g},{args.degree},{coeffs},{loss:.10g}")
    if len(rows) == 1:
        raise FormatError("nothing to fit: pass --stats and/or --samples")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_export(args) -> int:
    model, _, seed = load_model(args.model)
    fixed = FixedConfig(args.fixed_bits, args.frac_bits)
    save_model(args.out, model, fixed, seed)
    print(f"re-exported {args.model} -> {args.out} at L={fixed.total_bits}, f={fixed.frac_bits}")
    return 0


def cmd_infer_private(args) -> int:
    given = [f for f in ("party", "listen", "connect") if getattr(args, f) is not None]
    if args.mode == "memory" and given:
        args.usage_error(f"--{given[0]} applies to tcp mode; memory mode runs both parties")
    if args.mode == "tcp" and given != ["party", ROLE_FLAG.get(args.party)]:
        args.usage_error("tcp mode takes --party 0 with --listen HOST:PORT, "
                         "or --party 1 with --connect HOST:PORT")
    model, cfg, _ = load_model(args.model)
    x, _ = _load_inputs(args.inputs, args.limit)
    if args.mode == "memory":
        rep, rep1 = private_inference_memory(model, cfg, x, args.dealer_seed, args.input_seed,
                                             timeout=args.timeout)
        extra = f" (party1 transcript {rep1.transcript_hash[:16]})"
    else:
        host, port = getattr(args, ROLE_FLAG[args.party])
        rep = private_inference_tcp(model, cfg, x, args.party, host, port,
                                    args.dealer_seed, args.input_seed, timeout=args.timeout)
        extra = ""
    print(f"agreement={rep.agreement:.6f} max_dev_ulp={rep.max_dev_ulp:.3f} "
          f"budget_ulp={rep.budget_ulp} rounds={rep.totals['rounds']} "
          f"bytes={rep.totals['bytes_sent']} transcript={rep.transcript_hash[:16]}{extra}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(rep.to_json(), fh)
    if not rep.within_budget:
        print(f"logits outside the declared error budget: max_dev_ulp={rep.max_dev_ulp:.3f} "
              f"> budget_ulp={rep.budget_ulp}", file=sys.stderr)
        return EXIT_BUDGET
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="arp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="emit a deterministic dataset")
    _add_seed(p)
    p.add_argument("--dataset", choices=["two-spiral", "toy-images"], default="two-spiral")
    p.add_argument("--n", type=_positive_int, default=1024)
    p.add_argument("--noise", type=_non_negative_float, default=0.15)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-replace", help="baseline-train then learn a replacement plan")
    _add_seed(p)
    _add_ring(p)
    p.add_argument("--budget", type=_non_negative_int, required=True,
                   help="target surviving ReLU count")
    p.add_argument("--mu", type=_positive_float, default=1.0, help="normalized count penalty")
    p.add_argument("--th", type=_non_negative_float, default=0.003, help="hysteresis threshold")
    p.add_argument("--epochs", type=_positive_int, default=40)
    p.add_argument("--pretrain-epochs", type=_non_negative_int, default=150)
    p.add_argument("--batch-size", type=_positive_int, default=64)
    p.add_argument("--dataset", required=True, help="csv or .arim input file")
    p.add_argument("--arch", choices=["mlp", "smallcnn"], default="mlp")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", help="per-epoch JSON history to write")
    p.set_defaults(fn=cmd_train_replace, usage_error=p.error)

    p = sub.add_parser("dapa-fit", help="fit polynomial coefficients to ReLU")
    _add_seed(p)
    p.add_argument("--stats", action="append", type=_gaussian_stats, metavar="MU,VAR",
                   help="Gaussian stats pair; repeatable")
    p.add_argument("--samples", help="text file of raw samples, one per line")
    p.add_argument("--degree", type=_positive_int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dapa_fit)

    p = sub.add_parser("export", help="re-encode a model file at a new fixed-point config")
    _add_ring(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("infer-private", help="two-party evaluation of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--mode", choices=["memory", "tcp"], default="memory")
    p.add_argument("--party", type=int, choices=[0, 1])
    p.add_argument("--listen", type=_hostport, metavar="HOST:PORT")
    p.add_argument("--connect", type=_hostport, metavar="HOST:PORT")
    p.add_argument("--limit", type=_positive_int, help="use only the first N inputs")
    p.add_argument("--dealer-seed", type=_non_negative_int, default=7)
    p.add_argument("--input-seed", type=_non_negative_int, default=11)
    p.add_argument("--timeout", type=_positive_float, default=30.0)
    p.add_argument("--report", help="JSON run report to write")
    p.set_defaults(fn=cmd_infer_private, usage_error=p.error)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    env = os.environ.get("ARP_SEED")
    if env is not None and "seed" in args:
        try:
            args.seed = _non_negative_int(env)
        except argparse.ArgumentTypeError as exc:
            args.usage_error(f"ARP_SEED: {exc}")
    try:
        return args.fn(args)
    except ProtocolDesyncError as exc:
        print(f"protocol desync: {exc}", file=sys.stderr)
        return EXIT_DESYNC
    except TapeExhaustedError as exc:
        print(f"tape exhausted: {exc}", file=sys.stderr)
        return EXIT_TAPE
    except (FormatError, EncodeOverflowError, OSError) as exc:
        print(f"i/o or format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except TransportError as exc:
        print(f"peer/transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ReluBudgetError as exc:
        print(f"relu budget not met: {exc}", file=sys.stderr)
        return EXIT_RELU_BUDGET


if __name__ == "__main__":
    sys.exit(main())
