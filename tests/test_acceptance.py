"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v`; verdict lines go to the real
stdout so they are visible regardless of capture settings.
"""

import copy
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from arp.dapa import (
    GaussianStats,
    MU_GRID,
    VAR_GRID,
    empirical_loss,
    fit_closed_form,
    fit_monte_carlo,
    min_approx_loss,
)
from arp.data import save_csv, two_spirals
from arp.fixed import FixedConfig, RingTensor, decode, encode, truncate
from arp.model_io import save_model, serialize_model, deserialize_model
from arp.nn import build_model, loss_cross_entropy
from arp.protocol import (
    ShareTensor,
    a2b,
    b2a,
    dapa_eval_secure,
    lin_combine,
    ltz,
    mul_beaver,
    mul_public,
    relu_secure,
    square,
)
from arp.replace import (
    IndicatorState,
    ReplacementConfig,
    apply_hysteresis,
    count_relu,
    evaluate,
    penalty_grad_aux,
    ste_softplus_grad,
    train_replace,
    train_supervised,
)
from arp.runtime import hybrid_activation_secure, private_inference_memory

from conftest import CFG8, CFG64, as_share, share_reals, share_ring, two_party

ULP = CFG64.resolution


def _verdict(num: int, detail: str):
    print(f"criterion {num:2d}: PASS - {detail}", file=sys.__stdout__, flush=True)


def _fail(num: int, detail: str):
    print(f"criterion {num:2d}: FAIL - {detail}", file=sys.__stdout__, flush=True)
    pytest.fail(detail)


def check(num: int, ok: bool, detail: str):
    if ok:
        _verdict(num, detail)
    else:
        _fail(num, detail)


# ---- shared expensive state ---------------------------------------------------


@pytest.fixture(scope="session")
def spiral():
    x, y = two_spirals(1024, noise=0.15, seed=3)
    n = int(0.8 * len(x))
    return (x[:n], y[:n]), (x[n:], y[n:])


@pytest.fixture(scope="session")
def baseline(spiral):
    (xtr, ytr), _ = spiral
    model = build_model("mlp", seed=0)
    train_supervised(model, xtr, ytr, epochs=150, lr=1e-3, batch_size=64, seed=0)
    return model


@pytest.fixture(scope="session")
def replaced_half(baseline, spiral):
    train, test = spiral
    cfg = ReplacementConfig(relu_budget=64, epochs=40, seed=0)
    return train_replace(copy.deepcopy(baseline), train, cfg, eval_data=test)


@pytest.fixture(scope="session")
def sweep_runs(baseline, spiral):
    """t_h in {0, 0.003, 0.01} at mu=1 plus mu in {0.5, 2} at t_h=0.003."""
    train, test = spiral
    runs = {}
    for t_h in (0.0, 0.003, 0.01):
        cfg = ReplacementConfig(relu_budget=64, epochs=40, seed=0, t_h=t_h)
        runs[("th", t_h)] = train_replace(copy.deepcopy(baseline), train, cfg, eval_data=test)
    for mu in (0.5, 2.0):
        cfg = ReplacementConfig(relu_budget=64, epochs=40, seed=0, mu=mu)
        runs[("mu", mu)] = train_replace(copy.deepcopy(baseline), train, cfg, eval_data=test)
    return runs


# ---- criteria -------------------------------------------------------------------


def test_criterion_01_closed_form_reference_point():
    c0, c1, c2 = fit_closed_form(GaussianStats(0.0, 2.0))
    dev = max(abs(c0 - 0.28), abs(c1 - 0.5), abs(c2 - 0.14))
    check(1, dev < 0.005,
          f"fit_closed_form(0, 2) = ({c0:.4f}, {c1:.4f}, {c2:.4f}), max dev {dev:.2e} < 0.005")


def test_criterion_02_grid_optimality():
    rng = np.random.default_rng(2024)
    g = rng.standard_normal(1_000_000)
    worst_coeff = 0.0
    perturb_failures = []
    for mu in MU_GRID:
        for var in VAR_GRID:
            z = mu + np.sqrt(var) * g
            closed = fit_closed_form(GaussianStats(mu, var))
            mc = fit_monte_carlo(z, 2)
            worst_coeff = max(worst_coeff, float(np.max(np.abs(mc - closed))))
            base = empirical_loss(z, closed)
            for i in range(3):
                for s in (0.9, 1.1):
                    p = closed.copy()
                    p[i] *= s
                    if not empirical_loss(z, p) > base:
                        perturb_failures.append((mu, var, i, s))
    ok = worst_coeff < 1e-2 and not perturb_failures
    check(2, ok,
          f"grid {len(MU_GRID)}x{len(VAR_GRID)}: max |MC - closed| = {worst_coeff:.2e} < 1e-2, "
          f"perturbation failures: {perturb_failures or 'none'}")


def test_criterion_03_min_loss_value_and_printed_variant():
    g = GaussianStats(0.0, 2.0)
    rng = np.random.default_rng(31)
    n = 10_000_000
    z = rng.normal(0.0, np.sqrt(2.0), size=n)
    coeffs = fit_closed_form(g)
    sq_err = (np.maximum(z, 0.0) - (coeffs[0] + coeffs[1] * z + coeffs[2] * z**2)) ** 2
    mc = float(np.mean(sq_err))
    se = float(np.std(sq_err) / np.sqrt(n))
    corrected = min_approx_loss(g)
    printed = min_approx_loss(g, uncorrected=True)
    expect = 2 * (0.25 - 3 / (4 * np.pi))
    ok = (
        abs(corrected - expect) < 1e-12
        and abs(mc - corrected) <= 3 * se
        and abs(mc - printed) > 5 * se
    )
    check(3, ok,
          f"min loss {corrected:.5f} (= 2(1/4 - 3/4pi)) within {abs(mc - corrected) / se:.2f} SE "
          f"of 1e7-sample MC; printed-form variant {printed:.5f} is {abs(mc - printed) / se:.0f} SE away")


def test_criterion_04_protocol_exactness_exhaustive():
    ring = RingTensor(np.arange(256, dtype=np.uint64), CFG8)
    sh = share_ring(ring, seed=7)

    def fn_ltz(sess):
        out = ltz(sess, ShareTensor(sh[sess.party], CFG8.frac_bits))
        return sess.reveal(out).words

    (bits, _) = two_party(fn_ltz, cfg=CFG8)
    ltz_ok = np.array_equal(bits.astype(bool), ring.signed() < 0)

    def fn_a2b(sess):
        xb = a2b(sess, ShareTensor(sh[sess.party], 0))
        return sess.reveal_bits(xb).words

    (signs, _) = two_party(fn_a2b, cfg=CFG8)
    a2b_ok = np.array_equal(signs.astype(bool), ring.signed() < 0)
    check(4, ltz_ok and a2b_ok,
          "exhaustive L=8: ltz and a2b's XOR-shared sign bit match the sign "
          "of all 256 ring values")


def _ref_poly(x, c0, c1, c2):
    """Fixed-point plaintext reference mirroring the secure schedule."""
    xe = encode(x, CFG64)
    acc = xe * encode(np.broadcast_to(c1, x.shape), CFG64)
    if c2 is not None:
        sq = truncate(xe * xe, CFG64)
        acc = acc + sq * encode(np.broadcast_to(c2, x.shape), CFG64)
    acc = acc + encode(np.broadcast_to(c0, x.shape), CFG64).lshift(CFG64.frac_bits)
    return decode(truncate(acc, CFG64))


def test_criterion_05_plaintext_ciphertext_equivalence():
    rng = np.random.default_rng(55)
    n = 10_000
    x = rng.uniform(-20, 20, size=n)
    y = rng.uniform(-20, 20, size=n)
    xs, ys = share_reals(x, seed=1), share_reals(y, seed=2)

    rng_bits = (rng.integers(0, 2, size=n), rng.integers(0, 2, size=n))
    z = rng.uniform(-6, 6, size=n)
    zs = share_reals(z, seed=3)
    h = rng.uniform(-6, 6, size=(100, 128))
    hs = share_reals(h, seed=4)
    mask = rng.integers(0, 2, size=128).astype(np.float64)

    def fn(sess):
        xt, yt = as_share(sess, xs), as_share(sess, ys)
        out = {}
        out["lin_combine"] = decode(sess.reveal(lin_combine(sess, 1.7, xt, yt)))
        out["mul_public"] = decode(sess.reveal(mul_public(sess, xt, encode(y, CFG64))))
        out["mul_beaver"] = decode(sess.reveal(mul_beaver(sess, xt, yt)))
        out["square"] = decode(sess.reveal(square(sess, xt)))
        bits = np.asarray(rng_bits[sess.party], dtype=np.uint64)
        out["b2a"] = sess.reveal(b2a(sess, RingTensor(bits, CFG64))).words
        out["relu_secure"] = decode(sess.reveal(relu_secure(sess, xt)))
        zt = as_share(sess, zs)
        out["dapa_eval"] = decode(sess.reveal(dapa_eval_secure(sess, zt, 0.28, 0.5, 0.14)))
        ht = as_share(sess, hs)
        out["hybrid"] = decode(sess.reveal(
            hybrid_activation_secure(sess, ht, mask, 0.28, 0.5, 0.14)))
        return out

    (results, _) = two_party(fn)

    xe, ye = decode(encode(x, CFG64)), decode(encode(y, CFG64))
    prod_ref = decode(truncate(encode(x, CFG64) * encode(y, CFG64)))
    hybrid_ref = mask * np.maximum(decode(encode(h, CFG64)), 0) + (1 - mask) * _ref_poly(
        h, 0.28, 0.5, 0.14
    )
    refs = {
        "lin_combine": (decode(truncate(encode(x, CFG64) * encode(1.7, CFG64))) + ye, 1),
        "mul_public": (prod_ref, 1),
        "mul_beaver": (prod_ref, 1),
        "square": (decode(truncate(encode(x, CFG64) * encode(x, CFG64))), 1),
        "b2a": ((np.asarray(rng_bits[0]) ^ np.asarray(rng_bits[1])).astype(np.uint64), 0),
        "relu_secure": (np.maximum(xe, 0.0), 1),
        "dapa_eval": (_ref_poly(z, 0.28, 0.5, 0.14), 2),
        "hybrid": (hybrid_ref, 4),
    }
    report = []
    ok = True
    for name, (ref, tol) in refs.items():
        got = results[name]
        if name == "b2a":
            good = np.array_equal(got, ref)
            report.append(f"{name}=exact" if good else f"{name}=MISMATCH")
        else:
            dev = float(np.max(np.abs(got - ref))) / ULP
            good = dev <= tol
            report.append(f"{name} {dev:.2f}<={tol}")
        ok = ok and good
    check(5, ok, ">=1e4 cases per op at L=64,f=16, dev in ULP vs fixed-point reference: "
          + ", ".join(report))


def test_criterion_06_round_and_opening_accounting():
    n = 64
    x = np.linspace(-5, 5, n)
    xs = share_reals(x)

    def fn(sess):
        xt = as_share(sess, xs)
        stats = {}
        r0, w0 = sess.channel.rounds, sess.opened_words
        lin_combine(sess, 2.0, xt, xt)
        mul_public(sess, xt, encode(np.ones(n), CFG64))
        stats["local_rounds"] = sess.channel.rounds - r0

        r0, w0 = sess.channel.rounds, sess.opened_words
        mul_beaver(sess, xt, xt)
        stats["mul"] = (sess.channel.rounds - r0, sess.opened_words - w0)

        r0, w0 = sess.channel.rounds, sess.opened_words
        square(sess, xt)
        stats["square"] = (sess.channel.rounds - r0, sess.opened_words - w0)

        r0 = sess.channel.rounds
        xb = a2b(sess, xt)
        stats["a2b"] = sess.channel.rounds - r0

        r0 = sess.channel.rounds
        b2a(sess, xb)
        stats["b2a"] = sess.channel.rounds - r0
        return stats

    (s, _) = two_party(fn)

    # a2b at L=8 as well
    ring8 = RingTensor(np.arange(16, dtype=np.uint64), CFG8)
    sh8 = share_ring(ring8, seed=3)

    def fn8(sess):
        r0 = sess.channel.rounds
        a2b(sess, ShareTensor(sh8[sess.party], 0))
        return sess.channel.rounds - r0

    (rounds8, _) = two_party(fn8, cfg=CFG8)

    ok = (
        s["local_rounds"] == 0
        and s["mul"] == (1, 2 * n)
        and s["square"] == (1, n)
        and s["a2b"] == 1 + math.ceil(math.log2(63))
        and s["b2a"] == 1
        and rounds8 == 1 + math.ceil(math.log2(7))
        and s["square"][1] * 2 == s["mul"][1]
    )
    check(6, ok,
          f"rounds: local 0, mul 1, square 1, b2a 1, a2b(L=64) {s['a2b']} = 7, "
          f"a2b(L=8) {rounds8} = 4; square opened {s['square'][1]} words = half of mul's {s['mul'][1]}")


def test_criterion_07_hysteresis_truth_table(baseline, spiral):
    t_h = 0.003
    one, zero = np.array([1.0]), np.array([0.0])
    rows_ok = (
        apply_hysteresis(one, np.array([-t_h / 2]), t_h)[0] == 1
        and apply_hysteresis(one, np.array([-2 * t_h]), t_h)[0] == 0
        and apply_hysteresis(zero, np.array([t_h / 2]), t_h)[0] == 0
        and apply_hysteresis(zero, np.array([2 * t_h]), t_h)[0] == 1
    )

    rng = np.random.default_rng(70)
    m = (rng.random(5000) < 0.5).astype(np.float64)
    m_w = rng.normal(scale=0.01, size=5000)
    sign_ok = np.array_equal(apply_hysteresis(m, m_w, 0.0), (m_w > 0).astype(np.float64))

    train, test = spiral
    cfg = ReplacementConfig(relu_budget=64, epochs=6, seed=0, log_transitions=True)
    _, _, hist = train_replace(copy.deepcopy(baseline), train, cfg, eval_data=test)
    logged_ok = bool(hist.transitions)
    for before, m_w_t, after, th in hist.transitions:
        expect = np.where(before == 1, m_w_t > -th, m_w_t > th).astype(np.float64)
        if not np.array_equal(after, expect):
            logged_ok = False
            break
    check(7, rows_ok and sign_ok and logged_ok,
          f"4 constructed rows hold; t_h=0 equals the sign rule on 5000 random states; "
          f"all {len(hist.transitions)} logged training transitions satisfy the table")


def test_criterion_08_gradient_checks(baseline):
    rng = np.random.default_rng(80)
    model = build_model("mlp", seed=80)
    for act in model.hybrid_layers():
        m = np.zeros(act.indicator.m.size)
        m[::2] = 1.0
        act.indicator.m = m.reshape(act.indicator.m.shape)
        act.coeffs[:, 0] = 0.1
        act.coeffs[:, 2] = 0.07
    x = rng.normal(size=(8, 2))
    y = rng.integers(0, 2, size=8)

    def loss_value():
        return loss_cross_entropy(model.forward(x, training=True), y)[0]

    _, dlog = loss_cross_entropy(model.forward(x, training=True), y)
    model.backward(dlog)
    worst = 0.0
    h = 1e-6
    for p in model.params():
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = p.value[i]
            p.value[i] = old + h
            fp = loss_value()
            p.value[i] = old - h
            fm = loss_value()
            p.value[i] = old
            num = (fp - fm) / (2 * h)
            worst = max(worst, abs(p.grad[i] - num) / max(abs(num), 1e-3))
            it.iternext()
    grad_ok = worst <= 1e-4

    st = IndicatorState.all_relu((10,))
    sig = ste_softplus_grad(st.m_w)
    pen_at = penalty_grad_aux(sig, 0.5, over_budget=False)
    pen_over = penalty_grad_aux(sig, 0.5, over_budget=True)
    pen_ok = np.all(pen_at == 0.0) and np.all(pen_over > 0)
    check(8, grad_ok and pen_ok,
          f"backprop vs central differences: max rel err {worst:.2e} <= 1e-4; "
          f"penalty gradient exactly zero at/below budget")


def test_criterion_09_end_to_end_replacement(baseline, spiral, replaced_half):
    train, test = spiral
    train_acc = evaluate(baseline, *train)
    base_test = evaluate(baseline, *test)

    _, plan50, hist50 = replaced_half
    acc50 = hist50.epochs[-1]["accuracy"]
    count_ok_50 = abs(plan50.relu_count - 64) <= 0.02 * 64

    n10 = round(0.1 * 128)
    cfg = ReplacementConfig(relu_budget=n10, epochs=40, seed=0)
    _, plan10, hist10 = train_replace(copy.deepcopy(baseline), train, cfg, eval_data=test)
    acc10 = hist10.epochs[-1]["accuracy"]

    ok = (
        train_acc >= 0.97
        and count_ok_50
        and acc50 >= base_test - 0.02
        and plan10.relu_count <= n10
        and acc10 >= base_test - 0.06
    )
    check(9, ok,
          f"baseline train acc {train_acc:.3f} >= 0.97; N=64: count {plan50.relu_count} "
          f"(within 2%), acc {acc50:.3f} vs baseline {base_test:.3f} (within 2 pts); "
          f"N={n10}: count {plan10.relu_count} <= {n10}, acc {acc10:.3f} (within 6 pts)")


def test_criterion_10_private_inference_tcp(baseline, replaced_half, tmp_path):
    from conftest import free_port

    model50, _, _ = replaced_half
    fixed = FixedConfig(64, 16)
    inputs, labels = two_spirals(256, noise=0.15, seed=77)

    model_path = tmp_path / "half.arpm"
    data_path = tmp_path / "inputs.csv"
    save_model(model_path, model50, fixed, seed=0)
    save_csv(data_path, inputs, labels)

    port = free_port()
    common = [sys.executable, "-m", "arp.cli", "infer-private",
              "--model", str(model_path), "--inputs", str(data_path),
              "--mode", "tcp", "--dealer-seed", "7", "--input-seed", "11"]
    p0 = subprocess.Popen(common + ["--party", "0", "--listen", f"127.0.0.1:{port}",
                                    "--report", str(tmp_path / "r0.json")],
                          stdout=subprocess.PIPE, text=True)
    p1 = subprocess.Popen(common + ["--party", "1", "--connect", f"127.0.0.1:{port}",
                                    "--report", str(tmp_path / "r1.json")],
                          stdout=subprocess.PIPE, text=True)
    out0, _ = p0.communicate(timeout=180)
    out1, _ = p1.communicate(timeout=180)
    assert p0.returncode == 0 and p1.returncode == 0, (out0, out1)

    def report_field(path, key):
        return json.loads((tmp_path / path).read_text())[key]

    model_loaded, cfg_loaded, _ = deserialize_model(model_path.read_bytes())
    mem0, mem1 = private_inference_memory(model_loaded, cfg_loaded, inputs, 7, 11)

    agreement = report_field("r0.json", "agreement")
    tcp_hash0 = report_field("r0.json", "transcript")
    tcp_hash1 = report_field("r1.json", "transcript")
    transcripts_ok = tcp_hash0 == mem0.transcript_hash and tcp_hash1 == mem1.transcript_hash

    all_relu, _ = private_inference_memory(baseline, cfg_loaded, inputs, 7, 11)
    cmp_bytes_50 = mem0.phases["comparison"]["bytes_sent"]
    cmp_bytes_full = all_relu.phases["comparison"]["bytes_sent"]

    ok = agreement >= 0.99 and transcripts_ok and cmp_bytes_50 < cmp_bytes_full
    check(10, ok,
          f"TCP two-process agreement {agreement:.4f} >= 0.99 on 256 inputs; "
          f"TCP and in-memory transcripts byte-identical; comparison bytes "
          f"{cmp_bytes_50} < all-ReLU {cmp_bytes_full}")


def test_criterion_11_sensitivity_sweeps(sweep_runs):
    details = []
    diverged = []
    for key, (_, plan, hist) in sweep_runs.items():
        accs = [row["accuracy"] for row in hist.epochs]
        if not all(np.isfinite(a) for a in accs) or accs[-1] < 0.8:
            diverged.append(key)
        details.append(f"{key[0]}={key[1]}: acc {accs[-1]:.3f} count {plan.relu_count}")

    def last_quarter_flips(run):
        rows = run[2].epochs[:40]
        q = len(rows) // 4
        return sum(r["flips"] for r in rows[-q:])

    f0 = last_quarter_flips(sweep_runs[("th", 0.0)])
    f3 = last_quarter_flips(sweep_runs[("th", 0.003)])
    flips_ok = f0 >= 2 * max(f3, 1)
    ok = not diverged and flips_ok
    check(11, ok,
          f"all sweeps converged ({'; '.join(details)}); final-quarter flips: "
          f"t_h=0 gives {f0} vs t_h=0.003 gives {f3} (>= 2x)")
