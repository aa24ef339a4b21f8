"""Secure evaluation orchestration: reports, phases, planning."""

import copy
import hashlib
import json
import math
import queue
import socket
from threading import Thread

import numpy as np
import pytest
from cryptography.hazmat.primitives.poly1305 import Poly1305

from arp import runtime
from arp.data import two_spirals
from arp.dealer import Dealer, Request
from arp.errors import EncodeOverflowError, FormatError, TransportError
from arp.fixed import FixedConfig, encode
from arp.model_io import deserialize_model, serialize_model
from arp.nn import build_model, fold_batchnorm, input_shape
from arp.protocol import PHASES, ShareTensor, a2b_geometry
from arp.replace import ReplacementConfig, train_replace, train_supervised
from arp.runtime import (
    SecureEvaluator,
    error_budget_ulp,
    private_inference_memory,
    private_inference_tcp,
    run_both,
)
from arp.transport import _FRAME_KEY, InMemoryChannel

from conftest import free_port, two_party

CFG = FixedConfig(64, 16)


@pytest.fixture(scope="module")
def trained():
    """Baseline and a 50%-replaced model over the spiral task."""
    x, y = two_spirals(512, noise=0.15, seed=3)
    n = int(0.8 * len(x))
    model = build_model("mlp", seed=0)
    train_supervised(model, x[:n], y[:n], epochs=80, lr=1e-3, batch_size=64, seed=0)
    replaced, _, _ = train_replace(
        copy.deepcopy(model), (x[:n], y[:n]),
        ReplacementConfig(relu_budget=64, epochs=20, seed=0),
        eval_data=(x[n:], y[n:]),
    )
    base2, _, _ = deserialize_model(serialize_model(model, CFG, 0))
    repl2, _, _ = deserialize_model(serialize_model(replaced, CFG, 0))
    return base2, repl2, x[n:]


class TestMemoryInference:
    def test_agreement_and_budget(self, trained):
        _, model, x = trained
        rep0, rep1 = private_inference_memory(model, CFG, x[:48], 7, 11)
        assert rep0.agreement >= 0.99
        assert rep0.max_dev_ulp <= rep0.budget_ulp
        assert np.array_equal(rep0.private_logits, rep1.private_logits)

    def test_phase_totals_match_channel_counters(self, trained):
        _, model, x = trained
        rep0, rep1 = private_inference_memory(model, CFG, x[:16], 7, 11)
        # both parties exchange symmetrically: sums agree across parties
        assert rep0.totals["bytes_sent"] == rep1.totals["bytes_sent"]
        assert rep0.totals["rounds"] == rep1.totals["rounds"]

    def test_fully_polynomial_zero_comparison_rounds(self, trained):
        _, model, x = trained
        poly = copy.deepcopy(model)
        for act in poly.hybrid_layers():
            act.indicator.m[:] = 0.0
        rep, _ = private_inference_memory(poly, CFG, x[:8], 7, 11)
        assert rep.phases["comparison"]["rounds"] == 0
        assert rep.phases["comparison"]["bytes_sent"] == 0

    def test_all_relu_model(self, trained):
        base, _, x = trained
        rep, _ = private_inference_memory(base, CFG, x[:64], 7, 11)
        assert rep.phases["polynomial"]["rounds"] == 0
        assert rep.agreement == 1.0
        assert rep.max_dev_ulp <= rep.budget_ulp

    def test_smallcnn_secure_path(self):
        """Conv, batch-norm folding, and pooling through the secure evaluator."""
        from arp.data import toy_images

        imgs, y = toy_images(128, hw=8, classes=4, seed=1)
        model = build_model("smallcnn", seed=0, num_classes=4, image_hw=8)
        train_supervised(model, imgs[:96], y[:96], epochs=12, lr=1e-3, batch_size=32, seed=0)
        replaced, _, _ = train_replace(
            model, (imgs[:96], y[:96]),
            ReplacementConfig(relu_budget=384, epochs=8, seed=0),
            eval_data=(imgs[96:], y[96:]),
        )
        loaded, cfg, _ = deserialize_model(serialize_model(replaced, CFG, 0))
        rep, _ = private_inference_memory(loaded, cfg, imgs[96:112], 7, 11)
        assert rep.agreement >= 0.99
        assert rep.max_dev_ulp <= rep.budget_ulp

    def test_reports_render(self, trained):
        _, model, x = trained
        rep, _ = private_inference_memory(model, CFG, x[:8], 7, 11)
        doc = json.loads(json.dumps(rep.to_json()))
        assert list(doc["examples"]) == ["plain_class", "private_class", "max_dev_ulp"]
        assert all(len(column) == 8 for column in doc["examples"].values())
        assert list(doc["phases"]) == list(PHASES)
        assert doc["totals"] == rep.totals


class TestTcpInference:
    def test_matches_memory_run(self, trained):
        _, model, x = trained
        inputs = x[:24]
        mem0, mem1 = private_inference_memory(model, CFG, inputs, 7, 11)
        port = free_port()
        t0, t1 = run_both(
            lambda: private_inference_tcp(model, CFG, inputs, 0, "127.0.0.1", port, 7, 11, 20),
            lambda: private_inference_tcp(model, CFG, inputs, 1, "127.0.0.1", port, 7, 11, 20),
        )
        assert np.array_equal(t0.private_logits, mem0.private_logits)
        assert t0.transcript_hash == mem0.transcript_hash
        assert t1.transcript_hash == mem1.transcript_hash
        assert t0.totals["bytes_sent"] == mem0.totals["bytes_sent"]

    def test_party0_listens_before_it_deals(self, trained, monkeypatch):
        """The port is taken while party 0 deals, so a peer that is ready
        first waits in connection setup; it is free again after a missing peer."""
        import arp.runtime as runtime

        _, model, x = trained
        port = free_port()
        taken = []
        offline = runtime._offline

        def probing_offline(*args, **kwargs):
            taken.append(port_is_taken(port))
            return offline(*args, **kwargs)

        monkeypatch.setattr(runtime, "_offline", probing_offline)
        with pytest.raises(TransportError, match="no peer connected"):
            private_inference_tcp(model, CFG, x[:4], 0, "127.0.0.1", port, 7, 11, 0.2)
        assert taken == [True]
        assert not port_is_taken(port)

    def test_failed_setup_frees_the_port(self, trained):
        """When party 0's setup fails, it closes its port, and party 1 ends
        with a TransportError within its timeout instead of hanging."""
        _, model, x = trained
        port = free_port()
        unencodable = np.full_like(x[:8], 1e16)  # beyond 2^47, the largest encodable real
        errors = [None, None]

        def party(p, inputs):
            try:
                private_inference_tcp(model, CFG, inputs, p, "127.0.0.1", port, 7, 11, 1.0)
            except Exception as exc:
                errors[p] = exc

        threads = [Thread(target=party, args=(0, unencodable), daemon=True),
                   Thread(target=party, args=(1, x[:8]), daemon=True)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert isinstance(errors[0], EncodeOverflowError)
        assert isinstance(errors[1], TransportError)
        assert not port_is_taken(port)


def port_is_taken(port: int) -> bool:
    """Whether a socket listens on the port; TIME_WAIT leftovers do not count."""
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        except OSError:
            return True
    return False


class TestAccountingShape:
    def test_comparison_bytes_monotone_in_relu_count(self, trained):
        base, replaced, x = trained
        full, _ = private_inference_memory(base, CFG, x[:16], 7, 11)
        half, _ = private_inference_memory(replaced, CFG, x[:16], 7, 11)
        assert half.phases["comparison"]["bytes_sent"] < full.phases["comparison"]["bytes_sent"]

    @pytest.mark.parametrize("batch", [1, 3, 64, 65])
    @pytest.mark.parametrize("name", ["mlp-mixed", "smallcnn-mixed"])
    def test_phase_bytes_are_exact(self, name, batch):
        """Each phase sends 8 bytes per opened word and 12 bytes of frame
        header per round.  The plan's records imply the words: 2 per element
        of an AND record, 1 per square element, 1 per select element plus
        the W plane words of its d bits, and the logits open once.  A
        comparison's AND records cover whole plane words of B elements, so
        its bytes step with the plane words, not the batch."""
        model, x = plan_model(name, batch)
        plan = SecureEvaluator(model, CFG).plan(x.shape)

        def words(r):
            n = math.prod(r.shape)
            return {"and": 2 * n, "square": n, "select": n + a2b_geometry(CFG, n)[0]}[r.kind]

        def expect(kinds):
            reqs = [r for r in plan if r.kind in kinds]
            return sum(8 * words(r) + 12 for r in reqs), len(reqs)

        want = {"linear": (8 * batch * 4 + 12, 1), "comparison": expect({"and", "select"}),
                "polynomial": expect({"square"})}
        for rep in private_inference_memory(model, CFG, x, 7, 11):
            assert {p: (rep.phases[p]["bytes_sent"], rep.phases[p]["rounds"]) for p in want} == want


# architecture, which elements keep their ReLU, polynomial degree
PLAN_MODELS = {
    "mlp-relu": ("mlp", "all", 2),
    "mlp-mixed": ("mlp", "mixed", 2),
    "mlp-poly": ("mlp", "none", 2),
    "mlp-mixed-degree1": ("mlp", "mixed", 1),
    "smallcnn-relu": ("smallcnn", "all", 2),
    "smallcnn-mixed": ("smallcnn", "mixed", 2),
    "smallcnn-poly": ("smallcnn", "none", 2),
}


def plan_model(name: str, batch: int):
    """A folded 4-class `PLAN_MODELS` model and a batch of uniform inputs."""
    arch, keep, degree = PLAN_MODELS[name]
    model = fold_batchnorm(build_model(arch, seed=0, num_classes=4))
    for i, layer in enumerate(model.hybrid_layers()):
        m = layer.indicator.m.reshape(-1)
        m[:] = {"all": 1, "none": 0, "mixed": np.arange(m.size) % (i + 2) == 0}[keep]
        layer.coeffs = layer.coeffs[:, : degree + 1]
    return model, np.random.default_rng(batch).uniform(-1, 1, size=(batch, *input_shape(arch)))


class TestPlanning:
    @pytest.mark.parametrize("batch", [1, 3, 65])
    @pytest.mark.parametrize("cfg", [CFG, FixedConfig(32, 8), FixedConfig(20, 6)], ids=["L64", "L32", "L20"])
    @pytest.mark.parametrize("name", list(PLAN_MODELS))
    def test_plan_is_what_the_run_takes(self, name, cfg, batch):
        """plan(shape) lists, in order, the records each party's run takes
        when each record is dealt as the run takes it.  L=64 rescales
        locally; L=32 and L=20 take a truncation mask per rescale.  Batch 65
        puts a comparison's elements across a plane word boundary."""
        model, x = plan_model(name, batch)
        xs = Dealer(1, cfg).gen_shares(encode(x, cfg))
        evaluator = SecureEvaluator(model, cfg)

        def fn(sess):
            evaluator.run(sess, ShareTensor(xs[sess.party], cfg.frac_bits))
            return [Request(rec.kind, rec.fields[0].shape) for rec in sess.tape.records]

        want = evaluator.plan(x.shape)
        assert two_party(fn, cfg=cfg) == (want, want)

    def test_empty_batch_is_refused_before_dealing(self, monkeypatch):
        """Both transports plan first, so an empty batch deals nothing."""
        monkeypatch.setattr(runtime.Dealer, "build_tapes", lambda *a: pytest.fail("dealt a tape"))
        model = build_model("mlp", 0)
        with pytest.raises(FormatError, match="no examples"):
            private_inference_memory(model, CFG, np.empty((0, 2)))
        with pytest.raises(FormatError, match="no examples"):
            private_inference_tcp(model, CFG, np.empty((0, 2)), 1, "127.0.0.1", free_port())

    def test_plan_is_consumed_exactly(self, trained):
        # _run_party raises if records are left over; reaching a report proves it
        _, model, x = trained
        rep, _ = private_inference_memory(model, CFG, x[:4], 7, 11)
        assert rep.totals["rounds"] > 0

    def test_budget_positive(self, trained):
        base, replaced, _ = trained
        assert error_budget_ulp(base) > 0
        assert error_budget_ulp(replaced) > 0

    def test_zero_square_coefficient_still_squares(self):
        """A degree-2 layer whose c2 is all zero (a fitted dead channel gives
        c2 = 0 exactly) still consumes the square its plan requested."""
        model = build_model("mlp", 0)
        model.hybrid_layers()[0].indicator.m[:32] = 0  # identity coefficients: c2 = 0
        x, _ = two_spirals(16, seed=1)
        # _run_party raises if records are left over; reaching a report proves none are
        rep0, rep1 = private_inference_memory(model, CFG, x, 7, 11)
        assert rep0.agreement == rep1.agreement == 1.0
        assert rep0.phases["polynomial"]["rounds"] == 1

    def test_rejects_unknown_layer(self):
        class Weird:
            def params(self):
                return []

        from arp.errors import ArpError
        from arp.nn import Sequential

        with pytest.raises(ArpError):
            SecureEvaluator(Sequential([Weird()]), CFG)


class TestExactTruncationRuns:
    """Rings where local truncation wraps often plan and run exact truncation."""

    CFG32 = FixedConfig(32, 8)

    def test_narrow_ring_meets_the_budget_at_every_seed(self, trained):
        """Before exact truncation about one L=32, f=8 run in four broke the
        budget on one wrap; each truncation mask costs a round and opens its size."""
        _, model, x = trained
        model32, cfg, _ = deserialize_model(serialize_model(model, self.CFG32, 0))
        masks = [r for r in SecureEvaluator(model32, cfg).plan(x.shape) if r.kind == "trunc"]
        assert len(masks) == 7  # three dense layers, two hybrid layers' square and final rescale
        rep64, _ = private_inference_memory(model, CFG, x, 7, 11)
        for seed in range(10):
            rep, _ = private_inference_memory(model32, cfg, x, seed, 11)
            assert rep.max_dev_ulp <= rep.budget_ulp, seed
            assert rep.agreement >= 0.99
        # the comparison phase differs too: an L=32 a2b has one adder level less
        extra = {p: (rep.phases[p]["rounds"] - rep64.phases[p]["rounds"],
                     rep.phases[p]["opened_words"] - rep64.phases[p]["opened_words"])
                 for p in ("linear", "polynomial")}
        assert extra == {"linear": (3, sum(math.prod(m.shape) for m in masks[::3])),
                         "polynomial": (4, sum(math.prod(m.shape) for i, m in enumerate(masks) if i % 3))}

    def test_smallcnn_plans_conv_and_pool_masks(self):
        """Conv and pooling outputs get masks of their shapes; _run_party
        raises if a record is left over, so a report proves the plan fits."""
        from arp.data import toy_images

        imgs, _ = toy_images(8, hw=8, classes=4, seed=1)
        built = build_model("smallcnn", seed=0, num_classes=4, image_hw=8)
        model, _, _ = deserialize_model(serialize_model(built, self.CFG32, 0))  # folds batch norm
        plan = SecureEvaluator(model, self.CFG32).plan(imgs.shape)
        assert [r.shape for r in plan if r.kind == "trunc"][:2] == [(8, 8, 8, 8), (8, 8, 4, 4)]
        rep, _ = private_inference_memory(model, self.CFG32, imgs, 7, 11)
        assert rep.max_dev_ulp <= rep.budget_ulp


class TestTranscriptPin:
    """Fixed seeds pin both parties' transcripts and the per-phase accounting.

    A refactor that leaves these values unchanged sends byte-identical
    messages; a deliberate protocol or dealer change re-pins them here.
    """

    PINNED = {
        "mlp": dict(
            hashes=("327197fc0e8da1eb91afb641d490de9f192e7cd5cbf625c63d72bb9ae327b1df",
                    "b0222ae6affea9cd8056753f17607764c72669d5053a4cad5a6d8ad7c6eb2d9c"),
            bytes_sent=257804, rounds=19,
            phases={"dealer": (0, 0), "linear": (1036, 1), "comparison": (223464, 16),
                    "polynomial": (33304, 2)},
        ),
        "smallcnn": dict(
            hashes=("a0d7bf3e0510e3bd21a208393ade416ea16d0815aa1644fa315d99266d39de94",
                    "f1b423bf1d2e856915bfebe3d502161327ea6a545dfd9fd7b3bf3247c31b78f2"),
            bytes_sent=414372, rounds=19,
            phases={"dealer": (0, 0), "linear": (524, 1), "comparison": (368512, 16),
                    "polynomial": (45336, 2)},
        ),
        "smallcnn-single-path": dict(
            hashes=("a9a331bfb8a122bbfec9ee6e7831d376bbbdc951eace6caa02cd4f0b86787f2a",
                    "6c3f660e70a0c8833a24c699f52f3260d4afc80248fffb61b88c3bebc4817948"),
            bytes_sent=487032, rounds=10,
            phases={"dealer": (0, 0), "linear": (524, 1), "comparison": (453728, 8),
                    "polynomial": (32780, 1)},
        ),
    }

    @staticmethod
    def _model_and_inputs(arch):
        from arp.data import toy_images
        from arp.nn import fold_batchnorm

        if arch == "mlp":
            model = build_model("mlp", seed=0)
            inputs, _ = two_spirals(64, seed=3)
        else:
            model = build_model("smallcnn", seed=0, num_classes=4)
            inputs, _ = toy_images(16, seed=3)
        rng = np.random.default_rng(5)
        for i, act in enumerate(model.hybrid_layers()):
            channels = act.feat_shape[act.channel_axis]
            if arch == "smallcnn-single-path":
                # the first activation layer all ReLU, the second all
                # polynomial with per-channel coefficients, so a misrouted
                # broadcast shows
                act.indicator.m = np.full(act.feat_shape, float(i == 0))
                act.coeffs = [0.28, 0.5, 0.14] + 0.01 * np.arange(channels)[:, None]
            else:
                act.indicator.m = (rng.random(act.feat_shape) < 0.5).astype(np.float64)
                act.coeffs = np.tile([0.28, 0.5, 0.14], (channels, 1))
        return fold_batchnorm(model), inputs

    # SHA-256 over every sent frame, prefix then payload: the fingerprint
    # before frame tags, kept to show whether the wire bytes changed (last
    # re-pinned when relu_secure became a2b, then one select)
    WIRE_SHA256 = {
        "mlp": ("c8af1be477e84d70c37327e3d7d99a9b8094dfc14d387f0488955e69518513d9",
                "9e14890d99802a3bea6897154e897dd606c6300392862b3bc5203fb5d6bb4dc2"),
        "smallcnn": ("782c2f81abce247bf2f533ff5ecb709765769e76a8d33186c2fbc5563ec28a8d",
                     "f49b9ae1f6bea90f662109f487d4ced6b04782be99800859158d8f2f6282b3d3"),
        "smallcnn-single-path": ("14f83bce7326c9017571e7de6726965626e529c9fcf794d912fd182085e0ed54",
                                 "cf7e815285933c65c922ff43a40560b75530d8b4d7a83b412730c77be7d080bd"),
    }

    @pytest.mark.parametrize("arch", ["mlp", "smallcnn", "smallcnn-single-path"])
    def test_wire_bytes_are_pinned(self, arch, monkeypatch):
        class Recorder(InMemoryChannel):
            """Keeps each sent frame's prefix and payload."""

            def __init__(self, *args):
                super().__init__(*args)
                self.frames = []

            def _swap(self, prefix, payload):
                self.frames += [bytes(prefix), bytes(payload)]
                return super()._swap(prefix, payload)

        pair = []

        def recording_pair(timeout):
            q01, q10 = queue.Queue(), queue.Queue()
            pair.extend([Recorder(q10, q01, timeout), Recorder(q01, q10, timeout)])
            return tuple(pair)

        monkeypatch.setattr(runtime, "memory_channel_pair", recording_pair)
        model, inputs = self._model_and_inputs(arch)
        private_inference_memory(model, CFG, inputs, dealer_seed=7, input_seed=11)
        got = tuple(hashlib.sha256(b"".join(ch.frames)).hexdigest() for ch in pair)
        assert got == self.WIRE_SHA256[arch]
        for ch in pair:  # the fingerprint is the prefixes and tags of these frames
            tagged = b"".join(part if k % 2 == 0 else Poly1305.generate_tag(_FRAME_KEY, part)
                              for k, part in enumerate(ch.frames))
            assert ch.transcript_hash == hashlib.sha256(tagged).hexdigest()

    @pytest.mark.parametrize("arch", ["mlp", "smallcnn", "smallcnn-single-path"])
    def test_transcripts_and_phases_are_pinned(self, arch):
        model, inputs = self._model_and_inputs(arch)
        reports = private_inference_memory(model, CFG, inputs, dealer_seed=7, input_seed=11)
        pin = self.PINNED[arch]
        assert tuple(r.transcript_hash for r in reports) == pin["hashes"]
        for rep in reports:
            assert rep.totals["bytes_sent"] == pin["bytes_sent"]
            assert rep.totals["rounds"] == pin["rounds"]
            got = {name: (row["bytes_sent"], row["rounds"]) for name, row in rep.phases.items()}
            assert got == pin["phases"]
