"""CLI surface: verbs, seeds, exit codes."""

import json
import warnings

import numpy as np
import pytest

from arp.cli import main
from arp.data import load_csv
from arp.fixed import FixedConfig
from arp.runtime import private_inference_memory

from conftest import free_port


def run(argv):
    return main([str(a) for a in argv])


class TestGenData:
    def test_two_spiral_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["gen-data", "--n", 64, "--seed", 5, "--out", a]) == 0
        assert run(["gen-data", "--n", 64, "--seed", 5, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("ARP_SEED", "123")
        run(["gen-data", "--n", 32, "--seed", 1, "--out", a])
        run(["gen-data", "--n", 32, "--seed", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_odd_spiral_count_is_refused(self, tmp_path, capsys):
        out = tmp_path / "odd.csv"
        assert run(["gen-data", "--n", 1025, "--out", out]) == 4
        assert "positive even" in capsys.readouterr().err
        assert not out.exists()

    def test_toy_images(self, tmp_path):
        out = tmp_path / "imgs.arim"
        assert run(["gen-data", "--dataset", "toy-images", "--n", 16, "--out", out]) == 0
        assert out.read_bytes()[:4] == b"ARIM"


class TestDapaFit:
    def test_stats_closed_form(self, tmp_path, capsys):
        assert run(["dapa-fit", "--stats", "0,2"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header == "source,mu,var,degree,c0,c1,c2,loss"
        vals = row.split(",")
        assert vals[0] == "closed-form"
        assert abs(float(vals[4]) - 0.28) < 0.005
        assert abs(float(vals[5]) - 0.5) < 0.005
        assert abs(float(vals[6]) - 0.14) < 0.005

    def test_linear_stats_loss_is_closed_form(self, capsys):
        """Degree 1 prints the optimal affine fit's exact loss, 1/4 - 1/(2 pi)
        at N(0, 1), not a Monte-Carlo estimate."""
        assert run(["dapa-fit", "--stats", "0,1", "--degree", 1]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[0] == "closed-form"
        assert float(row[-1]) == pytest.approx(0.25 - 1 / (2 * np.pi), rel=1e-9)

    def test_sample_file(self, tmp_path):
        samples = tmp_path / "z.txt"
        rng = np.random.default_rng(3)
        np.savetxt(samples, rng.normal(0, np.sqrt(2), size=50_000))
        out = tmp_path / "fit.csv"
        assert run(["dapa-fit", "--samples", samples, "--out", out]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[0] == "samples"
        assert abs(float(row[4]) - 0.28) < 0.02

    def test_nothing_to_fit_is_format_error(self):
        assert run(["dapa-fit"]) == 4

    @pytest.mark.parametrize("samples,reason", [
        (np.random.default_rng(4).normal(size=50), "need at least 300 samples, got 50"),
        (np.full(1000, 0.5), "constant samples"),
    ], ids=["50-samples", "constant"])
    def test_unfittable_samples_are_format_errors(self, tmp_path, capsys, samples, reason):
        path = tmp_path / "z.txt"
        np.savetxt(path, samples)
        assert run(["dapa-fit", "--samples", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: ") and reason in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestIgnoredFlags:
    """A flag that a command would silently ignore ends in a usage error."""

    BASE = {
        "gen-data": ["--out", "d.csv"],
        "dapa-fit": ["--stats", "0,2"],
        "export": ["--model", "m.arpm", "--out", "o.arpm"],
        "infer-private": ["--model", "m.arpm", "--inputs", "d.csv"],
    }

    @pytest.mark.parametrize("command,flag", [
        ("infer-private", "--fixed-bits"),
        ("infer-private", "--frac-bits"),
        ("infer-private", "--seed"),
        ("export", "--seed"),
        ("gen-data", "--fixed-bits"),
        ("dapa-fit", "--frac-bits"),
        ("dapa-fit", "--seed"),
    ])
    def test_usage_exit(self, command, flag, capsys):
        from arp.cli import build_parser

        base = [command, *self.BASE[command]]
        build_parser().parse_args(base)  # the command line is valid without the flag
        with pytest.raises(SystemExit) as exc:
            run([*base, flag, 12])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestBadValues:
    """A malformed address, limit, training setting or fit input ends in a usage
    error, not a traceback."""

    @pytest.mark.parametrize("flag,value", [
        ("--listen", "127.0.0.1:abc"),
        ("--listen", "127.0.0.1:99999"),
        ("--connect", "127.0.0.1:0"),
        ("--connect", "localhost"),
        ("--limit", "-1"),
        ("--limit", "0"),
        ("--timeout", "-1"),
        ("--timeout", "0"),
        ("--dealer-seed", "-1"),
        ("--input-seed", "-3"),
    ])
    def test_usage_exit(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["infer-private", "--model", "m.arpm", "--inputs", "d.csv",
                 "--mode", "tcp", "--party", 0, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--batch-size", "0"),
        ("--epochs", "0"),
        ("--pretrain-epochs", "-1"),
        ("--mu", "0"),
        ("--mu", "nan"),
        ("--budget", "-1"),
        ("--th", "-0.1"),
    ])
    def test_training_setting_usage_exit(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train-replace", "--dataset", "d.csv", "--out", "m.arpm", "--budget", 8,
                 flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, reason", [
        (["dapa-fit", "--stats", "0,1", "--degree", 3], "--stats fits in closed form at degrees 1 and 2, got --degree 3"),
        (["gen-data", "--dataset", "toy-images", "--noise", 0.3], "--noise applies to two-spiral; toy-images takes no noise"),
    ], ids=["dapa-stats-degree-3", "toy-images-noise"])
    def test_value_the_command_cannot_use_exits_2(self, tmp_path, capsys, argv, reason):
        """A value the command would fail on or ignore is a usage error,
        refused before any fit or write."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", out])
        assert exc.value.code == 2
        stdout, err = capsys.readouterr()
        assert reason in err and "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("arch, columns, shape, takes", [
        ("mlp", 3, "(3,)", "(2,)"),
        ("smallcnn", 4, "(4,)", "(1, 4, 4)"),
        ("mlp", None, "(1, 8, 8)", "(2,)"),
    ], ids=["mlp-3-features", "smallcnn-4-features", "mlp-images"])
    def test_dataset_the_arch_does_not_take_is_refused_before_training(
            self, tmp_path, capsys, monkeypatch, arch, columns, shape, takes):
        """Examples of another shape than the architecture's input are a usage
        error naming the architecture and both shapes, before pretraining."""
        import arp.cli as cli
        from arp.data import save_csv

        if columns is None:
            data = tmp_path / "images.arim"
            run(["gen-data", "--dataset", "toy-images", "--n", 16, "--out", data])
        else:
            data = tmp_path / "points.csv"
            save_csv(data, np.random.default_rng(0).normal(size=(16, columns)), np.arange(16) % 2)
        capsys.readouterr()
        monkeypatch.setattr(cli, "train_supervised", lambda *a, **kw: pytest.fail("pretraining started"))
        with pytest.raises(SystemExit) as exc:
            run(["train-replace", "--dataset", data, "--arch", arch, "--budget", 8,
                 "--out", tmp_path / "m.arpm"])
        assert exc.value.code == 2
        stdout, err = capsys.readouterr()
        assert f"--arch {arch} takes examples of shape {takes}, but {data} holds examples of shape {shape}" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not (tmp_path / "m.arpm").exists()

    def test_budget_above_activation_count_refused_before_training(self, tmp_path, capsys):
        data = tmp_path / "spiral.csv"
        run(["gen-data", "--n", 64, "--out", data])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["train-replace", "--dataset", data, "--out", tmp_path / "m.arpm", "--budget", 129])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "budget 129 exceeds 128 activation elements" in err and "Traceback" not in err
        assert "baseline" not in out  # refused before pretraining
        assert not (tmp_path / "m.arpm").exists()

    def test_smallcnn_on_points_refused_before_training(self, tmp_path, capsys):
        data = tmp_path / "spiral.csv"
        run(["gen-data", "--n", 64, "--out", data])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["train-replace", "--dataset", data, "--out", tmp_path / "m.arpm", "--budget", 8,
                 "--arch", "smallcnn"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "positive multiple of 4, got 2" in err and "Traceback" not in err
        assert "baseline" not in out
        assert not (tmp_path / "m.arpm").exists()

    @pytest.mark.parametrize("command, ring, reason", [
        ("train-replace", ["--fixed-bits", 70], "total_bits must be in [8, 64], got 70"),
        ("export", ["--fixed-bits", 7], "total_bits must be in [8, 64], got 7"),
        ("export", ["--frac-bits", 63], "frac_bits must be in [0, 62], got 63"),
    ], ids=["train-replace-L70", "export-L7", "export-f63"])
    def test_ring_no_ring_takes_refused_before_training(self, tmp_path, capsys, command, ring, reason):
        """Ring flags that no ring can take are usage errors, refused before
        any training or model loading."""
        from arp.model_io import save_model
        from arp.nn import build_model

        data, model, out = tmp_path / "spiral.csv", tmp_path / "in.arpm", tmp_path / "out.arpm"
        run(["gen-data", "--n", 64, "--out", data])
        save_model(model, build_model("mlp", seed=0), FixedConfig(64, 16))
        capsys.readouterr()
        argv = {"train-replace": ["--dataset", data, "--budget", 8, "--epochs", 1, "--pretrain-epochs", 1],
                "export": ["--model", model]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *argv, "--out", out, *ring])
        assert exc.value.code == 2
        stdout, err = capsys.readouterr()
        assert reason in err and "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    def test_dataset_too_small_to_split_is_refused(self, tmp_path, capsys, monkeypatch):
        """One example leaves no training row in the 80/20 split: exit 4 with
        one line, before the model is built."""
        import arp.cli as cli

        data = tmp_path / "one.arim"
        run(["gen-data", "--dataset", "toy-images", "--n", 1, "--out", data])
        capsys.readouterr()
        monkeypatch.setattr(cli, "build_model", lambda *a, **kw: pytest.fail("model built"))
        assert run(["train-replace", "--dataset", data, "--arch", "smallcnn", "--budget", 0,
                    "--out", tmp_path / "m.arpm"]) == 4
        stdout, err = capsys.readouterr()
        assert err == f"i/o or format error: {data}: 1 example(s) leave no training row in the " \
                      "80/20 train/test split; need at least 2\n"
        assert stdout == ""
        assert not (tmp_path / "m.arpm").exists()

    @pytest.mark.parametrize("argv,env,name", [
        (["gen-data", "--dataset", "toy-images", "--n", -3], None, "argument --n"),
        (["gen-data", "--n", 0], None, "argument --n"),
        (["gen-data", "--seed", -1], None, "argument --seed"),
        (["gen-data", "--noise", "nan"], None, "argument --noise"),
        (["gen-data", "--noise", -0.1], None, "argument --noise"),
        (["gen-data"], "abc", "ARP_SEED"),
        (["gen-data"], "-1", "ARP_SEED"),
    ], ids=["toy-n", "zero-n", "seed", "nan-noise", "negative-noise", "env-text", "env-negative"])
    def test_seed_and_size_usage_exit(self, tmp_path, capsys, monkeypatch, argv, env, name):
        """Seeds, dataset sizes and noise are refused at parse time, before
        any file is written."""
        if env is not None:
            monkeypatch.setenv("ARP_SEED", env)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{name}: expected" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0,0", "1", "1,-2", "a,1", "0,nan", "1,2,3"])
    def test_dapa_stats_usage_exit(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["dapa-fit", "--stats", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --stats: expected MU,VAR" in err and "Traceback" not in err


def test_missed_relu_budget_exit_code(tmp_path, capsys):
    """A replacement run that cannot reach its budget exits 8 with one line."""
    data = tmp_path / "spiral.csv"
    run(["gen-data", "--n", 64, "--out", data])
    capsys.readouterr()
    code = run(["train-replace", "--dataset", data, "--out", tmp_path / "m.arpm", "--budget", 8,
                "--epochs", 1, "--pretrain-epochs", 1])
    assert code == 8
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "did not reach the budget: 128 > 8" in err
    assert not (tmp_path / "m.arpm").exists()


class TestRoleFlags:
    """infer-private refuses a role flag that contradicts --party or that the
    mode would ignore, before it reads any file."""

    TCP = "tcp mode takes --party 0 with --listen HOST:PORT, or --party 1 with --connect HOST:PORT"

    @pytest.mark.parametrize("flags,reason", [
        (["--party", 0], "--party applies to tcp mode"),
        (["--listen", "127.0.0.1:9"], "--listen applies to tcp mode"),
        (["--connect", "127.0.0.1:9"], "--connect applies to tcp mode"),
        (["--mode", "tcp", "--listen", "127.0.0.1:9"], TCP),
        (["--mode", "tcp", "--party", 0], TCP),
        (["--mode", "tcp", "--party", 1], TCP),
        (["--mode", "tcp", "--party", 0, "--connect", "127.0.0.1:9"], TCP),
        (["--mode", "tcp", "--party", 1, "--listen", "127.0.0.1:9"], TCP),
        (["--mode", "tcp", "--party", 0, "--listen", "127.0.0.1:9", "--connect", "127.0.0.1:9"],
         TCP),
    ], ids=["memory-party", "memory-listen", "memory-connect", "no-party", "party0-alone",
            "party1-alone", "party0-connect", "party1-listen", "both-addresses"])
    def test_usage_exit(self, flags, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["infer-private", "--model", "m.arpm", "--inputs", "d.csv", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "spiral.csv"
    model = root / "model.arpm"
    run(["gen-data", "--n", 256, "--seed", 3, "--out", data])
    code = run([
        "train-replace", "--dataset", data, "--budget", 64,
        "--pretrain-epochs", 40, "--epochs", 10, "--seed", 0,
        "--out", model, "--history", root / "hist.json",
    ])
    assert code == 0
    return root, data, model


class TestPipeline:

    def test_history_written(self, artifacts):
        root, _, _ = artifacts
        rows = json.loads((root / "hist.json").read_text())["epochs"]
        assert {"epoch", "accuracy", "relu_count", "flips"} <= set(rows[0])

    def test_infer_memory(self, artifacts):
        root, data, model = artifacts
        report = root / "report.json"
        code = run([
            "infer-private", "--model", model, "--inputs", data, "--limit", 16,
            "--report", report,
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["examples"]["plain_class"]) == 16
        assert list(doc["phases"]) == ["dealer", "linear", "comparison", "polynomial"]

    def test_export_reencodes(self, artifacts):
        root, _, model = artifacts
        out = root / "model32.arpm"
        assert run(["export", "--model", model, "--out", out,
                    "--fixed-bits", 32, "--frac-bits", 12]) == 0
        from arp.model_io import load_model

        _, cfg, _ = load_model(out)
        assert (cfg.total_bits, cfg.frac_bits) == (32, 12)

    @pytest.mark.parametrize("frac_bits,code", [(20, 6), (8, 0)])
    def test_budget_breach_exit_code(self, artifacts, capsys, frac_bits, code):
        """At L=32 truncation is exact, so f=8 meets the declared budget; at
        f=20 a product at scale 2f does not fit the ring and the logits miss
        it.  The run still writes its report, then exits 6."""
        root, data, model = artifacts
        ring = root / f"model32f{frac_bits}.arpm"
        report = root / f"report32f{frac_bits}.json"
        assert run(["export", "--model", model, "--out", ring,
                    "--fixed-bits", 32, "--frac-bits", frac_bits]) == 0
        assert run(["infer-private", "--model", ring, "--inputs", data, "--report", report]) == code
        err = capsys.readouterr().err
        doc = json.loads(report.read_text())
        assert doc["within_budget"] == (code == 0)
        breach = f"logits outside the declared error budget: max_dev_ulp={doc['max_dev_ulp']:.3f} " \
                 f"> budget_ulp={doc['budget_ulp']}"
        assert (breach in err) == (code == 6)

    def test_missing_file_exit_code(self, tmp_path):
        assert run(["infer-private", "--model", tmp_path / "nope.arpm",
                    "--inputs", tmp_path / "nope.csv"]) == 4

    def test_corrupt_model_exit_code(self, artifacts, tmp_path):
        _, data, model = artifacts
        bad = tmp_path / "bad.arpm"
        raw = bytearray(model.read_bytes())
        raw[-1] ^= 0xFF
        bad.write_bytes(bytes(raw))
        assert run(["infer-private", "--model", bad, "--inputs", data]) == 4

    def test_zero_pooling_factor_exit_code(self, tmp_path, capsys):
        from arp.model_io import save_model
        from arp.nn import AvgPool2d, build_model

        images = tmp_path / "imgs.arim"
        assert run(["gen-data", "--dataset", "toy-images", "--n", 8, "--out", images]) == 0
        model = build_model("smallcnn", seed=0, num_classes=4)
        next(layer for layer in model.layers if isinstance(layer, AvgPool2d)).k = 0
        save_model(tmp_path / "pool0.arpm", model, FixedConfig(64, 16))
        assert run(["infer-private", "--model", tmp_path / "pool0.arpm", "--inputs", images]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: avgpool factor 0") and "Traceback" not in err

    def test_cubic_model_exit_code(self, artifacts, tmp_path, capsys):
        """A degree-3 layer is refused on load, not run with its cubic term dropped."""
        from arp.model_io import save_model
        from arp.nn import build_model

        _, data, _ = artifacts
        model = build_model("mlp", seed=0)
        act = model.hybrid_layers()[0]
        act.coeffs = np.zeros((act.feat_shape[0], 4))
        cubic = tmp_path / "cubic.arpm"
        save_model(cubic, model, FixedConfig(64, 16))
        assert run(["infer-private", "--model", cubic, "--inputs", data]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: hybrid degree 3") and "Traceback" not in err

    def test_misshapen_bias_exit_code(self, artifacts, tmp_path, capsys):
        """A first Dense bias of 3 values for 64 outputs is a format error on
        load, not a broadcast error in the first forward pass."""
        from arp.model_io import save_model
        from arp.nn import build_model

        _, data, _ = artifacts
        model = build_model("mlp", seed=0)
        model.layers[0].b.value = np.zeros(3)
        bad = tmp_path / "bias3.arpm"
        save_model(bad, model, FixedConfig(64, 16))
        assert run(["infer-private", "--model", bad, "--inputs", data]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: dense bias shape") and "Traceback" not in err

    def test_mask_of_two_exit_code(self, artifacts, tmp_path, capsys):
        """A hybrid mask entry of 2 is a format error on load, not a run whose
        oracle doubles a ReLU the secure path keeps plain."""
        from arp.model_io import save_model
        from arp.nn import build_model

        _, data, _ = artifacts
        model = build_model("mlp", seed=0)
        model.hybrid_layers()[0].indicator.m.reshape(-1)[0] = 2
        bad = tmp_path / "mask2.arpm"
        save_model(bad, model, FixedConfig(64, 16))
        assert run(["infer-private", "--model", bad, "--inputs", data]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: hybrid mask of layer 1 holds 2") and "Traceback" not in err

    def test_impossible_ring_exit_code(self, artifacts, tmp_path, capsys):
        """The model digest does not cover the header, so a header ring of
        L=70 is refused on load as a format error, not a ValueError traceback."""
        _, data, model = artifacts
        raw = bytearray(model.read_bytes())
        raw[6:8] = (70).to_bytes(2, "little")  # L, after the magic and version
        bad = tmp_path / "ring70.arpm"
        bad.write_bytes(bytes(raw))
        assert run(["infer-private", "--model", bad, "--inputs", data]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: bad ring in model file header: "
                              "total_bits must be in [8, 64], got 70")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("role", ["--listen", "--connect"])
    def test_missing_peer_exit_code(self, artifacts, capsys, role):
        _, data, model = artifacts
        code = run(["infer-private", "--model", model, "--inputs", data, "--limit", 4,
                    "--mode", "tcp", "--party", 0 if role == "--listen" else 1,
                    role, f"127.0.0.1:{free_port()}", "--timeout", 0.3])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("peer/transport error: ") and "Traceback" not in err

    def test_memory_run_takes_the_timeout(self, artifacts, monkeypatch):
        import arp.cli

        _, data, model = artifacts
        seen = []

        def recording(*args, timeout):
            seen.append(timeout)
            return private_inference_memory(*args, timeout=timeout)

        monkeypatch.setattr(arp.cli, "private_inference_memory", recording)
        assert run(["infer-private", "--model", model, "--inputs", data, "--limit", 4,
                    "--timeout", 2.5]) == 0
        assert seen == [2.5]

    def test_desync_exit_code(self, artifacts, capsys):
        """Parties with different batch sizes desync at the first opening: a party
        that sees it exits 7, and its peer exits 7 too or loses the connection (5)."""
        from threading import Thread

        _, data, model = artifacts
        address = f"127.0.0.1:{free_port()}"
        codes = [None, None]

        def party(i, limit, role):
            codes[i] = run(["infer-private", "--model", model, "--inputs", data,
                            "--limit", limit, "--mode", "tcp", "--party", i, role, address,
                            "--timeout", 10])

        threads = [Thread(target=party, args=(0, 8, "--listen"), daemon=True),
                   Thread(target=party, args=(1, 7, "--connect"), daemon=True)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        err = capsys.readouterr().err
        assert 7 in codes and set(codes) <= {5, 7}, codes
        assert "protocol desync: peer sent a " in err and "Traceback" not in err

    def test_port_in_use_exit_code(self, artifacts, capsys):
        import socket

        _, data, model = artifacts
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            port = held.getsockname()[1]
            code = run(["infer-private", "--model", model, "--inputs", data, "--limit", 4,
                        "--mode", "tcp", "--party", 0, "--listen", f"127.0.0.1:{port}",
                        "--timeout", 0.3])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith(f"peer/transport error: cannot listen on 127.0.0.1:{port}")


class TestRefusedInputs:
    """Inputs the model or the ring cannot take exit 4 with one stderr line,
    before any tape is dealt."""

    @pytest.fixture(scope="class")
    def files(self, artifacts, tmp_path_factory):
        from arp.data import save_csv, toy_images, write_arim
        from arp.model_io import save_model
        from arp.nn import build_model

        root = tmp_path_factory.mktemp("refused")
        _, spiral, mlp = artifacts
        cnn = root / "cnn8.arpm"
        save_model(cnn, build_model("smallcnn", seed=0, num_classes=4), FixedConfig(64, 16))
        for hw in (8, 12):
            write_arim(root / f"imgs{hw}.arim", *toy_images(4, hw=hw, seed=1))
        save_csv(root / "three.csv", np.ones((4, 3)), np.zeros(4, dtype=np.int64))
        (root / "abc.csv").write_text("x0,x1,label\n1,abc,0\n")
        (root / "nan.csv").write_text("x0,x1,label\n0.1,nan,0\n")
        (root / "big.csv").write_text("x0,x1,label\n0.1,1e6,0\n")
        assert run(["export", "--model", mlp, "--out", root / "mlp32.arpm",
                    "--fixed-bits", 32, "--frac-bits", 12]) == 0
        return {"mlp": mlp, "cnn8": cnn, "mlp32": root / "mlp32.arpm", "spiral": spiral,
                **{p.stem: p for p in root.iterdir() if p.suffix in (".csv", ".arim")}}

    @staticmethod
    def _refused(argv, capsys, monkeypatch, expect: str):
        from arp.dealer import Dealer

        dealt = []
        build_tapes = Dealer.build_tapes
        monkeypatch.setattr(Dealer, "build_tapes",
                            lambda self, *a, **kw: dealt.append(1) or build_tapes(self, *a, **kw))
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o or format error: ") and expect in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not dealt

    @pytest.mark.parametrize("model, inputs, expect", [
        ("mlp", "imgs8", "layer 0 (Dense) takes input (batch, 2), got (4, 1, 8, 8)"),
        ("cnn8", "spiral", "layer 0 (Conv2d) takes input (batch, 1, H, W) with a non-empty output, "
                          "got (256, 2)"),
        ("mlp", "three", "layer 0 (Dense) takes input (batch, 2), got (4, 3)"),
        ("cnn8", "imgs12", "layer 1 (HybridActivation) takes input (batch, 8, 8, 8), "
                           "got (4, 8, 12, 12)"),
    ], ids=["mlp-on-images", "cnn-on-points", "mlp-on-3-features", "cnn8-on-12x12"])
    def test_inputs_that_do_not_fit_the_model(self, files, capsys, monkeypatch, model, inputs,
                                              expect):
        self._refused(["infer-private", "--model", files[model], "--inputs", files[inputs]],
                      capsys, monkeypatch, expect)

    def test_misfit_refused_in_tcp_mode_before_the_peer(self, files, capsys, monkeypatch):
        self._refused(["infer-private", "--model", files["mlp"], "--inputs", files["imgs8"],
                       "--mode", "tcp", "--party", 1, "--connect", f"127.0.0.1:{free_port()}",
                       "--timeout", 0.3], capsys, monkeypatch, "layer 0 (Dense)")

    def test_non_numeric_csv(self, files, capsys, monkeypatch):
        bad = files["abc"]
        expect = f"{bad}: could not convert string 'abc'"
        self._refused(["infer-private", "--model", files["mlp"], "--inputs", bad],
                      capsys, monkeypatch, expect)
        self._refused(["train-replace", "--dataset", bad, "--budget", 4, "--out",
                       bad.with_suffix(".arpm")], capsys, monkeypatch, expect)
        assert not bad.with_suffix(".arpm").exists()

    @pytest.mark.parametrize("text, expect", [
        ("x0,x1,label\n", "no data rows after the header line"),
        ("x0,x1,label\n0.1,0.2,0\n0.3,0.1,-1\n", "data row 2 has label -1, not a non-negative integer"),
        ("x0,x1,label\n0.1,0.2,0.5\n", "data row 1 has label 0.5, not a non-negative integer"),
    ], ids=["header-only", "negative-label", "fractional-label"])
    def test_csv_it_would_misread(self, files, tmp_path, capsys, monkeypatch, text, expect):
        """No rows, and labels that are not class indices, are refused naming
        the file; no warning is printed on the way."""
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "m.arpm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["infer-private", "--model", files["mlp"], "--inputs", bad],
                         ["train-replace", "--dataset", bad, "--budget", 4, "--out", out]):
                self._refused(argv, capsys, monkeypatch, f"{bad}: {expect}")
        assert not out.exists()

    @pytest.mark.parametrize("raw, expect", [
        (b"ARIM\x01\x00", "ARIM file truncated"),
        (b"ARIM" + bytes(12), "ARIM file holds no images"),
    ], ids=["short-header", "no-images"])
    def test_arim_it_cannot_read(self, files, tmp_path, capsys, monkeypatch, raw, expect):
        """A short ARIM file, or one with no images, exits 4 naming the file
        from both commands that read images."""
        bad = tmp_path / "bad.arim"
        bad.write_bytes(raw)
        out = tmp_path / "m.arpm"
        for argv in (["infer-private", "--model", files["cnn8"], "--inputs", bad],
                     ["train-replace", "--dataset", bad, "--arch", "smallcnn", "--budget", 4, "--out", out]):
            self._refused(argv, capsys, monkeypatch, f"{bad}: {expect}")
        assert not out.exists()

    @pytest.mark.parametrize("model, inputs, expect", [
        ("mlp", "nan", "value nan at flat index 1 is not finite"),
        ("mlp32", "big", "value 1000000.0 at flat index 1 outside representable range"),
    ], ids=["nan", "beyond-L32-f12"])
    def test_values_the_ring_cannot_hold(self, files, capsys, monkeypatch, model, inputs, expect):
        self._refused(["infer-private", "--model", files[model], "--inputs", files[inputs]],
                      capsys, monkeypatch, expect)
