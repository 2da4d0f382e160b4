import argparse
import base64
import contextlib
import copy
import io
import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascade_guard import cli, dataio
from cascade_guard.autograd import forward_pass
from cascade_guard.cli import _build_parser, _optional_flags, main
from cascade_guard.victim import layer_outputs_batch, predict_batch


def run(args):
    return main([str(a) for a in args])


def assert_same_files(one, two):
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def first_f64_set(text, value):
    """A base64 float64 payload with its first entry replaced by value."""
    values = np.frombuffer(base64.b64decode(text), dtype="<f8").copy()
    values[0] = value
    return base64.b64encode(values.tobytes()).decode("ascii")


def read_eval_summary(path):
    lines = Path(path).read_text().strip().splitlines()
    summary = lines[-1]
    assert summary.startswith("# summary ")
    fields = dict(part.split("=") for part in summary[len("# summary "):].split())
    return {k: float(v) for k, v in fields.items()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full fixed-seed pipeline driven exclusively through the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    bank = root / "bank"
    net = root / "net.json"
    advs_train = root / "advs_train"
    advs_test = root / "advs_test"
    advs_ea = root / "advs_ea"
    det = root / "det.json"

    assert run(["synth-data", "--seed", 7, "--n-per-class", 120, "--out", data]) == 0
    assert run(["synth-data", "--seed", 8, "--n-per-class", 150, "--out", bank]) == 0
    assert run(["train-victim", "--data", data, "--seed", 4, "--out", net]) == 0
    assert run(["attack", "--net", net, "--data", bank, "--split", "train",
                "--kind", "gradient-box", "--n", 250, "--seed", 7,
                "--out", advs_train]) == 0
    assert run(["attack", "--net", net, "--data", bank, "--split", "val",
                "--kind", "gradient-box", "--n", 150, "--seed", 9,
                "--out", advs_test]) == 0
    assert run(["attack", "--net", net, "--data", bank, "--kind", "evolutionary",
                "--n", 40, "--seed", 11, "--generations", 300,
                "--out", advs_ea]) == 0
    assert run(["fit-detector", "--net", net, "--normals", bank,
                "--split", "train", "--adversarials", advs_train,
                "--seed", 2, "--out", det]) == 0
    return root


class TestPipeline:
    def test_evaluate_auc_meets_regression_baseline(self, pipeline):
        out = pipeline / "eval.csv"
        assert run(["evaluate", "--detector", pipeline / "det.json",
                    "--net", pipeline / "net.json", "--normals", pipeline / "bank",
                    "--split", "test", "--adversarials", pipeline / "advs_test",
                    "--out-csv", out]) == 0
        summary = read_eval_summary(out)
        assert summary["auc"] >= 0.85
        header = out.read_text().splitlines()[0]
        assert header == "threshold,fpr,tpr"

    def test_cross_attack_transfer_auc(self, pipeline):
        out = pipeline / "eval_ea.csv"
        assert run(["evaluate", "--detector", pipeline / "det.json",
                    "--net", pipeline / "net.json", "--normals", pipeline / "bank",
                    "--split", "test", "--adversarials", pipeline / "advs_ea",
                    "--out-csv", out]) == 0
        assert read_eval_summary(out)["auc"] >= 0.9

    def test_census_csv(self, pipeline):
        out = pipeline / "census.csv"
        assert run(["census", "--net", pipeline / "net.json",
                    "--normals", pipeline / "bank", "--split", "test",
                    "--adversarials", pipeline / "advs_test",
                    "--out-csv", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("threshold,normal_raw_mean,normal_softmax_mean,"
                            "adv_raw_mean,adv_softmax_mean")
        assert len(lines) == 26

    def test_spectral_csv(self, pipeline):
        out = pipeline / "spectral.csv"
        assert run(["spectral", "--net", pipeline / "net.json",
                    "--normals", pipeline / "bank", "--split", "test",
                    "--adversarials", pipeline / "advs_test",
                    "--out-csv", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("eigenvector,eigenvalue,")
        assert len(lines) == 401  # 400 flattened penultimate features

    def test_recover_csv(self, pipeline):
        out = pipeline / "recover.csv"
        assert run(["recover", "--detector", pipeline / "det.json",
                    "--net", pipeline / "net.json",
                    "--adversarials", pipeline / "advs_test",
                    "--k", 3, "--out-csv", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "attack_kind,k,n,pre_acc,post_acc"
        kind, k, n, pre, post = lines[1].split(",")
        assert kind == "gradient-box"
        assert float(post) > float(pre)

    def test_selfaware_csv(self, pipeline):
        out = pipeline / "selfaware.csv"
        assert run(["selfaware", "--detector", pipeline / "det.json",
                    "--net", pipeline / "net.json",
                    "--mixture", f"{pipeline / 'bank'},{pipeline / 'advs_test'}",
                    "--eq", 10.0, "--ea-range", "2:8:13",
                    "--out-csv", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "e_a,abstain_fraction,retained_accuracy,expected_loss"
        assert len(lines) == 14
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 2.0 and last[0] == 8.0
        # abstention shrinks as the abstain cost grows
        assert first[1] >= last[1]


class TestFitDetector:
    def test_each_image_is_forwarded_once(self, pipeline, tmp_path, monkeypatch):
        import cascade_guard.victim as victim_module

        rows = []
        original = victim_module.forward_pass

        def counting(layers, weights, x, *args, **kwargs):
            rows.append(len(x))
            return original(layers, weights, x, *args, **kwargs)

        monkeypatch.setattr(victim_module, "forward_pass", counting)
        assert run(["fit-detector", "--net", pipeline / "net.json",
                    "--normals", pipeline / "bank", "--split", "train",
                    "--adversarials", pipeline / "advs_train",
                    "--seed", 2, "--out", tmp_path / "det.json"]) == 0
        monkeypatch.undo()
        n_train = len(dataio.load_dataset(pipeline / "bank").indices("train"))
        n_advs = sum(r.success for r in dataio.load_adversarial_batch(pipeline / "advs_train"))
        assert sum(rows) == n_train + n_advs
        assert (tmp_path / "det.json").read_bytes() == (pipeline / "det.json").read_bytes()

    @pytest.mark.parametrize("libc", ["glibc", "no-malloc-trim", "no-libc"])
    def test_heap_trimmed_once_before_training(self, pipeline, tmp_path, monkeypatch, libc):
        import cascade_guard.cli as cli_module

        events = []

        class Glibc:
            def malloc_trim(self, pad):
                events.append(("malloc_trim", pad))

        def cdll(name):
            if libc == "no-libc":
                raise OSError(f"{name}: cannot open shared object file")
            return Glibc() if libc == "glibc" else object()

        def logged(name):
            original = getattr(cli_module, name)

            def call(*args, **kwargs):
                events.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(cli_module, name, call)

        monkeypatch.setattr(cli_module.ctypes, "CDLL", cdll)
        logged("layer_outputs_batch")
        logged("fit_pca_bank")
        logged("train_cascade")
        assert run(["fit-detector", "--net", pipeline / "net.json",
                    "--normals", pipeline / "bank", "--split", "train",
                    "--adversarials", pipeline / "advs_train",
                    "--seed", 2, "--out", tmp_path / "det.json"]) == 0
        monkeypatch.undo()
        # Once before each of the two forwards, the bank fits (one per conv
        # layer, after both forwards) and the training.
        trim = [("malloc_trim", 0)] if libc == "glibc" else []
        assert events == (trim + ["layer_outputs_batch"] + trim + ["layer_outputs_batch"]
                          + trim + ["fit_pca_bank"] * 2 + trim + ["train_cascade"])
        assert (tmp_path / "det.json").read_bytes() == (pipeline / "det.json").read_bytes()


class TestSelfaware:
    def test_each_image_is_forwarded_once(self, pipeline, tmp_path, monkeypatch):
        import cascade_guard.victim as victim_module

        args = ["selfaware", "--detector", pipeline / "det.json", "--net", pipeline / "net.json",
                "--mixture", f"{pipeline / 'bank'},{pipeline / 'advs_test'}"]
        assert run([*args, "--out-csv", tmp_path / "plain.csv"]) == 0
        rows = []
        original = victim_module.forward_pass

        def counting(layers, weights, x, *args, **kwargs):
            rows.append(len(x))
            return original(layers, weights, x, *args, **kwargs)

        monkeypatch.setattr(victim_module, "forward_pass", counting)
        assert run([*args, "--out-csv", tmp_path / "counted.csv"]) == 0
        monkeypatch.undo()
        bank = dataio.load_dataset(pipeline / "bank")
        n_val, n_test = len(bank.indices("val")), len(bank.indices("test"))
        n_advs = len(dataio.load_adversarial_batch(pipeline / "advs_test"))
        assert sum(rows) == n_val + n_test + n_advs
        assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestCensus:
    def test_normals_are_forwarded_once(self, pipeline, tmp_path, monkeypatch):
        import cascade_guard.victim as victim_module

        args = ["census", "--net", pipeline / "net.json", "--normals", pipeline / "bank"]
        n_test = len(dataio.load_dataset(pipeline / "bank").indices("test"))
        rows = []
        original = victim_module.forward_pass

        def counting(layers, weights, x, *args, **kwargs):
            rows.append(len(x))
            return original(layers, weights, x, *args, **kwargs)

        for extra in ([], ["--thresholds", "0.5,2"]):
            assert run([*args, *extra, "--out-csv", tmp_path / "plain.csv"]) == 0
            monkeypatch.setattr(victim_module, "forward_pass", counting)
            rows.clear()
            assert run([*args, *extra, "--out-csv", tmp_path / "counted.csv"]) == 0
            monkeypatch.undo()
            assert sum(rows) == n_test
            assert (tmp_path / "counted.csv").read_bytes() == \
                (tmp_path / "plain.csv").read_bytes()

        monkeypatch.setattr(victim_module, "forward_pass", counting)
        rows.clear()
        assert run([*args, "--thresholds", "a,b", "--out-csv", tmp_path / "bad.csv"]) == 1
        assert rows == []


class TestSpectral:
    def test_conv_layer_above_network_count_fails_before_forwarding(
            self, pipeline, tmp_path, capsys, monkeypatch):
        import cascade_guard.victim as victim_module

        rows = []
        original = victim_module.forward_pass

        def counting(layers, weights, x, *args, **kwargs):
            rows.append(len(x))
            return original(layers, weights, x, *args, **kwargs)

        monkeypatch.setattr(victim_module, "forward_pass", counting)
        code = run(["spectral", "--net", pipeline / "net.json", "--normals", pipeline / "bank",
                    "--adversarials", pipeline / "advs_test", "--layer", 9,
                    "--out-csv", tmp_path / "out.csv"])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == "ERROR 1: conv layer 9 out of range (1..2)\n"
        assert rows == []
        assert list(tmp_path.iterdir()) == []


class TestRecover:
    def test_flagged_records_are_forwarded_once(self, tmp_path, monkeypatch):
        import cascade_guard.victim as victim_module

        net, det, advs = tmp_path / "net.json", tmp_path / "det.json", tmp_path / "advs"
        assert run(["synth-data", "--seed", 1, "--n-per-class", 20,
                    "--out", tmp_path / "data"]) == 0
        assert run(["train-victim", "--data", tmp_path / "data", "--seed", 4,
                    "--out", net]) == 0
        assert run(["attack", "--net", net, "--data", tmp_path / "data", "--split", "train",
                    "--n", 40, "--seed", 7, "--out", advs]) == 0
        assert run(["fit-detector", "--net", net, "--normals", tmp_path / "data",
                    "--adversarials", advs, "--successful-only", "false", "--seed", 2,
                    "--out", det]) == 0
        rows = []
        original = victim_module.forward_pass

        def counting(layers, weights, x, *args, **kwargs):
            rows.append(len(x))
            return original(layers, weights, x, *args, **kwargs)

        monkeypatch.setattr(victim_module, "forward_pass", counting)
        assert run(["recover", "--detector", det, "--net", net, "--adversarials", advs,
                    "--k", 3, "--out-csv", tmp_path / "recover.csv"]) == 0
        monkeypatch.undo()
        n_flagged = int((tmp_path / "recover.csv").read_text().splitlines()[1].split(",")[2])
        # The detector's pass over all 40 records, then the flagged ones filtered.
        assert rows == [40, n_flagged]


# Every layer kind; a conv with stride 2 and padding 1, and a conv that a
# maxpool follows directly, so its own output is the captured activation.
SPEC_OF_EVERY_KIND = {
    "input_dims": [28, 28, 1],
    "classes": 10,
    "layers": [
        {"kind": "conv", "filters": 4, "kernel": 3, "stride": 2, "padding": 1},
        {"kind": "relu"},
        {"kind": "conv", "filters": 6, "kernel": 3, "stride": 1, "padding": 0},
        {"kind": "maxpool", "window": 2, "stride": 2},
        {"kind": "dense", "units": 10},
        {"kind": "softmax"},
    ],
}


class TestTrainVictimSpec:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("spec")
        (root / "spec.json").write_text(json.dumps(SPEC_OF_EVERY_KIND))
        assert run(["synth-data", "--seed", 1, "--n-per-class", 3, "--out", root / "data"]) == 0
        assert run(["train-victim", "--data", root / "data", "--spec", root / "spec.json",
                    "--epochs", 1, "--out", root / "net.json"]) == 0
        return root

    def test_spec_json_round_trips(self):
        spec = dataio.spec_from_json(SPEC_OF_EVERY_KIND)
        assert dataio.spec_to_json(spec) == SPEC_OF_EVERY_KIND

    def test_saved_loaded_and_saved_network_is_byte_identical(self, trained, tmp_path):
        net = dataio.load_network(trained / "net.json")
        assert dataio.spec_to_json(net.spec) == SPEC_OF_EVERY_KIND
        dataio.save_network(tmp_path / "again.json", net)
        assert (tmp_path / "again.json").read_bytes() == (trained / "net.json").read_bytes()

    def test_conv_before_maxpool_captures_its_own_output(self, trained):
        net = dataio.load_network(trained / "net.json")
        images = dataio.load_dataset(trained / "data").images[:5]
        first, second = layer_outputs_batch(net, images)
        relu_out, _, _ = forward_pass(net.spec.layers[:2], net.weights[:2], images)
        conv_out, _, _ = forward_pass(net.spec.layers[:3], net.weights[:3], images)
        assert first.tobytes() == relu_out.tobytes()
        assert second.tobytes() == conv_out.tobytes()
        assert (second < 0).any()  # not rectified

    @pytest.mark.parametrize("key,value", [
        ("kind", ["conv"]), ("kind", "deconv"), ("filters", None), ("kernel", 3.0),
    ], ids=["list-kind", "unknown-kind", "missing-filters", "float-kernel"])
    def test_malformed_layer_exits_one(self, trained, tmp_path, capsys, key, value):
        spec = copy.deepcopy(SPEC_OF_EVERY_KIND)
        if value is None:
            del spec["layers"][0][key]
        else:
            spec["layers"][0][key] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        code = run(["train-victim", "--data", trained / "data", "--spec", tmp_path / "spec.json",
                    "--epochs", 1, "--out", tmp_path / "net.json"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1, err
        assert not (tmp_path / "net.json").exists()


class TestReproducibility:
    def test_synth_data_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["synth-data", "--seed", 3, "--n-per-class", 20, "--out", a]) == 0
        assert run(["synth-data", "--seed", 3, "--n-per-class", 20, "--out", b]) == 0
        for name in ("images.idx", "labels.idx", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_attack_thread_count_does_not_change_outputs(self, pipeline, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "_ATTACK_CHUNK", 8)
        one = tmp_path / "t1"
        two = tmp_path / "t2"
        for out, threads in ((one, 1), (two, 4)):
            assert run(["attack", "--net", pipeline / "net.json",
                        "--data", pipeline / "bank", "--split", "test",
                        "--n", 24, "--seed", 5,
                        "--threads", threads, "--out", out]) == 0
        assert_same_files(one, two)

    @pytest.mark.parametrize("kind, iterations", [("gradient-box", 300),
                                                  ("gradient-sign", 3)])
    def test_attack_chunk_does_not_change_outputs(self, pipeline, tmp_path, monkeypatch,
                                                  kind, iterations):
        # Chunks of 7 leave a one-image tail, and a gradient-box row can be
        # left alone in its chunk's active set; chunks of 1 attack every
        # image alone. A one-row product is the one a 2-D BLAS call rounds
        # differently.
        outs = []
        for chunk in (cli._ATTACK_CHUNK, 7, 1):
            monkeypatch.setattr(cli, "_ATTACK_CHUNK", chunk)
            outs.append(tmp_path / f"chunk{chunk}")
            assert run(["attack", "--net", pipeline / "net.json",
                        "--data", pipeline / "bank", "--split", "test", "--kind", kind,
                        "--n", 22, "--seed", 5, "--iterations", iterations,
                        "--out", outs[-1]]) == 0
        assert_same_files(outs[0], outs[1])
        assert_same_files(outs[0], outs[2])

    def test_evolutionary_thread_count_does_not_change_outputs(self, pipeline, tmp_path):
        outs = []
        for threads in (1, 3):
            outs.append(tmp_path / f"t{threads}")
            assert run(["attack", "--net", pipeline / "net.json", "--data", pipeline / "bank",
                        "--kind", "evolutionary", "--n", 7, "--seed", 5, "--generations", 30,
                        "--threads", threads, "--out", outs[-1]]) == 0
        assert_same_files(outs[0], outs[1])

    def test_gradient_box_thread_count_does_not_change_outputs(self, pipeline, tmp_path):
        # 70 images are two full units and a 6-image tail.
        outs = []
        for threads in (1, 2, 4):
            outs.append(tmp_path / f"t{threads}")
            assert run(["attack", "--net", pipeline / "net.json", "--data", pipeline / "bank",
                        "--split", "test", "--kind", "gradient-box", "--n", 70, "--seed", 5,
                        "--threads", threads, "--out", outs[-1]]) == 0
        assert_same_files(outs[0], outs[1])
        assert_same_files(outs[0], outs[2])

    @pytest.mark.parametrize("usable, affinity, expected", [
        (1, True, 1), (2, True, 2), (64, True, 4), (3, False, 3)])
    def test_default_threads_are_the_usable_cpus_at_most_four(self, monkeypatch, usable,
                                                              affinity, expected):
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(usable)),
                                raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: usable)
        args = _build_parser().parse_args(["attack", "--net", "n", "--data", "d", "--out", "o"])
        assert args.threads == expected

    @pytest.mark.parametrize("libc", ["glibc", "no-mallopt", "no-libc"])
    def test_one_malloc_arena_set_once_per_pool(self, pipeline, tmp_path, monkeypatch, libc):
        events = []

        class Glibc:
            def __init__(self):
                self.mallopt = lambda param, value: events.append(("mallopt", param, value))

        def cdll(name):
            if libc == "no-libc":
                raise OSError(f"{name}: cannot open shared object file")
            return Glibc() if libc == "glibc" else object()

        class Pool(cli.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                events.append("pool")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        common = ["attack", "--net", pipeline / "net.json", "--data", pipeline / "bank",
                  "--seed", 5, "--iterations", 2, "--generations", 2]
        # One thread, or one unit on two, is a plain loop: no pool, no arena cap.
        for threads, n in ((1, 40), (2, 20)):
            assert run([*common, "--n", n, "--threads", threads,
                        "--out", tmp_path / f"loop{threads}"]) == 0
        assert events == []
        assert run([*common, "--n", 40, "--threads", 2, "--out", tmp_path / "box"]) == 0
        assert run([*common, "--kind", "evolutionary", "--n", 3, "--threads", 2,
                    "--out", tmp_path / "ea"]) == 0
        monkeypatch.undo()
        arena = [("mallopt", -8, 1), ("mallopt", -3, 128 * 1024)] if libc == "glibc" else []
        assert events == (arena + ["pool"]) * 2
        assert_same_files(tmp_path / "loop1", tmp_path / "box")

    def test_default_threads_keep_at_most_128_images_in_flight(self, pipeline, tmp_path,
                                                               monkeypatch):
        # Reference: one thread on 128-image chunks, the default before the
        # attacks ran on threads. On 64 usable CPUs the default threads still
        # run at most four 32-image units at once; each of the three other
        # units may hold a column block of the desk conv2 (32 images x 72
        # taps x 121 positions of doubles) where the one chunk held one.
        slack = 3 * 32 * 72 * 121 * 8
        common = ["attack", "--net", pipeline / "net.json", "--data", pipeline / "bank",
                  "--split", "train", "--n", 256, "--seed", 5, "--iterations", 2]

        def peak(*flags):
            tracemalloc.start()
            try:
                assert run([*common, *flags]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_ATTACK_CHUNK", 128)
        serial = peak("--threads", 1, "--out", tmp_path / "serial")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
        threaded = peak("--out", tmp_path / "threaded")
        assert threaded <= serial + slack
        assert_same_files(tmp_path / "serial", tmp_path / "threaded")


class TestTargetPolicy:
    def test_least_likely_targets_argmin_of_raw_scores(self, pipeline, tmp_path):
        out = tmp_path / "ll"
        assert run(["attack", "--net", pipeline / "net.json", "--data", pipeline / "bank",
                    "--split", "test", "--n", 12, "--seed", 3, "--iterations", 2,
                    "--target-policy", "least-likely", "--out", out]) == 0
        records = dataio.load_adversarial_batch(out)
        images, _ = dataio.load_dataset(pipeline / "bank").split("test")
        ids = [r.source_image_id for r in records]
        raw, _, _ = predict_batch(dataio.load_network(pipeline / "net.json"), images[ids])
        assert len(records) == 12
        assert [r.target_label for r in records] == np.argmin(raw, axis=1).tolist()


class TestEdgeCases:
    def test_attack_n_zero_writes_empty_manifest(self, pipeline, tmp_path):
        out = tmp_path / "empty"
        assert run(["attack", "--net", pipeline / "net.json",
                    "--data", pipeline / "bank", "--n", 0, "--out", out]) == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["records"] == []

    def test_gradient_sign_zero_iterations_scores_the_sources(self, pipeline, tmp_path):
        out = tmp_path / "sign0"
        assert run(["attack", "--net", pipeline / "net.json", "--data", pipeline / "bank",
                    "--split", "test", "--kind", "gradient-sign", "--n", 6, "--seed", 3,
                    "--iterations", 0, "--out", out]) == 0
        assert json.loads((out / "manifest.json").read_text())["attack"]["iterations"] == 0
        records = dataio.load_adversarial_batch(out)
        images, _ = dataio.load_dataset(pipeline / "bank").split("test")
        assert len(records) == 6
        for rec in records:
            assert rec.image.array.tobytes() == images[rec.source_image_id].tobytes()
            assert rec.iterations == 0 and rec.l1 == 0.0 and rec.linf == 0.0
            # random-other targets never the victim's own label, so no source succeeds
            assert not rec.success

    def test_config_file_supplies_flags_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=4\nn-per-class=15\n")
        out1 = tmp_path / "d1"
        assert run(["synth-data", "--config", cfg, "--out", out1]) == 0
        ds = dataio.load_dataset(out1)
        assert ds.n == 150 and ds.manifest["seed"] == 4
        out2 = tmp_path / "d2"
        assert run(["synth-data", "--config", cfg, "--n-per-class", 5,
                    "--out", out2]) == 0
        assert dataio.load_dataset(out2).n == 50

    @pytest.mark.parametrize("extra, write, names", [
        ([], None, ["run.cfg"]),
        ([], lambda cfg: cfg.mkdir(), ["run.cfg"]),
        ([], lambda cfg: cfg.write_bytes(b"seed=\xff\n"), ["run.cfg"]),
        ([], lambda cfg: cfg.write_text("seed=abc\n"), ["run.cfg", "--seed"]),
        (["--seed", "4"], lambda cfg: cfg.write_text("seed=abc\n"), ["run.cfg", "--seed"]),
        ([], lambda cfg: cfg.write_text("seed\n"), ["run.cfg", "line 1"]),
        ([], lambda cfg: cfg.write_text("seed=4\nn-per-clas=5\n"), ["run.cfg", "n-per-clas"]),
        (["--n-per-class", "5"], lambda cfg: cfg.write_text("out=elsewhere\n"),
         ["run.cfg", "'out'"]),
        (["--seed", "-1"], lambda cfg: cfg.write_text("n-per-class=5\n"), ["--seed"]),
    ], ids=["missing", "directory", "not-utf8", "value-not-number",
            "overridden-value-not-number", "not-key-value",
            "misspelled-key", "required-flag-key", "seed-negative"])
    def test_config_file_or_flag_error_exits_one(self, tmp_path, capsys, extra, write, names):
        cfg = tmp_path / "run.cfg"
        if write is not None:
            write(cfg)
        code = run(["synth-data", "--config", cfg, *extra, "--out", tmp_path / "data"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert all(name in err for name in names), err
        assert not (tmp_path / "data").exists()


class TestExitCodes:
    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        code = run(["train-victim", "--data", tmp_path / "nope",
                    "--out", tmp_path / "net.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR 1:")
        assert err.count("\n") == 1

    def test_missing_required_flag_is_validation_error(self, capsys):
        assert run(["synth-data", "--seed", 1]) == 1
        assert capsys.readouterr().err.startswith("ERROR 1:")

    def test_corrupt_artifact_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "net.json"
        bad.write_text("{broken")
        code = run(["attack", "--net", bad, "--data", tmp_path, "--n", 1,
                    "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR 1:")

    def test_runtime_failure_is_exit_two(self, pipeline, tmp_path, capsys):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("x")
        code = run(["synth-data", "--seed", 1, "--n-per-class", 2,
                    "--out", blocker / "sub"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    @pytest.mark.parametrize("kind, field, corrupt", [
        ("pca_banks", "e", lambda v: v[:-1]),
        ("stages", "w", lambda v: v[:-1]),
        ("stages", None, lambda v: 5),
        ("pca_banks", "e", lambda v: 5),
        ("stages", "w", lambda v: base64.b64encode(bytes(7)).decode("ascii")),
        ("pca_banks", "e", lambda v: first_f64_set(v, np.nan)),
        ("pca_banks", "s", lambda v: first_f64_set(v, np.inf)),
        ("stages", "feature_stds", lambda v: first_f64_set(v, np.nan)),
        ("stages", "feature_stds", lambda v: first_f64_set(v, 0.0)),
        ("stages", "tau", lambda v: np.nan),
        (None, "target_tpr", lambda v: 1.5),
    ], ids=["padding-e", "padding-w", "stage-not-object", "e-not-string", "7-byte-w",
            "nan-e", "inf-s", "nan-feature-std", "zero-feature-std", "nan-tau",
            "target-tpr-above-1"])
    def test_corrupt_detector_is_validation_error(self, pipeline, tmp_path, capsys,
                                                  kind, field, corrupt):
        payload = json.loads((pipeline / "det.json").read_text())
        if kind is None:
            payload[field] = corrupt(payload[field])
        elif field is None:
            payload[kind][0] = corrupt(payload[kind][0])
        else:
            payload[kind][0][field] = corrupt(payload[kind][0][field])
        bad = tmp_path / "det.json"
        bad.write_text(json.dumps(payload))
        code = run(["evaluate", "--detector", bad, "--net", pipeline / "net.json",
                    "--normals", pipeline / "bank",
                    "--adversarials", pipeline / "advs_test",
                    "--out-csv", tmp_path / "eval.csv"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1

    @pytest.mark.parametrize("artifact, corrupt", [
        ("net.json", lambda p: p["weights"].pop(0)),
        ("net.json", lambda p: p.update(weights=5)),
        ("net.json", lambda p: p["weights"][0].update(shape=5)),
        ("net.json", lambda p: p["spec"]["layers"].__setitem__(0, 5)),
        ("det.json", lambda p: p.update(pca_banks=5)),
        ("det.json", lambda p: p.update(stages=5)),
        ("advs_test/img_00000.json", lambda p: p.update(dims=5)),
        ("advs_test/manifest.json", lambda p: p.update(records=5)),
        ("bank/manifest.json", lambda p: p.update(splits=5)),
        ("net.json", lambda p: p["spec"].update(input_dims=["a", 28, 1])),
        ("net.json", lambda p: p["spec"]["layers"][0].update(filters="x")),
        ("net.json", lambda p: p["weights"][0].update(layer="x")),
        ("bank/manifest.json", lambda p: p["splits"].update(test=["a"])),
        ("det.json", lambda p: p["stages"][0].update(tau="x")),
        ("advs_test/manifest.json", lambda p: p["records"][0].update(iterations="x")),
        ("bank/manifest.json", lambda p: p["splits"]["test"].extend(p["splits"]["train"][:5])),
        ("advs_test/manifest.json", lambda p: p["records"][0].update(success="no")),
        ("det.json", lambda p: p.update(metadata=5)),
        ("det.json", lambda p: p["metadata"].update(stage_rates=5)),
        ("det.json", lambda p: p["metadata"]["stage_rates"].pop()),
        ("det.json", lambda p: p["metadata"]["stage_rates"].__setitem__(0, 5)),
        ("det.json", lambda p: p["metadata"].update(bank_epsilons=5)),
        ("det.json", lambda p: p["metadata"]["bank_epsilons"].pop()),
        ("net.json", lambda p: p.update(metadata=[1, 2])),
        ("bank/manifest.json", lambda p: p.update(provenance=[1, 2])),
        ("bank/manifest.json", lambda p: p["provenance"].update(classes="x")),
        ("net.json", lambda p: p["spec"]["layers"][0].update(stride=0)),
        ("net.json", lambda p: p["spec"]["layers"][0].update(padding=-1)),
        ("advs_test/manifest.json", lambda p: p["records"][0].update(file="")),
        ("det.json", lambda p: [bank.update(layer=7) for bank in p["pca_banks"]]),
    ], ids=["net-weight-entry-missing", "net-weights-not-list", "net-shape-not-list",
            "net-layer-not-object", "det-banks-not-list", "det-stages-not-list",
            "tensor-dims-not-list", "adv-records-not-list", "dataset-splits-not-object",
            "spec-input-dims-not-number", "spec-filters-not-number",
            "net-weight-layer-not-number", "dataset-split-index-not-number",
            "det-tau-not-number", "adv-iterations-not-number", "dataset-splits-overlap",
            "adv-success-not-bool", "det-metadata-not-object", "det-stage-rates-not-list",
            "det-stage-rates-short", "det-stage-rate-not-pair", "det-bank-epsilons-not-list",
            "det-bank-epsilons-short", "net-metadata-not-object",
            "dataset-provenance-not-object", "dataset-classes-not-number",
            "spec-conv-stride-zero", "spec-conv-padding-negative", "adv-file-empty",
            "det-bank-layers-not-in-order"])
    def test_wrong_artifact_type_is_validation_error(self, pipeline, tmp_path, capsys,
                                                      artifact, corrupt):
        for name in ("net.json", "det.json"):
            shutil.copy(pipeline / name, tmp_path / name)
        for name in ("bank", "advs_test"):
            shutil.copytree(pipeline / name, tmp_path / name)
        payload = json.loads((tmp_path / artifact).read_text())
        corrupt(payload)
        (tmp_path / artifact).write_text(json.dumps(payload))
        code = run(["evaluate", "--detector", tmp_path / "det.json",
                    "--net", tmp_path / "net.json", "--normals", tmp_path / "bank",
                    "--adversarials", tmp_path / "advs_test",
                    "--out-csv", tmp_path / "eval.csv"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        if artifact.endswith("manifest.json"):  # not the directory that holds it
            assert "manifest.json" in err

    @pytest.mark.parametrize("corrupt", [
        lambda w: w[0].update(kind="dense"),
        lambda w: w[0].update(kind=5),
        lambda w: w.append(dict(w[0])),
        lambda w: w.append(dict(w[0], layer=99)),
        lambda w: w.append(dict(w[0], layer=-1)),
    ], ids=["kind-of-other-layer", "kind-not-string", "layer-twice", "layer-past-spec",
            "layer-negative"])
    def test_malformed_weight_entry_is_validation_error(self, pipeline, tmp_path, capsys,
                                                        corrupt):
        payload = json.loads((pipeline / "net.json").read_text())
        corrupt(payload["weights"])
        (tmp_path / "net.json").write_text(json.dumps(payload))
        code = run(["census", "--net", tmp_path / "net.json", "--normals", pipeline / "bank",
                    "--out-csv", tmp_path / "census.csv"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert not (tmp_path / "census.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--eq", "-1"), ("--ea-range", "-2:8:3")],
                             ids=["eq-negative", "ea-range-negative"])
    def test_non_positive_cost_is_validation_error(self, pipeline, tmp_path, capsys,
                                                   flag, value):
        code = run(["selfaware", "--net", pipeline / "net.json",
                    "--detector", pipeline / "det.json",
                    "--mixture", f"{pipeline / 'bank'},{pipeline / 'advs_test'}",
                    "--out-csv", tmp_path / "out.csv", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert "costs must be positive" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--eq", "-1"), ("--eq", "0"),
                                             ("--ea-range", "-2:8:3"), ("--ea-range", "0:8:3"),
                                             ("--eq", "inf"), ("--ea-range", "2:inf:3")],
                             ids=["eq-negative", "eq-zero", "ea-range-negative", "ea-range-zero",
                                  "eq-inf", "ea-range-inf"])
    def test_non_positive_cost_fails_before_loading(self, tmp_path, capsys, flag, value):
        code = run(["selfaware", "--net", tmp_path / "no-net.json",
                    "--detector", tmp_path / "no-det.json",
                    "--mixture", f"{tmp_path / 'no-data'},{tmp_path / 'no-advs'}",
                    "--out-csv", tmp_path / "out.csv", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert "costs must be positive" in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("attack", "--target-policy", "fixed", "unknown target policy 'fixed'"),
        ("attack", "--target-policy", "bogus", "unknown target policy 'bogus'"),
        ("attack", "--kind", "bogus", "unknown attack kind 'bogus'"),
        ("attack", "--confidence-goal", "1.5", "confidence goal"),
        ("attack", "--n", "-1", "--n"),
        ("attack", "--threads", "0", "--threads"),
        ("fit-detector", "--target-tpr", "1.5", "target TPR"),
        ("fit-detector", "--c", "0", "svm C"),
        ("recover", "--k", "4", "--k"),
        ("recover", "--k", "0", "--k"),
        ("spectral", "--layer", "0", "--layer"),
        ("spectral", "--layer", "-1", "--layer"),
        ("selfaware", "--ea-range", "2:8:0", "--ea-range"),
        ("selfaware", "--ea-range", "2:8:2.7", "--ea-range"),
        ("census", "--thresholds", "nan", "--thresholds"),
        ("census", "--thresholds", "0.5,inf", "--thresholds"),
    ], ids=["target-policy-fixed", "target-policy-unknown", "kind-unknown",
            "confidence-goal-above-one", "n-negative", "threads-zero",
            "target-tpr-above-one", "c-zero", "k-even", "k-zero", "layer-zero",
            "layer-negative", "ea-range-count-zero", "ea-range-count-fraction",
            "thresholds-nan", "thresholds-inf"])
    def test_bad_flag_fails_before_loading(self, tmp_path, capsys, command, flag, value,
                                           message):
        inputs = {
            "attack": ["--data", tmp_path / "no-data", "--out", tmp_path / "advs"],
            "fit-detector": ["--normals", tmp_path / "no-data",
                             "--adversarials", tmp_path / "no-advs",
                             "--out", tmp_path / "det.json"],
            "recover": ["--detector", tmp_path / "no-det.json",
                        "--adversarials", tmp_path / "no-advs",
                        "--out-csv", tmp_path / "out.csv"],
            "spectral": ["--normals", tmp_path / "no-data",
                         "--adversarials", tmp_path / "no-advs",
                         "--out-csv", tmp_path / "out.csv"],
            "selfaware": ["--detector", tmp_path / "no-det.json",
                          "--mixture", f"{tmp_path / 'no-data'},{tmp_path / 'no-advs'}",
                          "--out-csv", tmp_path / "out.csv"],
            "census": ["--normals", tmp_path / "no-data", "--out-csv", tmp_path / "out.csv"],
        }[command]
        code = run([command, "--net", tmp_path / "no-net.json", *inputs, flag, value])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert message in err and "missing artifact" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["../advs_ea/img_00000.json", "ABSOLUTE"],
                             ids=["parent", "absolute"])
    def test_manifest_file_outside_batch_is_validation_error(self, pipeline, tmp_path,
                                                             capsys, name):
        shutil.copytree(pipeline / "advs_test", tmp_path / "advs")
        if name == "ABSOLUTE":
            name = str(pipeline / "advs_ea" / "img_00000.json")
        payload = json.loads((tmp_path / "advs" / "manifest.json").read_text())
        payload["records"][0]["file"] = name
        (tmp_path / "advs" / "manifest.json").write_text(json.dumps(payload))
        code = run(["census", "--net", pipeline / "net.json", "--normals", pipeline / "bank",
                    "--adversarials", tmp_path / "advs", "--out-csv", tmp_path / "census.csv"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert "not a file in its batch directory" in err
        assert not (tmp_path / "census.csv").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("selfaware", "--ea-range", "2:8"),
        ("selfaware", "--ea-range", "2:8:x"),
        ("census", "--thresholds", "a,b"),
        ("spectral", "--layer", "foo"),
        ("attack", "--threads", "0"),
        ("attack", "--threads", "-4"),
    ], ids=["ea-range-two-fields", "ea-range-not-number", "thresholds-not-number",
            "layer-not-number", "threads-zero",
            "threads-negative"])
    def test_malformed_flag_value_is_validation_error(self, pipeline, tmp_path, capsys,
                                                      command, flag, value):
        inputs = {
            "selfaware": ["--detector", pipeline / "det.json",
                          "--mixture", f"{pipeline / 'bank'},{pipeline / 'advs_test'}",
                          "--out-csv", tmp_path / "out.csv"],
            "census": ["--normals", pipeline / "bank", "--out-csv", tmp_path / "out.csv"],
            "spectral": ["--normals", pipeline / "bank",
                         "--adversarials", pipeline / "advs_test",
                         "--out-csv", tmp_path / "out.csv"],
            "attack": ["--data", pipeline / "bank", "--out", tmp_path / "advs"],
        }[command]
        code = run([command, "--net", pipeline / "net.json", *inputs, flag, value])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("ERROR 1:") and err.count("\n") == 1
        assert flag in err


_COMMANDS = next(a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
_OPTIONAL_FLAGS = sorted((name, key) for name, command in _COMMANDS.items()
                         for key in _optional_flags(command))


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_ODD_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0"]),
    st.integers(max_value=-1).map(str),
    st.floats(max_value=-1e-9, allow_infinity=False).map(repr),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1,
            max_size=6).filter(lambda s: s == s.strip() and not _is_number(s)))


class TestFlagDomains:
    """Every optional flag of every command, given NaN, +-inf, 0, a negative number or
    a non-number, on the command line and from a config file.

    Every input path points nowhere, so a value inside the flag's domain fails on
    loading, and one outside it fails in argparse, naming the flag. Either way the
    run exits 1 with one "ERROR 1:" line and writes nothing. NaN and +-inf are
    outside the domain of every flag with a type, and so is a non-number for a
    flag whose default is a number. synth-data loads nothing, so a value inside
    its domains would run; those draws are skipped.
    """

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_value_exits_one_before_writing(self, data):
        name, key = data.draw(st.sampled_from(_OPTIONAL_FLAGS), label="flag")
        value = data.draw(_ODD_VALUES, label="value")
        command = _COMMANDS[name]
        action = _optional_flags(command)[key]
        numeric = isinstance(action.default, (int, float)) and not isinstance(action.default, bool)
        out_of_domain = action.type is not None and (
            value in ("nan", "inf", "-inf") or (numeric and not _is_number(value)))
        try:
            (action.type or str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            out_of_domain = True
        assume(out_of_domain or name != "synth-data")
        flag = action.option_strings[0]
        with tempfile.TemporaryDirectory() as tmp:
            nowhere = Path(tmp) / "nowhere"
            required = []
            for a in command._actions:
                if a.required:  # --mixture takes two paths
                    path = nowhere / a.dest
                    required += [a.option_strings[0],
                                 f"{path},{path}" if a.dest == "mixture" else str(path)]
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(f"{key}={value}\n", encoding="utf-8")
            for source, names in (([f"{flag}={value}"], [flag]),
                                  (["--config", str(cfg)], [flag, str(cfg)])):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([name, *required, *source])
                err = err.getvalue()
                assert code == 1, err
                assert err.startswith("ERROR 1:") and err.count("\n") == 1, err
                if out_of_domain:
                    assert all(n in err for n in names), err
                assert [p.name for p in Path(tmp).iterdir()] == ["run.cfg"]


@pytest.fixture(scope="module")
def small_artifacts(tmp_path_factory):
    """One artifact of each kind, made small by the CLI, and evaluate's CSV on them."""
    root = tmp_path_factory.mktemp("small")
    assert run(["synth-data", "--seed", 1, "--n-per-class", 3, "--out", root / "data"]) == 0
    assert run(["train-victim", "--data", root / "data", "--epochs", 1,
                "--out", root / "net.json"]) == 0
    assert run(["attack", "--net", root / "net.json", "--data", root / "data",
                "--split", "train", "--n", 4, "--iterations", 5, "--out", root / "advs"]) == 0
    assert run(["fit-detector", "--net", root / "net.json", "--normals", root / "data",
                "--adversarials", root / "advs", "--successful-only", "false",
                "--out", root / "det.json"]) == 0
    assert _evaluate(root) == 0
    return root, (root / "eval.csv").read_bytes()


def _evaluate(root):
    return run(["evaluate", "--net", root / "net.json", "--detector", root / "det.json",
                "--normals", root / "data", "--adversarials", root / "advs",
                "--successful-only", "false", "--out-csv", root / "eval.csv"])


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _node_paths(node, path=()):
    """Key/index paths of every node below the root."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2**40),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2))


class TestArtifactFuzz:
    """Each artifact kind with one JSON node replaced by a value of another JSON type.

    evaluate reads all five kinds. It must exit 1 with one "ERROR 1:" line,
    or, where the node is one it does not read (metadata, provenance, the
    attack settings) or an optional key set to null, exit 0 with the same CSV
    as on the untouched artifacts. It must never exit 2.
    """

    @pytest.mark.parametrize("artifact", [
        "net.json", "det.json", "data/manifest.json", "advs/manifest.json",
        "advs/img_00000.json",
    ], ids=["network", "detector", "dataset-manifest", "adversarial-manifest", "tensor-file"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_retyped_node_is_rejected_or_ignored(self, small_artifacts, artifact, data):
        root, csv = small_artifacts
        payload = json.loads((root / artifact).read_text())
        path = data.draw(st.sampled_from(list(_node_paths(payload))), label="path")
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        new = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)),
                        label="value")
        parent[path[-1]] = new
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / "artifacts"
            shutil.copytree(root, work)
            (work / artifact).write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = _evaluate(work)
            err = err.getvalue()
            if code == 1:
                assert err.startswith("ERROR 1:") and err.count("\n") == 1, err
            else:
                assert code == 0 and err == "", err
                assert (work / "eval.csv").read_bytes() == csv
