import base64
import hashlib
import json
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cascade_guard import dataio
from cascade_guard.attacks import AdversarialRecord
from cascade_guard.errors import FormatError, ValidationError
from cascade_guard.tensor import Tensor


class TestDataset:
    def test_split_tags_partition(self):
        ds = dataio.synth_dataset(0, 20)
        n = sum(len(ds.indices(t)) for t in ("train", "val", "test"))
        assert n == ds.n

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            dataio.Dataset(np.full((1, 2, 2, 1), 1.5), np.zeros(1, dtype=int),
                           np.array(["train"]))

    def test_rejects_label_above_class_count(self):
        with pytest.raises(ValidationError, match="labels"):
            dataio.Dataset(np.zeros((1, 2, 2, 1)), np.array([4]),
                           np.array(["train"]), {"classes": 3})


class TestSynthDataset:
    def test_same_seed_bit_identical(self):
        a = dataio.synth_dataset(5, 30)
        b = dataio.synth_dataset(5, 30)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.split_tags, b.split_tags)

    def test_pixels_in_unit_interval(self):
        ds = dataio.synth_dataset(9, 30)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_balanced_classes(self):
        ds = dataio.synth_dataset(1, 25)
        counts = np.bincount(ds.labels, minlength=10)
        assert (counts == 25).all()

    def test_victim_accuracy_gate(self, victim_bundle):
        # empirical gate frozen before detector work: the default victim
        # must clear 90% held-out accuracy on the bundled task
        assert victim_bundle.network.metadata["test_accuracy"] >= 0.9


def write_idx_pair(tmp_path, images, labels):
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    n, h, w = images.shape
    ip.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.astype(np.uint8).tobytes())
    return ip, lp


class TestIdx:
    def test_hand_crafted_fixture_exact_values(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
        labels = np.array([3, 1], dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        ds = dataio.load_idx(ip, lp)
        assert ds.images.shape == (2, 2, 2, 1)
        assert ds.images[0, 0, 0, 0] == 0.0
        assert ds.images[0, 0, 1, 0] == 1.0
        assert ds.images[0, 1, 0, 0] == 128 / 255
        assert ds.labels.tolist() == [3, 1]

    def test_empty_file_is_truncated_error(self, tmp_path):
        ip = tmp_path / "img.idx"
        ip.write_bytes(b"")
        lp = tmp_path / "lab.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(FormatError, match="truncated"):
            dataio.load_idx(ip, lp)

    def test_labels_magic_on_images_path(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.zeros(1, dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(FormatError, match="bad magic"):
            dataio.load_idx(lp, ip)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(FormatError, match="count mismatch"):
            dataio.load_idx(ip, lp)

    def test_short_pixel_payload_truncated(self, tmp_path):
        ip = tmp_path / "img.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 3)
        lp = tmp_path / "lab.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            dataio.load_idx(ip, lp)


    def test_trailing_pixel_bytes_rejected(self, tmp_path):
        ip = tmp_path / "img.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 9)
        lp = tmp_path / "lab.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
        with pytest.raises(FormatError, match="1 bytes after the 2x2x2 pixels"):
            dataio.load_idx(ip, lp)

    def test_header_counting_too_few_pixels_rejected(self, tmp_path):
        # 28 x 28 images whose header says 27 x 28 would load misaligned.
        ip, lp = write_idx_pair(tmp_path, np.zeros((20, 28, 28)), np.zeros(20))
        raw = bytearray(ip.read_bytes())
        raw[8:12] = struct.pack(">I", 27)
        ip.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="560 bytes after the 20x27x28 pixels"):
            dataio.load_idx(ip, lp)

    def test_image_count_beyond_the_file_truncated(self, tmp_path):
        # Reading the 4294967295 x 28 x 28 bytes the header counts would raise
        # MemoryError; the file size is checked first.
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), np.zeros(2))
        raw = bytearray(ip.read_bytes())
        raw[4:8] = struct.pack(">I", 4294967295)
        ip.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            dataio.load_idx(ip, lp)

    @pytest.mark.parametrize("h, w", [(0, 2), (2, 0), (0, 0)])
    def test_zero_height_or_width_rejected(self, tmp_path, h, w):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, h, w)), np.zeros(2))
        with pytest.raises(FormatError, match=f"declares {h}x{w} images"):
            dataio.load_idx(ip, lp)


class TestDatasetRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        ds = dataio.synth_dataset(3, 12)
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        dataio.save_dataset(ds, d1)
        loaded = dataio.load_dataset(d1)
        dataio.save_dataset(loaded, d2)
        for name in ("images.idx", "labels.idx", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_split_tags_survive(self, tmp_path):
        ds = dataio.synth_dataset(4, 12)
        dataio.save_dataset(ds, tmp_path / "d")
        loaded = dataio.load_dataset(tmp_path / "d")
        assert np.array_equal(loaded.split_tags, ds.split_tags)

    def test_overlapping_splits_rejected(self, tmp_path):
        dataio.save_dataset(dataio.synth_dataset(4, 12), tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["splits"]["test"].append(payload["splits"]["train"][0])
        manifest.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="'train' and 'test'"):
            dataio.load_dataset(tmp_path / "d")


def traced_peak(fn):
    """Peak bytes that fn() allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDatasetMemory:
    @pytest.mark.parametrize("step", ["dataset_fingerprint", "save_dataset"])
    def test_no_whole_dataset_float_copy(self, tmp_path, step):
        # Both quantize 64 images at a time; quantizing the whole array at
        # once holds two float64 temporaries of its size (2.5 MB each here).
        ds = dataio.synth_dataset(3, 40)
        calls = {"dataset_fingerprint": lambda: dataio.dataset_fingerprint(ds),
                 "save_dataset": lambda: dataio.save_dataset(ds, tmp_path / "d")}
        assert traced_peak(calls[step]) < 2**20

    def test_chunked_quantization_keeps_the_bytes(self, tmp_path):
        # 130 images cross two 64-image chunk edges.
        ds = dataio.synth_dataset(5, 13)
        pixels = np.round(ds.images * 255.0).astype(np.uint8)
        dataio.save_dataset(ds, tmp_path / "d")
        assert (tmp_path / "d" / "images.idx").read_bytes()[16:] == pixels.tobytes()
        want = hashlib.sha256(pixels.tobytes() + ds.labels.astype(np.int64).tobytes())
        assert dataio.dataset_fingerprint(ds) == want.hexdigest()


class TestTensorFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        t = Tensor(np.random.default_rng(0).random((5, 4, 2)))
        dataio.save_tensor(tmp_path / "t.json", t)
        back = dataio.load_tensor(tmp_path / "t.json")
        assert np.array_equal(back.array, t.array)

    def test_corrupt_base64_rejected(self, tmp_path):
        t = Tensor(np.zeros((2, 2, 1)))
        path = tmp_path / "t.json"
        dataio.save_tensor(path, t)
        payload = json.loads(path.read_text())
        payload["data"] = "!!!not-base64!!!"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="base64"):
            dataio.load_tensor(path)

    def test_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "t.json"
        dataio.save_tensor(path, Tensor(np.zeros((2, 3, 1))))
        payload = json.loads(path.read_text())
        payload["dims"] = [2, 2, 1]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="6 values, expected 4"):
            dataio.load_tensor(path)


class TestNetworkArtifact:
    def test_roundtrip_bit_exact(self, tmp_path, victim_bundle):
        p1 = tmp_path / "net1.json"
        p2 = tmp_path / "net2.json"
        dataio.save_network(p1, victim_bundle.network)
        net = dataio.load_network(p1)
        dataio.save_network(p2, net)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(net.weights, victim_bundle.network.weights):
            if a is None:
                continue
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_unknown_version_rejected(self, tmp_path, victim_bundle):
        path = tmp_path / "net.json"
        dataio.save_network(path, victim_bundle.network)
        payload = json.loads(path.read_text())
        payload["version"] = "cascade-guard/999"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version"):
            dataio.load_network(path)

    def test_truncated_json_is_schema_error(self, tmp_path, victim_bundle):
        path = tmp_path / "net.json"
        dataio.save_network(path, victim_bundle.network)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(FormatError, match="corrupt JSON"):
            dataio.load_network(path)


class TestAdversarialBatch:
    def _records(self):
        rng = np.random.default_rng(5)
        recs = []
        for i in range(3):
            recs.append(AdversarialRecord(
                source_image_id=i, image=Tensor(rng.random((4, 4, 1))),
                original_label=i % 2, target_label=(i + 1) % 3,
                kind="gradient-box", achieved_confidence=0.95, l1=1.25,
                linf=0.1, iterations=17, success=True,
            ))
        recs.append(AdversarialRecord(
            source_image_id=None, image=Tensor(rng.random((4, 4, 1))),
            original_label=None, target_label=0, kind="evolutionary",
            achieved_confidence=0.99, l1=None, linf=None, iterations=40,
            success=True,
        ))
        return recs

    def test_roundtrip_bit_exact(self, tmp_path):
        recs = self._records()
        d1 = tmp_path / "b1"
        d2 = tmp_path / "b2"
        dataio.save_adversarial_batch(d1, recs, {"kind": "mixed"})
        loaded = dataio.load_adversarial_batch(d1)
        dataio.save_adversarial_batch(d2, loaded, {"kind": "mixed"})
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
        for i in range(len(recs)):
            name = f"img_{i:05d}.json"
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert loaded[3].source_image_id is None
        assert loaded[3].l1 is None
        assert np.array_equal(loaded[0].image.array, recs[0].image.array)

    def test_empty_batch_roundtrip(self, tmp_path):
        dataio.save_adversarial_batch(tmp_path / "b", [], {"kind": "gradient-box"})
        assert dataio.load_adversarial_batch(tmp_path / "b") == []

    @pytest.mark.parametrize("name", ["../a3/img_00000.json", "ABSOLUTE",
                                      "sub/img_00000.json", ".."],
                             ids=["parent", "absolute", "subdirectory", "dot-dot"])
    def test_file_outside_batch_directory_rejected(self, tmp_path, name):
        # Every named file exists, so only the name itself can be at fault.
        dataio.save_adversarial_batch(tmp_path / "a3", self._records())
        batch = tmp_path / "b"
        dataio.save_adversarial_batch(batch, self._records())
        (batch / "sub").mkdir()
        (batch / "sub" / "img_00000.json").write_bytes((batch / "img_00000.json").read_bytes())
        if name == "ABSOLUTE":
            name = str(tmp_path / "a3" / "img_00000.json")
        payload = json.loads((batch / "manifest.json").read_text())
        payload["records"][0]["file"] = name
        (batch / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="not a file in its batch directory"):
            dataio.load_adversarial_batch(batch)


class TestDetectorArtifact:
    def test_stage_width_that_does_not_fit_the_banks_rejected(self, tmp_path):
        from cascade_guard.cascade import CascadeConfig, train_cascade
        from cascade_guard.featstats import fit_pca_bank

        rng = np.random.default_rng(0)
        pool = [rng.random((40, 4, 4, k)) for k in (3, 5)]
        banks, pool_stats = fit_pca_bank(lambda: iter([pool]))
        model = train_cascade(pool_stats, [rows[:20] for rows in pool_stats], banks,
                              CascadeConfig())
        assert [s.svm.dim for s in model.stages] == [18, 48]
        path = tmp_path / "det.json"
        dataio.save_detector(path, model)
        dataio.load_detector(path)
        payload = json.loads(path.read_text())
        for field in ("w", "feature_means", "feature_stds"):
            values = np.frombuffer(base64.b64decode(payload["stages"][1][field]), dtype="<f8")
            payload["stages"][1][field] = base64.b64encode(values[:-6].tobytes()).decode()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError,
                           match=r"stage 2 SVM reads 42 features but the statistics of "
                                 r"conv layers 1\.\.2 give 48"):
            dataio.load_detector(path)


class TestCrossProcess:
    def test_detector_decisions_reproduce_in_subprocess(
            self, tmp_path, victim_bundle, corpus, fitted_banks, stat_rows):
        from cascade_guard.cascade import CascadeConfig, cascade_predict_batch, train_cascade

        net = victim_bundle.network
        advs = np.stack([r.image.array for r in corpus.successful[:150]])
        model = train_cascade(stat_rows(net, corpus.normal_bank[:500], fitted_banks),
                              stat_rows(net, advs, fitted_banks), fitted_banks,
                              CascadeConfig(seed=0))
        dataio.save_detector(tmp_path / "det.json", model)
        dataio.save_network(tmp_path / "net.json", net)
        images = np.concatenate([corpus.normal_bank[500:560],
                                 advs[:40]])
        np.save(tmp_path / "imgs.npy", images)
        decisions, _, _ = cascade_predict_batch(model, net, images)
        script = (
            "import numpy as np, json, sys\n"
            "from cascade_guard import dataio\n"
            "from cascade_guard.cascade import cascade_predict_batch\n"
            f"net = dataio.load_network(r'{tmp_path / 'net.json'}')\n"
            f"model = dataio.load_detector(r'{tmp_path / 'det.json'}')\n"
            f"imgs = np.load(r'{tmp_path / 'imgs.npy'}')\n"
            "d, _, _ = cascade_predict_batch(model, net, imgs)\n"
            "print(json.dumps(d.astype(int).tolist()))\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == decisions.astype(int).tolist()
