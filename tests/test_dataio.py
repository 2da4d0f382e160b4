import json
import struct
import subprocess
import sys

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


class TestCrossProcess:
    def test_detector_decisions_reproduce_in_subprocess(
            self, tmp_path, victim_bundle, corpus, fitted_banks):
        from cascade_guard.cascade import CascadeConfig, cascade_predict_batch, train_cascade
        from cascade_guard.victim import layer_outputs_batch

        net = victim_bundle.network
        advs = np.stack([r.image.array for r in corpus.successful[:150]])
        model = train_cascade(layer_outputs_batch(net, corpus.normal_bank[:500]),
                              layer_outputs_batch(net, advs), fitted_banks,
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
