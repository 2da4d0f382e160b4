"""Dataset ingestion, the bundled synthetic task and artifact persistence.

All persisted artifacts are deterministic: sorted JSON keys, repr floats and
base64-encoded little-endian float64 arrays, so identical inputs always
produce identical bytes and every float round-trips bit-exactly.
"""
from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .tensor import Tensor

ARTIFACT_VERSION = "cascade-guard/1"

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

SPLIT_TAGS = ("train", "val", "test")

_NOISE_SIGMA = 0.05  # pixel noise of the synthetic task
_SPLIT_SHARES = (0.7, 0.15)  # train and val share per synthetic class; test gets the rest

__all__ = [
    "ARTIFACT_VERSION",
    "Dataset",
    "synth_dataset",
    "load_idx",
    "save_dataset",
    "load_dataset",
    "save_tensor",
    "load_tensor",
    "save_network",
    "load_network",
    "save_detector",
    "load_detector",
    "save_adversarial_batch",
    "load_adversarial_batch",
    "dataset_fingerprint",
]


# ---------------------------------------------------------------------------
# Dataset container and the synthetic 10-class task.
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Images in [0,1] with labels, per-image split tags and provenance."""

    images: np.ndarray
    labels: np.ndarray
    split_tags: np.ndarray
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.split_tags = np.asarray(self.split_tags)
        if self.images.ndim != 4:
            raise ValidationError(f"images must be N x H x W x C, got {self.images.shape}")
        n = self.images.shape[0]
        if self.labels.shape != (n,) or self.split_tags.shape != (n,):
            raise ValidationError("images, labels and split tags must align")
        if n and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValidationError("image values must lie in [0, 1]")
        bad = set(self.split_tags.tolist()) - set(SPLIT_TAGS)
        if bad:
            raise ValidationError(f"unknown split tags {sorted(bad)}")
        classes = int(self.manifest.get("classes", self.labels.max() + 1 if n else 1))
        if n and int(self.labels.max()) >= classes:
            raise ValidationError("labels exceed the class count")
        if n and int(self.labels.min()) < 0:
            raise ValidationError("labels must be non-negative")
        self.manifest = dict(self.manifest)
        self.manifest["classes"] = classes

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def classes(self) -> int:
        return int(self.manifest["classes"])

    def indices(self, tag: str) -> np.ndarray:
        if tag not in SPLIT_TAGS:
            raise ValidationError(f"unknown split tag {tag!r}")
        return np.nonzero(self.split_tags == tag)[0]

    def split(self, tag: str):
        idx = self.indices(tag)
        return self.images[idx], self.labels[idx]


_GRID_Y, _GRID_X = np.mgrid[0:28, 0:28].astype(np.float64)


def _shape_mask(cls: int, rng: np.random.Generator) -> np.ndarray:
    """One of ten parameterized shapes on a 28x28 canvas."""
    yy, xx = _GRID_Y, _GRID_X
    cy = rng.uniform(11.0, 17.0)
    cx = rng.uniform(11.0, 17.0)
    dy = yy - cy
    dx = xx - cx
    if cls == 0:  # horizontal bar
        t = rng.uniform(1.3, 2.3)
        return (np.abs(yy - rng.uniform(8.0, 20.0)) <= t).astype(np.float64)
    if cls == 1:  # vertical bar
        t = rng.uniform(1.3, 2.3)
        return (np.abs(xx - rng.uniform(8.0, 20.0)) <= t).astype(np.float64)
    if cls == 2:  # main-diagonal stroke
        off = rng.uniform(-5.0, 5.0)
        t = rng.uniform(1.8, 2.8)
        return (np.abs(xx - yy - off) <= t).astype(np.float64)
    if cls == 3:  # anti-diagonal stroke
        off = rng.uniform(22.0, 32.0)
        t = rng.uniform(1.8, 2.8)
        return (np.abs(xx + yy - off) <= t).astype(np.float64)
    if cls == 4:  # filled disk
        r = rng.uniform(5.0, 8.0)
        return (dx * dx + dy * dy <= r * r).astype(np.float64)
    if cls == 5:  # ring
        r = rng.uniform(6.5, 9.0)
        d = np.sqrt(dx * dx + dy * dy)
        return (np.abs(d - r) <= 1.6).astype(np.float64)
    if cls == 6:  # plus cross
        arm = rng.uniform(7.0, 10.0)
        t = rng.uniform(1.3, 2.0)
        horiz = (np.abs(dy) <= t) & (np.abs(dx) <= arm)
        vert = (np.abs(dx) <= t) & (np.abs(dy) <= arm)
        return (horiz | vert).astype(np.float64)
    if cls == 7:  # X cross
        arm = rng.uniform(7.0, 10.0)
        t = rng.uniform(1.8, 2.6)
        box = np.maximum(np.abs(dx), np.abs(dy)) <= arm
        diag = (np.abs(dx - dy) <= t) | (np.abs(dx + dy) <= t)
        return (box & diag).astype(np.float64)
    if cls == 8:  # square outline
        s = rng.uniform(6.5, 9.0)
        cheb = np.maximum(np.abs(dx), np.abs(dy))
        return ((cheb <= s) & (cheb > s - 2.5)).astype(np.float64)
    if cls == 9:  # filled square
        s = rng.uniform(5.0, 8.0)
        return (np.maximum(np.abs(dx), np.abs(dy)) <= s).astype(np.float64)
    raise ValidationError(f"no shape for class {cls}")


def synth_dataset(seed: int, n_per_class: int) -> Dataset:
    """Procedural 28x28 grayscale 10-class shapes task, balanced and seeded.

    Shapes vary in position and scale; pixel noise is Gaussian with sigma
    0.05, clipped back to [0,1]. Split tags are assigned stratified per class:
    70% train, 15% val and the rest test, each share rounded to whole images.
    """
    if n_per_class < 1:
        raise ValidationError("n_per_class must be positive")
    rng = np.random.default_rng(seed)
    classes = 10
    images = np.empty((classes * n_per_class, 28, 28, 1))
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    tags = np.empty(classes * n_per_class, dtype="<U5")
    n_train, n_val = (int(round(share * n_per_class)) for share in _SPLIT_SHARES)
    row = 0
    for cls in range(classes):
        for i in range(n_per_class):
            mask = _shape_mask(cls, rng)
            # Low contrast keeps class boundaries near each other, so small
            # perturbations genuinely flip the trained victim. The weak
            # blockwise background texture gives every filter direction real
            # variance on normal data, as natural images would.
            field = rng.uniform(0.0, 1.0, (7, 7))
            background = rng.uniform(0.02, 0.06) * np.repeat(np.repeat(field, 4, 0), 4, 1)
            img = rng.uniform(0.11, 0.20) * mask + background
            img += rng.normal(0.0, _NOISE_SIGMA, (28, 28))
            images[row, :, :, 0] = np.clip(img, 0.0, 1.0)
            labels[row] = cls
            tags[row] = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
            row += 1
    order = rng.permutation(row)
    manifest = {
        "generator": "synthetic-shapes",
        "seed": int(seed),
        "n_per_class": int(n_per_class),
        "noise_sigma": _NOISE_SIGMA,
        "classes": classes,
    }
    return Dataset(images[order], labels[order], tags[order], manifest)


# ---------------------------------------------------------------------------
# IDX binary format.
# ---------------------------------------------------------------------------

def _read_exact(f, count: int, path) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise FormatError(f"truncated IDX file {path}")
    return data


def _read_u32(f, path) -> int:
    return struct.unpack(">I", _read_exact(f, 4, path))[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Big-endian magic 0x00000803 / 0x00000801, big-endian dimension sizes,
    unsigned-byte pixels scaled by 1/255. Every image is tagged train, and the
    class count is one more than the largest label.
    """
    images_path = Path(images_path)
    labels_path = Path(labels_path)
    with open(images_path, "rb") as f:
        magic = _read_u32(f, images_path)
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(
                f"bad magic 0x{magic:08x} in {images_path} "
                f"(expected image magic 0x{_IDX_IMAGES_MAGIC:08x})"
            )
        n = _read_u32(f, images_path)
        h = _read_u32(f, images_path)
        w = _read_u32(f, images_path)
        pixels = _read_exact(f, n * h * w, images_path)
    with open(labels_path, "rb") as f:
        magic = _read_u32(f, labels_path)
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(
                f"bad magic 0x{magic:08x} in {labels_path} "
                f"(expected label magic 0x{_IDX_LABELS_MAGIC:08x})"
            )
        n_labels = _read_u32(f, labels_path)
        if n_labels != n:
            raise FormatError(
                f"count mismatch: {n} images in {images_path} "
                f"but {n_labels} labels in {labels_path}"
            )
        raw_labels = _read_exact(f, n_labels, labels_path)
    images = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64)
    images = images.reshape(n, h, w, 1) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(images, labels, np.full(n, "train", dtype="<U5"),
                   {"source": str(images_path)})


def _write_idx_images(path, images: np.ndarray):
    n, h, w, c = images.shape
    if c != 1:
        raise ValidationError("IDX export supports single-channel images only")
    pixels = np.round(images[:, :, :, 0] * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())


def _write_idx_labels(path, labels: np.ndarray):
    if labels.size and labels.max() > 255:
        raise ValidationError("IDX labels must fit in a byte")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", _IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


def save_dataset(dataset: Dataset, dir_path):
    """Write images.idx + labels.idx + manifest.json into a directory.

    Pixels are quantized to bytes; a second save of the loaded dataset is
    byte-identical to the first.
    """
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    _write_idx_images(d / "images.idx", dataset.images)
    _write_idx_labels(d / "labels.idx", dataset.labels)
    payload = {
        "version": ARTIFACT_VERSION,
        "splits": {tag: dataset.indices(tag).tolist() for tag in SPLIT_TAGS},
        "provenance": _json_safe(dataset.manifest),
    }
    _dump_json(d / "manifest.json", payload)


def load_dataset(dir_path) -> Dataset:
    d = Path(dir_path)
    payload = _load_json(d / "manifest.json")
    _check_version(payload, d / "manifest.json")
    splits = _require(payload, "splits", d / "manifest.json", dict)
    base = load_idx(d / "images.idx", d / "labels.idx")
    tags = np.full(base.n, "", dtype="<U5")
    for tag in SPLIT_TAGS:
        ids = _ints(splits, tag, d / "manifest.json") if tag in splits else []
        if any(not 0 <= i < base.n for i in ids):
            raise FormatError(f"split indices out of range in {d / 'manifest.json'}")
        taken = tags[ids][tags[ids] != ""]
        if taken.size:
            raise FormatError(f"splits '{taken[0]}' and '{tag}' share images "
                              f"in {d / 'manifest.json'}")
        tags[ids] = tag
    tags[tags == ""] = "train"
    manifest = _require(payload, "provenance", d / "manifest.json", dict, {})
    if "classes" in manifest:
        _require(manifest, "classes", d / "manifest.json", int)
    return Dataset(base.images, base.labels, tags, manifest)


def dataset_fingerprint(dataset: Dataset) -> str:
    """Stable sha256 over quantized pixels and labels."""
    h = hashlib.sha256()
    h.update(np.round(dataset.images * 255.0).astype(np.uint8).tobytes())
    h.update(dataset.labels.astype(np.int64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# JSON artifact plumbing.
# ---------------------------------------------------------------------------

def _f64_to_b64(arr) -> str:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def _b64_to_f64(text, shape, what) -> np.ndarray:
    """Decode a float64 payload; shape None takes the length from the payload."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise FormatError(f"corrupt base64 payload in {what}: {exc}") from None
    if len(raw) % 8:
        raise FormatError(f"payload in {what} has {len(raw)} bytes, not a multiple of 8")
    arr = np.frombuffer(raw, dtype="<f8")
    if shape is None:
        shape = (arr.size,)
    expected = int(np.prod(shape))
    if arr.size != expected:
        raise FormatError(f"payload in {what} has {arr.size} values, expected {expected}")
    return arr.reshape(shape).astype(np.float64)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def _dump_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    Path(path).write_bytes(text.encode("utf-8"))


def _load_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"missing artifact {path}")
    try:
        payload = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"corrupt JSON artifact {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"artifact {path} is not a JSON object")
    return payload


_ABSENT = object()


def _require(payload: dict, key: str, path, kind=object, default=_ABSENT):
    """payload[key] checked to be a kind; a default stands in for a missing or null key."""
    if not isinstance(payload, dict):
        raise FormatError(f"artifact {path} has an entry that is not an object")
    if default is not _ABSENT and payload.get(key) is None:
        return default
    if key not in payload:
        raise FormatError(f"artifact {path} is missing key {key!r}")
    return _checked(payload[key], kind, key, path)


def _checked(value, kind, key, path):
    """value as a kind; int takes JSON integers only, float any JSON number."""
    number = kind in (int, float)
    if not isinstance(value, (int, float) if kind is float else kind) or (
            number and isinstance(value, bool)):
        raise FormatError(f"artifact {path} has {key!r} that is not a {kind.__name__}")
    return kind(value) if number else value


def _ints(payload: dict, key: str, path) -> list:
    return [_checked(v, int, key, path) for v in _require(payload, key, path, list)]


def _list_of(value, count: int, key: str, path):
    """value checked to be None or a list of at least count entries."""
    if value is not None and len(_checked(value, list, key, path)) < count:
        raise FormatError(f"artifact {path} has {len(value)} {key!r} entries for {count}")
    return value


def _check_version(payload: dict, path):
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise FormatError(
            f"unsupported artifact version {version!r} in {path} "
            f"(expected {ARTIFACT_VERSION!r})"
        )


# ---------------------------------------------------------------------------
# Tensor files.
# ---------------------------------------------------------------------------

def save_tensor(path, tensor: Tensor):
    payload = {
        "version": ARTIFACT_VERSION,
        "dims": list(tensor.array.shape),
        "data": _f64_to_b64(tensor.array),
    }
    _dump_json(path, payload)


def load_tensor(path) -> Tensor:
    payload = _load_json(path)
    _check_version(payload, path)
    dims = tuple(_ints(payload, "dims", path))
    return Tensor(_b64_to_f64(_require(payload, "data", path), dims, path))


# ---------------------------------------------------------------------------
# Network artifact.
# ---------------------------------------------------------------------------

def _layer_to_json(layer):
    from .autograd import ConvLayer, DenseLayer, MaxPoolLayer, ReluLayer, SoftmaxLayer

    if isinstance(layer, ConvLayer):
        return {"kind": "conv", "filters": layer.filters, "kernel": layer.kernel,
                "stride": layer.stride, "padding": layer.padding}
    if isinstance(layer, ReluLayer):
        return {"kind": "relu"}
    if isinstance(layer, MaxPoolLayer):
        return {"kind": "maxpool", "window": layer.window, "stride": layer.stride}
    if isinstance(layer, DenseLayer):
        return {"kind": "dense", "units": layer.units}
    if isinstance(layer, SoftmaxLayer):
        return {"kind": "softmax"}
    raise ValidationError(f"unknown layer {layer!r}")


def layer_from_json(entry: dict, path="<spec>"):
    from .autograd import ConvLayer, DenseLayer, MaxPoolLayer, ReluLayer, SoftmaxLayer

    kind = _require(entry, "kind", path)

    def num(key, default=_ABSENT):
        return _require(entry, key, path, int, default)

    if kind == "conv":
        return ConvLayer(num("filters"), num("kernel"), num("stride", 1), num("padding", 0))
    if kind == "relu":
        return ReluLayer()
    if kind == "maxpool":
        return MaxPoolLayer(num("window"), num("stride"))
    if kind == "dense":
        return DenseLayer(num("units"))
    if kind == "softmax":
        return SoftmaxLayer()
    raise FormatError(f"unknown layer kind {kind!r} in {path}")


def spec_from_json(payload: dict, path="<spec>"):
    from .victim import NetworkSpec

    layers = tuple(layer_from_json(e, path) for e in _require(payload, "layers", path, list))
    return NetworkSpec(
        input_dims=tuple(_ints(payload, "input_dims", path)),
        classes=_require(payload, "classes", path, int),
        layers=layers,
    )


def spec_to_json(spec) -> dict:
    return {
        "input_dims": list(spec.input_dims),
        "classes": spec.classes,
        "layers": [_layer_to_json(l) for l in spec.layers],
    }


def save_network(path, network):
    from .autograd import ConvLayer

    entries = []
    for idx, (layer, entry) in enumerate(zip(network.spec.layers, network.weights)):
        if entry is None:
            continue
        w, b = entry
        entries.append({
            "layer": idx, "kind": "conv" if isinstance(layer, ConvLayer) else "dense",
            "shape": list(w.shape),
            "weights": _f64_to_b64(w),
            "biases": _f64_to_b64(b),
        })
    payload = {
        "version": ARTIFACT_VERSION,
        "spec": spec_to_json(network.spec),
        "weights": entries,
        "metadata": _json_safe(network.metadata),
    }
    _dump_json(path, payload)


def load_network(path):
    from .victim import Network

    payload = _load_json(path)
    _check_version(payload, path)
    spec = spec_from_json(_require(payload, "spec", path), path)
    weights = [None] * len(spec.layers)
    for entry in _require(payload, "weights", path, list):
        idx = _require(entry, "layer", path, int)
        if not 0 <= idx < len(spec.layers):
            raise FormatError(f"artifact {path} has weights for layer {idx}, outside "
                              f"the spec's {len(spec.layers)} layers")
        if weights[idx] is not None:
            raise FormatError(f"artifact {path} has two weight entries for layer {idx}")
        kind = _layer_to_json(spec.layers[idx])["kind"]
        found = _require(entry, "kind", path)
        if found != kind:
            raise FormatError(f"artifact {path} has a weight entry of kind {found!r} "
                              f"for {kind} layer {idx}")
        shape = tuple(_ints(entry, "shape", path))
        w = _b64_to_f64(_require(entry, "weights", path), shape, path)
        b = _b64_to_f64(_require(entry, "biases", path), (shape[0],), path)
        weights[idx] = (w, b)
    return Network(spec, weights, metadata=_require(payload, "metadata", path, dict, {}))


# ---------------------------------------------------------------------------
# Detector artifact.
# ---------------------------------------------------------------------------

def save_detector(path, model):
    stages = []
    rates = []
    for stage in model.stages:
        svm = stage.svm
        stages.append({
            "layer": stage.layer_index,
            "w": _f64_to_b64(svm.weights),
            "b": float(svm.bias),
            "tau": float(stage.tau),
            "feature_means": _f64_to_b64(svm.feature_means),
            "feature_stds": _f64_to_b64(svm.feature_stds),
        })
        rates.append(None if stage.fpr is None else [float(stage.fpr), float(stage.tpr)])
    banks = []
    for bank in model.banks:
        banks.append({
            "layer": bank.layer_index,
            "e": _f64_to_b64(bank.mean),
            "W": _f64_to_b64(bank.components),
            "s": _f64_to_b64(bank.stds),
        })
    metadata = dict(model.metadata)
    metadata["stage_rates"] = rates
    metadata["bank_epsilons"] = [float(b.epsilon) for b in model.banks]
    payload = {
        "version": ARTIFACT_VERSION,
        "target_tpr": float(model.target_tpr),
        "stages": stages,
        "pca_banks": banks,
        "metadata": _json_safe(metadata),
    }
    _dump_json(path, payload)


def load_detector(path):
    from .cascade import CascadeModel, CascadeStage, LinearSvm
    from .featstats import PcaBank

    payload = _load_json(path)
    _check_version(payload, path)
    metadata = dict(_require(payload, "metadata", path, dict, {}))
    bank_entries = _require(payload, "pca_banks", path, list)
    stage_entries = _require(payload, "stages", path, list)
    rates = _list_of(metadata.pop("stage_rates", None), len(stage_entries),
                     "stage_rates", path)
    epsilons = _list_of(metadata.pop("bank_epsilons", None), len(bank_entries),
                        "bank_epsilons", path)
    banks = []
    for i, entry in enumerate(bank_entries):
        mean = _b64_to_f64(_require(entry, "e", path), None, path)
        k = mean.size
        banks.append(PcaBank(
            layer_index=_require(entry, "layer", path, int),
            mean=mean,
            components=_b64_to_f64(_require(entry, "W", path), (k, k), path),
            stds=_b64_to_f64(_require(entry, "s", path), (k,), path),
            epsilon=(_checked(epsilons[i], float, "bank_epsilons", path) if epsilons
                     else PcaBank.epsilon),
        ))
    stages = []
    for i, entry in enumerate(stage_entries):
        weights = _b64_to_f64(_require(entry, "w", path), None, path)
        dim = weights.size
        svm = LinearSvm(
            weights=weights,
            bias=_require(entry, "b", path, float),
            feature_means=_b64_to_f64(_require(entry, "feature_means", path), (dim,), path),
            feature_stds=_b64_to_f64(_require(entry, "feature_stds", path), (dim,), path),
        )
        fpr, tpr = (None, None)
        if rates and rates[i] is not None:
            fpr, tpr = (_checked(r, float, "stage_rates", path)
                        for r in _list_of(rates[i], 2, "stage_rates", path)[:2])
        stages.append(CascadeStage(
            layer_index=_require(entry, "layer", path, int),
            svm=svm,
            tau=_require(entry, "tau", path, float),
            fpr=fpr,
            tpr=tpr,
        ))
    return CascadeModel(
        stages=tuple(stages),
        banks=tuple(banks),
        target_tpr=_require(payload, "target_tpr", path, float),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Adversarial batches: a directory of tensor files plus a manifest.
# ---------------------------------------------------------------------------

def save_adversarial_batch(dir_path, records, attack_meta=None):
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, rec in enumerate(records):
        name = f"img_{i:05d}.json"
        save_tensor(d / name, rec.image)
        entries.append({
            "file": name,
            "source_image_id": rec.source_image_id,
            "original_label": rec.original_label,
            "target_label": rec.target_label,
            "kind": rec.kind,
            "achieved_confidence": float(rec.achieved_confidence),
            "l1": None if rec.l1 is None else float(rec.l1),
            "linf": None if rec.linf is None else float(rec.linf),
            "iterations": int(rec.iterations),
            "success": bool(rec.success),
        })
    payload = {
        "version": ARTIFACT_VERSION,
        "attack": _json_safe(attack_meta or {}),
        "records": entries,
    }
    _dump_json(d / "manifest.json", payload)


def load_adversarial_batch(dir_path):
    from .attacks import AdversarialRecord

    d = Path(dir_path)
    manifest = d / "manifest.json"
    payload = _load_json(manifest)
    _check_version(payload, manifest)
    records = []
    for entry in _require(payload, "records", manifest, list):
        name = _require(entry, "file", manifest, str)
        # A plain file name: no path separator, no "..", nothing absolute.
        if name in ("", "..") or Path(name).name != name:
            raise FormatError(f"artifact {manifest} names {name!r}, "
                              f"not a file in its batch directory")
        image = load_tensor(d / name)
        records.append(AdversarialRecord(
            source_image_id=_require(entry, "source_image_id", manifest, int, None),
            image=image,
            original_label=_require(entry, "original_label", manifest, int, None),
            target_label=_require(entry, "target_label", manifest, int),
            kind=_require(entry, "kind", manifest, str),
            achieved_confidence=_require(entry, "achieved_confidence", manifest, float),
            l1=_require(entry, "l1", manifest, float, None),
            linf=_require(entry, "linf", manifest, float, None),
            iterations=_require(entry, "iterations", manifest, int),
            success=_require(entry, "success", manifest, bool),
        ))
    return records
