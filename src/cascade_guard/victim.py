"""The small CNN whose adversarial examples the detector learns to flag.

Defines the network description and trained-network containers, plain
SGD-with-momentum training, batch predictions, per-conv-layer feature maps
and the above-threshold prediction census.

Every inference (predictions, accuracy, feature maps, the detector's pass
and spectral's penultimate features) runs through one forward pass over
64-image chunks, _chunked_forward. The layer kernels form each image's
bytes on their own, so an image gets the same logits and feature maps
alone, in a chunk or in any batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReluLayer,
    SoftmaxLayer,
    backward_pass,
    forward_pass,
    infer_shapes,
    softmax_batch,
    softmax_cross_entropy,
)
from .errors import TrainingError, ValidationError

__all__ = [
    "NetworkSpec",
    "Network",
    "TrainConfig",
    "default_victim_spec",
    "train_victim",
    "predict_batch",
    "layer_outputs_batch",
    "prediction_census",
    "CensusTable",
]

_MOMENTUM = 0.9  # SGD momentum of train_victim
# Images per forward pass when a large batch is split. At 64 desk images a
# chunk's temporaries stay under 3 MB, so the peak memory moves little with
# whether glibc serves them from its heap or by mmap (README, Memory).
_CHUNK_ROWS = 64


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer descriptors plus input dims and class count.

    Construction checks that adjacent layers are shape-compatible and that
    there is exactly one softmax head, at the end, fed by `classes` scores.
    """

    input_dims: tuple
    classes: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "classes", int(self.classes))
        if self.classes < 1:
            raise ValidationError(f"class count must be positive, got {self.classes}")
        if not self.layers:
            raise ValidationError("network needs at least one layer")
        heads = sum(isinstance(l, SoftmaxLayer) for l in self.layers)
        if heads != 1 or not isinstance(self.layers[-1], SoftmaxLayer):
            raise ValidationError("network needs exactly one softmax head, at the end")
        shapes = infer_shapes(self.input_dims, self.layers)
        if shapes[-1] != (self.classes,):
            raise ValidationError(
                f"softmax head receives {shapes[-1]}, expected ({self.classes},) scores"
            )

    def shapes(self):
        return infer_shapes(self.input_dims, self.layers)

    @property
    def conv_indices(self) -> tuple:
        return tuple(i for i, l in enumerate(self.layers) if isinstance(l, ConvLayer))

    @property
    def conv_count(self) -> int:
        return len(self.conv_indices)

    def conv_channels(self) -> tuple:
        """Channel count of each conv layer, in depth order."""
        return tuple(self.layers[i].filters for i in self.conv_indices)


def default_victim_spec() -> NetworkSpec:
    """28x28 grayscale, two conv/pool blocks, dense head, 10 classes."""
    return NetworkSpec(
        input_dims=(28, 28, 1),
        classes=10,
        layers=(
            ConvLayer(filters=8, kernel=3),
            ReluLayer(),
            MaxPoolLayer(window=2, stride=2),
            ConvLayer(filters=16, kernel=3),
            ReluLayer(),
            MaxPoolLayer(window=2, stride=2),
            DenseLayer(units=10),
            SoftmaxLayer(),
        ),
    )


class Network:
    """An immutable trained network: spec, weights and training metadata.

    `weights` has one entry per layer: a read-only float64 (weights, biases)
    pair for conv and dense layers, None for every other layer. Conv weights
    are (K, kH, kW, C_in); dense weights have one row per output unit.
    """

    __slots__ = ("spec", "weights", "metadata")

    def __init__(self, spec: NetworkSpec, weights, metadata=None):
        weights = list(weights)
        if len(weights) != len(spec.layers):
            raise ValidationError(
                f"got {len(weights)} weight entries for {len(spec.layers)} layers"
            )
        shape_in = (spec.input_dims,) + tuple(spec.shapes())
        normalized = []
        for idx, (layer, entry, prev) in enumerate(zip(spec.layers, weights, shape_in)):
            if isinstance(layer, ConvLayer):
                kind = "conv"
                expect = (layer.filters, layer.kernel, layer.kernel, prev[2])
            elif isinstance(layer, DenseLayer):
                kind = "dense"
                expect = (layer.units, int(np.prod(prev)))
            else:
                if entry is not None:
                    raise ValidationError(f"layer {idx} ({layer!r}) takes no weights")
                normalized.append(None)
                continue
            if entry is None:
                raise ValidationError(f"{kind} layer {idx} has no (weights, biases) entry")
            w = np.array(entry[0], dtype=np.float64)
            b = np.array(entry[1], dtype=np.float64)
            if w.shape != expect or b.shape != expect[:1]:
                raise ValidationError(
                    f"{kind} layer {idx} weights {w.shape}, biases {b.shape} "
                    f"!= {expect}, {expect[:1]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValidationError(f"{kind} layer {idx} weights are non-finite")
            w.flags.writeable = False
            b.flags.writeable = False
            normalized.append((w, b))
        self.spec = spec
        self.weights = tuple(normalized)
        self.metadata = dict(metadata or {})


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    learning_rate: float = 0.05
    batch_size: int = 32
    seed: int = 0


def _init_weights(spec: NetworkSpec, rng: np.random.Generator):
    """He-normal conv kernels, Glorot-normal dense rows, zero biases."""
    weights = []
    shape_in = (spec.input_dims,) + tuple(spec.shapes())
    for idx, layer in enumerate(spec.layers):
        prev = shape_in[idx]
        if isinstance(layer, ConvLayer):
            fan_in = layer.kernel * layer.kernel * prev[2]
            std = np.sqrt(2.0 / fan_in)
            w = rng.normal(0.0, std, (layer.filters, layer.kernel, layer.kernel, prev[2]))
            weights.append((w, np.zeros(layer.filters)))
        elif isinstance(layer, DenseLayer):
            in_dim = int(np.prod(prev))
            std = np.sqrt(2.0 / (in_dim + layer.units))
            w = rng.normal(0.0, std, (layer.units, in_dim))
            weights.append((w, np.zeros(layer.units)))
        else:
            weights.append(None)
    return weights


def _as_batch(spec: NetworkSpec, images) -> np.ndarray:
    batch = np.asarray(images, dtype=np.float64)
    if batch.shape[:1] == (0,):
        raise ValidationError("need at least one image")
    if batch.ndim != 4 or batch.shape[1:] != spec.input_dims:
        raise ValidationError(
            f"batch shape {batch.shape} does not match input dims {spec.input_dims}"
        )
    return batch


def train_victim(dataset, spec: NetworkSpec, hyper: TrainConfig = TrainConfig()) -> Network:
    """SGD with momentum 0.9 on softmax cross-entropy; deterministic given the seed."""
    xtr, ytr = dataset.split("train")
    if len(xtr) == 0:
        raise ValidationError("training split is empty")
    if xtr.shape[1:] != spec.input_dims:
        raise ValidationError(
            f"dataset images {xtr.shape[1:]} do not match spec input {spec.input_dims}"
        )
    if int(ytr.max()) >= spec.classes:
        raise ValidationError("dataset labels exceed the spec class count")
    if hyper.epochs < 1 or hyper.batch_size < 1 or not 0 < hyper.learning_rate < np.inf:
        raise ValidationError("epochs/batch size must be positive, learning rate finite and > 0")

    rng = np.random.default_rng(hyper.seed)
    weights = _init_weights(spec, rng)
    velocity = [None if w is None else (np.zeros_like(w[0]), np.zeros_like(w[1]))
                for w in weights]
    n = len(xtr)
    last_loss = float("nan")
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            logits, tape, _ = forward_pass(spec.layers, weights, xtr[idx], keep_tape=True)
            losses, grad = softmax_cross_entropy(logits, ytr[idx])
            last_loss = float(losses.mean())
            if not np.isfinite(last_loss):
                raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch + 1}")
            grads = backward_pass(tape, grad / len(idx), wrt="params")
            for li, g in enumerate(grads.params):
                if g is None:
                    continue
                w, b = weights[li]
                vw, vb = velocity[li]
                vw *= _MOMENTUM
                vw -= hyper.learning_rate * g[0]
                vb *= _MOMENTUM
                vb -= hyper.learning_rate * g[1]
                weights[li] = (w + vw, b + vb)
                velocity[li] = (vw, vb)

    network = Network(spec, weights, metadata={})
    train_acc = _accuracy(network, xtr, ytr)
    xte, yte = dataset.split("test")
    test_acc = _accuracy(network, xte, yte) if len(xte) else None
    network.metadata.update(
        seed=hyper.seed,
        epochs=hyper.epochs,
        learning_rate=hyper.learning_rate,
        batch_size=hyper.batch_size,
        momentum=_MOMENTUM,
        final_loss=last_loss,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
    )
    return network


def _accuracy(network: Network, images, labels) -> float:
    if len(images) == 0:
        return float("nan")
    pred = np.argmax(_chunked_forward(network, images)[0], axis=1)
    return int((pred == labels).sum()) / len(images)


def predict_batch(network: Network, images):
    """(raw, probs, labels) arrays for a batch of images, forwarded 64 at a time."""
    logits = _chunked_forward(network, images)[0]
    return logits, softmax_batch(logits), np.argmax(logits, axis=1)


def layer_outputs_batch(network: Network, images):
    """Per-conv-layer activation arrays (N, h, w, k), forwarded 64 images at a time."""
    return _chunked_forward(network, images, capture_conv=True)[1]


def _chunked_forward(network: Network, images, depth=None, capture_conv=False):
    """(out, per-conv-layer activations) of the network's first `depth` layers
    (all by default), forwarded 64 images at a time. The activations are []
    without capture_conv, which needs the whole network.

    Every layer forms each image's bytes on their own, so chunking, or any
    other batch, changes no bit of a row. Each chunk's results are copied
    into arrays allocated once for the whole batch and dropped before the
    next chunk is forwarded, so the peak is the results plus one chunk's
    forward pass.
    """
    spec = network.spec
    batch = _as_batch(spec, images)
    layers, weights = spec.layers[:depth], network.weights[:depth]
    shapes = (spec.input_dims,) + tuple(spec.shapes())
    out = np.empty((len(batch),) + shapes[len(layers)])
    convs = [np.empty((len(batch),) + shapes[i + 1])
             for i in spec.conv_indices] if capture_conv else []
    for start in range(0, len(batch), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        out[rows], _, captured = forward_pass(layers, weights, batch[rows],
                                              capture_conv=capture_conv)
        for m, conv in enumerate(convs):
            conv[rows] = captured[m]
        del captured  # freed before the next chunk's forward, not during it
    return out, convs


@dataclass
class CensusTable:
    """Mean count of classes scoring above each threshold, raw and softmax."""

    thresholds: np.ndarray
    raw_mean_counts: np.ndarray
    softmax_mean_counts: np.ndarray


def prediction_census(network: Network, images, thresholds) -> CensusTable:
    """For each threshold t, the average number of classes with score > t."""
    raw, probs, _ = predict_batch(network, images)
    return _census_table(raw, probs, thresholds)


def _census_table(raw, probs, thresholds) -> CensusTable:
    """prediction_census's table from predict_batch's raw scores and probabilities."""
    ts = np.asarray(thresholds, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError("need a non-empty list of thresholds")
    raw_counts = (raw[:, :, None] > ts).sum(axis=1).mean(axis=0)
    soft_counts = (probs[:, :, None] > ts).sum(axis=1).mean(axis=0)
    return CensusTable(ts, raw_counts.astype(np.float64), soft_counts.astype(np.float64))

