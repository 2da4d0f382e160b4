"""Layer stacks with a recorded forward tape and exact reverse-mode gradients.

The tape owns the activations of one forward evaluation; backward walks it in
reverse and produces gradients with respect to the input batch, every weight,
or both. Nothing here mutates shared state, so independent evaluations can run
in parallel against the same read-only weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ValidationError
from .tensor import (
    _conv_backward,
    _conv_forward,
    _conv_out_dims,
    _dense_backward,
    _dense_forward,
    _maxpool_backward,
    _maxpool_forward,
    _pool_out_dims,
    _relu_backward,
    _relu_forward,
    _softmax,
)

__all__ = [
    "ConvLayer",
    "ReluLayer",
    "MaxPoolLayer",
    "DenseLayer",
    "SoftmaxLayer",
    "LAYER_KINDS",
    "infer_shapes",
    "captured_layers",
    "ForwardTape",
    "Gradients",
    "forward_pass",
    "backward_pass",
    "softmax_cross_entropy",
]


@dataclass(frozen=True)
class ConvLayer:
    kind: ClassVar[str] = "conv"
    filters: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class ReluLayer:
    kind: ClassVar[str] = "relu"


@dataclass(frozen=True)
class MaxPoolLayer:
    kind: ClassVar[str] = "maxpool"
    window: int
    stride: int


@dataclass(frozen=True)
class DenseLayer:
    kind: ClassVar[str] = "dense"
    units: int


@dataclass(frozen=True)
class SoftmaxLayer:
    kind: ClassVar[str] = "softmax"


# Each layer class by the kind name its artifacts carry.
LAYER_KINDS = {cls.kind: cls for cls in
               (ConvLayer, ReluLayer, MaxPoolLayer, DenseLayer, SoftmaxLayer)}


def infer_shapes(input_dims, layers):
    """Shape after each layer: (h, w, c) while spatial, (n,) once flattened.

    Raises ValidationError on any incompatible adjacent pair, on layers after
    the softmax head, and on spatial ops applied to flattened activations.
    """
    shape = tuple(int(d) for d in input_dims)
    if len(shape) != 3 or min(shape) < 1:
        raise ValidationError(f"input dims must be positive (h, w, c), got {input_dims}")
    shapes = []
    for pos, layer in enumerate(layers):
        if pos and isinstance(layers[pos - 1], SoftmaxLayer):
            raise ValidationError(f"layer {pos} follows the softmax head")
        if isinstance(layer, (ConvLayer, MaxPoolLayer)) and len(shape) != 3:
            raise ValidationError(f"{layer.kind} layer {pos} needs a spatial input, got {shape}")
        if isinstance(layer, ConvLayer):
            if layer.filters < 1 or layer.kernel < 1 or layer.stride < 1 or layer.padding < 0:
                raise ValidationError(
                    f"conv layer {pos} has invalid filters/kernel/stride/padding")
            shape = (*_conv_out_dims(shape[0], shape[1], layer.kernel, layer.kernel,
                                     layer.stride, layer.padding), layer.filters)
        elif isinstance(layer, MaxPoolLayer):
            shape = (*_pool_out_dims(shape[0], shape[1], layer.window, layer.stride), shape[2])
        elif isinstance(layer, DenseLayer):
            if layer.units < 1:
                raise ValidationError(f"dense layer {pos} has invalid units")
            shape = (int(layer.units),)
        elif isinstance(layer, SoftmaxLayer):
            if len(shape) != 1:
                raise ValidationError("softmax head needs a flat input")
        elif not isinstance(layer, ReluLayer):
            raise ValidationError(f"unknown layer descriptor {layer!r}")
        shapes.append(shape)
    return shapes


def captured_layers(layers):
    """Index of the layer whose output is each conv layer's captured activation:
    the ReLU right after the conv, else the conv itself. In depth order."""
    return tuple(i + 1 if i + 1 < len(layers) and isinstance(layers[i + 1], ReluLayer) else i
                 for i, layer in enumerate(layers) if isinstance(layer, ConvLayer))


@dataclass
class ForwardTape:
    """Activations recorded by one forward evaluation, consumed by backward.

    saved has one entry per layer, what its backward reads: the input of a
    conv, relu or dense layer, the input shape and argmax offsets of a
    maxpool, None for the softmax head.
    """

    layers: tuple
    weights: tuple
    saved: list
    logits: np.ndarray


@dataclass
class Gradients:
    """Reverse-mode gradients: input batch plus one entry per layer.

    Parametric layers get (weight_grad, bias_grad); the rest get None.
    Whichever of the two backward_pass was told not to compute is None.
    """

    input: np.ndarray
    params: list


def forward_pass(layers, weights, x, keep_tape=False, capture_conv=False):
    """Run the stack on a batch (N, H, W, C) of images.

    weights has one entry per layer, as in Network.weights: a (weights,
    biases) pair for conv and dense layers, None otherwise.

    Returns (logits, tape, captured) where logits are the pre-softmax scores,
    tape is None unless keep_tape, and captured lists the activation
    captured_layers names for every conv layer (its ReLU's output, else its
    own) when capture_conv is set.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValidationError(f"batch must be N x H x W x C, got shape {x.shape}")
    a = x
    saved = [] if keep_tape else None
    captured = [] if capture_conv else None
    taps = captured_layers(layers) if capture_conv else ()
    for idx, (layer, entry) in enumerate(zip(layers, weights)):
        keep = a
        if isinstance(layer, ConvLayer):
            a = _conv_forward(a, entry[0], entry[1], layer.stride, layer.padding)
        elif isinstance(layer, ReluLayer):
            a = _relu_forward(a)
        elif isinstance(layer, MaxPoolLayer):
            a, arg = _maxpool_forward(a, layer.window, layer.stride, keep_arg=keep_tape)
            keep = (keep.shape, arg)
        elif isinstance(layer, DenseLayer):
            w, b = entry
            flat = a.reshape(a.shape[0], -1)
            if flat.shape[1] != w.shape[1]:
                raise ValidationError(
                    f"dense weights expect {w.shape[1]} inputs, got {flat.shape[1]}"
                )
            a = _dense_forward(flat, w, b)
        elif isinstance(layer, SoftmaxLayer):
            keep = None
        else:
            raise ValidationError(f"unknown layer descriptor {layer!r}")
        if keep_tape:
            saved.append(keep)
        if idx in taps:
            captured.append(a)
    tape = None
    if keep_tape:
        tape = ForwardTape(tuple(layers), tuple(weights), saved, a)
    return a, tape, captured


_BACKWARD_WRT = ("input", "params", "both")


def backward_pass(tape: ForwardTape, grad_logits, wrt="both") -> Gradients:
    """Walk the tape in reverse from a gradient seeded at the logits.

    conv, relu (subgradient 0 at 0), maxpool (gradient routed to the argmax,
    first-found tie-break) and dense all receive exact gradients. wrt says
    what to compute: "input" (Gradients.params is None; no layer forms a
    weight or bias gradient), "params" (Gradients.input is None; the walk
    stops at the first parametric layer, which forms only its weight and
    bias gradients) or "both".
    """
    if wrt not in _BACKWARD_WRT:
        raise ValidationError(f"backward wrt must be one of {_BACKWARD_WRT}, got {wrt!r}")
    if tape is None or not isinstance(tape, ForwardTape) or not tape.saved:
        raise ValidationError("backward needs the tape of a completed forward pass")
    # A copy: layers such as the ReLU write their gradient in place.
    g = np.array(grad_logits, dtype=np.float64)
    if g.shape != tape.logits.shape:
        raise ValidationError(
            f"loss gradient shape {g.shape} does not match logits {tape.logits.shape}"
        )
    if len(tape.saved) != len(tape.layers):
        raise ValidationError("tape is incomplete; rerun the forward pass")
    input_grad = wrt != "params"
    param_grad = wrt != "input"
    params = [None] * len(tape.layers)
    first = 0
    if not input_grad:
        first = next((i for i, e in enumerate(tape.weights) if e is not None), 0)
    for idx in range(len(tape.layers) - 1, first - 1, -1):
        layer, a_in = tape.layers[idx], tape.saved[idx]
        # A softmax head passes g on: gradients are seeded at the pre-softmax logits.
        if isinstance(layer, ReluLayer):
            g = _relu_backward(a_in, g)
        elif isinstance(layer, ConvLayer):
            g, gw, gb = _conv_backward(a_in, tape.weights[idx][0], layer.stride,
                                       layer.padding, g, input_grad or idx > first,
                                       param_grad)
            params[idx] = (gw, gb)
        elif isinstance(layer, MaxPoolLayer):
            in_shape, arg = a_in
            g = _maxpool_backward(in_shape, layer.window, layer.stride, arg, g)
        elif isinstance(layer, DenseLayer):
            g, gw, gb = _dense_backward(a_in.reshape(len(a_in), -1), tape.weights[idx][0],
                                        g, param_grad)
            params[idx] = (gw, gb)
            g = g.reshape(a_in.shape)
    return Gradients(input=g if input_grad else None,
                     params=params if param_grad else None)


def softmax_cross_entropy(logits, labels):
    """Per-example cross-entropy of softmax(logits) against integer labels.

    Returns (losses, grad_logits) where grad rows are softmax(z) - onehot(y);
    the caller scales by whatever batch normalization it wants.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or y.shape != (z.shape[0],):
        raise ValidationError(
            f"need logits (N, C) and labels (N,), got {z.shape} and {y.shape}"
        )
    zmax = z.max(axis=1, keepdims=True)
    zs = z - zmax
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    rows = np.arange(z.shape[0])
    losses = -logp[rows, y]
    grad = np.exp(logp)
    grad[rows, y] -= 1.0
    return losses, grad


def softmax_batch(logits):
    """Row-wise stable softmax for (N, C) logits."""
    return _softmax(np.asarray(logits, dtype=np.float64))
