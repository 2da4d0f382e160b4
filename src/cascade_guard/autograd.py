"""Layer stacks with a recorded forward tape and exact reverse-mode gradients.

The tape owns the activations of one forward evaluation; backward walks it in
reverse and produces gradients with respect to the input batch, every weight,
or both. Nothing here mutates shared state, so independent evaluations can run
in parallel against the same read-only weights.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    "infer_shapes",
    "ForwardTape",
    "Gradients",
    "forward_pass",
    "backward_pass",
    "softmax_cross_entropy",
]


@dataclass(frozen=True)
class ConvLayer:
    filters: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class ReluLayer:
    pass


@dataclass(frozen=True)
class MaxPoolLayer:
    window: int
    stride: int


@dataclass(frozen=True)
class DenseLayer:
    units: int


@dataclass(frozen=True)
class SoftmaxLayer:
    pass


LayerSpec = ConvLayer | ReluLayer | MaxPoolLayer | DenseLayer | SoftmaxLayer


def infer_shapes(input_dims, layers):
    """Shape after each layer: (h, w, c) while spatial, (n,) once flattened.

    Raises ValidationError on any incompatible adjacent pair, on layers after
    the softmax head, and on spatial ops applied to flattened activations.
    """
    shape = tuple(int(d) for d in input_dims)
    if len(shape) != 3 or min(shape) < 1:
        raise ValidationError(f"input dims must be positive (h, w, c), got {input_dims}")
    shapes = []
    closed = False
    for pos, layer in enumerate(layers):
        if closed:
            raise ValidationError(f"layer {pos} follows the softmax head")
        if isinstance(layer, ConvLayer):
            if len(shape) != 3:
                raise ValidationError(f"conv layer {pos} needs a spatial input, got {shape}")
            if layer.filters < 1 or layer.kernel < 1 or layer.stride < 1 or layer.padding < 0:
                raise ValidationError(
                    f"conv layer {pos} has invalid filters/kernel/stride/padding")
            ho, wo = _conv_out_dims(shape[0], shape[1], layer.kernel, layer.kernel,
                                    layer.stride, layer.padding)
            shape = (ho, wo, layer.filters)
        elif isinstance(layer, ReluLayer):
            pass
        elif isinstance(layer, MaxPoolLayer):
            if len(shape) != 3:
                raise ValidationError(f"maxpool layer {pos} needs a spatial input, got {shape}")
            if layer.window < 1 or layer.stride < 1:
                raise ValidationError(f"maxpool layer {pos} has invalid window/stride")
            if shape[0] < layer.window or shape[1] < layer.window:
                raise ValidationError(
                    f"maxpool window {layer.window} exceeds input {shape[0]}x{shape[1]}"
                )
            shape = ((shape[0] - layer.window) // layer.stride + 1,
                     (shape[1] - layer.window) // layer.stride + 1,
                     shape[2])
        elif isinstance(layer, DenseLayer):
            if layer.units < 1:
                raise ValidationError(f"dense layer {pos} has invalid units")
            shape = (int(layer.units),)
        elif isinstance(layer, SoftmaxLayer):
            if len(shape) != 1:
                raise ValidationError("softmax head needs a flat input")
            closed = True
        else:
            raise ValidationError(f"unknown layer descriptor {layer!r}")
        shapes.append(shape)
    return shapes


@dataclass
class ForwardTape:
    """Activations recorded by one forward evaluation, consumed by backward."""

    layers: tuple
    weights: tuple
    records: list
    batch_shape: tuple
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
    tape is None unless keep_tape, and captured lists the post-ReLU output of
    every conv layer (the conv output itself when no ReLU follows) when
    capture_conv is set.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValidationError(f"batch must be N x H x W x C, got shape {x.shape}")
    a = x
    records = [] if keep_tape else None
    captured = [] if capture_conv else None
    pending_conv = False
    for layer, entry in zip(layers, weights):
        if isinstance(layer, ConvLayer):
            if capture_conv and pending_conv:
                captured.append(a)
            w, b = entry
            if keep_tape:
                records.append(("conv", a, w, layer))
            a = _conv_forward(a, w, b, layer.stride, layer.padding)
            pending_conv = True
        elif isinstance(layer, ReluLayer):
            if keep_tape:
                records.append(("relu", a))
            a = _relu_forward(a)
            if capture_conv and pending_conv:
                captured.append(a)
            pending_conv = False
        elif isinstance(layer, MaxPoolLayer):
            if capture_conv and pending_conv:
                captured.append(a)
            pending_conv = False
            out, arg = _maxpool_forward(a, layer.window, layer.stride, keep_arg=keep_tape)
            if keep_tape:
                records.append(("maxpool", a.shape, arg, layer))
            a = out
        elif isinstance(layer, DenseLayer):
            if capture_conv and pending_conv:
                captured.append(a)
            pending_conv = False
            w, b = entry
            flat = a.reshape(a.shape[0], -1)
            if flat.shape[1] != w.shape[1]:
                raise ValidationError(
                    f"dense weights expect {w.shape[1]} inputs, got {flat.shape[1]}"
                )
            if keep_tape:
                records.append(("dense", flat, a.shape, w))
            a = _dense_forward(flat, w, b)
        elif isinstance(layer, SoftmaxLayer):
            if keep_tape:
                records.append(("softmax",))
        else:
            raise ValidationError(f"unknown layer descriptor {layer!r}")
    if capture_conv and pending_conv:
        captured.append(a)
    logits = a
    tape = None
    if keep_tape:
        tape = ForwardTape(tuple(layers), tuple(weights), records, x.shape, logits)
    return logits, tape, captured


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
    if tape is None or not isinstance(tape, ForwardTape) or not tape.records:
        raise ValidationError("backward needs the tape of a completed forward pass")
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != tape.logits.shape:
        raise ValidationError(
            f"loss gradient shape {g.shape} does not match logits {tape.logits.shape}"
        )
    if len(tape.records) != len(tape.layers):
        raise ValidationError("tape is incomplete; rerun the forward pass")
    input_grad = wrt != "params"
    param_grad = wrt != "input"
    params = [None] * len(tape.layers)
    first = 0
    if not input_grad:
        first = next((i for i, e in enumerate(tape.weights) if e is not None), 0)
    for idx in range(len(tape.layers) - 1, first - 1, -1):
        rec = tape.records[idx]
        kind = rec[0]
        if kind == "softmax":
            continue  # gradients are seeded at the pre-softmax logits
        if kind == "relu":
            g = _relu_backward(rec[1], g)
        elif kind == "conv":
            _, a_in, w, layer = rec
            g, gw, gb = _conv_backward(a_in, w, layer.stride, layer.padding, g,
                                       input_grad or idx > first, param_grad)
            params[idx] = (gw, gb)
        elif kind == "maxpool":
            _, in_shape, arg, layer = rec
            g = _maxpool_backward(in_shape, layer.window, layer.stride, arg, g)
        elif kind == "dense":
            _, flat, in_shape, w = rec
            g, gw, gb = _dense_backward(flat, w, g, param_grad)
            params[idx] = (gw, gb)
            g = g.reshape(in_shape)
        else:  # pragma: no cover - records are produced above
            raise ValidationError(f"unknown tape record {kind!r}")
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
