"""Per-layer kernel replay: each layer of the trained victim as a one-layer stack.

Forward and backward go through the public autograd.forward_pass and
backward_pass, so a kernel swap under them shows here. Flop and byte counts
are computed from the array shapes (forward direction only), not measured.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5


def _median_ms(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _computed_cost(layer, a_in, out, autograd):
    """(flops, bytes) of the forward layer, from shapes; float64 is 8 bytes."""
    n = a_in.shape[0]
    if isinstance(layer, autograd.ConvLayer):
        cin = a_in.shape[3]
        flops = 2 * out.size * layer.kernel * layer.kernel * cin
        weights = layer.filters * (layer.kernel * layer.kernel * cin + 1)
        return flops, 8 * (a_in.size + weights + out.size)
    if isinstance(layer, autograd.MaxPoolLayer):
        return out.size * layer.window * layer.window, 8 * (a_in.size + out.size)
    if isinstance(layer, autograd.DenseLayer):
        fan_in = a_in.size // n
        weights = layer.units * (fan_in + 1)
        return 2 * n * fan_in * layer.units, 8 * (a_in.size + weights + out.size)
    return a_in.size, 8 * (a_in.size + out.size)  # relu: one compare per element


def replay(cg, network, images, names):
    """tensor.<layer>.{fwd_ms,bwd_ms,mflop,mbytes} for one batch of images."""
    autograd = cg.autograd
    rng = np.random.default_rng(0)
    a = np.asarray(images, dtype=np.float64)
    stack = [(layer, w) for layer, w in zip(network.spec.layers, network.weights)
             if not isinstance(layer, autograd.SoftmaxLayer)]
    if len(stack) != len(names):
        raise ValueError(f"victim has {len(stack)} replayable layers, expected {len(names)}")
    metrics = {}
    for name, (layer, w) in zip(names, stack):
        layers, weights = [layer], [w]
        a_in = a
        fwd_ms = _median_ms(lambda: autograd.forward_pass(layers, weights, a_in))
        out, tape, _ = autograd.forward_pass(layers, weights, a_in, keep_tape=True)
        grad = rng.standard_normal(out.shape)
        bwd_ms = _median_ms(lambda: autograd.backward_pass(tape, grad))
        flops, nbytes = _computed_cost(layer, a_in, out, autograd)
        metrics[f"tensor.{name}.fwd_ms"] = fwd_ms
        metrics[f"tensor.{name}.bwd_ms"] = bwd_ms
        metrics[f"tensor.{name}.mflop"] = flops / 1e6
        metrics[f"tensor.{name}.mbytes"] = nbytes / 1e6
        a = out
    return metrics
