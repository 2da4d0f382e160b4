"""The image type and the batched layer kernels of the victim CNN.

All arithmetic is float64 end to end so gradient checks hold to 1e-6 and runs
are bit-reproducible. Tensor is the image type of attack records and tensor
files. The kernels take batches (leading axis N) and are private: the
library reaches them only through autograd.

Three kernels have fast paths that give the same bytes as the general code:
conv with one input channel (chosen by the input's channel count), max
pooling without the argmax record (used by forward passes that keep no
tape; same bytes on input without NaN or -0.0, see _maxpool_values), and a
conv backward that computes only the weight gradients (used for the first
layer when no input gradient is asked for). None of them reorders a
floating-point operation.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["Tensor"]


class Tensor:
    """Immutable image of an attack record or a tensor file: an H x W x C float64 array.

    Construction copies the data, rejects non-finite values and makes the
    copy read-only.
    """

    __slots__ = ("array",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 3 or arr.size == 0:
            raise ValidationError(f"tensor data must be HxWxC, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("tensor contains non-finite values")
        arr.flags.writeable = False
        self.array = arr


# ---------------------------------------------------------------------------
# Batched kernels. x has shape (N, H, W, C); gradients mirror the inputs.
# ---------------------------------------------------------------------------

def _conv_out_dims(h, w, kh, kw, stride, padding):
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if h + 2 * padding < kh or w + 2 * padding < kw or ho < 1 or wo < 1:
        raise ValidationError(
            f"kernel {kh}x{kw} (stride {stride}, padding {padding}) does not fit "
            f"input {h}x{w}: output would be {ho}x{wo}"
        )
    return ho, wo


def _conv_forward(x, weights, biases, stride, padding):
    n, h, w, cin = x.shape
    k, kh, kw, ck = weights.shape
    if ck != cin:
        raise ValidationError(
            f"input has {cin} channels but kernels expect {ck} input channels"
        )
    ho, wo = _conv_out_dims(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else x
    s = stride
    if cin == 1:
        return _conv_forward_one_channel(xp[..., 0], weights[..., 0], biases, ho, wo, s)
    wmat = weights.transpose(1, 2, 3, 0)  # (kH, kW, C_in, K)
    out = np.broadcast_to(biases, (n, ho, wo, k)).copy()
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, i : i + (ho - 1) * s + 1 : s, j : j + (wo - 1) * s + 1 : s, :]
            out += xs @ wmat[i, j]
    return out


def _conv_forward_one_channel(xp, weights, biases, ho, wo, s):
    """Conv of a padded one-channel batch (N, H, W); weights are (K, kH, kW).

    With one input channel the general path's per-tap (..., 1) @ (1, K)
    matmul is one exact product per element, so adding the same products to
    a bias plane in the same tap order gives the same bytes. The matmul's
    zero start turns a -0.0 product into +0.0; adding 0.0 to the bias has the
    same effect on the only sum where that sign could survive.
    """
    n = xp.shape[0]
    k, kh, kw = weights.shape
    planes = np.empty((k, n, ho, wo))
    tap = np.empty((n, ho, wo))
    for c in range(k):
        plane = planes[c]
        plane[...] = biases[c] + 0.0
        for i in range(kh):
            for j in range(kw):
                xs = xp[:, i : i + (ho - 1) * s + 1 : s, j : j + (wo - 1) * s + 1 : s]
                np.multiply(xs, weights[c, i, j], out=tap)
                plane += tap
    # A contiguous (N, Ho, Wo, K) copy: a transposed view slows every later layer.
    return np.ascontiguousarray(planes.transpose(1, 2, 3, 0))


def _conv_backward(x, weights, stride, padding, gy, input_grad=True):
    """(gx, gweights, gbiases); gx is None when input_grad is False."""
    n, h, w, cin = x.shape
    k, kh, kw, _ = weights.shape
    ho, wo = gy.shape[1], gy.shape[2]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else x
    wmat = weights.transpose(1, 2, 3, 0)
    gxp = np.zeros_like(xp) if input_grad else None
    gw = np.zeros((kh, kw, cin, k))
    s = stride
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + (ho - 1) * s + 1, s)
            cols = slice(j, j + (wo - 1) * s + 1, s)
            xs = xp[:, rows, cols, :]
            gw[i, j] = np.tensordot(xs, gy, axes=([0, 1, 2], [0, 1, 2]))
            if input_grad:
                gxp[:, rows, cols, :] += gy @ wmat[i, j].T
    gx = gxp[:, padding : padding + h, padding : padding + w, :] if padding and input_grad else gxp
    gweights = gw.transpose(3, 0, 1, 2)
    gbiases = gy.sum(axis=(0, 1, 2))
    return gx, gweights, gbiases


def _pool_out_dims(h, w, window, stride):
    if window < 1 or stride < 1:
        raise ValidationError(f"window and stride must be positive, got {window}, {stride}")
    if h < window or w < window:
        raise ValidationError(f"pool window {window} exceeds spatial extent {h}x{w}")
    return (h - window) // stride + 1, (w - window) // stride + 1


def _maxpool_forward(x, window, stride):
    n, h, w, c = x.shape
    window = int(window)
    stride = int(stride)
    ho, wo = _pool_out_dims(h, w, window, stride)
    best = np.full((n, ho, wo, c), -np.inf)
    arg = np.zeros((n, ho, wo, c), dtype=np.int16)
    idx = 0
    for i in range(window):
        for j in range(window):
            xs = x[:, i : i + (ho - 1) * stride + 1 : stride,
                   j : j + (wo - 1) * stride + 1 : stride, :]
            better = xs > best  # strict: ties resolve to the first offset in scan order
            best = np.where(better, xs, best)
            arg = np.where(better, idx, arg)
            idx += 1
    return best, arg


def _maxpool_values(x, window, stride):
    """The pooled values of _maxpool_forward, without the argmax record.

    An in-place np.maximum over the same window taps replaces the compare
    and the two np.where of the scan. Both keep the same maximum; they can
    differ only on NaN, which the scan skips, and in the sign of a zero
    maximum over a window holding both -0.0 and +0.0. Neither reaches a pool
    that follows a ReLU or a conv of finite values.
    """
    window = int(window)
    stride = int(stride)
    ho, wo = _pool_out_dims(x.shape[1], x.shape[2], window, stride)
    best = None
    for i in range(window):
        for j in range(window):
            xs = x[:, i : i + (ho - 1) * stride + 1 : stride,
                   j : j + (wo - 1) * stride + 1 : stride, :]
            if best is None:
                best = xs.copy()
            else:
                np.maximum(best, xs, out=best)
    return best


def _maxpool_backward(x_shape, window, stride, arg, gy):
    gx = np.zeros(x_shape)
    ho, wo = gy.shape[1], gy.shape[2]
    idx = 0
    for i in range(window):
        for j in range(window):
            rows = slice(i, i + (ho - 1) * stride + 1, stride)
            cols = slice(j, j + (wo - 1) * stride + 1, stride)
            gx[:, rows, cols, :] += np.where(arg == idx, gy, 0.0)
            idx += 1
    return gx


def _relu_forward(x):
    return np.maximum(x, 0.0)


def _relu_backward(x, gy):
    # Subgradient 0 at exactly 0.
    return gy * (x > 0.0)


def _dense_forward(xflat, weights, bias):
    # weights has one row per output unit: (units, in_dim).
    return xflat @ weights.T + bias


def _dense_backward(xflat, weights, gy):
    gx = gy @ weights
    gweights = gy.T @ xflat
    gbias = gy.sum(axis=0)
    return gx, gweights, gbias


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
