"""The image type and the batched layer kernels of the victim CNN.

All arithmetic is float64 end to end so gradient checks hold to 1e-6 and runs
are bit-reproducible. Tensor is the image type of attack records and tensor
files. The kernels take batches (leading axis N) and are private: the
library reaches them only through autograd.

No kernel's output for an image depends on the rest of its batch. The conv
forward is im2col with one GEMM per image over tap-major columns, which copy
rows of Wo and pad 32 images at a time (see _column_blocks), and the dense
layer and its input gradient are one product per row (see _per_row), because
OpenBLAS rounds a 2-D product by its row count. Max pooling takes its values
with an in-place np.maximum; a compare-and-select scan gives the same bytes
on input without NaN or -0.0. When a tape is kept, each window tap is read
once into a reused buffer and the argmax is a running np.maximum of offsets
(see _maxpool_forward). The ReLU backward masks its gradient buffer in place.
The conv and dense backward kernels compute only what backward_pass asks of
them: the input gradient, the weight and bias gradients, or both. The weight
gradients sum over the batch: the dense one is one product, the conv one is
one GEMM per image over the forward's column blocks, summed in image order
(see _conv_backward). The conv input gradient is one product per kernel tap.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Images per column block (1.6 MB for the desk conv1, 2.2 MB for conv2) and,
# in a padded conv, per padded block.
_IM2COL_IMAGES = 32


def _conv_out_dims(h, w, kh, kw, stride, padding):
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if h + 2 * padding < kh or w + 2 * padding < kw or ho < 1 or wo < 1:
        raise ValidationError(
            f"kernel {kh}x{kw} (stride {stride}, padding {padding}) does not fit "
            f"input {h}x{w}: output would be {ho}x{wo}"
        )
    return ho, wo


def _column_blocks(x, kh, kw, stride, padding, ho, wo):
    """Yield (start, block) for each run of _IM2COL_IMAGES images from start:
    block holds their tap-major columns, (images, kH, kW, C_in, Ho, Wo), in
    one buffer that every block reuses (the last block may be short).

    Each tap of each channel is Ho runs of Wo copied from the channel-first
    view of the images, which are padded, when they are, one block at a time
    into one reused padded buffer.
    """
    n, h, w, cin = x.shape
    images = min(n, _IM2COL_IMAGES)
    cols = np.empty((images, kh, kw, cin, ho, wo))
    if padding:
        padded = np.zeros((images, cin, h + 2 * padding, w + 2 * padding))
    for start in range(0, n, _IM2COL_IMAGES):
        block = cols[: n - start]
        src = x[start : start + len(block)].transpose(0, 3, 1, 2)
        if padding:
            padded[: len(block), :, padding:-padding, padding:-padding] = src
            src = padded[: len(block)]
        # (images, C_in, Ho, Wo, kH, kW) windows, copied in the order of block.
        windows = sliding_window_view(src, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        block[...] = windows.transpose(0, 4, 5, 1, 2, 3)
        yield start, block


def _conv_forward(x, weights, biases, stride, padding):
    """im2col conv over the column blocks of _column_blocks: each image is
    one GEMM, so its bytes do not depend on the rest of the batch. A GEMM per
    image stays below OpenBLAS's threading threshold, which one flat GEMM per
    block crosses. Each image's GEMM reads its columns transposed,
    (Ho*Wo, kH*kW*C_in) with leading dimension Ho*Wo, and the bias is one add
    over the contiguous output.
    """
    n, h, w, cin = x.shape
    k, kh, kw, ck = weights.shape
    if ck != cin:
        raise ValidationError(
            f"input has {cin} channels but kernels expect {ck} input channels"
        )
    ho, wo = _conv_out_dims(h, w, kh, kw, stride, padding)
    wmat = weights.transpose(1, 2, 3, 0).reshape(-1, k)
    out = np.empty((n, ho * wo, k))
    for start, block in _column_blocks(x, kh, kw, stride, padding, ho, wo):
        np.matmul(block.reshape(len(block), -1, ho * wo).transpose(0, 2, 1), wmat,
                  out=out[start : start + len(block)])
    out.reshape(n, ho * wo * k)[...] += np.tile(biases, ho * wo)
    return out.reshape(n, ho, wo, k)


def _conv_backward(x, weights, stride, padding, gy, input_grad=True, param_grad=True):
    """(gx, gweights, gbiases); gx is None without input_grad, the other two
    None without param_grad.

    The input gradient is one product per kernel tap, added into the padded
    input's window of that tap. The weight gradient rebuilds the forward's
    column blocks (_column_blocks) and is one GEMM per image, its
    (kH*kW*C_in, Ho*Wo) columns times its (Ho*Wo, K) output gradient; the
    products are summed over the images in order, block after block. Like the
    forward's, each GEMM stays below OpenBLAS's threading threshold. The bias
    gradient is one sum of gy over images and positions.
    """
    n, h, w, cin = x.shape
    k, kh, kw, _ = weights.shape
    ho, wo = gy.shape[1], gy.shape[2]
    gx = gw = gb = None
    if input_grad:
        wmat = weights.transpose(1, 2, 3, 0)
        gxp = np.zeros((n, h + 2 * padding, w + 2 * padding, cin))
        s = stride
        for i in range(kh):
            for j in range(kw):
                rows = slice(i, i + (ho - 1) * s + 1, s)
                cols = slice(j, j + (wo - 1) * s + 1, s)
                gxp[:, rows, cols, :] += gy @ wmat[i, j].T
        gx = gxp[:, padding : padding + h, padding : padding + w, :] if padding else gxp
    if param_grad:
        gy_img = gy.reshape(n, ho * wo, k)
        gw = np.zeros((kh * kw * cin, k))
        for start, block in _column_blocks(x, kh, kw, stride, padding, ho, wo):
            b = len(block)
            gw += np.matmul(block.reshape(b, -1, ho * wo), gy_img[start : start + b]).sum(axis=0)
        gw = gw.reshape(kh, kw, cin, k).transpose(3, 0, 1, 2)
        gb = np.einsum("nhwk->k", gy)
    return gx, gw, gb


def _pool_out_dims(h, w, window, stride):
    if window < 1 or stride < 1:
        raise ValidationError(f"window and stride must be positive, got {window}, {stride}")
    if h < window or w < window:
        raise ValidationError(f"pool window {window} exceeds spatial extent {h}x{w}")
    return (h - window) // stride + 1, (w - window) // stride + 1


def _pool_taps(ho, wo, window, stride):
    """(rows, cols) slices of each window tap, in scan order (row-major offset)."""
    for i in range(window):
        for j in range(window):
            yield (slice(i, i + (ho - 1) * stride + 1, stride),
                   slice(j, j + (wo - 1) * stride + 1, stride))


def _maxpool_forward(x, window, stride, keep_arg=True):
    """(values, arg): the window maxima and, with keep_arg, each maximum's
    scan offset (int16), the first offset winning ties; arg is None otherwise.

    An in-place np.maximum over the window taps gives the values. It keeps
    the maximum a compare-and-select scan keeps, except on NaN, which such a
    scan skips, and in the sign of a zero maximum over a window holding both
    -0.0 and +0.0. Neither reaches a pool that follows a ReLU or a conv of
    finite values.

    With keep_arg, each tap after the first is read once into one reused
    contiguous buffer, and arg is a running np.maximum of the offsets whose
    tap strictly exceeds the maximum so far. Offsets rise tap by tap, so the
    largest such offset is the first that holds the window maximum: a tie
    keeps the earlier offset.
    """
    window = int(window)
    stride = int(stride)
    ho, wo = _pool_out_dims(x.shape[1], x.shape[2], window, stride)
    best = arg = tap = None
    for idx, (rows, cols) in enumerate(_pool_taps(ho, wo, window, stride)):
        xs = x[:, rows, cols, :]
        if best is None:
            best = xs.copy()
            if keep_arg:
                arg = np.zeros(best.shape, dtype=np.int16)
                tap = np.empty_like(best)
            continue
        if keep_arg:
            np.copyto(tap, xs)
            xs = tap
            # strict: a tie keeps the earlier offset
            np.maximum(arg, np.greater(tap, best) * np.int16(idx), out=arg)
        np.maximum(best, xs, out=best)
    return best, arg


def _maxpool_backward(x_shape, window, stride, arg, gy):
    gx = np.zeros(x_shape)
    routed = np.empty(gy.shape)
    taps = _pool_taps(gy.shape[1], gy.shape[2], window, stride)
    for idx, (rows, cols) in enumerate(taps):
        # gy * False is -0.0 where gy < 0; gx is never -0.0, so the sum keeps its bits.
        gx[:, rows, cols, :] += np.multiply(gy, arg == idx, out=routed)
    return gx


def _relu_forward(x):
    return np.maximum(x, 0.0)


def _relu_backward(x, gy):
    """gy masked in place, subgradient 0 at exactly 0: gy must be a buffer
    the backward walk owns."""
    return np.multiply(gy, x > 0.0, out=gy)


def _per_row(rows, matrix):
    """rows @ matrix as one product per row: OpenBLAS rounds a 2-D product by
    its row count, a stack of one-row products the same for every row."""
    return np.matmul(rows[:, None, :], matrix)[:, 0]


def _dense_forward(xflat, weights, bias):
    # weights has one row per output unit: (units, in_dim).
    return _per_row(xflat, weights.T) + bias


def _dense_backward(xflat, weights, gy, param_grad=True):
    """(gx, gweights, gbias); the last two are None without param_grad.
    gx is formed per row, as the forward is; the weight gradient sums over
    the batch and stays one product."""
    gx = _per_row(gy, weights)
    if not param_grad:
        return gx, None, None
    return gx, gy.T @ xflat, gy.sum(axis=0)


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
