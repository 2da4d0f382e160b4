import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from cascade_guard.autograd import (
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReluLayer,
    forward_pass,
    softmax_batch,
)
from cascade_guard.errors import ValidationError
from cascade_guard.tensor import (
    Tensor,
    _conv_backward,
    _conv_forward,
    _maxpool_backward,
    _maxpool_forward,
)


def one_layer(layer, entry, image):
    """One H x W x C image through a one-layer stack, as the kernel replay runs each layer."""
    out, _, _ = forward_pass([layer], [entry], np.asarray(image, dtype=np.float64)[None])
    return out[0]


def conv(image, weights, biases=None, stride=1, padding=0):
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(len(w)) if biases is None else np.asarray(biases, dtype=np.float64)
    return one_layer(ConvLayer(len(w), w.shape[1], stride, padding), (w, b), image)


def relu(image):
    return one_layer(ReluLayer(), None, image)


def maxpool(image, window, stride):
    return one_layer(MaxPoolLayer(window, stride), None, image)


def dense(image, weights, bias):
    w = np.asarray(weights, dtype=np.float64)
    return one_layer(DenseLayer(len(w)), (w, np.asarray(bias, dtype=np.float64)), image)


def softmax(raw):
    return softmax_batch([raw])[0]


def small_tensors(max_hw=6, max_c=3):
    shapes = st.tuples(st.integers(1, max_hw), st.integers(1, max_hw), st.integers(1, max_c))
    return shapes.flatmap(
        lambda s: arrays(np.float64, s, elements=st.floats(-10, 10, width=64))
    ).map(Tensor)


class TestTensor:
    def test_dims_and_flat_data_roundtrip(self):
        t = Tensor(np.arange(12.0).reshape(2, 3, 2))
        assert t.array.shape == (2, 3, 2)
        assert t.array.ravel().tolist() == list(np.arange(12.0))

    def test_2d_input_rejected(self):
        with pytest.raises(ValidationError, match="HxWxC"):
            Tensor([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            Tensor([[[np.nan], [1.0]], [[2.0], [3.0]]])

    def test_immutable(self):
        t = Tensor(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            t.array[0, 0, 0] = 1.0


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).random((4, 5, 1))
        assert np.array_equal(conv(x, np.ones((1, 1, 1, 1))), x)

    def test_all_ones_against_nested_loop_oracle(self):
        out = conv(np.ones((3, 3, 1)), np.ones((1, 2, 2, 1)))
        assert out.shape == (2, 2, 1)
        assert np.array_equal(out, np.full((2, 2, 1), 4.0))

    def test_zero_kernels_zero_output(self):
        x = np.random.default_rng(1).random((5, 5, 2))
        assert not conv(x, np.zeros((3, 2, 2, 2))).any()

    def test_matches_nested_loop_oracle_random(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 7, 2))
        w = rng.normal(size=(3, 3, 3, 2))
        b = rng.normal(size=3)
        stride, pad = 2, 1
        got = conv(x, w, b, stride=stride, padding=pad)

        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        ho = (x.shape[0] + 2 * pad - 3) // stride + 1
        wo = (x.shape[1] + 2 * pad - 3) // stride + 1
        want = np.zeros((ho, wo, 3))
        for oh in range(ho):
            for ow in range(wo):
                for k in range(3):
                    patch = xp[oh * stride : oh * stride + 3, ow * stride : ow * stride + 3]
                    want[oh, ow, k] = b[k] + (patch * w[k]).sum()
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_channel_mismatch_rejected_with_diagnostic(self):
        with pytest.raises(ValidationError, match="channels"):
            conv(np.ones((4, 4, 1)), np.ones((1, 2, 2, 3)))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ValidationError, match="does not fit"):
            conv(np.ones((3, 3, 1)), np.ones((1, 5, 5, 1)))

    @settings(max_examples=50, deadline=None)
    @given(
        x=arrays(np.float64, (4, 4, 2), elements=st.floats(-5, 5, width=64)),
        y=arrays(np.float64, (4, 4, 2), elements=st.floats(-5, 5, width=64)),
        a=st.floats(-3, 3, width=64),
        b=st.floats(-3, 3, width=64),
    )
    def test_linearity_for_bias_free_banks(self, x, y, a, b):
        w = np.random.default_rng(5).normal(size=(2, 3, 3, 2))
        lhs = conv(a * x + b * y, w)
        rhs = a * conv(x, w) + b * conv(y, w)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def conv_tap_loop(x, weights, biases, stride, padding):
    """Reference conv: one (..., C_in) @ (C_in, K) matmul per kernel tap."""
    k, kh, kw, _ = weights.shape
    ho = (x.shape[1] + 2 * padding - kh) // stride + 1
    wo = (x.shape[2] + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    wmat = weights.transpose(1, 2, 3, 0)
    out = np.broadcast_to(biases, (len(x), ho, wo, k)).copy()
    s = stride
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, i : i + (ho - 1) * s + 1 : s, j : j + (wo - 1) * s + 1 : s, :]
            out += xs @ wmat[i, j]
    return out


def with_signed_zeros(rng, a):
    a = a.copy()
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


class TestConvForward:
    @settings(max_examples=80, deadline=None)
    @example(n=1, h=1, w=3, cin=1, k=1, kernel=2, stride=1, padding=1, seed=0)
    @example(n=70, h=5, w=4, cin=3, k=2, kernel=3, stride=1, padding=1, seed=1)
    @example(n=2, h=2, w=2, cin=2, k=1, kernel=2, stride=1, padding=0, seed=0)  # Ho*Wo = 1
    @given(n=st.integers(1, 70), h=st.integers(1, 9), w=st.integers(1, 9),
           cin=st.integers(1, 4), k=st.integers(1, 4), kernel=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_close_to_tap_loop_and_rows_independent(self, n, h, w, cin, k, kernel, stride,
                                                    padding, seed):
        assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
        rng = np.random.default_rng(seed)
        x = with_signed_zeros(rng, rng.normal(size=(n, h, w, cin)))
        weights = with_signed_zeros(rng, rng.normal(size=(k, kernel, kernel, cin)))
        biases = with_signed_zeros(rng, rng.normal(size=k))
        got = _conv_forward(x, weights, biases, stride, padding)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, conv_tap_loop(x, weights, biases, stride, padding),
                                   rtol=1e-12, atol=1e-12)
        # Batches cross the column block; each image's bytes stay its own.
        for i in range(n):
            alone = _conv_forward(x[i : i + 1], weights, biases, stride, padding)
            assert got[i].tobytes() == alone[0].tobytes()

    def test_peak_memory_is_output_plus_one_column_block(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 13, 13, 8))  # the desk conv2 input at fit-detector's chunk
        weights = rng.normal(size=(16, 3, 3, 8))
        tracemalloc.start()
        try:
            out = _conv_forward(x, weights, rng.normal(size=16), 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column_block = 32 * 11 * 11 * 3 * 3 * 8 * 8  # 2.2 MB: 32 images, not the whole chunk
        assert peak < out.nbytes + column_block + 256 * 1024

    def test_peak_memory_at_the_desk_conv1_input(self):
        rng = np.random.default_rng(0)
        out, peak = traced_conv(rng.normal(size=(256, 28, 28, 1)),
                                rng.normal(size=(8, 3, 3, 1)), padding=0)
        column_block = 32 * 26 * 26 * 3 * 3 * 1 * 8  # 1.6 MB
        assert peak < out.nbytes + column_block + 256 * 1024

    def test_padded_peak_memory_adds_one_padded_block_not_a_padded_batch(self):
        rng = np.random.default_rng(0)
        out, peak = traced_conv(rng.normal(size=(256, 13, 13, 8)),
                                rng.normal(size=(16, 3, 3, 8)), padding=1)
        column_block = 32 * 13 * 13 * 3 * 3 * 8 * 8  # 3.1 MB
        padded_block = 32 * 15 * 15 * 8 * 8  # 0.46 MB; the padded batch is 3.7 MB
        assert peak < out.nbytes + column_block + padded_block + 256 * 1024

    def test_empty_batch_gives_empty_output(self):
        out = _conv_forward(np.zeros((0, 5, 5, 2)), np.ones((3, 3, 3, 2)), np.zeros(3), 1, 1)
        assert out.shape == (0, 5, 5, 3)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
    @pytest.mark.parametrize("shape, kernels", [((28, 28, 1), 8), ((13, 13, 8), 16)])
    def test_desk_bytes_equal_row_major_im2col(self, n, shape, kernels):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, *shape))
        weights = rng.normal(size=(kernels, 3, 3, shape[2]))
        biases = rng.normal(size=kernels)
        got = _conv_forward(x, weights, biases, 1, 0)
        assert got.tobytes() == conv_row_major_im2col(x, weights, biases).tobytes()


def traced_conv(x, weights, padding):
    """(output, peak traced bytes) of one _conv_forward with stride 1."""
    biases = np.zeros(len(weights))
    tracemalloc.start()
    try:
        out = _conv_forward(x, weights, biases, 1, padding)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def conv_row_major_im2col(x, weights, biases):
    """Reference conv at stride 1 without padding: one C-contiguous
    (Ho*Wo, kH*kW*C_in) column matrix per image, one GEMM each, then the bias."""
    k, kh, kw, _ = weights.shape
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    ho, wo = windows.shape[1:3]
    cols = np.ascontiguousarray(windows).reshape(len(x), ho * wo, -1)
    out = np.matmul(cols, weights.transpose(1, 2, 3, 0).reshape(-1, k)) + biases
    return out.reshape(len(x), ho, wo, k)


def conv_param_grads_tap_loop(x, weights, stride, padding, gy):
    """Reference weight and bias gradients: one tensordot over the batch and
    the positions per kernel tap, then a sum of gy over images and positions."""
    k, kh, kw, cin = weights.shape
    ho, wo = gy.shape[1:3]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    gw = np.zeros((kh, kw, cin, k))
    s = stride
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, i : i + (ho - 1) * s + 1 : s, j : j + (wo - 1) * s + 1 : s, :]
            gw[i, j] = np.tensordot(xs, gy, axes=([0, 1, 2], [0, 1, 2]))
    return gw.transpose(3, 0, 1, 2), gy.sum(axis=(0, 1, 2))


class TestConvBackward:
    @settings(max_examples=80, deadline=None)
    @example(n=65, h=28, w=28, cin=1, k=8, kernel=3, stride=1, padding=0, seed=0)
    @example(n=33, h=13, w=13, cin=3, k=4, kernel=3, stride=1, padding=1, seed=1)
    @given(n=st.sampled_from([1, 31, 32, 33, 65]), h=st.integers(1, 9), w=st.integers(1, 9),
           cin=st.integers(1, 3), k=st.integers(1, 4), kernel=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_param_grads_close_to_tap_loop(self, n, h, w, cin, k, kernel, stride, padding,
                                           seed):
        assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
        rng = np.random.default_rng(seed)
        x = with_signed_zeros(rng, rng.normal(size=(n, h, w, cin)))
        weights = rng.normal(size=(k, kernel, kernel, cin))
        ho = (h + 2 * padding - kernel) // stride + 1
        wo = (w + 2 * padding - kernel) // stride + 1
        gy = with_signed_zeros(rng, rng.normal(size=(n, ho, wo, k)))
        want_gw, want_gb = conv_param_grads_tap_loop(x, weights, stride, padding, gy)
        gx_none, gw, gb = _conv_backward(x, weights, stride, padding, gy, input_grad=False)
        assert gw.shape == weights.shape and gb.shape == (k,)
        # Each entry sums n*Ho*Wo products; the tolerance scales with their count.
        atol = 1e-15 * n * ho * wo
        np.testing.assert_allclose(gw, want_gw, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(gb, want_gb, rtol=1e-12, atol=atol)
        gx, gw_none, gb_none = _conv_backward(x, weights, stride, padding, gy, param_grad=False)
        assert gx.shape == x.shape
        assert gx_none is None and gw_none is None and gb_none is None

    @pytest.mark.parametrize("n", [32, 65])
    @pytest.mark.parametrize("shape, kernels", [((28, 28, 1), 8), ((13, 13, 8), 16)])
    def test_param_only_peak_memory_is_one_column_block_plus_its_products(self, n, shape,
                                                                          kernels):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, *shape))
        weights = rng.normal(size=(kernels, 3, 3, shape[2]))
        ho, wo = shape[0] - 2, shape[1] - 2
        gy = rng.normal(size=(n, ho, wo, kernels))
        tracemalloc.start()
        try:
            _conv_backward(x, weights, 1, 0, gy, input_grad=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        taps = 3 * 3 * shape[2]
        column_block = 32 * taps * ho * wo * 8  # 1.6 MB (conv1), 2.2 MB (conv2)
        products = 32 * taps * kernels * 8  # one (taps, K) product per image
        # A column matrix of the whole batch of 65 would add a second block.
        assert peak < column_block + products + 256 * 1024


def pool_taps(x, window, stride):
    """Every window tap of x as one (N, Ho, Wo, C) view, in scan order."""
    ho = (x.shape[1] - window) // stride + 1
    wo = (x.shape[2] - window) // stride + 1
    return [x[:, i : i + (ho - 1) * stride + 1 : stride, j : j + (wo - 1) * stride + 1 : stride]
            for i in range(window) for j in range(window)]


def maxpool_scan(x, window, stride):
    """The compare-and-select scan: the values and int16 argmax of the pool,
    strict compare so the first offset in scan order wins ties."""
    taps = pool_taps(x, window, stride)
    best = np.full(taps[0].shape, -np.inf)
    arg = np.zeros(taps[0].shape, dtype=np.int16)
    for idx, xs in enumerate(taps):
        better = xs > best
        best = np.where(better, xs, best)
        arg = np.where(better, idx, arg)
    return best, arg


def maxpool_backward_where(x_shape, window, stride, arg, gy):
    """Route each output gradient to its argmax tap with np.where."""
    gx = np.zeros(x_shape)
    for idx, view in enumerate(pool_taps(gx, window, stride)):
        view += np.where(arg == idx, gy, 0.0)
    return gx


class TestTapeFreePooling:
    @settings(max_examples=80, deadline=None)
    @example(n=2, h=7, w=5, c=3, window=2, stride=2, seed=0)
    @given(n=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9), c=st.integers(1, 3),
           window=st.integers(1, 3), stride=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_scan(self, n, h, w, c, window, stride, seed):
        assume(h >= window and w >= window)
        rng = np.random.default_rng(seed)
        # One decimal makes ties common; adding 0.0 turns rounded -0.0 into +0.0.
        x = np.round(rng.normal(size=(n, h, w, c)), 1) + 0.0
        got, arg = _maxpool_forward(x, window, stride, keep_arg=False)
        assert arg is None
        assert got.tobytes() == maxpool_scan(x, window, stride)[0].tobytes()

    def test_signed_zero_windows_keep_the_value(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0, -1.0, -0.0, 0.0, -2.0]).reshape(2, 2, 2, 1)
        got, _ = _maxpool_forward(x, 2, 2, keep_arg=False)
        assert np.array_equal(got, maxpool_scan(x, 2, 2)[0])


class TestTapedPooling:
    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 8),
                           st.integers(1, 3)),
           window=st.integers(1, 3), stride=st.integers(1, 3), data=st.data())
    def test_values_argmax_and_backward_bytes_equal_where_reference(self, shape, window,
                                                                      stride, data):
        assume(shape[1] >= window and shape[2] >= window)
        # Values from -2..2 make ties common.
        x = data.draw(arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
        best, arg = _maxpool_forward(x, window, stride)
        ref_best, ref_arg = maxpool_scan(x, window, stride)
        assert best.tobytes() == ref_best.tobytes()
        assert arg.dtype == ref_arg.dtype and arg.tobytes() == ref_arg.tobytes()
        # The first offset holding the window maximum wins the tie.
        taps = np.stack(pool_taps(x, window, stride))
        assert np.array_equal(arg, np.argmax(taps == best, axis=0))
        # Where gy < 0, gy * (arg == idx) adds -0.0 where np.where adds 0.0.
        gy = data.draw(arrays(np.float64, best.shape, elements=st.floats(-4, 4)))
        got = _maxpool_backward(x.shape, window, stride, arg, gy)
        assert got.tobytes() == maxpool_backward_where(x.shape, window, stride, ref_arg,
                                                       gy).tobytes()

    @pytest.mark.parametrize("x, window, stride", [
        # Overlapping 3x3 windows at stride 1 with every tap tied: offset 0 throughout.
        (np.full((1, 5, 5, 2), 0.75), 3, 1),
        # 2x2/2 over ReLU-like input: runs of +0.0 and, in the first window, a
        # strict maximum at the last offset; ties between later offsets elsewhere.
        (np.maximum(np.array([[-1.0, -2.0, 0.0, 0.5],
                              [-3.0, 1.5, 0.0, 0.5],
                              [0.0, -1.0, 2.0, 2.0],
                              [-0.5, 0.0, 2.0, 0.0]]), 0.0)[None, :, :, None], 2, 2),
    ], ids=["tied-3x3-stride-1", "relu-like-2x2-stride-2"])
    def test_argmax_is_first_offset_of_window_maximum(self, x, window, stride):
        best, arg = _maxpool_forward(x, window, stride)
        ref_best, ref_arg = maxpool_scan(x, window, stride)
        assert best.tobytes() == ref_best.tobytes()
        assert arg.dtype == ref_arg.dtype and arg.tobytes() == ref_arg.tobytes()
        taps = np.stack(pool_taps(x, window, stride))
        assert np.array_equal(arg, np.argmax(taps == best, axis=0))
        gy = np.linspace(-2.0, 2.0, best.size).reshape(best.shape)
        got = _maxpool_backward(x.shape, window, stride, arg, gy)
        assert got.tobytes() == maxpool_backward_where(x.shape, window, stride, ref_arg,
                                                       gy).tobytes()


class TestRelu:
    def test_pinned_values(self):
        x = np.array([[-1.0, 2.0], [0.0, -3.5]])[:, :, None]
        assert relu(x).ravel().tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_zero_tensor_fixed_point(self):
        assert not relu(np.zeros((3, 3, 2))).any()


class TestMaxpool:
    def test_constant_tensor(self):
        out = maxpool(np.full((4, 4, 2), 3.25), 2, 2)
        assert out.shape == (2, 2, 2)
        assert (out == 3.25).all()

    def test_window_scan_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        assert maxpool(x, 2, 2).ravel().tolist() == [4.0]

    def test_window_one_is_identity(self):
        x = np.random.default_rng(2).random((3, 5, 2))
        assert np.array_equal(maxpool(x, 1, 1), x)

    def test_window_exceeding_extent_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            maxpool(np.ones((2, 2, 1)), 3, 1)

    @settings(max_examples=50, deadline=None)
    @given(t=small_tensors(), window=st.integers(1, 3), stride=st.integers(1, 3))
    def test_output_bounded_by_input_range_per_channel(self, t, window, stride):
        h, w, channels = t.array.shape
        if min(h, w) < window:
            return
        out = maxpool(t.array, window, stride)
        for c in range(channels):
            assert out[:, :, c].max() <= t.array[:, :, c].max()
            assert out[:, :, c].min() >= t.array[:, :, c].min()


class TestDense:
    def test_identity_weights(self):
        x = np.arange(4.0).reshape(2, 2, 1)
        out = dense(x, np.eye(4), np.zeros(4))
        assert np.array_equal(out, np.arange(4.0))

    def test_zero_weights_returns_bias(self):
        out = dense(np.ones((2, 2, 1)), np.zeros((3, 4)), np.array([1.0, -2.0, 0.5]))
        assert out.tolist() == [1.0, -2.0, 0.5]

    def test_hand_matrix_vector_oracle(self):
        x = np.array([1.0, 2.0]).reshape(1, 2, 1)
        out = dense(x, np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
        assert out.tolist() == [3.0, -1.0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="expect 3 inputs, got 4"):
            dense(np.ones((2, 2, 1)), np.ones((2, 3)), np.zeros(2))


class TestSoftmax:
    def test_symmetry(self):
        assert softmax([0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_shift_invariance(self):
        v = np.array([1.0, -2.0, 0.3])
        assert np.allclose(softmax(v), softmax(v + 123.456), rtol=0, atol=1e-15)

    def test_high_precision_scalar_oracle(self):
        # independent scalar evaluation of softmax([20, 0])
        p1 = 1.0 / (1.0 + math.exp(-20.0))
        p2 = math.exp(-20.0) / (1.0 + math.exp(-20.0))
        got = softmax([20.0, 0.0])
        assert abs(got[0] - p1) < 1e-15
        assert abs(got[1] - p2) < 1e-15
        assert got[0] == pytest.approx(0.999999998, abs=1e-9)
        assert got[1] == pytest.approx(2.06e-9, rel=1e-2)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, 5, elements=st.floats(-1e3, 1e3, width=64)))
    def test_simplex_point_for_magnitudes_up_to_1e3(self, v):
        p = softmax(v)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-12
