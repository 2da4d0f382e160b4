import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_guard.autograd import (
    ConvLayer,
    DenseLayer,
    ForwardTape,
    MaxPoolLayer,
    ReluLayer,
    SoftmaxLayer,
    backward_pass,
    forward_pass,
    infer_shapes,
    softmax_batch,
    softmax_cross_entropy,
)
from cascade_guard.errors import ValidationError
from cascade_guard.victim import NetworkSpec, _init_weights, default_victim_spec


def finite_difference_input(layers, weights, x, y, h=1e-5):
    def loss_at(z):
        logits, _, _ = forward_pass(layers, weights, z)
        losses, _ = softmax_cross_entropy(logits, y)
        return losses.sum()

    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (loss_at(xp) - loss_at(xm)) / (2 * h)
    return grad


def rel_err(a, b, floor=1e-4):
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))


SMALL_SPEC = (
    ConvLayer(filters=2, kernel=3, padding=1),
    ReluLayer(),
    MaxPoolLayer(window=2, stride=2),
    DenseLayer(units=3),
    SoftmaxLayer(),
)


def small_net(seed):
    spec = NetworkSpec((4, 4, 2), 3, SMALL_SPEC)
    rng = np.random.default_rng(seed)
    return spec, _init_weights(spec, rng), rng


class TestInferShapes:
    def test_chain(self):
        shapes = infer_shapes((4, 4, 2), SMALL_SPEC)
        assert shapes == [(4, 4, 2), (4, 4, 2), (2, 2, 2), (3,), (3,)]

    def test_layer_after_softmax_rejected(self):
        with pytest.raises(ValidationError, match="softmax"):
            infer_shapes((4, 4, 1), (DenseLayer(2), SoftmaxLayer(), ReluLayer()))

    def test_spatial_op_on_flat_rejected(self):
        with pytest.raises(ValidationError):
            infer_shapes((4, 4, 1), (DenseLayer(2), ConvLayer(1, 1)))

    @pytest.mark.parametrize("layer", [ConvLayer(1, 3, stride=0), ConvLayer(1, 3, padding=-1)],
                             ids=["stride-zero", "padding-negative"])
    def test_bad_conv_stride_or_padding_rejected(self, layer):
        with pytest.raises(ValidationError, match="stride/padding"):
            infer_shapes((6, 6, 1), (layer,))


class TestBackward:
    def test_zero_loss_gradient_gives_zero_param_gradients(self):
        spec, weights, rng = small_net(0)
        x = rng.random((2, 4, 4, 2))
        logits, tape, _ = forward_pass(spec.layers, weights, x, keep_tape=True)
        grads = backward_pass(tape, np.zeros_like(logits))
        assert not grads.input.any()
        for g in grads.params:
            if g is not None:
                assert not g[0].any() and not g[1].any()

    def test_relu_gradient_zero_at_negative_preactivation(self):
        layers = (ReluLayer(), DenseLayer(1), SoftmaxLayer())
        # single negative input: gradient through relu must vanish
        spec = NetworkSpec((1, 1, 1), 1, layers)
        weights = [None, (np.array([[2.0]]), np.zeros(1)), None]
        x = np.full((1, 1, 1, 1), -0.5)
        logits, tape, _ = forward_pass(layers, weights, x, keep_tape=True)
        grads = backward_pass(tape, np.ones_like(logits))
        assert grads.input[0, 0, 0, 0] == 0.0

    @pytest.mark.parametrize("layers", [
        (ReluLayer(), DenseLayer(1), SoftmaxLayer()),
        (ReluLayer(), MaxPoolLayer(window=1, stride=1), DenseLayer(1), SoftmaxLayer()),
    ], ids=["relu", "relu-run-after-pool"])
    def test_relu_subgradient_zero_at_zero(self, layers):
        weights = [None] * (len(layers) - 2) + [(np.array([[2.0, 3.0]]), np.zeros(1)), None]
        x = np.array([0.0, -0.0]).reshape(1, 1, 2, 1)
        logits, tape, _ = forward_pass(layers, weights, x, keep_tape=True)
        grads = backward_pass(tape, np.ones_like(logits))
        assert not grads.input.any()

    def test_input_gradient_matches_finite_differences(self):
        spec, weights, rng = small_net(3)
        x = rng.random((1, 4, 4, 2))
        y = np.array([1])
        logits, tape, _ = forward_pass(spec.layers, weights, x, keep_tape=True)
        _, gl = softmax_cross_entropy(logits, y)
        grads = backward_pass(tape, gl)
        num = finite_difference_input(spec.layers, weights, x, y)
        assert rel_err(grads.input, num).max() < 1e-6

    def test_maxpool_ties_route_to_first_in_scan_order(self):
        layers = (MaxPoolLayer(window=2, stride=2), DenseLayer(1), SoftmaxLayer())
        weights = [None, (np.ones((1, 1)), np.zeros(1)), None]
        x = np.full((1, 2, 2, 1), 0.7)  # all four window entries tie
        logits, tape, _ = forward_pass(layers, weights, x, keep_tape=True)
        grads = backward_pass(tape, np.ones_like(logits))
        flat = grads.input[0, :, :, 0]
        assert flat[0, 0] == 1.0
        assert flat[0, 1] == flat[1, 0] == flat[1, 1] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(wrt=st.sampled_from(["input", "params", "both"]), channels=st.integers(1, 2),
           n=st.integers(1, 4), lead_relu=st.booleans(), stride=st.integers(1, 2),
           padding=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_partial_backward_matches_full_backward(self, wrt, channels, n, lead_relu,
                                                    stride, padding, seed):
        head = (ConvLayer(filters=2, kernel=3, stride=stride, padding=padding),) + SMALL_SPEC[1:]
        layers = ((ReluLayer(),) if lead_relu else ()) + head
        spec = NetworkSpec((5, 5, channels), 3, layers)
        rng = np.random.default_rng(seed)
        weights = _init_weights(spec, rng)
        x = rng.normal(size=(n, 5, 5, channels))
        logits, tape, _ = forward_pass(spec.layers, weights, x, keep_tape=True)
        gl = rng.normal(size=logits.shape)
        full = backward_pass(tape, gl)
        part = backward_pass(tape, gl, wrt=wrt)
        if wrt == "params":
            assert part.input is None
        else:
            assert part.input.tobytes() == full.input.tobytes()
        if wrt == "input":
            assert part.params is None
            return
        for a, b in zip(full.params, part.params, strict=True):
            if a is None:
                assert b is None
            else:
                assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("wrt", ["weights", "Input", "", None, True])
    def test_unknown_wrt_rejected(self, wrt):
        spec, weights, rng = small_net(2)
        logits, tape, _ = forward_pass(spec.layers, weights, rng.random((1, 4, 4, 2)),
                                       keep_tape=True)
        with pytest.raises(ValidationError, match="wrt"):
            backward_pass(tape, np.zeros_like(logits), wrt=wrt)

    def test_backward_requires_completed_tape(self):
        with pytest.raises(ValidationError, match="tape"):
            backward_pass(None, np.zeros((1, 3)))
        bogus = ForwardTape(layers=(), weights=(), saved=[], logits=np.zeros((1, 3)))
        with pytest.raises(ValidationError, match="tape"):
            backward_pass(bogus, np.zeros((1, 3)))

    def test_gradient_shape_mismatch_rejected(self):
        spec, weights, rng = small_net(1)
        x = rng.random((1, 4, 4, 2))
        _, tape, _ = forward_pass(spec.layers, weights, x, keep_tape=True)
        with pytest.raises(ValidationError, match="shape"):
            backward_pass(tape, np.zeros((1, 5)))

    @pytest.mark.parametrize("spec", [
        (ConvLayer(filters=2, kernel=3, padding=1), ReluLayer(), MaxPoolLayer(2, 2),
         DenseLayer(units=3), ReluLayer(), SoftmaxLayer()),
        (ReluLayer(),),
    ], ids=["relu-under-softmax", "one-layer-relu"])
    def test_caller_gradient_left_alone_and_calls_repeat(self, spec):
        # The ReLU backward masks its gradient buffer in place; the loss
        # gradient the caller passes is never that buffer. The one-layer ReLU
        # stack is how the kernel replay times each ReLU, calling backward
        # again and again with one gradient.
        rng = np.random.default_rng(12)
        if len(spec) == 1:
            weights = [None]
        else:
            weights = _init_weights(NetworkSpec((4, 4, 2), 3, spec), rng)
        x = rng.normal(size=(3, 4, 4, 2))
        logits, tape, _ = forward_pass(spec, weights, x, keep_tape=True)
        gl = rng.standard_normal(logits.shape)
        before = gl.tobytes()
        first = backward_pass(tape, gl)
        assert gl.tobytes() == before
        second = backward_pass(tape, gl)
        assert gl.tobytes() == before
        assert first.input.tobytes() == second.input.tobytes()
        for a, b in zip(first.params, second.params):
            assert (a is None) == (b is None)
            if a is not None:
                assert all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


def layer_by_layer(layers, weights, x, grad_logits):
    """(logits, input gradient, per-layer parameter gradients) of the stack
    run one layer at a time: a one-layer forward_pass cannot reorder. The
    softmax head passes the gradient on, as backward_pass does."""
    tapes, a = [], x
    for layer, entry in zip(layers, weights):
        tape = None
        if not isinstance(layer, SoftmaxLayer):
            a, tape, _ = forward_pass([layer], [entry], a, keep_tape=True)
        tapes.append(tape)
    g, params = grad_logits, []
    for tape in reversed(tapes):
        grads = None if tape is None else backward_pass(tape, g)
        if grads is not None:
            g = grads.input
        params.append(None if grads is None else grads.params[0])
    return a, g, params[::-1]


REORDER_STACKS = {
    "conv-pad1-pool3x3s1": (ConvLayer(3, 3, padding=1), ReluLayer(), MaxPoolLayer(3, 1),
                            ConvLayer(4, 3), ReluLayer(), MaxPoolLayer(2, 2),
                            DenseLayer(3), SoftmaxLayer()),
    "relu-pool-first": (ReluLayer(), MaxPoolLayer(2, 2), ConvLayer(3, 3, padding=1),
                        ReluLayer(), MaxPoolLayer(3, 1), DenseLayer(3), SoftmaxLayer()),
}


class TestExecutedOrder:
    @settings(max_examples=30, deadline=None)
    @given(stack=st.sampled_from(sorted(REORDER_STACKS)), n=st.sampled_from([1, 2, 33]),
           seed=st.integers(0, 2**32 - 1))
    def test_reordered_walk_equals_layer_by_layer(self, stack, n, seed):
        layers = REORDER_STACKS[stack]
        rng = np.random.default_rng(seed)
        weights = _init_weights(NetworkSpec((8, 8, 2), 3, layers), rng)
        x = rng.normal(size=(n, 8, 8, 2))
        logits, tape, _ = forward_pass(layers, weights, x, keep_tape=True)
        gl = rng.normal(size=logits.shape)
        grads = backward_pass(tape, gl)
        want_logits, want_input, want_params = layer_by_layer(layers, weights, x, gl)
        assert logits.tobytes() == want_logits.tobytes()
        # Values only: a zero entry may read +0.0 where the stack's order gives -0.0.
        assert np.array_equal(grads.input, want_input)
        for got, want in zip(grads.params, want_params, strict=True):
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    def test_tape_records_each_relu_after_its_pool(self):
        spec = default_victim_spec()
        rng = np.random.default_rng(5)
        weights = _init_weights(spec, rng)
        _, tape, _ = forward_pass(spec.layers, weights, rng.random((2, 28, 28, 1)),
                                  keep_tape=True)
        assert [layer.kind for layer in tape.layers] == [
            "conv", "maxpool", "relu", "conv", "maxpool", "relu", "dense", "softmax"]
        executed = [weights[i] for i in (0, 2, 1, 3, 5, 4, 6, 7)]
        assert all(got is want for got, want in zip(tape.weights, executed, strict=True))

    def test_captured_relu_keeps_its_place(self):
        # The detector reads each conv layer's full-resolution ReLU output.
        spec = default_victim_spec()
        rng = np.random.default_rng(6)
        weights = _init_weights(spec, rng)
        x = rng.random((3, 28, 28, 1))
        logits, _, captured = forward_pass(spec.layers, weights, x, capture_conv=True)
        want = []
        a = x
        for layer, entry in zip(spec.layers[:-1], weights[:-1]):
            a, _, _ = forward_pass([layer], [entry], a)
            want.append(a)
        assert logits.tobytes() == want[-1].tobytes()
        assert [c.tobytes() for c in captured] == [want[1].tobytes(), want[4].tobytes()]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        losses, grad = softmax_cross_entropy(np.zeros((1, 4)), np.array([2]))
        assert losses[0] == pytest.approx(np.log(4.0), abs=1e-12)
        expect = np.full(4, 0.25)
        expect[2] -= 1.0
        assert np.allclose(grad[0], expect, atol=1e-12)

    def test_loss_is_negative_log_prob(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        losses, _ = softmax_cross_entropy(z, y)
        probs = softmax_batch(z)
        for i in range(5):
            assert losses[i] == pytest.approx(-np.log(probs[i, y[i]]), rel=1e-12)


class TestBatchConsistency:
    def test_batched_forward_matches_stacked_single(self):
        # Every kernel forms an image's bytes on their own, so a batch row
        # equals the image forwarded alone, bit for bit.
        spec, weights, rng = small_net(9)
        xs = rng.random((3, 4, 4, 2))
        batched, _, _ = forward_pass(spec.layers, weights, xs)
        for i in range(3):
            single, _, _ = forward_pass(spec.layers, weights, xs[i : i + 1])
            assert batched[i].tobytes() == single[0].tobytes()
