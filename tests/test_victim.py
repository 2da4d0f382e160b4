import tracemalloc

import numpy as np
import pytest

from cascade_guard.autograd import (
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReluLayer,
    SoftmaxLayer,
    backward_pass,
    forward_pass,
    softmax_cross_entropy,
)
from cascade_guard.dataio import Dataset
from cascade_guard.errors import TrainingError, ValidationError
from cascade_guard.victim import (
    _CHUNK_ROWS,
    Network,
    NetworkSpec,
    TrainConfig,
    _init_weights,
    default_victim_spec,
    layer_outputs_batch,
    predict_batch,
    prediction_census,
    train_victim,
)


def dense_only_spec(features, classes):
    return NetworkSpec((1, features, 1), classes,
                       (DenseLayer(classes), SoftmaxLayer()))


def traced_peak(fn):
    """(tracemalloc peak, result) of fn()."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def toy_dataset(images, labels, tag="train"):
    n = len(images)
    return Dataset(np.asarray(images), np.asarray(labels),
                   np.full(n, tag, dtype="<U5"), {"classes": int(np.max(labels)) + 1})


class TestNetworkSpec:
    def test_default_victim_shape_chain(self):
        spec = default_victim_spec()
        assert spec.conv_count == 2
        assert spec.conv_channels() == (8, 16)
        assert spec.shapes()[-1] == (10,)

    def test_softmax_must_be_last_and_unique(self):
        with pytest.raises(ValidationError, match="softmax"):
            NetworkSpec((2, 2, 1), 2, (DenseLayer(2),))
        with pytest.raises(ValidationError, match="softmax"):
            NetworkSpec((2, 2, 1), 2,
                        (SoftmaxLayer(), DenseLayer(2), SoftmaxLayer()))

    def test_head_width_must_match_classes(self):
        with pytest.raises(ValidationError, match="scores"):
            NetworkSpec((2, 2, 1), 3, (DenseLayer(2), SoftmaxLayer()))

    def test_incompatible_adjacent_layers_rejected(self):
        with pytest.raises(ValidationError):
            NetworkSpec((4, 4, 1), 2,
                        (MaxPoolLayer(5, 1), DenseLayer(2), SoftmaxLayer()))


class TestNetwork:
    def test_weight_shape_checked(self):
        spec = dense_only_spec(4, 2)
        with pytest.raises(ValidationError, match="dense layer"):
            Network(spec, [(np.zeros((3, 4)), np.zeros(3)), None])
        spec = NetworkSpec((3, 3, 1), 1,
                           (ConvLayer(1, 2), ReluLayer(), DenseLayer(1), SoftmaxLayer()))
        dense = (np.ones((1, 4)), np.zeros(1))
        with pytest.raises(ValidationError, match="conv layer"):
            Network(spec, [(np.ones((1, 3, 3, 1)), np.zeros(1)), None, dense, None])
        with pytest.raises(ValidationError, match="conv layer"):
            Network(spec, [(np.ones((1, 2, 2, 1)), np.zeros(2)), None, dense, None])


class TestTrainVictim:
    def test_single_class_dataset_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng.random((20, 1, 2, 1)), np.zeros(20, dtype=int))
        net = train_victim(ds, dense_only_spec(2, 1), TrainConfig(epochs=1, seed=0))
        assert net.metadata["train_accuracy"] == 1.0

    def test_linearly_separable_toy_reaches_full_accuracy(self):
        # y = 1 iff first feature clearly exceeds second; a one-layer head
        # separates it with margin
        rng = np.random.default_rng(1)
        x = rng.random((200, 1, 2, 1))
        gap = x[:, 0, 0, 0] - x[:, 0, 1, 0]
        x = x[np.abs(gap) > 0.1][:80]
        y = (x[:, 0, 0, 0] > x[:, 0, 1, 0]).astype(int)
        # perceptron-style oracle: the data is separable by w = (1, -1)
        assert ((x[:, 0, 0, 0] - x[:, 0, 1, 0] > 0) == y.astype(bool)).all()
        ds = toy_dataset(x, y)
        net = train_victim(ds, dense_only_spec(2, 2),
                           TrainConfig(epochs=60, learning_rate=0.5, seed=3))
        assert net.metadata["train_accuracy"] == 1.0

    def test_fixed_seed_is_bit_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.random((40, 1, 2, 1))
        y = (x[:, 0, 0, 0] > 0.5).astype(int)
        ds = toy_dataset(x, y)
        cfg = TrainConfig(epochs=3, seed=11)
        a = train_victim(ds, dense_only_spec(2, 2), cfg)
        b = train_victim(ds, dense_only_spec(2, 2), cfg)
        wa, ba_ = a.weights[0]
        wb, bb = b.weights[0]
        assert np.array_equal(wa, wb) and np.array_equal(ba_, bb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(3)
        x = rng.random((40, 1, 2, 1))
        y = (x[:, 0, 0, 0] > 0.5).astype(int)
        ds = toy_dataset(x, y)
        # two stacked dense layers so exploding weights overflow the logits
        spec = NetworkSpec((1, 2, 1), 2,
                           (DenseLayer(4), ReluLayer(), DenseLayer(2), SoftmaxLayer()))
        with pytest.raises(TrainingError, match="epoch 1"):
            train_victim(ds, spec, TrainConfig(epochs=2, learning_rate=1e200, seed=0))

    def test_bundled_task_gate(self, victim_bundle):
        assert victim_bundle.network.metadata["test_accuracy"] >= 0.9

    def test_one_desk_step_traced_peak(self):
        # One train_victim step at the desk's shapes: 32 images through the
        # desk spec, forward with a tape, backward for the parameters. The
        # bound is this step's peak when the tape kept no column blocks and no
        # ReLU ran after its pool, 5,876,016 bytes, plus 256 KiB: the kept
        # blocks must be paid for by the smaller tape.
        spec = default_victim_spec()
        rng = np.random.default_rng(0)
        weights = _init_weights(spec, rng)
        x = rng.random((32, *spec.input_dims))
        y = rng.integers(0, spec.classes, size=32)

        def step():
            logits, tape, _ = forward_pass(spec.layers, weights, x, keep_tape=True)
            _, grad = softmax_cross_entropy(logits, y)
            return backward_pass(tape, grad / len(x), wrt="params")

        peak, _ = traced_peak(step)
        assert peak <= 5_876_016 + 256 * 1024


class TestPredict:
    def test_zero_weight_network_uniform(self):
        spec = dense_only_spec(3, 4)
        net = Network(spec, [(np.zeros((4, 3)), np.zeros(4)), None])
        _, probs, _ = predict_batch(net, np.random.default_rng(0).random((1, 1, 3, 1)))
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_pure_function(self, victim_bundle):
        img = victim_bundle.dataset.images[:1]
        a = predict_batch(victim_bundle.network, img)
        b = predict_batch(victim_bundle.network, img)
        assert np.array_equal(a[0], b[0]) and a[2] == b[2]

    def test_equals_first_row_of_predict_batch(self, victim_bundle):
        # A one-image batch gets the row it gets inside a larger batch.
        images = victim_bundle.dataset.images[5:9]
        raw1, probs1, labels1 = predict_batch(victim_bundle.network, images[:1])
        raw, probs, labels = predict_batch(victim_bundle.network, images)
        assert raw1[0].tobytes() == raw[0].tobytes()
        assert probs1[0].tobytes() == probs[0].tobytes()
        assert labels1[0] == labels[0]

    def test_every_row_bytes_equal_one_image_call(self, victim_bundle):
        # 600 images cross nine 64-image chunk boundaries; each row must be
        # the bytes its image gets alone.
        net = victim_bundle.network
        images = victim_bundle.dataset.images[:600]
        batch = predict_batch(net, images)
        singles = [predict_batch(net, images[i : i + 1]) for i in range(len(images))]
        for got, parts in zip(batch, zip(*singles)):
            assert got.tobytes() == np.concatenate(parts).tobytes()

    def test_peak_is_logits_plus_one_chunk_forward(self, victim_bundle):
        net = victim_bundle.network
        images = victim_bundle.dataset.images[:600]
        one_chunk, _ = traced_peak(lambda: forward_pass(net.spec.layers, net.weights,
                                                        images[:_CHUNK_ROWS]))
        peak, outputs = traced_peak(lambda: predict_batch(net, images))
        assert peak - sum(o.nbytes for o in outputs) <= 1.1 * one_chunk

    def test_argmax_consistent_between_raw_and_softmax(self, victim_bundle):
        images, _ = victim_bundle.dataset.split("test")
        raw, probs, labels = predict_batch(victim_bundle.network, images[:64])
        assert (np.argmax(raw, 1) == np.argmax(probs, 1)).all()
        assert (labels == np.argmax(raw, 1)).all()

    def test_dims_mismatch_rejected(self, victim_bundle):
        with pytest.raises(ValidationError, match="dims"):
            predict_batch(victim_bundle.network, np.zeros((1, 5, 5, 1)))

    def test_identity_conv_insertion_preserves_predictions(self, victim_bundle):
        net = victim_bundle.network
        spec = net.spec
        layers = (spec.layers[0], spec.layers[1], spec.layers[2],
                  ConvLayer(filters=8, kernel=1)) + spec.layers[3:]
        ident = np.zeros((8, 1, 1, 8))
        for k in range(8):
            ident[k, 0, 0, k] = 1.0
        weights = list(net.weights[:3]) + [(ident, np.zeros(8))] + list(net.weights[3:])
        bigger = Network(NetworkSpec(spec.input_dims, spec.classes, layers), weights)
        img = victim_bundle.dataset.images[3:4]
        assert np.allclose(predict_batch(net, img)[0], predict_batch(bigger, img)[0],
                           rtol=0, atol=1e-10)


class TestLayerOutputs:
    def test_one_tensor_per_conv_layer_nonnegative(self, victim_bundle):
        outs = layer_outputs_batch(victim_bundle.network, victim_bundle.dataset.images[1:2])
        assert len(outs) == 2
        assert all((o >= 0).all() for o in outs)

    def test_equals_first_row_of_layer_outputs_batch(self, victim_bundle):
        # A one-image batch gets the activations it gets inside a larger batch.
        images = victim_bundle.dataset.images[5:9]
        singles = layer_outputs_batch(victim_bundle.network, images[:1])
        batches = layer_outputs_batch(victim_bundle.network, images)
        assert len(singles) == len(batches)
        for single, batch in zip(singles, batches):
            assert single.shape[1:] == batch.shape[1:]
            assert single[0].tobytes() == batch[0].tobytes()

    def test_batch_bytes_equal_concatenated_chunk_forwards(self, victim_bundle):
        net = victim_bundle.network
        images = victim_bundle.dataset.images[:300]
        chunks = [forward_pass(net.spec.layers, net.weights, images[s : s + _CHUNK_ROWS],
                               capture_conv=True)[2] for s in range(0, 300, _CHUNK_ROWS)]
        batches = layer_outputs_batch(net, images)
        assert len(batches) == 2
        for got, parts in zip(batches, zip(*chunks)):
            want = np.concatenate(parts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_peak_is_outputs_plus_one_chunk_forward(self, victim_bundle):
        # 600 images run as nine chunks of 64 and one of 24; no chunk's
        # captures may still be alive while the next chunk is forwarded.
        net = victim_bundle.network
        images = victim_bundle.dataset.images[:600]
        one_chunk, _ = traced_peak(lambda: forward_pass(net.spec.layers, net.weights,
                                                        images[:_CHUNK_ROWS],
                                                        capture_conv=True))
        peak, outputs = traced_peak(lambda: layer_outputs_batch(net, images))
        assert len(outputs) == 2
        assert peak - sum(o.nbytes for o in outputs) <= 1.1 * one_chunk

    def test_network_without_conv_layer_gives_no_outputs(self):
        spec = dense_only_spec(4, 2)
        net = Network(spec, [(np.ones((2, 4)), np.zeros(2)), None])
        assert layer_outputs_batch(net, np.ones((300, 1, 4, 1))) == []

    def test_first_entry_recomputed_standalone(self, victim_bundle):
        net = victim_bundle.network
        img = victim_bundle.dataset.images[2:3]
        outs = layer_outputs_batch(net, img)
        want, _, _ = forward_pass([ConvLayer(filters=8, kernel=3), ReluLayer()],
                                  [net.weights[0], None], img)
        assert np.array_equal(outs[0], want)


class TestCensus:
    def test_threshold_below_min_counts_all_classes(self, victim_bundle):
        images, _ = victim_bundle.dataset.split("test")
        raw, _, _ = predict_batch(victim_bundle.network, images[:32])
        table = prediction_census(victim_bundle.network, images[:32],
                                  [raw.min() - 1.0])
        assert table.raw_mean_counts[0] == victim_bundle.network.spec.classes

    def test_threshold_above_max_counts_zero(self, victim_bundle):
        images, _ = victim_bundle.dataset.split("test")
        raw, _, _ = predict_batch(victim_bundle.network, images[:32])
        table = prediction_census(victim_bundle.network, images[:32],
                                  [raw.max() + 1.0])
        assert table.raw_mean_counts[0] == 0.0
        assert table.softmax_mean_counts[0] == 0.0

    def test_raw_census_monotone_non_increasing(self, victim_bundle):
        images, _ = victim_bundle.dataset.split("test")
        ts = np.linspace(-20, 20, 15)
        table = prediction_census(victim_bundle.network, images[:64], ts)
        assert (np.diff(table.raw_mean_counts) <= 0).all()

    def test_adversarials_count_below_normals_at_high_threshold(
            self, victim_bundle, corpus):
        # analogous direction: adversarial raw scores are regularized downward
        net = victim_bundle.network
        normals = corpus.normal_bank[1500:1800]
        advs = np.stack([r.image.array for r in corpus.successful[:300]])
        t90 = np.percentile(predict_batch(net, normals)[0], 90.0)
        tn = prediction_census(net, normals, [t90])
        ta = prediction_census(net, advs, [t90])
        assert ta.raw_mean_counts[0] < tn.raw_mean_counts[0]
