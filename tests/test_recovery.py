import numpy as np
import pytest

from cascade_guard.errors import ValidationError
from cascade_guard.recovery import average_filter, recovery_eval
from cascade_guard.victim import predict_batch


def pre_labels(network, records):
    """The victim's argmax on each record's unfiltered image."""
    return predict_batch(network, np.stack([r.image.array for r in records]))[2]


def replicate_box_oracle(arr, k):
    """Independent nested-loop box filter with edge-clamped indexing."""
    h, w, c = arr.shape
    r = k // 2
    out = np.zeros_like(arr)
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                total = 0.0
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        ii = min(max(i + di, 0), h - 1)
                        jj = min(max(j + dj, 0), w - 1)
                        total += arr[ii, jj, ch]
                out[i, j, ch] = total / (k * k)
    return out


def one_row(arr, k):
    """average_filter on a one-row batch of an H x W x C image."""
    return average_filter(arr[None], k)[0]


class TestAverageFilter:
    def test_constant_image_unchanged(self):
        assert np.allclose(one_row(np.full((6, 6, 2), 0.4), 3), 0.4, atol=1e-15)

    def test_center_impulse_against_replicate_oracle(self):
        arr = np.zeros((3, 3, 1))
        arr[1, 1, 0] = 1.0
        got = one_row(arr, 3)
        want = replicate_box_oracle(arr, 3)
        assert np.allclose(got, want, rtol=0, atol=1e-15)
        assert got[1, 1, 0] == pytest.approx(1.0 / 9.0)

    def test_random_image_against_oracle(self):
        rng = np.random.default_rng(0)
        arr = rng.random((7, 5, 2))
        got = one_row(arr, 3)
        assert np.allclose(got, replicate_box_oracle(arr, 3), rtol=0, atol=1e-12)

    def test_k1_is_identity(self):
        rng = np.random.default_rng(1)
        arr = rng.random((5, 5, 1))
        assert np.array_equal(one_row(arr, 1), arr)

    def test_even_k_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            one_row(np.zeros((4, 4, 1)), 2)

    def test_k_exceeding_image_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            one_row(np.zeros((3, 3, 1)), 5)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(2)
        out = one_row(rng.random((9, 9, 1)), 5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.random((6, 6, 1))
        y = rng.random((6, 6, 1))
        a, b = 0.3, -0.7
        lhs = one_row(a * x + b * y, 3)
        rhs = a * one_row(x, 3) + b * one_row(y, 3)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_whole_image_window_at_centre_preserves_mean(self):
        rng = np.random.default_rng(4)
        arr = rng.random((5, 5, 1))
        out = one_row(arr, 5)
        assert out.shape == (5, 5, 1)
        assert out[2, 2, 0] == pytest.approx(arr.mean(), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_batch_equals_stacked_one_row_calls(self, k):
        images = np.random.default_rng(5).random((20, 9, 7, 2))
        stacked = np.stack([one_row(im, k) for im in images])
        assert average_filter(images, k).tobytes() == stacked.tobytes()

    def test_non_batch_input_rejected(self):
        with pytest.raises(ValidationError, match="N, H, W, C"):
            average_filter(np.zeros((4, 4, 1)), 3)


class TestRecoveryEval:
    def test_k1_equals_pre_filter_accuracy_and_is_zero_on_successes(
            self, victim_bundle, corpus):
        net, records = victim_bundle.network, corpus.successful[:200]
        report = recovery_eval(net, records, pre_labels(net, records), 1)
        assert report.post_accuracy == report.pre_accuracy
        assert report.pre_accuracy <= 0.05  # successful attacks changed the label

    def test_k3_restores_majority_of_attacks(self, victim_bundle, corpus):
        net, records = victim_bundle.network, corpus.successful[:300]
        report = recovery_eval(net, records, pre_labels(net, records), 3)
        assert report.post_accuracy >= 0.5
        assert report.n == 300

    def test_filtering_clean_images_degrades_little(self, victim_bundle, corpus):
        # regression baseline frozen at first release: clean accuracy after a
        # 3x3 blur stays within 2 points of the unfiltered accuracy
        images = corpus.normal_bank[:300]
        labels = corpus.normal_labels[:300]
        filtered = average_filter(images, 3)
        _, _, raw_pred = predict_batch(victim_bundle.network, images)
        _, _, blur_pred = predict_batch(victim_bundle.network, filtered)
        raw_acc = (raw_pred == labels).mean()
        blur_acc = (blur_pred == labels).mean()
        assert blur_acc >= raw_acc - 0.02

    def test_requires_labeled_records(self, victim_bundle, ea_records):
        net, records = victim_bundle.network, ea_records[:5]
        with pytest.raises(ValidationError, match="original label"):
            recovery_eval(net, records, pre_labels(net, records), 3)

    def test_requires_one_pre_filter_label_per_record(self, victim_bundle, corpus):
        net, records = victim_bundle.network, corpus.successful[:3]
        with pytest.raises(ValidationError, match="pre-filter labels"):
            recovery_eval(net, records, pre_labels(net, records)[:2], 3)
