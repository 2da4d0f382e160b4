import numpy as np
import pytest

from cascade_guard.errors import ValidationError
from cascade_guard.recovery import average_filter, recovery_eval
from cascade_guard.tensor import Tensor


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


class TestAverageFilter:
    def test_constant_image_unchanged(self):
        t = Tensor(np.full((6, 6, 2), 0.4))
        assert np.allclose(average_filter(t, 3).array, 0.4, atol=1e-15)

    def test_center_impulse_against_replicate_oracle(self):
        arr = np.zeros((3, 3, 1))
        arr[1, 1, 0] = 1.0
        got = average_filter(Tensor(arr), 3).array
        want = replicate_box_oracle(arr, 3)
        assert np.allclose(got, want, rtol=0, atol=1e-15)
        assert got[1, 1, 0] == pytest.approx(1.0 / 9.0)

    def test_random_image_against_oracle(self):
        rng = np.random.default_rng(0)
        arr = rng.random((7, 5, 2))
        got = average_filter(Tensor(arr), 3).array
        assert np.allclose(got, replicate_box_oracle(arr, 3), rtol=0, atol=1e-12)

    def test_k1_is_identity(self):
        rng = np.random.default_rng(1)
        t = Tensor(rng.random((5, 5, 1)))
        assert np.array_equal(average_filter(t, 1).array, t.array)

    def test_even_k_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            average_filter(Tensor(np.zeros((4, 4, 1))), 2)

    def test_k_exceeding_image_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            average_filter(Tensor(np.zeros((3, 3, 1))), 5)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(2)
        t = Tensor(rng.random((9, 9, 1)))
        out = average_filter(t, 5).array
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.random((6, 6, 1))
        y = rng.random((6, 6, 1))
        a, b = 0.3, -0.7
        lhs = average_filter(Tensor._wrap(a * x + b * y), 3).array
        rhs = (a * average_filter(Tensor(x), 3).array
               + b * average_filter(Tensor(y), 3).array)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_whole_image_window_at_centre_preserves_mean(self):
        rng = np.random.default_rng(4)
        arr = rng.random((5, 5, 1))
        out = average_filter(Tensor(arr), 5)
        assert out.dims == (5, 5, 1)
        assert out.array[2, 2, 0] == pytest.approx(arr.mean(), abs=1e-12)


class TestRecoveryEval:
    def test_k1_equals_pre_filter_accuracy_and_is_zero_on_successes(
            self, victim_bundle, corpus):
        report = recovery_eval(victim_bundle.network, corpus.successful[:200], 1)
        assert report.post_accuracy == report.pre_accuracy
        assert report.pre_accuracy <= 0.05  # successful attacks changed the label

    def test_k3_restores_majority_of_attacks(self, victim_bundle, corpus):
        report = recovery_eval(victim_bundle.network, corpus.successful[:300], 3)
        assert report.post_accuracy >= 0.5
        assert report.n == 300

    def test_filtering_clean_images_degrades_little(self, victim_bundle, corpus):
        # regression baseline frozen at first release: clean accuracy after a
        # 3x3 blur stays within 2 points of the unfiltered accuracy
        from cascade_guard.victim import predict_batch

        images = corpus.normal_bank[:300]
        labels = corpus.normal_labels[:300]
        filtered = np.stack([average_filter(Tensor(im), 3).array for im in images])
        _, _, raw_pred = predict_batch(victim_bundle.network, images)
        _, _, blur_pred = predict_batch(victim_bundle.network, filtered)
        raw_acc = (raw_pred == labels).mean()
        blur_acc = (blur_pred == labels).mean()
        assert blur_acc >= raw_acc - 0.02

    def test_requires_labeled_records(self, victim_bundle, ea_records):
        with pytest.raises(ValidationError, match="original label"):
            recovery_eval(victim_bundle.network, ea_records[:5], 3)
