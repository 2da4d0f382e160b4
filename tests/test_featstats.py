import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cascade_guard.featstats as featstats
from cascade_guard.errors import ValidationError
from cascade_guard.featstats import (
    PERCENTILES,
    PcaBank,
    fit_pca_bank,
    spectral_report,
    stat_matrix,
)
from cascade_guard.victim import layer_outputs_batch


def identity_bank(k):
    """Mean 0, identity projection, unit stds: a bank that leaves pixels as they are."""
    return PcaBank(layer_index=1, mean=np.zeros(k), components=np.eye(k), stds=np.ones(k))


def stat_row(layer_output, bank):
    """The stat_matrix row of one H x W x K layer output: [pca | min | max | p25 | p50 | p75]."""
    return stat_matrix(np.asarray(layer_output, dtype=np.float64)[None], bank)[0]


def pca_columns(layer_output, bank):
    return stat_row(layer_output, bank)[: bank.k]


def extremal_columns(layer_output):
    """[min | max] per channel."""
    k = layer_output.shape[2]
    return stat_row(layer_output, identity_bank(k))[k : 3 * k]


def percentile_columns(layer_output):
    """[p25 | p50 | p75] per channel."""
    k = layer_output.shape[2]
    return stat_row(layer_output, identity_bank(k))[3 * k :]


def sorted_percentile_oracle(values, p):
    """Independent sort-and-interpolate oracle: rank (p/100)*(n-1)."""
    s = sorted(float(v) for v in values)
    n = len(s)
    rank = (p / 100.0) * (n - 1)
    lo = math.floor(rank)
    frac = rank - lo
    if lo + 1 >= n:
        return s[lo]
    return s[lo] + (s[lo + 1] - s[lo]) * frac


def whole_batch_fit(batch):
    """The bank fit over the whole (N, H, W, K) batch at once: (mean, components, stds)."""
    k = batch.shape[3]
    samples = batch.reshape(-1, k)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / len(samples)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, np.argsort(-eigvals, kind="stable")].copy()
    for col in range(k):
        i = int(np.argmax(np.abs(components[:, col])))
        if components[i, col] < 0:
            components[:, col] = -components[:, col]
    stds = np.maximum((centered @ components).std(axis=0), 1e-8)
    return mean, components, stds


def whole_batch_stat_rows(layer_batch, bank):
    """The (N, 6K) statistic rows computed over the whole batch at once."""
    n, h, w, k = layer_batch.shape
    pixels = layer_batch.reshape(n, h * w, k)
    z = (pixels - bank.mean) @ bank.components
    sorted_vals = np.sort(pixels, axis=1)
    pcs = []
    for p in PERCENTILES:
        rank = (p / 100.0) * (h * w - 1)
        lo = int(np.floor(rank))
        lo_vals = sorted_vals[:, lo, :]
        if lo + 1 >= h * w:
            pcs.append(lo_vals)
        else:
            pcs.append(lo_vals + (sorted_vals[:, lo + 1, :] - lo_vals) * (rank - lo))
    return np.concatenate([np.abs(z).mean(axis=1) / bank.stds, pixels.min(axis=1),
                           pixels.max(axis=1)] + pcs, axis=1)


def traced_peak(fn, *args):
    """Peak bytes that fn(*args) allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chunk_stream(*layers, size=None):
    """A stream of the layers' outputs in chunks of `size` images (one chunk
    by default), as fit_pca_bank takes it."""
    size = size or len(layers[0])
    return lambda: ([layer[start : start + size] for layer in layers]
                    for start in range(0, len(layers[0]), size))


def fit_layer(outputs, size=None):
    """The bank fit_pca_bank fits to one layer's outputs, streamed in chunks of `size` images."""
    (bank,), _ = fit_pca_bank(chunk_stream(outputs, size=size))
    return bank


def bank_bytes(bank):
    return bank.mean.tobytes(), bank.components.tobytes(), bank.stds.tobytes()


class TestFitPcaBank:
    def test_bytes_equal_whole_batch_fit(self):
        # A stream of one chunk has nothing to merge.
        outputs = np.random.default_rng(4).normal(size=(50, 6, 6, 4))
        bank = fit_layer(outputs)
        for got, want in zip((bank.mean, bank.components, bank.stds),
                             whole_batch_fit(outputs)):
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_below_two_and_a_half_inputs(self):
        # Beside the input and its rows the fit holds a few arrays of one
        # 64-image chunk's size: the input is 4.7 MB, a chunk 0.3 MB. A fit
        # of a centered copy would hold more than one input.
        outputs = np.random.default_rng(5).normal(size=(1024, 12, 12, 4))
        assert traced_peak(fit_layer, outputs, 64) < 0.5 * outputs.nbytes

    def test_peak_memory_two_block_arrays(self):
        # The blocks are the stream's chunks. Beside the rows (1024 x 24
        # doubles) at most two arrays of one 64-image chunk's size (0.3 MB)
        # are live at once: a chunk's projections and the centered pixels
        # they are formed from, or the projections and their centered copy.
        # Holding a third, such as the previous chunk's projections, fails.
        outputs = np.random.default_rng(5).normal(size=(1024, 12, 12, 4))
        chunk = outputs[:64].nbytes
        rows = len(outputs) * 6 * outputs.shape[3] * outputs.itemsize
        assert traced_peak(fit_layer, outputs, 64) <= 2 * chunk + rows + 256 * 1024

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("m", ["below", "block-1", "block", "block+1", "blocks+rest"])
    def test_blockwise_stds_bytes_equal_whole_projection_std(self, k, m):
        # m one-pixel images around 256 chunks of 64 (16,384 rows): the last
        # chunk holds 40, 63, 64, 1 and 17 images. The merged moments agree
        # with the whole-array formulas within 1e-13 relative (mean, stds)
        # and 1e-12 (components); the largest gaps on this grid are 1.4e-14,
        # 5.7e-15 and 5.8e-14. The large last sample makes a one-row chunk
        # count.
        block = 256 * 64
        m = {"below": 1000, "block-1": block - 1, "block": block, "block+1": block + 1,
             "blocks+rest": 3 * block + 849}[m]
        rng = np.random.default_rng(m + k)
        outputs = rng.normal(size=(m, 1, 1, k)) * rng.uniform(0.1, 10.0, size=k) + 3.0
        outputs[-1] *= 100.0
        bank = fit_layer(outputs, 64)
        mean, components, stds = whole_batch_fit(outputs)
        np.testing.assert_allclose(bank.mean, mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(bank.components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bank.stds, stds, rtol=1e-13, atol=0)

    def test_input_left_byte_identical(self):
        outputs = np.maximum(np.random.default_rng(8).normal(size=(40, 5, 5, 3)), 0.0)
        before = outputs.tobytes()
        fit_layer(outputs, 16)
        assert outputs.tobytes() == before

    def test_training_projections_centered_and_unit_std(self):
        rng = np.random.default_rng(0)
        outputs = rng.normal(size=(6, 5, 5, 4))
        bank = fit_layer(outputs, 4)
        samples = outputs.reshape(-1, 4)
        proj = (samples - bank.mean) @ bank.components / bank.stds
        assert np.abs(proj.mean(axis=0)).max() < 1e-10
        assert np.abs(proj.std(axis=0) - 1.0).max() < 1e-8

    def test_orthonormal_projection(self):
        rng = np.random.default_rng(1)
        bank = fit_layer(rng.normal(size=(4, 6, 6, 5)), 3)
        gram = bank.components.T @ bank.components
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_line_samples_first_eigenvector_within_one_degree(self):
        # 2-D samples from y = 2x plus tiny noise; closed-form 2x2 covariance
        # eigendecomposition puts the top eigenvector along (1, 2)/sqrt(5)
        rng = np.random.default_rng(2)
        t = rng.normal(size=4000)
        pts = np.stack([t, 2 * t], axis=1) + rng.normal(0, 1e-3, (4000, 2))
        bank = fit_layer(pts.reshape(1, 80, 50, 2))
        v = bank.components[:, 0]
        want = np.array([1.0, 2.0]) / np.sqrt(5.0)
        angle = np.degrees(np.arccos(np.clip(abs(v @ want), -1, 1)))
        assert angle < 1.0

    def test_constant_channel_floored_no_nan(self):
        rng = np.random.default_rng(3)
        outputs = rng.normal(size=(3, 4, 4, 3))
        outputs[:, :, :, 1] = 2.5
        bank = fit_layer(outputs, 2)
        assert (bank.stds >= bank.epsilon).all()
        assert np.isfinite(bank.components).all()
        stat = pca_columns(outputs[0], bank)
        assert np.isfinite(stat).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_activation_rejected(self, value):
        outputs = np.random.default_rng(9).normal(size=(3, 4, 4, 2))
        outputs[0, 0, 0, 0] = value
        with pytest.raises(ValidationError, match="finite"):
            fit_layer(outputs)

    def test_fewer_samples_than_channels_rejected(self):
        with pytest.raises(ValidationError, match="samples"):
            fit_layer(np.zeros((1, 1, 2, 4)))


class TestStreamedFitPcaBank:
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_stream_bytes_equal_array_fit(self, k, size):
        # A stream of two layers of 300 images in chunks of `size`; the last
        # chunk is ragged. The rows the fit returns are stat_matrix's rows of
        # each whole layer under its bank, byte for byte. A second fit of the
        # stream gives the same bank bytes; other chunkings give other bytes,
        # which agree with the whole-array formulas within the tolerances of
        # the grid above.
        rng = np.random.default_rng(10 * k + size)
        outputs = rng.normal(size=(300, 16, 20, k)) * rng.uniform(0.1, 10.0, size=k) + 3.0
        second = np.maximum(rng.normal(size=(300, 5, 4, 3)), 0.0)
        stream = chunk_stream(outputs, second, size=size)
        banks, rows = fit_pca_bank(stream)
        assert [bank.layer_index for bank in banks] == [1, 2]
        for layer, bank, got in zip((outputs, second), banks, rows):
            assert got.tobytes() == stat_matrix(layer, bank).tobytes()
        assert [bank_bytes(b) for b in fit_pca_bank(stream)[0]] == [bank_bytes(b) for b in banks]
        mean, components, stds = whole_batch_fit(outputs)
        np.testing.assert_allclose(banks[0].mean, mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(banks[0].components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(banks[0].stds, stds, rtol=1e-13, atol=0)

    def test_stream_chunks_left_byte_identical(self):
        rng = np.random.default_rng(11)
        chunks = [[np.maximum(rng.normal(size=(n, 13, 13, 3)), 0.0),
                   np.maximum(rng.normal(size=(n, 5, 5, 4)), 0.0)] for n in (64, 64, 40)]
        before = [[layer.tobytes() for layer in chunk] for chunk in chunks]
        fit_pca_bank(lambda: iter(chunks))
        assert [[layer.tobytes() for layer in chunk] for chunk in chunks] == before

    def test_stream_peak_does_not_grow_with_its_length(self):
        # Chunks are made as the fit reads them, so only what the fit keeps
        # can grow: beyond the rows it returns (24 doubles an image), 40
        # chunks of 64 images peak where 10 do.
        def stream(count):
            def chunks():
                rng = np.random.default_rng(12)
                for _ in range(count):
                    yield [rng.normal(size=(64, 13, 13, 4))]
            return chunks

        def beyond_rows(count):
            return traced_peak(fit_pca_bank, stream(count)) - count * 64 * 24 * 8

        assert beyond_rows(40) <= beyond_rows(10) + 64 * 1024

    @pytest.mark.parametrize("chunks, match", [
        ([[np.zeros((2, 3, 3, 2))], [np.zeros((2, 9, 2))]], "N x H x W x K"),
        ([[np.zeros((2, 3, 3, 2))], [np.zeros((2, 3, 3, 3))]], "2 and 3 channels"),
        ([[np.zeros((1, 1, 1, 4))], [np.zeros((1, 1, 2, 4))]], "at least 4 pixel samples, got 3"),
        ([], "at least 1 pixel samples, got 0"),
        ([[np.zeros((2, 3, 3, 2))], [np.zeros((2, 3, 3, 2))] * 2], "capture 1 and 2 layers"),
    ])
    def test_malformed_stream_rejected(self, chunks, match):
        with pytest.raises(ValidationError, match=match):
            fit_pca_bank(lambda: iter(chunks))


class TestPcaStatistic:
    def test_mean_valued_image_gives_zero_vector(self):
        rng = np.random.default_rng(4)
        outputs = rng.normal(size=(5, 3, 3, 4))
        bank = fit_layer(outputs)
        flat_mean = np.broadcast_to(bank.mean, (3, 3, 4)).copy()
        assert (pca_columns(flat_mean, bank) == 0.0).all()

    def test_single_pixel_hand_projection_oracle(self):
        rng = np.random.default_rng(5)
        outputs = rng.normal(size=(8, 4, 4, 3))
        bank = fit_layer(outputs)
        pixel = rng.normal(size=3)
        got = pca_columns(pixel.reshape(1, 1, 3), bank)
        want = np.abs((pixel - bank.mean) @ bank.components / bank.stds)
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_invariant_to_spatial_permutation(self):
        rng = np.random.default_rng(6)
        outputs = rng.normal(size=(5, 4, 4, 3))
        bank = fit_layer(outputs)
        img = rng.normal(size=(4, 4, 3))
        perm = rng.permutation(16)
        shuffled = img.reshape(16, 3)[perm].reshape(4, 4, 3)
        assert np.allclose(pca_columns(img, bank), pca_columns(shuffled, bank),
                           rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        bank = fit_layer(rng.normal(size=(4, 3, 3, 2)))
        with pytest.raises(ValidationError, match="channels"):
            pca_columns(rng.normal(size=(3, 3, 5)), bank)


class TestExtremalAndPercentiles:
    def test_constant_channel_all_stats_equal(self):
        img = np.full((4, 5, 2), 0.75)
        ex = extremal_columns(img)
        pc = percentile_columns(img)
        assert (ex == 0.75).all()
        assert (pc == 0.75).all()

    def test_values_1_to_100_sort_interpolate_oracle(self):
        img = np.arange(1.0, 101.0).reshape(10, 10, 1)
        pc = percentile_columns(img)
        assert pc.tolist() == [25.75, 50.5, 75.25]

    def test_single_pixel_channel_all_stats_equal_pixel(self):
        img = np.array([[[3.5, -1.25]]])
        ex = extremal_columns(img)
        pc = percentile_columns(img)
        assert ex.tolist() == [3.5, -1.25, 3.5, -1.25]
        assert pc.tolist() == [3.5, -1.25, 3.5, -1.25, 3.5, -1.25]

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-100, 100, width=64)))
    def test_exact_equality_with_sorted_oracle(self, values):
        img = values.reshape(-1, 1, 1)
        pc = percentile_columns(img)
        for i, p in enumerate((25.0, 50.0, 75.0)):
            assert pc[i] == sorted_percentile_oracle(values, p)
        ex = extremal_columns(img)
        assert ex[0] == min(values) and ex[1] == max(values)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 4, 2), elements=st.floats(-50, 50, width=64)))
    def test_per_channel_order_invariant(self, img):
        ex = extremal_columns(img)
        pc = percentile_columns(img)
        k = 2
        mins, maxs = ex[:k], ex[k:]
        p25, p50, p75 = pc[:k], pc[k : 2 * k], pc[2 * k :]
        assert (mins <= p25).all() and (p25 <= p50).all()
        assert (p50 <= p75).all() and (p75 <= maxs).all()


class TestStatMatrix:
    def test_chunked_rows_bytes_equal_whole_batch_formula(self):
        # 600 images cross nine 64-image chunk boundaries.
        outputs = np.maximum(np.random.default_rng(6).normal(size=(600, 6, 6, 4)), 0.0)
        bank = fit_layer(outputs)
        got = stat_matrix(outputs, bank)
        assert got.shape == (600, 24)
        assert got.tobytes() == whole_batch_stat_rows(outputs, bank).tobytes()

    def test_peak_memory_below_one_input(self):
        outputs = np.random.default_rng(7).normal(size=(1024, 12, 12, 4))
        bank = fit_layer(outputs)
        assert traced_peak(stat_matrix, outputs, bank) < outputs.nbytes

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(1, 12), st.integers(250, 300)), h=st.integers(1, 4),
           w=st.integers(1, 4), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_rows_bytes_equal_whole_batch_formula_on_relu_values(self, n, h, w, k, seed):
        # Rounding to one decimal makes ties, the ReLU makes runs of zeros;
        # 250-300 images cross the 64-image chunk boundaries up to 256.
        rng = np.random.default_rng(seed)
        outputs = np.maximum(np.round(rng.normal(size=(n, h, w, k)), 1), 0.0)
        mean = rng.normal(size=k)
        components = np.linalg.qr(rng.normal(size=(k, k)))[0]
        bank = PcaBank(layer_index=1, mean=mean, components=components,
                       stds=rng.uniform(0.5, 2.0, size=k))
        got = stat_matrix(outputs, bank)
        assert got.tobytes() == whole_batch_stat_rows(outputs, bank).tobytes()


class TestLayerFeatureVector:
    def test_length_and_composition(self, victim_bundle, fitted_banks):
        bank = fitted_banks[0]
        out = layer_outputs_batch(victim_bundle.network, victim_bundle.dataset.images[:1])[0]
        row = stat_matrix(out, bank)[0]
        assert row.shape == (6 * 8,)
        pixels = out[0].reshape(-1, 8)
        z = (pixels - bank.mean) @ bank.components / bank.stds
        # row order is [pca | min | max | p25 | p50 | p75]
        want = np.concatenate([np.abs(z).mean(axis=0), pixels.min(axis=0), pixels.max(axis=0)]
                              + [np.percentile(pixels, p, axis=0) for p in PERCENTILES])
        assert np.allclose(row, want, rtol=0, atol=1e-12)

    def test_stat_matrix_matches_single_image_path(self, victim_bundle, fitted_banks):
        # A one-image batch gets the row it gets inside a larger batch.
        net = victim_bundle.network
        images = victim_bundle.dataset.images[:5]
        rows = stat_matrix(layer_outputs_batch(net, images)[0], fitted_banks[0])
        for i in range(5):
            single = stat_matrix(layer_outputs_batch(net, images[i : i + 1])[0], fitted_banks[0])
            assert np.array_equal(rows[i], single[0])

    def test_ea_statistics_deviate_far_more_than_gradient_box(
            self, victim_bundle, corpus, ea_records, fitted_banks):
        net = victim_bundle.network
        normals = corpus.normal_bank[500:800]
        gbox = np.stack([r.image.array for r in corpus.successful[:150]])
        ea = np.stack([r.image.array for r in ea_records[:100]])
        bank = fitted_banks[0]
        mean_n = stat_matrix(layer_outputs_batch(net, normals)[0], bank)[:, :8].mean(0)
        mean_g = stat_matrix(layer_outputs_batch(net, gbox)[0], bank)[:, :8].mean(0)
        mean_e = stat_matrix(layer_outputs_batch(net, ea)[0], bank)[:, :8].mean(0)
        assert np.abs(mean_e - mean_n).mean() > 10 * np.abs(mean_g - mean_n).mean()


class TestSpectralReport:
    def test_normal_set_against_itself_std_exactly_one(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 6))
        rep = spectral_report(x, x)
        assert (rep.normal_std == 1.0).all()
        assert np.array_equal(rep.adversarial_std, rep.normal_std)

    def test_scaled_set_doubles_std_ratio(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 5))
        rep = spectral_report(x, 2.0 * x)
        assert np.allclose(rep.adversarial_std, 2.0, rtol=1e-9, atol=1e-9)

    def test_gradient_box_head_low_tail_high_on_penultimate_features(
            self, victim_bundle, corpus):
        from cascade_guard.cli import _flat_layer_features

        net = victim_bundle.network
        normals = corpus.normal_bank[800:1300]
        advs = np.stack([r.image.array for r in corpus.successful[:300]])
        xn = _flat_layer_features(net, normals, "penultimate")
        xa = _flat_layer_features(net, advs, "penultimate")
        rep = spectral_report(xn, xa)
        # restrict to directions with real variance on normal data; the
        # trailing numerically-degenerate dims carry no distribution shape
        alive = np.nonzero(rep.eigenvalues > 1e-10 * rep.eigenvalues.max())[0]
        head = rep.adversarial_std[alive[:10]].mean()
        tail = rep.adversarial_std[alive[-10:]].mean()
        assert head < 1.0
        assert tail > 1.0


class TestNoGradientPath:
    def test_module_has_no_backward_dependency(self):
        source = inspect.getsource(featstats)
        assert "autograd" not in source
        assert "backward" not in source
