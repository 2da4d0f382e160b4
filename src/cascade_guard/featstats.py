"""Per-layer statistics of convolutional filter outputs.

Every pixel of a conv-layer output is treated as one K-dimensional sample.
A bank fitted on normal images provides the mean, an orthonormal projection
and per-dimension standard deviations; each image is then summarized by the
mean absolute normalized projection coefficient per dimension, plus per
channel extrema and percentiles. All extractors are order statistics or
absolute means, so nothing here is differentiable end to end and the module
never touches gradient machinery.

fit_pca_bank is the one bank fit. It reads a stream of every conv layer's
outputs, one chunk of images at a time, twice, and holds no array of their
size: each chunk's moments, merged in order, give the banks, and the second
pass also gives the images' statistic rows. stat_matrix fills its rows 64
images at a time, with the same per-image formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "PcaBank",
    "fit_pca_bank",
    "stat_matrix",
    "feature_matrix",
    "SpectralReport",
    "spectral_report",
]

PERCENTILES = (25.0, 50.0, 75.0)
_STD_FLOOR = 1e-8  # projection stds are floored here so normalization never divides by 0


@dataclass(frozen=True)
class PcaBank:
    """Mean, orthonormal projection and projection stds for one conv layer.

    Columns of `components` are eigenvectors of the pixel-sample covariance in
    descending eigenvalue order, signs fixed so the largest-magnitude entry of
    each column is positive. Stds below `epsilon` are floored to it.
    """

    layer_index: int
    mean: np.ndarray
    components: np.ndarray
    stds: np.ndarray
    epsilon: float = _STD_FLOOR

    def __post_init__(self):
        k = self.mean.shape[0]
        if self.components.shape != (k, k) or self.stds.shape != (k,):
            raise ValidationError(
                f"bank arrays disagree: mean {self.mean.shape}, "
                f"W {self.components.shape}, s {self.stds.shape}"
            )
        if not all(np.isfinite(a).all() for a in (self.mean, self.components, self.stds)):
            raise ValidationError("bank arrays must be finite")
        gram = self.components.T @ self.components
        if np.abs(gram - np.eye(k)).max() > 1e-8:
            raise ValidationError("projection matrix is not orthonormal")
        if not self.epsilon > 0 or (self.stds < self.epsilon).any():
            raise ValidationError("stds must be floored at a positive epsilon")

    @property
    def k(self) -> int:
        return self.mean.shape[0]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry of each column made positive, first index on ties.
    out = components.copy()
    for col in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, col])))
        if out[i, col] < 0:
            out[:, col] = -out[:, col]
    return out


def _pixel_chunks(chunks):
    """Each chunk of the stream as its list of (n, H * W, K) pixel views, one
    per layer. Every layer output must be 4-D, and every chunk must hold the
    first chunk's layers with their channel counts."""
    ks = None
    for captured in chunks():
        layers = [np.asarray(layer, dtype=np.float64) for layer in captured]
        if ks is not None and len(layers) != len(ks):
            raise ValidationError(f"chunks capture {len(ks)} and {len(layers)} layers")
        for m, layer in enumerate(layers):
            if layer.ndim != 4:
                raise ValidationError(
                    f"layer outputs must be N x H x W x K, got shape {layer.shape}")
            if ks is not None and layer.shape[3] != ks[m]:
                raise ValidationError(
                    f"layer {m + 1} output chunks have {ks[m]} and {layer.shape[3]} channels")
        ks = [layer.shape[3] for layer in layers]
        yield [layer.reshape(len(layer), -1, layer.shape[3]) for layer in layers]


def _merge(moments, samples, outer):
    """(count, mean, scatter) of the (n, K) samples merged into the running
    moments (None for none yet) by the pairwise update of Chan, Golub &
    LeVeque (1979). The scatter of centered rows is their K x K outer-product
    sum with outer, else its diagonal, the sum of their squares."""
    mean = samples.mean(axis=0)
    centered = samples - mean
    scatter = centered.T @ centered if outer else np.square(centered, out=centered).sum(axis=0)
    if moments is None:
        return len(samples), mean, scatter
    n_a, mean_a, scatter_a = moments
    n_b, n = len(samples), n_a + len(samples)
    delta = mean - mean_a
    cross = np.multiply.outer(delta, delta) if outer else delta * delta
    return n, mean_a + delta * (n_b / n), scatter_a + scatter + cross * (n_a * n_b / n)


def fit_pca_bank(chunks):
    """Fit one bank per conv layer from normal images, with their statistic rows.

    chunks is a function of no arguments that returns a fresh iterator over
    the images' chunks, each a list of every conv layer's (n, H, W, K)
    outputs; the fit calls it twice. Every pixel of every image is one sample
    of its layer, and each layer needs at least K samples. Returns the banks
    (layer_index 1, 2, ...) and each layer's (N, 6K) statistic rows, byte for
    byte those that stat_matrix gives under its bank.

    The first pass merges each chunk's sample mean and centered scatter per
    layer in chunk order; the covariance's eigenvectors give the projection.
    The second merges the projections' means and centered squares about the
    merged mean the same way, for the stds (floored at 1e-8, the bank's
    epsilon), and takes every image's rows. The chunks are left as they are,
    and beyond the rows the fit holds one chunk's temporaries. The bytes
    depend on the chunking; one chunk gives those of the whole-array formulas.
    """
    moments, images = {}, 0
    for layers in _pixel_chunks(chunks):
        images += len(layers[0])
        for m, pixels in enumerate(layers):
            moments[m] = _merge(moments.get(m), pixels.reshape(-1, pixels.shape[2]), outer=True)
    if not moments:
        raise ValidationError("need at least 1 pixel samples, got 0")
    projections = []
    for n, mean, scatter in moments.values():
        if n < len(mean):
            raise ValidationError(f"need at least {len(mean)} pixel samples, got {n}")
        eigvals, eigvecs = np.linalg.eigh(scatter / n)
        projections.append((mean, _fix_signs(eigvecs[:, np.argsort(-eigvals, kind="stable")])))
    rows = [np.empty((images, 6 * len(mean))) for mean, _ in projections]
    spreads, start = {}, 0
    for layers in _pixel_chunks(chunks):
        chunk, start = slice(start, start + len(layers[0])), start + len(layers[0])
        for m, pixels in enumerate(layers):
            k = pixels.shape[2]
            rows[m][chunk, k:] = _order_rows(pixels)
            z = _projections(pixels, *projections[m])
            spreads[m] = _merge(spreads.get(m), z.reshape(-1, k), outer=False)
            rows[m][chunk, :k] = _mean_abs(z)
            del z  # freed before the next projections are formed
    banks = []
    for m, (mean, components) in enumerate(projections):
        n, _, squares = spreads[m]
        banks.append(PcaBank(layer_index=m + 1, mean=mean, components=components,
                             stds=np.maximum(np.sqrt(squares / n), _STD_FLOOR)))
        rows[m][:, : len(mean)] /= banks[m].stds
    return banks, rows


def _chunks(layer_batch: np.ndarray):
    # (rows, pixels) for 64 images of layer_batch at a time: pixels is the
    # (n, H * W, K) view of the rows slice.
    from .victim import _CHUNK_ROWS

    n, h, w, k = layer_batch.shape
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n))
        yield rows, layer_batch[rows].reshape(-1, h * w, k)


def _projections(pixels: np.ndarray, mean: np.ndarray, components: np.ndarray) -> np.ndarray:
    # (N, P, K) pixels -> (N, P, K) projections of the centered pixels.
    # Centering against a tiled row runs each subtraction over a whole image.
    n, npix, k = pixels.shape
    centered = pixels.reshape(n, npix * k) - np.tile(mean, npix)
    return centered.reshape(n, npix, k) @ components


def _mean_abs(z: np.ndarray) -> np.ndarray:
    # (N, P, K) projections -> (N, K) mean |z| per image, overwriting z. The
    # mean over P stays in the (N, P, K) layout: numpy sums that axis
    # sequentially for K > 1 but pairwise for K = 1, so another layout would
    # change bits.
    return np.abs(z, out=z).mean(axis=1)


def _pca_rows(pixels: np.ndarray, bank: PcaBank) -> np.ndarray:
    # (N, P, K) pixels -> (N, K) mean absolute projections over the bank's
    # stds, as fit_pca_bank forms its rows.
    if pixels.shape[2] != bank.k:
        raise ValidationError(
            f"layer output has {pixels.shape[2]} channels but bank expects {bank.k}")
    return _mean_abs(_projections(pixels, bank.mean, bank.components)) / bank.stds


def _order_rows(pixels: np.ndarray) -> np.ndarray:
    # (N, P, K) pixels -> (N, 5K) per-channel [min | max | p25 | p50 | p75].
    # One channel-major (N, K, P) copy, so min, max and the sort run along
    # contiguous P-long rows rather than K-long inner loops. Percentiles
    # interpolate linearly at rank (p / 100) * (P - 1) of the sorted pixels.
    npix = pixels.shape[1]
    channels = pixels.transpose(0, 2, 1).copy()
    stats = [channels.min(axis=2), channels.max(axis=2)]
    channels.sort(axis=2)
    for p in PERCENTILES:
        rank = (p / 100.0) * (npix - 1)
        lo = int(np.floor(rank))
        frac = rank - lo
        lo_vals = channels[:, :, lo]
        if lo + 1 >= npix:
            stats.append(lo_vals)
        else:
            stats.append(lo_vals + (channels[:, :, lo + 1] - lo_vals) * frac)
    return np.concatenate(stats, axis=1)


def stat_matrix(layer_batch: np.ndarray, bank: PcaBank) -> np.ndarray:
    """(N, 6K) statistic rows for a batch of layer outputs (N, H, W, K).

    Each row is ordered [pca | min | max | p25 | p50 | p75], K columns each:
    the mean absolute std-normalized projection coefficient per dimension,
    then the per-channel minimum, maximum and 25th, 50th and 75th percentiles
    over all pixels.
    Rows are filled 64 images at a time, so the temporaries are one chunk's
    size. Every statistic is computed per image, so the chunking changes no
    bit of any row.
    """
    k = layer_batch.shape[3]
    out = np.empty((len(layer_batch), 6 * k))
    for rows, pixels in _chunks(layer_batch):
        out[rows, :k] = _pca_rows(pixels, bank)
        out[rows, k:] = _order_rows(pixels)
    return out


def feature_matrix(network, images, banks, upto_layer=None) -> np.ndarray:
    """Statistic rows of conv layers 1..upto_layer, concatenated, from one forward pass."""
    from .victim import layer_outputs_batch

    banks = list(banks)
    upto = len(banks) if upto_layer is None else int(upto_layer)
    if not 1 <= upto <= len(banks):
        raise ValidationError(f"upto_layer {upto} out of range for {len(banks)} banks")
    per_layer = layer_outputs_batch(network, images)
    if len(per_layer) < upto:
        raise ValidationError(
            f"network exposes {len(per_layer)} conv layers but {upto} banks were given"
        )
    return np.concatenate(
        [stat_matrix(per_layer[m], banks[m]) for m in range(upto)], axis=1
    )


@dataclass
class SpectralReport:
    """Per-eigenvector extremal values and std ratios for two example sets.

    Projections use a basis fitted on the normal set and are normalized by the
    normal set's per-dimension std, so the normal std column sits at 1.
    """

    eigenvalues: np.ndarray
    normal_extremal: np.ndarray
    normal_std: np.ndarray
    adversarial_extremal: np.ndarray
    adversarial_std: np.ndarray


def spectral_report(normal_matrix, adversarial_matrix) -> SpectralReport:
    """Eigenvector-wise comparison of two feature matrices (rows = examples).

    Normal projection stds are floored at 1e-8.
    """
    xn = np.asarray(normal_matrix, dtype=np.float64)
    xa = np.asarray(adversarial_matrix, dtype=np.float64)
    if xn.ndim != 2 or xa.ndim != 2 or xn.shape[1] != xa.shape[1]:
        raise ValidationError("need two matrices with matching feature columns")
    if len(xn) == 0 or len(xa) == 0:
        raise ValidationError("both example sets must be non-empty")
    mean = xn.mean(axis=0)
    centered = xn - mean
    cov = centered.T @ centered / len(xn)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    components = _fix_signs(eigvecs[:, order])
    proj_n = centered @ components
    proj_a = (xa - mean) @ components
    stds = np.maximum(proj_n.std(axis=0), _STD_FLOOR)
    return SpectralReport(
        eigenvalues=eigvals,
        normal_extremal=np.abs(proj_n).max(axis=0) / stds,
        normal_std=proj_n.std(axis=0) / stds,
        adversarial_extremal=np.abs(proj_a).max(axis=0) / stds,
        adversarial_std=proj_a.std(axis=0) / stds,
    )
