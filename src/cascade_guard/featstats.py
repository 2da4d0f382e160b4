"""Per-layer statistics of convolutional filter outputs.

Every pixel of a conv-layer output is treated as one K-dimensional sample.
A bank fitted on normal images provides the mean, an orthonormal projection
and per-dimension standard deviations; each image is then summarized by the
mean absolute normalized projection coefficient per dimension, plus per
channel extrema and percentiles. All extractors are order statistics or
absolute means, so nothing here is differentiable end to end and the module
never touches gradient machinery.

fit_pca_bank is the one bank fit. It leaves its input as it is and holds no
array of the input's size: the covariance and the projection stds are sums
over blocks of 16,384 centered sample rows. stat_matrix fills its rows 64
images at a time.
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
_STD_BLOCK_ROWS = 16384  # sample rows per block of a bank fit's covariance and stds


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


def fit_pca_bank(layer_outputs, layer_index: int) -> PcaBank:
    """Fit mean, projection and stds from normal-image layer outputs.

    layer_outputs is an (N, H, W, K) array, as layer_outputs_batch returns per
    conv layer; every pixel of every image is one sample. Requires at least K
    samples. Stds are floored at 1e-8, which the bank records as its epsilon.
    The input is left as it is. The covariance and the projection moments are
    summed over blocks of 16,384 centered samples, so beyond the input the fit
    holds a few blocks, no array of the input's size; a fit of one block gives
    the bytes of the whole-array formulas.
    """
    batch = np.asarray(layer_outputs, dtype=np.float64)
    if batch.ndim != 4:
        raise ValidationError(f"layer outputs must be N x H x W x K, got shape {batch.shape}")
    k = batch.shape[3]
    samples = batch.reshape(-1, k)
    n = len(samples)
    if n < k:
        raise ValidationError(f"need at least {k} pixel samples, got {n}")
    mean = samples.mean(axis=0)

    def centered_blocks():
        for start in range(0, n, _STD_BLOCK_ROWS):
            yield samples[start : start + _STD_BLOCK_ROWS] - mean

    eigvals, eigvecs = np.linalg.eigh(sum(b.T @ b for b in centered_blocks()) / n)
    components = _fix_signs(eigvecs[:, np.argsort(-eigvals, kind="stable")])
    # var = E[z^2] - E[z]^2 per projection z; E[z] is at rounding level, as
    # the samples are centered.
    sums, squares = np.zeros(k), np.zeros(k)
    for block in centered_blocks():
        z = block @ components
        sums += z.sum(axis=0)
        squares += np.square(z, out=z).sum(axis=0)
        del block, z  # freed before the generator builds the next block
    mean_z = sums / n
    var = np.maximum(squares / n - mean_z * mean_z, 0.0)
    return PcaBank(layer_index=int(layer_index), mean=mean, components=components,
                   stds=np.maximum(np.sqrt(var), _STD_FLOOR))


def _chunks(layer_batch: np.ndarray):
    # (rows, pixels) for 64 images of layer_batch at a time: pixels is the
    # (n, H * W, K) view of the rows slice.
    from .victim import _CHUNK_ROWS

    n, h, w, k = layer_batch.shape
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n))
        yield rows, layer_batch[rows].reshape(-1, h * w, k)


def _pca_rows(pixels: np.ndarray, bank: PcaBank) -> np.ndarray:
    # (N, P, K) pixels -> (N, K) mean absolute std-normalized projections.
    # Centering against a tiled row runs each subtraction over a whole image.
    # The mean over P stays in the (N, P, K) layout: numpy sums that axis
    # sequentially for K > 1 but pairwise for K = 1, so another layout would
    # change bits.
    n, npix, k = pixels.shape
    if k != bank.k:
        raise ValidationError(f"layer output has {k} channels but bank expects {bank.k}")
    centered = pixels.reshape(n, npix * k) - np.tile(bank.mean, npix)
    z = (centered.reshape(n, npix, k) @ bank.components).reshape(n, npix * k)
    z /= np.tile(bank.stds, npix)
    np.abs(z, out=z)
    return z.reshape(n, npix, k).mean(axis=1)


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
