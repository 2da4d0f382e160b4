"""Average-filter recovery of perturbed images.

A small box mean cancels the positive and negative pixel perturbations of a
gradient attack while leaving the underlying shape mostly intact, so many
flagged images classify correctly again after filtering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .victim import predict_batch

__all__ = ["average_filter", "recovery_eval", "RecoveryReport"]


def average_filter(images: np.ndarray, k: int) -> np.ndarray:
    """Per-channel k x k box mean of an (N, H, W, C) batch; k must be odd and fit.

    Edges are clamped (each edge pixel is repeated outward), so the output
    has the batch's shape. Each row is filtered on its own: row i of the
    output is the same bytes whatever the other rows hold.
    """
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise ValidationError(f"filter size must be odd and positive, got {k}")
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValidationError(f"images must be (N, H, W, C), got shape {images.shape}")
    _, h, w, _ = images.shape
    if k > min(h, w):
        raise ValidationError(f"filter size {k} exceeds image extent {h}x{w}")
    r = k // 2
    arr = np.pad(images, ((0, 0), (r, r), (r, r), (0, 0)), mode="edge")
    acc = np.zeros(images.shape)
    for i in range(k):
        for j in range(k):
            acc += arr[:, i : i + h, j : j + w, :]
    acc /= k * k
    if not np.isfinite(acc).all():
        raise ValidationError("operation produced non-finite values")
    return acc


@dataclass
class RecoveryReport:
    kind: str
    k: int
    n: int
    pre_accuracy: float
    post_accuracy: float


def recovery_eval(network, records, pre_labels, k: int) -> RecoveryReport:
    """Top-1 accuracy against original labels before and after filtering.

    pre_labels holds the victim's argmax on each record's unfiltered image,
    so only the filtered images are forwarded here. Only records that carry
    an original label participate.
    """
    if len(pre_labels) != len(records):
        raise ValidationError(f"got {len(pre_labels)} pre-filter labels for "
                              f"{len(records)} records")
    keep = [i for i, r in enumerate(records) if r.original_label is not None]
    if not keep:
        raise ValidationError("no records carry an original label")
    labeled = [records[i] for i in keep]
    labels = np.array([r.original_label for r in labeled], dtype=np.int64)
    pred_raw = np.asarray(pre_labels, dtype=np.int64)[keep]
    raw = np.stack([r.image.array for r in labeled])
    _, _, pred_filt = predict_batch(network, average_filter(raw, k))
    kinds = sorted({r.kind for r in labeled})
    return RecoveryReport(
        kind=kinds[0] if len(kinds) == 1 else "mixed",
        k=k,
        n=len(labeled),
        pre_accuracy=float((pred_raw == labels).mean()),
        post_accuracy=float((pred_filt == labels).mean()),
    )
