"""Average-filter recovery of perturbed images.

A small box mean cancels the positive and negative pixel perturbations of a
gradient attack while leaving the underlying shape mostly intact, so many
flagged images classify correctly again after filtering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import Tensor
from .victim import predict_batch

__all__ = ["average_filter", "recovery_eval", "RecoveryReport"]


def average_filter(image: Tensor, k: int) -> Tensor:
    """Per-channel k x k box mean; k must be odd and fit the image.

    Edges are clamped (each edge pixel is repeated outward), so the output
    has the image's dims.
    """
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise ValidationError(f"filter size must be odd and positive, got {k}")
    h, w, _ = image.dims
    if k > min(h, w):
        raise ValidationError(f"filter size {k} exceeds image extent {h}x{w}")
    r = k // 2
    arr = np.pad(image.array, ((r, r), (r, r), (0, 0)), mode="edge")
    acc = np.zeros(image.dims)
    for i in range(k):
        for j in range(k):
            acc += arr[i : i + h, j : j + w, :]
    return Tensor._wrap(acc / (k * k))


@dataclass
class RecoveryReport:
    kind: str
    k: int
    n: int
    pre_accuracy: float
    post_accuracy: float


def recovery_eval(network, records, k: int) -> RecoveryReport:
    """Top-1 accuracy against original labels before and after filtering.

    Only records that carry an original label participate.
    """
    labeled = [r for r in records if r.original_label is not None]
    if not labeled:
        raise ValidationError("no records carry an original label")
    labels = np.array([r.original_label for r in labeled], dtype=np.int64)
    raw = np.stack([r.image.array for r in labeled])
    filtered = np.stack([average_filter(r.image, k).array for r in labeled])
    _, _, pred_raw = predict_batch(network, raw)
    _, _, pred_filt = predict_batch(network, filtered)
    kinds = sorted({r.kind for r in labeled})
    return RecoveryReport(
        kind=kinds[0] if len(kinds) == 1 else "mixed",
        k=k,
        n=len(labeled),
        pre_accuracy=float((pred_raw == labels).mean()),
        post_accuracy=float((pred_filt == labels).mean()),
    )
