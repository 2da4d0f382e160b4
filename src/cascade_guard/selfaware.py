"""Predict-or-abstain decisions on a mixture of normal and adversarial inputs.

A logistic map calibrated on detector scores estimates the probability that
an input came from the normal distribution. Predicting on a normal input
costs its misclassification probability, predicting on an adversarial input
costs e_q, abstaining always costs e_a; the optimal rule predicts exactly
when the expected prediction cost beats e_a.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .victim import predict_batch

__all__ = [
    "OmegaCalibration",
    "ErrorTable",
    "SweepPoint",
    "calibrate_omega",
    "abstain_decide",
    "selfaware_sweep",
    "random_guess_error",
]

_RIDGE = 1e-6  # tiny L2 penalty keeps the fit finite under perfect separation
_MIN_COUNT = 30  # classes predicted fewer times fall back to the global error rate


@dataclass(frozen=True)
class OmegaCalibration:
    """Monotone logistic map from detector score to P(normal | score).

    slope <= 0: higher adversarialness never raises the normal probability.
    """

    slope: float
    intercept: float

    def __post_init__(self):
        if self.slope > 0:
            raise ValidationError("calibration slope must be non-positive")

    def p_normal(self, scores) -> np.ndarray:
        z = self.slope * np.asarray(scores, dtype=np.float64) + self.intercept
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def calibrate_omega(scores, labels) -> OmegaCalibration:
    """Maximum-likelihood logistic fit of P(normal) against detector scores.

    labels mark adversarials (truthy). Newton iterations on the ridge-penalized
    mean log-loss; if the fitted slope turns out positive it is clamped to 0
    with the matching base-rate intercept.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("need aligned 1-D scores and labels")
    normal = ~labels
    if normal.all() or labels.all():
        raise ValidationError("calibration needs both classes present")
    t = normal.astype(np.float64)
    design = np.stack([scores, np.ones_like(scores)], axis=1)
    theta = np.zeros(2)
    n = len(scores)
    for _ in range(100):
        z = np.clip(design @ theta, -500.0, 500.0)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = design.T @ (p - t) / n + 2.0 * _RIDGE * theta
        w = p * (1.0 - p)
        hess = (design * w[:, None]).T @ design / n + 2.0 * _RIDGE * np.eye(2)
        step = np.linalg.solve(hess, grad)
        theta = theta - step
        if np.abs(step).max() < 1e-12:
            break
    a, b = float(theta[0]), float(theta[1])
    if a > 0:
        base = float(t.mean())
        base = min(max(base, 1e-12), 1.0 - 1e-12)
        a, b = 0.0, float(np.log(base / (1.0 - base)))
    return OmegaCalibration(slope=a, intercept=b)


@dataclass
class ErrorTable:
    """Victim misclassification rate per predicted class, with a global fallback.

    Classes predicted fewer than _MIN_COUNT (30) times on the validation set
    fall back to the global error rate.
    """

    per_class: np.ndarray
    counts: np.ndarray
    global_rate: float

    @classmethod
    def from_validation(cls, network, images, labels):
        labels = np.asarray(labels, dtype=np.int64)
        if len(images) == 0:
            raise ValidationError("validation set is empty")
        _, _, pred = predict_batch(network, images)
        classes = network.spec.classes
        per_class = np.zeros(classes)
        counts = np.zeros(classes, dtype=np.int64)
        for c in range(classes):
            mask = pred == c
            counts[c] = int(mask.sum())
            if counts[c]:
                per_class[c] = float((labels[mask] != c).mean())
        return cls(per_class=per_class, counts=counts,
                   global_rate=float((pred != labels).mean()))

    def p_err(self, predicted_class: int) -> float:
        c = int(predicted_class)
        if self.counts[c] < _MIN_COUNT:
            return self.global_rate
        return float(self.per_class[c])


def random_guess_error(classes: int) -> float:
    """Error of guessing uniformly among the classes: (C - 1) / C."""
    if classes < 1:
        raise ValidationError("class count must be positive")
    return (classes - 1) / classes


def abstain_decide(p_omega: float, p_err: float, e_q: float, e_a: float) -> str:
    """Predict iff p_omega * p_err + (1 - p_omega) * e_q < e_a, strictly.

    Equality abstains.
    """
    if not 0.0 <= p_omega <= 1.0 or not 0.0 <= p_err <= 1.0:
        raise ValidationError("probabilities must lie in [0, 1]")
    if not (0 < e_q < np.inf and 0 < e_a < np.inf):
        raise ValidationError("costs must be positive and finite")
    expected_predict = p_omega * p_err + (1.0 - p_omega) * e_q
    return "predict" if expected_predict < e_a else "abstain"


@dataclass
class SweepPoint:
    e_a: float
    abstain_fraction: float
    retained_accuracy: float
    expected_loss: float
    adversarial_abstain_rate: float
    normal_retain_rate: float


def selfaware_sweep(scores, predicted, is_adversarial, labels,
                    calibration: OmegaCalibration, error_table: ErrorTable,
                    e_q: float, e_a_values) -> list[SweepPoint]:
    """Apply the abstain rule per item for each abstain cost in the sweep.

    Items are aligned rows of the mixture: detector score, the victim's
    argmax, whether the item is adversarial and its true label (-1 when
    unknown). Retained accuracy counts a kept item as correct only when the
    argmax equals its true label, so retained items without one count as
    wrong. Expected loss charges e_a per abstention, e_q per retained
    adversarial and the 0/1 error per retained normal. Both costs must be
    positive and finite, as in abstain_decide.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pred = np.asarray(predicted, dtype=np.int64)
    is_adv = np.asarray(is_adversarial, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 1 or any(a.shape != scores.shape for a in (pred, is_adv, labels)):
        raise ValidationError("scores, predictions, flags and labels must be aligned 1-D")
    if scores.size == 0:
        raise ValidationError("mixture is empty")
    e_a_values = np.asarray(e_a_values, dtype=np.float64)
    if not (0 < e_q < np.inf and ((0 < e_a_values) & (e_a_values < np.inf)).all()):
        raise ValidationError("costs must be positive and finite")
    p_omega = calibration.p_normal(scores)
    p_err = np.array([error_table.p_err(c) for c in pred])
    correct = pred == labels
    expected_predict = p_omega * p_err + (1.0 - p_omega) * e_q

    points = []
    for e_a in e_a_values:
        predicts = expected_predict < e_a
        abstains = ~predicts
        retained = int(predicts.sum())
        retained_acc = float(correct[predicts].mean()) if retained else float("nan")
        loss = float(
            (abstains * e_a
             + predicts * np.where(is_adv, e_q, (~correct).astype(np.float64))).mean())
        adv_total = int(is_adv.sum())
        norm_total = scores.size - adv_total
        points.append(SweepPoint(
            e_a=float(e_a),
            abstain_fraction=float(abstains.mean()),
            retained_accuracy=retained_acc,
            expected_loss=loss,
            adversarial_abstain_rate=(
                float(abstains[is_adv].mean()) if adv_total else float("nan")),
            normal_retain_rate=(
                float(predicts[~is_adv].mean()) if norm_total else float("nan")),
        ))
    return points
