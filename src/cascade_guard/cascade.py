"""Stage-wise linear detector over conv-layer statistics.

Adversarial is the positive class throughout. Each stage scores the
concatenated statistic vectors of conv layers 1..k; images scoring below the
stage threshold exit as normal, survivors of every stage are flagged
adversarial. Thresholds are calibrated so a target fraction of training
adversarials keeps flowing downstream. The detector reads only forward
activations; it has no gradient path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .featstats import stat_matrix
from .tensor import _per_row
from .victim import _chunked_forward

__all__ = [
    "LinearSvm",
    "CascadeStage",
    "CascadeModel",
    "CascadeConfig",
    "train_svm",
    "svm_objective",
    "calibrate_threshold",
    "train_cascade",
    "cascade_predict_batch",
    "detector_score_batch",
    "RocCurve",
    "roc_auc",
    "compose_rates",
    "accuracy_at_threshold",
    "best_threshold_accuracy",
]

SURVIVOR_OFFSET = 1.0  # added to survivor scores so they rank above every exiter


@dataclass
class LinearSvm:
    """L2-regularized hinge-loss classifier on standardized features."""

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray

    def __post_init__(self):
        d = self.weights.shape[0]
        if d < 1:
            raise ValidationError("feature dimension must be positive")
        if self.feature_means.shape != (d,) or self.feature_stds.shape != (d,):
            raise ValidationError("standardization arrays must match the weight length")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)
                and np.isfinite(self.feature_means).all()):
            raise ValidationError("svm parameters must be finite")
        if not (np.isfinite(self.feature_stds).all() and (self.feature_stds > 0).all()):
            raise ValidationError("svm feature stds must be finite and positive")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        """One score per row of x, formed on its own: a row scores the same in any batch."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValidationError(f"features must be (N, {self.dim}), got {x.shape}")
        xs = (x - self.feature_means) / self.feature_stds
        return _per_row(xs, self.weights) + self.bias


def _standardize_params(x: np.ndarray):
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    # Columns whose variation is numerical dust relative to their own scale
    # carry no signal; scaling dust up to unit variance would mint fake
    # features whose weights then explode on out-of-support inputs.
    floor = 1e-7 * np.maximum(1.0, np.abs(means))
    stds = np.where(stds > floor, stds, 1.0)
    return means, stds


def svm_objective(weights, bias, xs, y, lam) -> float:
    """(lam/2)||w||^2 + mean hinge on standardized features (bias regularized)."""
    margins = y * (xs @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * (weights @ weights + bias * bias) + hinge.mean()


def train_svm(x, y, c: float = 0.005, iters: int = 2000) -> LinearSvm:
    """Deterministic full-batch subgradient descent with best-iterate tracking.

    The regularization weight is lam = 1 / (c * n); steps follow the
    1/(lam * t) schedule. The bias rides along as an always-one feature, so it
    is regularized too. The margins that score an iterate's objective (the
    one svm_objective computes) also give the next step's hinge violators, so
    each iteration multiplies by the feature matrix twice: once for the step
    and once for the new margins.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ValidationError("need a feature matrix and one label per row")
    if not np.isfinite(x).all():
        raise ValidationError("feature rows must be finite")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValidationError("labels must be -1 (normal) or +1 (adversarial)")
    if (y > 0).sum() == 0 or (y < 0).sum() == 0:
        raise ValidationError("both classes must be present")
    if not 0 < c < np.inf:
        raise ValidationError("regularization parameter c must be positive and finite")
    n, d = x.shape
    means, stds = _standardize_params(x)
    xs = (x - means) / stds
    aug = np.concatenate([xs, np.ones((n, 1))], axis=1)
    lam = 1.0 / (c * n)
    w = np.zeros(d + 1)
    margins = y * (aug @ w)
    best_w = w.copy()
    best_obj = svm_objective(w[:d], w[d], xs, y, lam)
    for t in range(1, iters + 1):
        viol = margins < 1.0
        grad = lam * w - (y[viol] @ aug[viol]) / n
        w = w - grad / (lam * (t + 1))
        margins = y * (aug @ w)
        obj = 0.5 * lam * (w @ w) + np.maximum(0.0, 1.0 - margins).mean()
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
    return LinearSvm(weights=best_w[:d], bias=float(best_w[d]),
                     feature_means=means, feature_stds=stds)


def calibrate_threshold(scores, labels, target_tpr: float) -> float:
    """Largest threshold keeping at least target_tpr of adversarials at or above it.

    Scores are adversarialness (high = adversarial); an example counts as
    flagged when score >= threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[np.asarray(labels) > 0]
    if pos.size == 0:
        raise ValidationError("calibration set contains no adversarial examples")
    if not 0.0 < target_tpr <= 1.0:
        raise ValidationError("target TPR must lie in (0, 1]")
    k = int(np.ceil(target_tpr * pos.size))
    ordered = np.sort(pos)[::-1]
    return float(ordered[k - 1])


@dataclass
class CascadeStage:
    """One stage: the SVM over layers 1..layer_index features plus its threshold."""

    layer_index: int
    svm: LinearSvm
    tau: float
    fpr: float | None = None
    tpr: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValidationError("stage threshold must be finite")


@dataclass
class CascadeModel:
    stages: tuple
    banks: tuple
    target_tpr: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.stages:
            raise ValidationError("cascade needs at least one stage")
        if not 0.0 < self.target_tpr <= 1.0:
            raise ValidationError("target TPR must lie in (0, 1]")
        if len(self.stages) > len(self.banks):
            raise ValidationError("more stages than fitted banks")
        for name, parts in (("stages", self.stages), ("banks", self.banks)):
            if [p.layer_index for p in parts] != list(range(1, len(parts) + 1)):
                raise ValidationError(f"{name} must cover conv layers 1..K in order")


@dataclass(frozen=True)
class CascadeConfig:
    target_tpr: float = 0.97
    svm_c: float = 0.005
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_tpr <= 1.0:
            raise ValidationError("target TPR must lie in (0, 1]")
        if not 0 < self.svm_c < np.inf:
            raise ValidationError("svm C must be positive and finite")


def train_cascade(pool_layers, adv_layers, banks, config=CascadeConfig()) -> CascadeModel:
    """Stage-by-stage training with pool elimination.

    pool_layers and adv_layers are the per-conv-layer activation arrays of the
    normal pool and of the training adversarials, as layer_outputs_batch
    returns them; banks are the fitted banks of conv layers 1, 2, ... Stage k
    appends layer-k statistics of the pool normals still alive, and of the
    adversarials, to the features of the earlier stages; the pool's are
    computed for the whole layer array and their alive rows kept, as indexing
    the activations would copy them. It then draws a balanced subset of the
    alive normals, trains the SVM against all training adversarials,
    calibrates the threshold at the target TPR on the training adversarials
    and drops the pool normals that score below it. Stops when the conv
    layers or the banks run out, or when the pool empties. Stage rates are
    the stage's own rates on the alive pool and the training adversarials.
    The detector keeps a bank for every conv layer it covers, reached by a
    stage or not.
    """
    pool_layers, adv_layers = list(pool_layers), list(adv_layers)
    if len(pool_layers) != len(adv_layers) or any(
            a.ndim != 4 or p.shape[1:] != a.shape[1:] for p, a in zip(pool_layers, adv_layers)):
        raise ValidationError("pool and adversarial activations must be N x h x w x k "
                              "arrays of the same conv layers")
    n_layers = min(len(banks), len(pool_layers))
    if n_layers < 1:
        raise ValidationError("need at least one conv layer with a fitted bank")
    n_p = len(adv_layers[0])
    if n_p == 0:
        raise ValidationError("training adversarial set is empty")
    n_pool = len(pool_layers[0])
    if n_pool < n_p:
        raise ValidationError(f"normal pool ({n_pool}) smaller than adversarial set ({n_p})")

    rng = np.random.default_rng(config.seed)
    alive = np.arange(n_pool)
    pool_feats = np.empty((n_pool, 0))
    adv_feats = np.empty((n_p, 0))
    stages = []
    for m, bank in enumerate(banks[:n_layers]):
        if alive.size == 0:
            break
        pool_feats = np.concatenate([pool_feats, stat_matrix(pool_layers[m], bank)[alive]],
                                    axis=1)
        adv_feats = np.concatenate([adv_feats, stat_matrix(adv_layers[m], bank)], axis=1)
        draw = rng.choice(alive, size=min(n_p, alive.size), replace=False)
        x = np.concatenate([pool_feats[np.searchsorted(alive, draw)], adv_feats])
        y = np.concatenate([-np.ones(len(draw)), np.ones(n_p)])
        svm = train_svm(x, y, c=config.svm_c)
        adv_scores = svm.decision_scores(adv_feats)
        tau = calibrate_threshold(adv_scores, np.ones(n_p), config.target_tpr)
        kept = svm.decision_scores(pool_feats) >= tau
        stages.append(CascadeStage(layer_index=m + 1, svm=svm, tau=tau,
                                   fpr=float(kept.mean()),
                                   tpr=float((adv_scores >= tau).mean())))
        alive = alive[kept]
        pool_feats = pool_feats[kept]

    return CascadeModel(
        stages=tuple(stages),
        banks=tuple(banks[:n_layers]),
        target_tpr=config.target_tpr,
        metadata={"svm_c": config.svm_c, "seed": config.seed,
                  "pool_size": int(n_pool), "adv_train_size": int(n_p),
                  "pool_survivors": int(alive.size)},
    )


def _batch_scores(model: CascadeModel, network, images):
    # One forward pass; stage k appends layer-k statistics of its survivors
    # only, so an image that exits costs no deeper statistics. The victim's
    # argmax comes from the same pass.
    logits, per_layer = _chunked_forward(network, images, capture_conv=True)
    if len(per_layer) < len(model.stages):
        raise ValidationError(
            f"network exposes {len(per_layer)} conv layers but the detector has "
            f"{len(model.stages)} stages"
        )
    n = len(per_layer[0])
    exit_stage = np.full(n, -1, dtype=np.int64)
    scores = np.full((n, len(model.stages)), np.nan)
    alive = np.arange(n)
    feats = np.empty((n, 0))
    for i, (stage, bank) in enumerate(zip(model.stages, model.banks)):
        if alive.size == 0:
            break
        # Every row is alive at stage 1; indexing would copy the whole layer.
        rows = per_layer[i] if i == 0 else per_layer[i][alive]
        feats = np.concatenate([feats, stat_matrix(rows, bank)], axis=1)
        s = stage.svm.decision_scores(feats)
        scores[alive, i] = s
        exited = s < stage.tau
        exit_stage[alive[exited]] = i + 1
        alive = alive[~exited]
        feats = feats[~exited]
    return exit_stage, scores, np.argmax(logits, axis=1)


def cascade_predict_batch(model: CascadeModel, network, images):
    """(is_adversarial, exit_stage, stage_scores) arrays for a batch.

    exit_stage is -1 for survivors; stage_scores holds NaN past the exit.
    """
    exit_stage, scores, _ = _batch_scores(model, network, images)
    return exit_stage < 0, exit_stage, scores


def detector_score_batch(model: CascadeModel, network, images) -> np.ndarray:
    """Scalar adversarialness per image.

    Exiters at stage k score s_k - tau_k (negative); survivors score their
    final-stage margin plus a fixed offset, so every survivor ranks above
    every exiter and thresholding at 0 reproduces the cascade decisions.
    """
    return _detector_scores_and_argmax(model, network, images)[0]


def _detector_scores_and_argmax(model: CascadeModel, network, images):
    """detector_score_batch's scores and the victim's argmax labels, from one forward pass."""
    exit_stage, scores, labels = _batch_scores(model, network, images)
    taus = np.array([stage.tau for stage in model.stages])
    survived = exit_stage < 0
    col = np.where(survived, len(model.stages) - 1, exit_stage - 1)
    margin = scores[np.arange(len(exit_stage)), col] - taus[col]
    return np.where(survived, margin + SURVIVOR_OFFSET, margin), labels


@dataclass
class RocCurve:
    """Threshold sweep points (threshold, fpr, tpr) and the tie-aware AUC."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def _sweep_counts(scores, labels):
    """Thresholds (inf, then distinct scores descending); tp and fp at or above each."""
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1]])
    pos = np.sort(scores[labels])
    neg = np.sort(scores[~labels])
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    fp = neg.size - np.searchsorted(neg, thresholds, side="left")
    return thresholds, tp, fp


def roc_auc(scores, labels) -> RocCurve:
    """Full-sweep ROC plus AUC equal to the tie-aware pair statistic.

    AUC counts, for each adversarial, the normals scoring below it plus half
    those tied with it, which matches exhaustive pair counting (1 per
    correctly ordered pair, 0.5 per tie) exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("need aligned 1-D scores and labels")
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("ROC needs both classes present")

    pos = scores[labels]
    neg = np.sort(scores[~labels])
    twice_u = np.searchsorted(neg, pos, side="left") + np.searchsorted(neg, pos, side="right")
    auc = twice_u.sum() / 2.0 / (n_pos * n_neg)
    thresholds, tp, fp = _sweep_counts(scores, labels)
    return RocCurve(thresholds=thresholds, fpr=fp / n_neg, tpr=tp / n_pos, auc=float(auc))


def compose_rates(stage_rates) -> tuple[float, float]:
    """Overall (false positive, true positive) rate of a cascade: products."""
    f = 1.0
    t = 1.0
    count = 0
    for fi, ti in stage_rates:
        if not (0.0 <= fi <= 1.0 and 0.0 <= ti <= 1.0):
            raise ValidationError("stage rates must lie in [0, 1]")
        f *= fi
        t *= ti
        count += 1
    if count == 0:
        raise ValidationError("need at least one stage rate")
    return f, t


def accuracy_at_threshold(scores, labels, threshold: float) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    return float(((scores >= threshold) == labels).mean())


def best_threshold_accuracy(scores, labels) -> tuple[float, float]:
    """(threshold, accuracy) of the most accurate operating point on the sweep."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    thresholds, tp, fp = _sweep_counts(scores, labels)
    tn = (~labels).sum() - fp
    accuracy = (tp + tn) / scores.size
    best = int(np.argmax(accuracy))
    return float(thresholds[best]), float(accuracy[best])
