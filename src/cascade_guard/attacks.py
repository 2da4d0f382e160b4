"""Adversarial example generation against a trained victim network.

Three mechanisms: a box-constrained gradient attack that minimizes
c*||r||_1 + cross-entropy(f(x0+r), y) by projected gradient descent, a
gradient-sign attack, and a gradient-free evolutionary attack over direct
pixel encodings. Every returned image satisfies the [0,1] box exactly.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autograd import backward_pass, forward_pass, softmax_batch, softmax_cross_entropy
from .errors import ValidationError
from .tensor import Tensor
from .victim import Network, predict_batch

__all__ = [
    "AttackConfig",
    "AdversarialRecord",
    "choose_targets",
    "gradient_box_attack_batch",
    "gradient_sign_attack_batch",
    "evolutionary_attack",
    "evolutionary_attack_batch",
    "make_predict_fn",
]

ATTACK_KINDS = ("gradient-box", "gradient-sign", "evolutionary")
TARGET_POLICIES = ("least-likely", "random-other")


@dataclass(frozen=True)
class AttackConfig:
    """Settings of the three attack mechanisms.

    kind picks the mechanism, and each reads only its own fields: c,
    step_size and max_iterations for gradient-box; step_size and
    max_iterations for gradient-sign; seed, population, mutation_rate,
    mutation_std and generations for evolutionary. target_policy names the
    choose_targets rule for the gradient attacks. confidence_goal defines
    success for all three. A gradient-box row, and an evolutionary search,
    stop at the first iterate that meets it; gradient-sign runs every step.
    """

    kind: str = "gradient-box"
    target_policy: str = "random-other"
    c: float = 0.05
    step_size: float = 0.01
    max_iterations: int = 400
    confidence_goal: float = 0.9
    seed: int = 0
    population: int = 50
    mutation_rate: float = 0.1
    mutation_std: float = 0.1
    generations: int = 500

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValidationError(f"unknown attack kind {self.kind!r}")
        if self.target_policy not in TARGET_POLICIES:
            raise ValidationError(f"unknown target policy {self.target_policy!r}")
        if not 0.0 < self.confidence_goal < 1.0:
            raise ValidationError("confidence goal must lie in (0, 1)")
        if self.kind == "gradient-box" and not 0 < self.c < np.inf:
            raise ValidationError("c must be positive and finite for the gradient-box attack")
        if not 0 <= self.step_size < np.inf:
            raise ValidationError("step size must be non-negative and finite")
        if self.kind == "gradient-box" and self.step_size == 0:
            raise ValidationError("gradient-box attack needs a positive step size")
        if self.max_iterations < 0:
            raise ValidationError("max iterations must be non-negative")
        if self.population < 2:
            raise ValidationError("population must be at least 2")
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ValidationError("mutation rate must lie in (0, 1]")
        if not 0 < self.mutation_std < np.inf:
            raise ValidationError("mutation stddev must be positive and finite")
        if self.generations < 0:
            raise ValidationError("generations must be non-negative")


@dataclass
class AdversarialRecord:
    """One attack outcome: the perturbed image plus bookkeeping.

    success holds exactly when the achieved target confidence met the goal
    and the victim's argmax was the target.
    """

    source_image_id: int | None
    image: Tensor
    original_label: int | None
    target_label: int
    kind: str
    achieved_confidence: float
    l1: float | None
    linf: float | None
    iterations: int
    success: bool

    def __post_init__(self):
        arr = self.image.array
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError("perturbed image violates the [0,1] box constraint")
        if not 0.0 <= self.achieved_confidence <= 1.0:
            raise ValidationError("achieved confidence must lie in [0, 1]")


def choose_targets(raw_scores: np.ndarray, policy: str, rng: np.random.Generator) -> np.ndarray:
    """Pick a target label per image from its raw scores."""
    n, classes = raw_scores.shape
    original = np.argmax(raw_scores, axis=1)
    if policy == "least-likely":
        return np.argmin(raw_scores, axis=1).astype(np.int64)
    if policy == "random-other":
        if classes < 2:
            raise ValidationError("random-other needs at least two classes")
        draws = rng.integers(0, classes - 1, size=n)
        targets = np.where(draws >= original, draws + 1, draws)
        return targets.astype(np.int64)
    raise ValidationError(f"unknown target policy {policy!r}")


def _box_norms(x, x0):
    r = (x - x0).reshape(len(x), -1)
    return np.abs(r).sum(axis=1), np.abs(r).max(axis=1)


def _sources_and_targets(images, targets, classes: int):
    """(x0, y) of a gradient attack: N x H x W x C sources in [0, 1], one target each."""
    x0 = np.asarray(images, dtype=np.float64)
    if x0.ndim != 4:
        raise ValidationError(f"images must be N x H x W x C, got {x0.shape}")
    if x0.size and (x0.min() < 0.0 or x0.max() > 1.0):
        raise ValidationError("source images must lie in [0, 1]")
    y = np.asarray(targets, dtype=np.int64)
    if y.shape != (len(x0),):
        raise ValidationError("need one target label per image")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ValidationError(f"target labels must lie in 0..{classes - 1}")
    return x0, y


def gradient_box_attack_batch(network: Network, images: np.ndarray, targets,
                              cfg: AttackConfig, source_ids=None,
                              original_labels=None) -> list[AdversarialRecord]:
    """Projected gradient descent on c*||r||_1 + CE(f(x0+r), y), clipped to [0,1].

    Tracks the best iterate by objective. A row stops at the first iterate
    that reaches the confidence goal and returns that iterate, so a success
    is never discarded for a lower-objective failure.
    """
    x0, y = _sources_and_targets(images, targets, network.spec.classes)
    n = len(x0)
    layers, weights = network.spec.layers, network.weights

    x = x0.copy()
    best_obj = np.full(n, np.inf)
    best_x = x0.copy()
    best_conf = np.zeros(n)
    has_succ = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    iters_used = np.zeros(n, dtype=np.int64)

    it = 0
    while it <= cfg.max_iterations:
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xa = x[idx]
        logits, tape, _ = forward_pass(layers, weights, xa, keep_tape=True)
        losses, grad = softmax_cross_entropy(logits, y[idx])
        probs = softmax_batch(logits)
        conf = probs[np.arange(len(idx)), y[idx]]
        r = xa - x0[idx]
        l1 = np.abs(r).reshape(len(idx), -1).sum(axis=1)
        obj = cfg.c * l1 + losses
        iters_used[idx] = it

        improved = obj < best_obj[idx]
        upd = idx[improved]
        best_obj[upd] = obj[improved]
        best_x[upd] = xa[improved]
        best_conf[upd] = conf[improved]

        goal = (conf >= cfg.confidence_goal) & (np.argmax(logits, axis=1) == y[idx])
        upd = idx[goal]
        best_x[upd] = xa[goal]
        best_conf[upd] = conf[goal]
        has_succ[upd] = True
        active[upd] = False
        if it == cfg.max_iterations:
            break
        step_rows = active[idx]
        if not step_rows.any():
            break
        gx = backward_pass(tape, grad, wrt="input").input
        del tape  # freed before the next forward builds its own
        gx += cfg.c * np.sign(r)
        # Fixed-length steps along the objective's subgradient direction:
        # each iteration moves every pixel at most step_size.
        scale = np.abs(gx).reshape(len(gx), -1).max(axis=1)
        gx /= np.maximum(scale, 1e-12)[:, None, None, None]
        stepped = np.clip(xa - cfg.step_size * gx, 0.0, 1.0)
        x[idx[step_rows]] = stepped[step_rows]
        it += 1

    records = []
    for i in range(n):
        l1, linf = _box_norms(best_x[i][None], x0[i][None])
        records.append(AdversarialRecord(
            source_image_id=None if source_ids is None else int(source_ids[i]),
            image=Tensor(best_x[i]),
            original_label=None if original_labels is None else int(original_labels[i]),
            target_label=int(y[i]),
            kind="gradient-box",
            achieved_confidence=float(best_conf[i]),
            l1=float(l1[0]),
            linf=float(linf[0]),
            iterations=int(iters_used[i]),
            success=bool(has_succ[i]),
        ))
    return records


def gradient_sign_attack_batch(network: Network, images, targets,
                               cfg: AttackConfig, source_ids=None,
                               original_labels=None) -> list[AdversarialRecord]:
    """Iterated x <- clip(x - eps * sign(grad_x CE(f(x), y))), clipped to [0,1],
    for exactly max_iterations steps; zero steps score the sources."""
    x0, y = _sources_and_targets(images, targets, network.spec.classes)
    n = len(x0)
    layers, weights = network.spec.layers, network.weights
    x = x0.copy()
    for _ in range(cfg.max_iterations):
        logits, tape, _ = forward_pass(layers, weights, x, keep_tape=True)
        _, grad = softmax_cross_entropy(logits, y)
        gx = backward_pass(tape, grad, wrt="input").input
        x = np.clip(x - cfg.step_size * np.sign(gx), 0.0, 1.0)
    logits, probs, pred = predict_batch(network, x)
    conf = probs[np.arange(n), y]
    l1, linf = _box_norms(x, x0)
    records = []
    for i in range(n):
        ok = bool(conf[i] >= cfg.confidence_goal and pred[i] == y[i])
        records.append(AdversarialRecord(
            source_image_id=None if source_ids is None else int(source_ids[i]),
            image=Tensor(x[i]),
            original_label=None if original_labels is None else int(original_labels[i]),
            target_label=int(y[i]),
            kind="gradient-sign",
            achieved_confidence=float(conf[i]),
            l1=float(l1[i]),
            linf=float(linf[i]),
            iterations=cfg.max_iterations,
            success=ok,
        ))
    return records


def make_predict_fn(network: Network):
    """Probability closure for gradient-free attacks; hides the network."""

    def predict_probs(batch: np.ndarray) -> np.ndarray:
        _, probs, _ = predict_batch(network, batch)
        return probs

    return predict_probs


def evolutionary_attack(predict_probs, input_dims, target: int,
                        cfg: AttackConfig) -> AdversarialRecord:
    """Genetic search over direct pixel encodings for a confident target image.

    Fitness is the softmax confidence of the target class; elitism keeps the
    best individual, children mutate a random top-half parent with per-pixel
    clipped Gaussian noise. The closure is the only access to the victim, so
    no gradient is ever taken. Individuals evolve from uniform noise; there is
    no source image.
    """
    h, w, c = (int(d) for d in input_dims)
    rng = np.random.default_rng(cfg.seed)
    pop = rng.random((cfg.population, h, w, c))
    probs = np.asarray(predict_probs(pop), dtype=np.float64)
    if probs.ndim != 2 or len(probs) != cfg.population:
        raise ValidationError("predict closure must return one probability row per image")
    if not 0 <= target < probs.shape[1]:
        raise ValidationError(f"target labels must lie in 0..{probs.shape[1] - 1}")
    fitness = probs[:, target]
    order = np.argsort(-fitness, kind="stable")
    best = pop[order[0]].copy()
    best_fit = float(fitness[order[0]])
    best_probs = probs[order[0]].copy()
    gens_run = 0
    for _ in range(cfg.generations):
        if best_fit >= cfg.confidence_goal:
            break
        gens_run += 1
        parents = pop[order[: max(1, cfg.population // 2)]]
        picks = rng.integers(0, len(parents), size=cfg.population - 1)
        children = parents[picks]
        mutate = rng.random(children.shape) < cfg.mutation_rate
        noise = rng.normal(0.0, cfg.mutation_std, children.shape)
        children = np.clip(children + mutate * noise, 0.0, 1.0)
        pop = np.concatenate([best[None], children])
        probs = np.asarray(predict_probs(pop), dtype=np.float64)
        fitness = probs[:, target]
        order = np.argsort(-fitness, kind="stable")
        if float(fitness[order[0]]) > best_fit:
            best = pop[order[0]].copy()
            best_fit = float(fitness[order[0]])
            best_probs = probs[order[0]].copy()
    ok = bool(best_fit >= cfg.confidence_goal and int(np.argmax(best_probs)) == target)
    return AdversarialRecord(
        source_image_id=None,
        image=Tensor(best),
        original_label=None,
        target_label=int(target),
        kind="evolutionary",
        achieved_confidence=best_fit,
        l1=None,
        linf=None,
        iterations=gens_run,
        success=ok,
    )


def evolutionary_attack_batch(network: Network, targets, cfg: AttackConfig, run=None
                              ) -> list[AdversarialRecord]:
    """One evolutionary attack per target label with per-attack derived seeds.

    Target i searches from the seed SeedSequence((cfg.seed, i)), so no
    attack depends on another. run(worker, units) -> list, when given, runs
    the one-target units (e.g. on threads); by default they run in turn.
    """
    predict_probs = make_predict_fn(network)
    dims = network.spec.input_dims

    def attack(i):
        child_seed = int(np.random.SeedSequence((cfg.seed, i)).generate_state(1)[0])
        sub = dataclasses.replace(cfg, seed=child_seed)
        return evolutionary_attack(predict_probs, dims, int(targets[i]), sub)

    units = range(len(targets))
    return [attack(i) for i in units] if run is None else run(attack, units)
