import numpy as np
import pytest

import cascade_guard.autograd as autograd_module
from cascade_guard.attacks import (
    AttackConfig,
    choose_targets,
    evolutionary_attack,
    gradient_box_attack_batch,
    gradient_sign_attack_batch,
)
from cascade_guard.autograd import (
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReluLayer,
    SoftmaxLayer,
    softmax_cross_entropy,
)
from cascade_guard.cascade import CascadeConfig, train_svm
from cascade_guard.dataio import synth_dataset
from cascade_guard.errors import ValidationError
from cascade_guard.selfaware import abstain_decide, selfaware_sweep
from cascade_guard.victim import (
    Network,
    NetworkSpec,
    TrainConfig,
    _init_weights,
    default_victim_spec,
    predict_batch,
    train_victim,
)


def box_attack(network, image, target, cfg):
    """The gradient-box attack on one H x W x C image: a one-row batch."""
    return gradient_box_attack_batch(network, np.asarray(image)[None], [target], cfg)[0]


def sign_attack(network, image, target, cfg):
    """The gradient-sign attack on one H x W x C image: a one-row batch."""
    return gradient_sign_attack_batch(network, np.asarray(image)[None], [target], cfg)[0]


def label_of(network, image):
    return int(predict_batch(network, np.asarray(image)[None])[2][0])


def linear_victim(w_row, bias):
    """Two-class victim whose first logit is w.x + b and second is 0."""
    d = len(w_row)
    spec = NetworkSpec((1, d, 1), 2, (DenseLayer(2), SoftmaxLayer()))
    weights = [(np.array([w_row, [0.0] * d]), np.array([bias, 0.0])), None]
    return Network(spec, weights)


class TestAttackConfig:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            AttackConfig(kind="nope")

    def test_rejects_nonpositive_c_for_gradient_box(self):
        with pytest.raises(ValidationError, match="c must be positive"):
            AttackConfig(kind="gradient-box", c=0.0)

    def test_rejects_confidence_goal_outside_unit_interval(self):
        with pytest.raises(ValidationError, match="confidence goal"):
            AttackConfig(confidence_goal=1.0)

    def test_rejects_fixed_target_policy(self):
        with pytest.raises(ValidationError, match="unknown target policy"):
            AttackConfig(target_policy="fixed")


class TestNonFiniteSettings:
    """Every library validator of a positive or non-negative setting rejects NaN and inf.

    A comparison with NaN is false, so a check written `x <= 0` lets NaN through.
    """

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("validate", [
        lambda v: CascadeConfig(svm_c=v),
        lambda v: train_svm(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), c=v),
        lambda v: AttackConfig(c=v),
        lambda v: AttackConfig(step_size=v),
        lambda v: AttackConfig(kind="evolutionary", mutation_std=v),
        lambda v: train_victim(synth_dataset(0, 2), default_victim_spec(),
                               TrainConfig(epochs=1, learning_rate=v)),
        lambda v: abstain_decide(0.5, 0.5, v, 1.0),
        lambda v: abstain_decide(0.5, 0.5, 1.0, v),
        lambda v: selfaware_sweep([0.0], [0], [False], [0], None, None, v, [1.0]),
        lambda v: selfaware_sweep([0.0], [0], [False], [0], None, None, 1.0, [1.0, v]),
    ], ids=["cascade-svm-c", "train-svm-c", "attack-c", "attack-step-size",
            "attack-mutation-std", "train-victim-learning-rate", "abstain-e-q", "abstain-e-a",
            "sweep-e-q", "sweep-e-a"])
    def test_rejected(self, validate, value):
        with pytest.raises(ValidationError, match="positive|non-negative"):
            validate(value)


class TestChooseTargets:
    def test_random_other_never_matches_argmax(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(200, 10))
        targets = choose_targets(raw, "random-other", rng)
        assert (targets != np.argmax(raw, axis=1)).all()

    def test_least_likely_is_argmin(self):
        raw = np.array([[0.0, -3.0, 2.0]])
        assert choose_targets(raw, "least-likely", np.random.default_rng(0))[0] == 1


class TestGradientBox:
    def test_already_optimal_target_keeps_r_below_step(self):
        net = linear_victim([4.0, 0.0], 0.0)
        x0 = np.array([[[0.9], [0.5]]])
        assert label_of(net, x0) == 0
        cfg = AttackConfig(step_size=0.01, max_iterations=100, confidence_goal=0.9)
        rec = box_attack(net, x0, 0, cfg)
        assert rec.success
        assert rec.linf < cfg.step_size

    def test_margin_oracle_minimal_l2_close_to_point_to_hyperplane_distance(self):
        # target flip across 2x + y - 1.9 = 0; oracle: closed-form distance
        w = np.array([2.0, 1.0])
        b = -1.9
        net = linear_victim(w.tolist(), b)
        x0 = np.array([0.8, 0.6])
        distance = abs(w @ x0 + b) / np.linalg.norm(w)
        cfg = AttackConfig(step_size=0.002, max_iterations=2000, c=1e-4,
                           confidence_goal=0.5)
        rec = box_attack(net, x0.reshape(1, 2, 1), 1, cfg)
        assert rec.success
        l2 = np.linalg.norm(rec.image.array.ravel() - x0)
        assert l2 == pytest.approx(distance, rel=0.05)

    def test_box_constraint_exact(self, victim_bundle, corpus):
        for rec in corpus.records[:100]:
            assert rec.image.array.min() >= 0.0
            assert rec.image.array.max() <= 1.0

    def test_best_objective_trace_non_increasing(self):
        # The best objective c*l1 + CE over growing iteration budgets; the
        # target is unreachable, so every run returns its best iterate.
        net = linear_victim([1.0, 1.0], -20.0)
        x0 = np.array([[[0.1], [0.1]]])
        trace = []
        for iterations in (0, 1, 5, 20, 60):
            cfg = AttackConfig(step_size=0.05, max_iterations=iterations)
            rec = box_attack(net, x0, 0, cfg)
            assert not rec.success
            logits = predict_batch(net, rec.image.array[None])[0]
            ce = softmax_cross_entropy(logits, np.array([0]))[0][0]
            trace.append(cfg.c * rec.l1 + ce)
        assert (np.diff(trace) <= 0).all()
        assert trace[-1] < trace[0]

    def test_nonconvergence_is_not_an_error(self):
        net = linear_victim([1.0, 1.0], -20.0)  # target 0 unreachable in the box
        x0 = np.array([[[0.1], [0.1]]])
        cfg = AttackConfig(step_size=0.05, max_iterations=5, confidence_goal=0.99)
        rec = box_attack(net, x0, 0, cfg)
        assert not rec.success

    def test_desk_victim_success_rate(self, corpus):
        succ = np.array([r.success for r in corpus.records])
        conf = np.array([r.achieved_confidence for r in corpus.records])
        assert succ.mean() >= 0.95
        assert (conf[succ] >= 0.9).all()


class TestGradientSign:
    def test_zero_epsilon_returns_original(self, victim_bundle):
        img = victim_bundle.dataset.images[0]
        cfg = AttackConfig(kind="gradient-sign", step_size=0.0, max_iterations=1)
        rec = sign_attack(victim_bundle.network, img, 3, cfg)
        assert np.array_equal(rec.image.array, img)

    def test_single_step_changes_target_logit_by_eps_times_l1_norm(self):
        # linear logit model: pre-clipping logit change is exactly eps * ||w||_1
        w = np.array([1.5, -2.0, 0.0, 0.25])
        net = linear_victim(w.tolist(), 0.0)
        x0 = np.full((1, 4, 1), 0.5)
        eps = 0.01
        cfg = AttackConfig(kind="gradient-sign", step_size=eps, max_iterations=1)
        rec = sign_attack(net, x0, 0, cfg)
        before = float(w @ x0.ravel())
        after = float(w @ rec.image.array.ravel())
        assert after - before == pytest.approx(eps * np.abs(w).sum(), abs=1e-12)

    def test_output_in_box_even_for_eps_one(self, victim_bundle):
        img = victim_bundle.dataset.images[4]
        cfg = AttackConfig(kind="gradient-sign", step_size=1.0, max_iterations=3)
        rec = sign_attack(victim_bundle.network, img, 2, cfg)
        assert rec.image.array.min() >= 0.0 and rec.image.array.max() <= 1.0


class TestInputOnlyBackward:
    @pytest.mark.parametrize("attack,cfg", [
        (gradient_box_attack_batch, AttackConfig(max_iterations=3, confidence_goal=0.999)),
        (gradient_sign_attack_batch, AttackConfig(kind="gradient-sign", max_iterations=3)),
    ], ids=["gradient-box", "gradient-sign"])
    def test_gradient_attacks_form_no_parameter_gradient(self, monkeypatch, attack, cfg):
        spec = NetworkSpec((6, 6, 2), 3, (ConvLayer(3, 3, padding=1), ReluLayer(),
                                          MaxPoolLayer(2, 2), DenseLayer(3), SoftmaxLayer()))
        rng = np.random.default_rng(4)
        net = Network(spec, _init_weights(spec, rng))
        formed = {}

        def spy(name):
            kernel = getattr(autograd_module, name)

            def wrapped(*args):
                gx, gw, gb = kernel(*args)
                formed.setdefault(name, []).append(gw is not None or gb is not None)
                return gx, gw, gb
            monkeypatch.setattr(autograd_module, name, wrapped)

        spy("_conv_backward")
        spy("_dense_backward")
        tensordots = []
        tensordot = np.tensordot
        monkeypatch.setattr(np, "tensordot",
                            lambda *a, **k: tensordots.append(1) or tensordot(*a, **k))
        attack(net, rng.random((4, 6, 6, 2)), [0, 1, 2, 0], cfg)
        assert len(formed["_conv_backward"]) == len(formed["_dense_backward"]) == 3
        assert not any(formed["_conv_backward"] + formed["_dense_backward"])
        assert not tensordots


class TestEvolutionary:
    @staticmethod
    def pixel_threshold_victim(batch):
        """Probability of class 1 is a steep sigmoid in the single pixel."""
        v = batch.reshape(len(batch), -1)[:, 0]
        p1 = 1.0 / (1.0 + np.exp(-50.0 * (v - 0.5)))
        return np.stack([1.0 - p1, p1], axis=1)

    def test_zero_generations_returns_best_of_initial_population(self):
        cfg = AttackConfig(kind="evolutionary", generations=0, population=20, seed=3)
        rec = evolutionary_attack(self.pixel_threshold_victim, (1, 1, 1), 1, cfg)
        rng = np.random.default_rng(3)
        pop = rng.random((20, 1, 1, 1))
        fitness = self.pixel_threshold_victim(pop)[:, 1]
        assert rec.achieved_confidence == fitness.max()
        assert rec.iterations == 0

    def test_one_pixel_toy_exhaustive_oracle(self):
        # exhaustive grid oracle: any pixel > 0.5 reaches confidence > 0.5
        grid = np.linspace(0, 1, 1001).reshape(-1, 1, 1, 1)
        oracle_best = self.pixel_threshold_victim(grid)[:, 1].max()
        assert oracle_best > 0.99
        cfg = AttackConfig(kind="evolutionary", generations=50, population=20,
                           confidence_goal=0.9, seed=1)
        rec = evolutionary_attack(self.pixel_threshold_victim, (1, 1, 1), 1, cfg)
        assert rec.image.array.ravel()[0] > 0.5
        assert rec.success

    def test_no_source_image_and_no_norms(self):
        cfg = AttackConfig(kind="evolutionary", generations=1, population=5, seed=0)
        rec = evolutionary_attack(self.pixel_threshold_victim, (1, 1, 1), 1, cfg)
        assert rec.source_image_id is None
        assert rec.l1 is None and rec.linf is None

    def test_closure_only_interface_counts_calls(self):
        calls = {"n": 0}

        def probe(batch):
            calls["n"] += 1
            return np.full((len(batch), 2), 0.5)  # never reaches the goal

        cfg = AttackConfig(kind="evolutionary", generations=3, population=6,
                           confidence_goal=0.999, seed=0)
        evolutionary_attack(probe, (1, 1, 1), 1, cfg)
        assert calls["n"] == 4  # initial population + one per generation

    def test_desk_victim_confidence_rate(self, ea_records):
        conf = np.array([r.achieved_confidence for r in ea_records])
        assert (conf >= 0.9).mean() >= 0.8


class TestModuleIsolation:
    def test_attack_images_always_in_box(self, corpus, ea_records):
        for rec in corpus.records[::97] + ea_records[::31]:
            arr = rec.image.array
            assert arr.min() >= 0.0 and arr.max() <= 1.0
