import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_guard.cascade as cascade_module
from cascade_guard.cascade import (
    CascadeConfig,
    accuracy_at_threshold,
    best_threshold_accuracy,
    calibrate_threshold,
    cascade_predict_batch,
    compose_rates,
    detector_score_batch,
    roc_auc,
    svm_objective,
    train_cascade,
    train_svm,
)
from cascade_guard.errors import ValidationError
from cascade_guard.featstats import fit_pca_bank, stat_matrix
from cascade_guard.victim import layer_outputs_batch


def pair_counting_auc(scores, labels):
    """Exhaustive oracle: 1 per correctly ordered pair, 0.5 per tie."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_svm_solver(x, y, c, iters=60000):
    """Independent long-run subgradient solver on the same objective."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    floor = 1e-7 * np.maximum(1.0, np.abs(means))
    stds = np.where(stds > floor, stds, 1.0)
    xs = (x - means) / stds
    n, d = xs.shape
    aug = np.hstack([xs, np.ones((n, 1))])
    lam = 1.0 / (c * n)
    w = np.zeros(d + 1)
    best = w.copy()
    best_obj = svm_objective(w[:d], w[d], xs, y, lam)
    for t in range(1, iters + 1):
        margins = y * (aug @ w)
        viol = margins < 1.0
        grad = lam * w - (y[viol] @ aug[viol]) / n
        w = w - grad / (lam * (t + 1))
        obj = svm_objective(w[:d], w[d], xs, y, lam)
        if obj < best_obj:
            best_obj, best = obj, w.copy()
    return best[:d], best[d], best_obj, (xs, lam)


class TestTrainSvm:
    def test_separable_pair(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        svm = train_svm(x, y, c=0.5)
        scores = svm.decision_scores(x)
        assert (np.sign(scores) == y).all()
        assert svm.weights[0] > 0

    def test_matches_long_run_reference_solver(self):
        rng = np.random.default_rng(10)
        x = np.vstack([rng.normal([-1, -0.5], 0.6, (20, 2)),
                       rng.normal([1, 0.5], 0.6, (20, 2))])
        y = np.concatenate([-np.ones(20), np.ones(20)])
        svm = train_svm(x, y, c=0.05, iters=4000)
        ref_w, ref_b, ref_obj, (xs, lam) = reference_svm_solver(x, y, c=0.05)
        got_obj = svm_objective(svm.weights, svm.bias, xs, y, lam)
        assert got_obj <= ref_obj * 1.01
        assert np.linalg.norm(svm.weights - ref_w) <= 0.02 * np.linalg.norm(ref_w)

    @pytest.mark.parametrize("case", ["separable-pair", "two-gaussians", "desk-stage-1"])
    def test_carried_margins_give_the_reference_loop_iterate(self, case, request):
        """train_svm scores each iterate from the margins it steps with; the
        reference scores it with svm_objective. Both keep the same best iterate."""
        if case == "separable-pair":
            x, y, c, iters = np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), 0.5, 2000
        elif case == "two-gaussians":
            rng = np.random.default_rng(10)
            x = np.vstack([rng.normal([-1, -0.5], 0.6, (20, 2)),
                           rng.normal([1, 0.5], 0.6, (20, 2))])
            y = np.concatenate([-np.ones(20), np.ones(20)])
            c, iters = 0.05, 4000
        else:
            net = request.getfixturevalue("victim_bundle").network
            corpus = request.getfixturevalue("corpus")
            bank = request.getfixturevalue("fitted_banks")[0]
            advs = np.stack([r.image.array for r in corpus.successful[:400]])
            x = np.concatenate([stat_matrix(layer_outputs_batch(net, imgs)[0], bank)
                                for imgs in (corpus.normal_bank[:400], advs)])
            y = np.concatenate([-np.ones(400), np.ones(400)])
            c, iters = CascadeConfig().svm_c, 2000
        svm = train_svm(x, y, c=c, iters=iters)
        ref_w, ref_b, _, _ = reference_svm_solver(x, y, c, iters=iters)
        got, want = np.append(svm.weights, svm.bias), np.append(ref_w, ref_b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_default_regularization_constant(self):
        import cascade_guard.cascade as c

        assert CascadeConfig().svm_c == 0.005
        sig = inspect.signature(train_svm)
        assert sig.parameters["c"].default == 0.005

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="both classes"):
            train_svm(np.ones((3, 2)), np.ones(3), c=0.1)

    def test_non_finite_rows_rejected(self):
        x = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="finite"):
            train_svm(x, np.array([-1.0, 1.0]), c=0.1)


class TestCalibrateThreshold:
    def test_target_one_is_min_positive_score(self):
        scores = np.array([0.3, 0.9, -0.5, 0.1])
        labels = np.array([1, 1, 0, 1])
        tau = calibrate_threshold(scores, labels, 1.0)
        assert tau == 0.1

    def test_ten_positives_sorted_count_oracle(self):
        pos = np.arange(0.1, 1.05, 0.1)
        scores = np.concatenate([pos, [-1.0]])
        labels = np.concatenate([np.ones(10), [0]])
        tau = calibrate_threshold(scores, labels, 0.9)
        assert tau == pytest.approx(0.2)
        # oracle: count positives at or above tau per candidate threshold
        assert (pos >= tau).sum() == 9

    def test_default_target_tpr(self):
        assert CascadeConfig().target_tpr == 0.97

    def test_no_positives_rejected(self):
        with pytest.raises(ValidationError, match="adversarial"):
            calibrate_threshold(np.array([0.1]), np.array([0]), 0.9)


@pytest.fixture(scope="module")
def trained_cascade(victim_bundle, corpus, fitted_banks):
    net = victim_bundle.network
    advs = np.stack([r.image.array for r in corpus.successful[:400]])
    model = train_cascade(layer_outputs_batch(net, corpus.normal_bank[:600]),
                          layer_outputs_batch(net, advs), fitted_banks, CascadeConfig(seed=5))
    holdout_normals = corpus.normal_bank[600:1100]
    holdout_advs = np.stack([r.image.array for r in corpus.successful[400:700]])
    return net, model, holdout_normals, holdout_advs


class TestTrainCascade:
    def test_stage_per_conv_layer(self, trained_cascade):
        _, model, _, _ = trained_cascade
        assert 1 <= len(model.stages) <= 2
        assert [s.layer_index for s in model.stages] == list(
            range(1, len(model.stages) + 1))

    def test_stage_one_eliminates_sizable_share_with_high_precision(
            self, victim_bundle, corpus, fitted_banks):
        # Directional desk analogue: the first stage releases a sizable share
        # of the pool at high precision while nearly all adversarials continue.
        # The desk victim exits ~30% at stage one, well short of the 80%+ a
        # large natural-image network shows, so the bar here is deliberately
        # desk-calibrated.
        from cascade_guard.featstats import feature_matrix

        net = victim_bundle.network
        pool = corpus.normal_bank[:600]
        advs = np.stack([r.image.array for r in corpus.successful[:400]])
        model = train_cascade(layer_outputs_batch(net, pool), layer_outputs_batch(net, advs),
                              fitted_banks, CascadeConfig(seed=5))
        stage = model.stages[0]
        fn = feature_matrix(net, pool, model.banks, upto_layer=1)
        fa = feature_matrix(net, advs, model.banks, upto_layer=1)
        sn = stage.svm.decision_scores(fn)
        sa = stage.svm.decision_scores(fa)
        eliminated = (sn < stage.tau).mean()
        leaked = (sa < stage.tau).mean()
        assert eliminated >= 0.25
        # high precision: the eliminated set is almost purely normal
        exited = (sn < stage.tau).sum() + (sa < stage.tau).sum()
        precision = (sn < stage.tau).sum() / exited
        assert precision >= 0.9
        assert leaked <= 1.0 - model.target_tpr + 0.01

    def test_pool_emptied_at_stage_one_keeps_every_bank(self):
        # Synthetic ReLU activations of two conv layers; adversarials shifted
        # this far release the whole pool at stage 1.
        rng = np.random.default_rng(0)
        shapes = ((12, 12, 4), (5, 5, 6))
        pool = [np.maximum(rng.normal(0.0, 1.0, size=(1024,) + s), 0.0) for s in shapes]
        advs = [np.maximum(rng.normal(0.3, 1.0, size=(64,) + s), 0.0) for s in shapes]
        banks = [fit_pca_bank(layer, m + 1) for m, layer in enumerate(pool)]
        model = train_cascade(pool, advs, banks, CascadeConfig(seed=3))
        assert (len(model.stages), model.metadata["pool_survivors"]) == (1, 0)
        assert model.banks == tuple(banks)

    def test_pool_smaller_than_train_set_rejected(
            self, victim_bundle, corpus, fitted_banks):
        net = victim_bundle.network
        advs = np.stack([r.image.array for r in corpus.successful[:50]])
        with pytest.raises(ValidationError, match="pool"):
            train_cascade(layer_outputs_batch(net, corpus.normal_bank[:10]),
                          layer_outputs_batch(net, advs), fitted_banks, CascadeConfig())

    def test_deeper_statistics_only_for_pool_normals_still_alive(
            self, victim_bundle, corpus, fitted_banks, monkeypatch):
        import cascade_guard.featstats as featstats_module
        from cascade_guard.featstats import feature_matrix

        net = victim_bundle.network
        pool = corpus.normal_bank[:600]
        advs = np.stack([r.image.array for r in corpus.successful[:400]])
        pool_layers = layer_outputs_batch(net, pool)
        adv_layers = layer_outputs_batch(net, advs)
        calls = []
        original = featstats_module.stat_matrix

        def recording(layer_batch, bank):
            calls.append((bank.layer_index, layer_batch))
            return original(layer_batch, bank)

        for module in (cascade_module, featstats_module):
            monkeypatch.setattr(module, "stat_matrix", recording, raising=False)
        model = train_cascade(pool_layers, adv_layers, fitted_banks, CascadeConfig(seed=5))
        monkeypatch.undo()
        if len(model.stages) < 2:
            pytest.skip("single-stage model")

        # Each layer's statistics are taken from the whole activation array,
        # never from a copy of its alive rows.
        expected = [(1, pool_layers[0]), (1, adv_layers[0]),
                    (2, pool_layers[1]), (2, adv_layers[1])]
        assert [layer for layer, _ in calls] == [layer for layer, _ in expected]
        assert all(got is want for (_, got), (_, want) in zip(calls, expected))

        # Stage 2 keeps only the stage-1 survivors' rows: its pool rate is
        # their rate under the stage-2 detector.
        stage1, stage2 = model.stages[:2]
        s1 = stage1.svm.decision_scores(feature_matrix(net, pool, model.banks, upto_layer=1))
        survivors = np.nonzero(s1 >= stage1.tau)[0]
        assert 0 < survivors.size < len(pool)
        s2 = stage2.svm.decision_scores(
            feature_matrix(net, pool[survivors], model.banks, upto_layer=2))
        assert stage2.fpr == float((s2 >= stage2.tau).mean())


class TestCascadePredict:
    def test_normal_exit_at_stage_one(self, trained_cascade):
        net, model, normals, _ = trained_cascade
        is_adv, exit_stage, scores = cascade_predict_batch(model, net, normals[:20])
        exits = ~is_adv
        assert exits.any(), "some holdout normals must exit as normal"
        assert ((1 <= exit_stage[exits]) & (exit_stage[exits] <= len(model.stages))).all()
        assert ((~np.isnan(scores[exits])).sum(axis=1) == exit_stage[exits]).all()

    def test_all_margins_below_threshold_is_adversarial(self, trained_cascade):
        net, model, _, advs = trained_cascade
        is_adv, exit_stage, _ = cascade_predict_batch(model, net, advs[:50])
        assert is_adv.mean() > 0.5
        assert (exit_stage[is_adv] == -1).all()

    def test_single_and_batch_paths_agree(self, trained_cascade):
        net, model, normals, advs = trained_cascade
        images = np.concatenate([normals[:10], advs[:10]])
        is_adv, exit_stage, _ = cascade_predict_batch(model, net, images)
        for i in range(len(images)):
            single, _, _ = cascade_predict_batch(model, net, images[i : i + 1])
            assert single[0] == is_adv[i]

    def test_dropping_final_stage_survivorship_is_monotone(self, trained_cascade):
        # Survivors of the full cascade survive every prefix of it: a shorter
        # cascade can only grow the flagged (surviving) set.
        net, model, normals, advs = trained_cascade
        if len(model.stages) < 2:
            pytest.skip("single-stage model")
        import dataclasses

        shorter = dataclasses.replace(model, stages=model.stages[:-1])
        images = np.concatenate([normals[:100], advs[:100]])
        full, _, _ = cascade_predict_batch(model, net, images)
        short, _, _ = cascade_predict_batch(shorter, net, images)
        assert short[full].all()
        assert short.sum() >= full.sum()

    def test_deeper_statistics_only_for_images_that_reach_the_stage(
            self, trained_cascade, monkeypatch):
        import cascade_guard.featstats as featstats_module
        from cascade_guard.featstats import feature_matrix

        net, model, normals, advs = trained_cascade
        if len(model.stages) < 2:
            pytest.skip("single-stage model")
        images = np.concatenate([normals[:100], advs[:100]])
        rows = {}
        original = featstats_module.stat_matrix

        def recording(layer_batch, bank):
            rows[bank.layer_index] = rows.get(bank.layer_index, 0) + len(layer_batch)
            return original(layer_batch, bank)

        for module in (cascade_module, featstats_module):
            monkeypatch.setattr(module, "stat_matrix", recording, raising=False)
        _, exit_stage, scores = cascade_predict_batch(model, net, images)
        monkeypatch.undo()
        assert (exit_stage == 1).any()
        assert rows == {1: len(images), 2: int((exit_stage != 1).sum())}

        # Reference: every layer's statistics for every image, each stage
        # scoring the prefix columns of its survivors.
        feats = feature_matrix(net, images, model.banks, upto_layer=len(model.stages))
        expected = np.full_like(scores, np.nan)
        alive = np.arange(len(images))
        cols = 0
        for i, (stage, bank) in enumerate(zip(model.stages, model.banks)):
            cols += 6 * bank.k
            s = stage.svm.decision_scores(feats[alive, :cols])
            expected[alive, i] = s
            alive = alive[s >= stage.tau]
        np.testing.assert_array_equal(scores, expected)


class TestDetectorScore:
    def test_empty_batch_rejected(self, trained_cascade):
        net, model, _, _ = trained_cascade
        with pytest.raises(ValidationError, match="at least one image"):
            detector_score_batch(model, net, np.zeros((0, 28, 28, 1)))

    def test_adversarial_scores_rank_above_all_normal_decisions(self, trained_cascade):
        net, model, normals, advs = trained_cascade
        images = np.concatenate([normals[:80], advs[:80]])
        scores = detector_score_batch(model, net, images)
        is_adv, _, _ = cascade_predict_batch(model, net, images)
        if is_adv.any() and (~is_adv).any():
            assert scores[is_adv].min() > scores[~is_adv].max()

    def test_thresholding_at_zero_reproduces_decisions(self, trained_cascade):
        net, model, normals, advs = trained_cascade
        images = np.concatenate([normals[:80], advs[:80]])
        scores = detector_score_batch(model, net, images)
        is_adv, _, _ = cascade_predict_batch(model, net, images)
        assert ((scores >= 0.0) == is_adv).all()

    def test_single_matches_batch(self, trained_cascade):
        net, model, normals, _ = trained_cascade
        batch = detector_score_batch(model, net, normals[:5])
        for i in range(5):
            single = detector_score_batch(model, net, normals[i : i + 1])[0]
            assert single.tobytes() == batch[i].tobytes()

    def test_every_row_bytes_equal_one_image_call(self, trained_cascade, corpus):
        # The training adversarials are included: one of them sits exactly at
        # a stage's threshold, where a last-bit change flips its decision.
        net, model, normals, advs = trained_cascade
        train_advs = np.stack([r.image.array for r in corpus.successful[:400]])
        images = np.concatenate([normals[:100], train_advs, advs[:100]])
        scores = detector_score_batch(model, net, images)
        decisions = cascade_predict_batch(model, net, images)
        singles = [(detector_score_batch(model, net, images[i : i + 1]),
                    *cascade_predict_batch(model, net, images[i : i + 1]))
                   for i in range(len(images))]
        for got, parts in zip((scores, *decisions), zip(*singles)):
            assert got.tobytes() == np.concatenate(parts).tobytes()

    def test_holdout_auc_clears_soft_target(self, trained_cascade):
        net, model, normals, advs = trained_cascade
        scores = np.concatenate([
            detector_score_batch(model, net, normals),
            detector_score_batch(model, net, advs),
        ])
        labels = np.concatenate([np.zeros(len(normals), bool), np.ones(len(advs), bool)])
        assert roc_auc(scores, labels).auc >= 0.85


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc(np.array([1.0, 2.0, -1.0, -2.0]),
                        np.array([1, 1, 0, 0]))
        assert curve.auc == 1.0

    def test_shuffled_labels_near_half(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=4000)
        labels = rng.random(4000) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        assert abs(roc_auc(scores, labels).auc - 0.5) < 0.05

    def test_pinned_pair_counting_example(self):
        curve = roc_auc(np.array([0.8, 0.6, 0.7, 0.1]),
                        np.array([1, 1, 0, 0]))
        assert curve.auc == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="both classes"):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exact_equality_with_pair_counting_oracle(self, data):
        n = data.draw(st.integers(4, 25))
        # coarse score grid makes ties common
        scores = np.array(data.draw(st.lists(
            st.sampled_from([round(v * 0.1, 1) for v in range(-10, 11)]),
            min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        curve = roc_auc(scores, labels)
        assert curve.auc == pair_counting_auc(scores, labels)

        # Brute-force sweep over inf and the distinct scores, descending.
        thresholds = [np.inf] + sorted(set(scores.tolist()), reverse=True)
        fpr, tpr, best = [], [], (np.inf, -1.0)
        for t in thresholds:
            flagged = scores >= t
            fpr.append((flagged & ~labels).sum() / (~labels).sum())
            tpr.append((flagged & labels).sum() / labels.sum())
            acc = accuracy_at_threshold(scores, labels, t)
            if acc > best[1]:
                best = (t, acc)
        assert curve.thresholds.tolist() == thresholds
        assert curve.fpr.tolist() == fpr and curve.tpr.tolist() == tpr
        assert best_threshold_accuracy(scores, labels) == best

    def test_curve_endpoints(self):
        curve = roc_auc(np.array([0.5, 0.2, 0.8]), np.array([1, 0, 1]))
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


class TestComposeRates:
    def test_all_ones(self):
        assert compose_rates([(1.0, 1.0), (1.0, 1.0)]) == (1.0, 1.0)

    def test_two_stages_direct_product(self):
        f, t = compose_rates([(0.1, 0.9), (0.1, 0.8)])
        assert f == pytest.approx(0.01)
        assert t == pytest.approx(0.72)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            compose_rates([(1.5, 0.5)])

    def test_matches_event_counting_under_conditional_protocol(self, trained_cascade):
        net, model, normals, advs = trained_cascade
        images = np.concatenate([normals, advs])
        labels = np.concatenate([np.zeros(len(normals), bool), np.ones(len(advs), bool)])
        is_adv, exit_stage, _ = cascade_predict_batch(model, net, images)
        rates = []
        for k in range(1, len(model.stages) + 1):
            reach_n = (~labels) & ((exit_stage == -1) | (exit_stage >= k))
            reach_a = labels & ((exit_stage == -1) | (exit_stage >= k))
            cont_n = (~labels) & ((exit_stage == -1) | (exit_stage > k))
            cont_a = labels & ((exit_stage == -1) | (exit_stage > k))
            rates.append((cont_n.sum() / reach_n.sum(), cont_a.sum() / reach_a.sum()))
        f, t = compose_rates(rates)
        assert f == pytest.approx(is_adv[~labels].mean(), abs=1e-12)
        assert t == pytest.approx(is_adv[labels].mean(), abs=1e-12)


class TestOperatingPoints:
    def test_accuracy_helpers(self):
        scores = np.array([0.9, 0.8, -0.5, -0.2])
        labels = np.array([1, 1, 0, 0])
        assert accuracy_at_threshold(scores, labels, 0.0) == 1.0
        t, acc = best_threshold_accuracy(scores, labels)
        assert acc == 1.0


class TestNoGradientPath:
    def test_detector_module_never_touches_gradients(self):
        source = inspect.getsource(cascade_module)
        assert "autograd" not in source
        assert "backward" not in source
