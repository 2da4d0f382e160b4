"""Acceptance criteria, one test per criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line; run with `pytest -rA` (or -s) to
see them. Heavy artifacts (victim, attack corpus, detectors) are shared
session fixtures, but runtime-bounded criteria time their own work.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from cascade_guard.attacks import AttackConfig, choose_targets, gradient_box_attack_batch
from cascade_guard.autograd import (
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReluLayer,
    SoftmaxLayer,
    backward_pass,
    forward_pass,
    softmax_cross_entropy,
)
from cascade_guard.cascade import (
    CascadeConfig,
    calibrate_threshold,
    cascade_predict_batch,
    compose_rates,
    detector_score_batch,
    roc_auc,
    train_cascade,
)
from cascade_guard.featstats import PcaBank, stat_matrix
from cascade_guard.recovery import recovery_eval
from cascade_guard.selfaware import (
    ErrorTable,
    abstain_decide,
    calibrate_omega,
    selfaware_sweep,
)
from cascade_guard.victim import (
    NetworkSpec,
    _init_weights,
    layer_outputs_batch,
    predict_batch,
    prediction_census,
)

SEEDS = (2, 3, 4, 5, 6)


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Per-seed detector models shared by criteria 5-8, 11 and 12.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SeedRun:
    seed: int
    model: object
    holdout_normals: np.ndarray
    holdout_normal_labels: np.ndarray
    holdout_advs: list
    auc: float


@pytest.fixture(scope="module")
def seed_runs(victim_bundle, corpus, fitted_banks, stat_rows, request):
    # The PCA banks are fitted once on a canonical normal slice and shared by
    # all trials; per-trial randomness is the adversarial subset, the pool
    # draw and the cascade seed.
    net = victim_bundle.network
    successful = corpus.successful
    assert len(successful) >= 1300, "attack corpus too small for the protocol"
    runs = []
    t0 = time.time()
    for seed in SEEDS:
        rng = np.random.default_rng(1000 + seed)
        adv_order = rng.permutation(len(successful))
        train_advs = [successful[i] for i in adv_order[:1000]]
        hold_advs = [successful[i] for i in adv_order[1000:1300]]
        norm_order = rng.permutation(len(corpus.normal_bank))
        pool_idx = norm_order[:1500]
        hold_idx = norm_order[1500:2000]
        pool = corpus.normal_bank[pool_idx]
        model = train_cascade(
            stat_rows(net, pool, fitted_banks),
            stat_rows(net, np.stack([r.image.array for r in train_advs]), fitted_banks),
            fitted_banks, CascadeConfig(seed=seed),
        )
        holdout_normals = corpus.normal_bank[hold_idx]
        scores = np.concatenate([
            detector_score_batch(model, net, holdout_normals),
            detector_score_batch(model, net,
                                 np.stack([r.image.array for r in hold_advs])),
        ])
        labels = np.concatenate([np.zeros(500, bool), np.ones(300, bool)])
        runs.append(SeedRun(
            seed=seed,
            model=model,
            holdout_normals=holdout_normals,
            holdout_normal_labels=corpus.normal_labels[hold_idx],
            holdout_advs=hold_advs,
            auc=roc_auc(scores, labels).auc,
        ))
    request.config._seed_run_time = time.time() - t0
    return runs


# ---------------------------------------------------------------------------
# 1. Gradient correctness.
# ---------------------------------------------------------------------------

def _random_small_net(seed):
    rng = np.random.default_rng(seed)
    templates = (
        (ConvLayer(2, 2), ReluLayer(), DenseLayer(3), SoftmaxLayer()),
        (ConvLayer(3, 3, padding=1), ReluLayer(), MaxPoolLayer(2, 2),
         DenseLayer(3), SoftmaxLayer()),
        (ConvLayer(2, 3), ReluLayer(), ConvLayer(3, 2), ReluLayer(),
         DenseLayer(3), SoftmaxLayer()),
    )
    layers = templates[int(rng.integers(0, len(templates)))]
    dims = (5, 5, int(rng.integers(1, 3)))
    spec = NetworkSpec(dims, 3, layers)
    weights = _init_weights(spec, rng)
    # displace biases from zero: with zero biases, dead upstream regions pin
    # pre-activations exactly onto the ReLU kink, which no input redraw fixes
    weights = [None if w is None else (w[0], w[1] + rng.uniform(-0.2, 0.2, w[1].shape))
               for w in weights]
    return spec, weights, rng


def _margins_ok(layers, weights, x, margin=1e-3):
    """Reject inputs near ReLU kinks or maxpool argmax switches."""
    a = x
    for layer, entry in zip(layers, weights):
        if isinstance(layer, ConvLayer):
            from cascade_guard.tensor import _conv_forward

            a = _conv_forward(a, entry[0], entry[1], layer.stride, layer.padding)
            if np.abs(a).min() < margin:  # next relu would sit on its kink
                return False
        elif isinstance(layer, ReluLayer):
            a = np.maximum(a, 0.0)
        elif isinstance(layer, MaxPoolLayer):
            n, h, w, c = a.shape
            ho = (h - layer.window) // layer.stride + 1
            wo = (w - layer.window) // layer.stride + 1
            for i in range(ho):
                for j in range(wo):
                    win = a[0, i * layer.stride : i * layer.stride + layer.window,
                            j * layer.stride : j * layer.stride + layer.window, :]
                    for ch in range(c):
                        vals = np.sort(win[:, :, ch].ravel())
                        # ties among dead (zero) entries are harmless: the
                        # routed gradient dies at the ReLU anyway
                        if (len(vals) > 1 and vals[-1] > 0.0
                                and vals[-1] - vals[-2] < margin):
                            return False
            from cascade_guard.tensor import _maxpool_forward

            a, _ = _maxpool_forward(a, layer.window, layer.stride)
        elif isinstance(layer, DenseLayer):
            a = a.reshape(a.shape[0], -1) @ entry[0].T + entry[1]
        elif isinstance(layer, SoftmaxLayer):
            pass
    return True


def test_criterion_01_gradient_correctness(victim_bundle):
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    checked = 0
    for net_seed in range(20):
        spec, weights, rng = _random_small_net(net_seed)
        x = rng.random((1,) + spec.input_dims)
        y = np.array([int(rng.integers(0, 3))])
        tries = 0
        while not _margins_ok(spec.layers, weights, x) and tries < 50:
            x = rng.random((1,) + spec.input_dims)
            tries += 1

        logits, tape, _ = forward_pass(spec.layers, weights, x, keep_tape=True)
        _, gl = softmax_cross_entropy(logits, y)
        grads = backward_pass(tape, gl)

        def loss_at(weights_mod, x_mod):
            lg, _, _ = forward_pass(spec.layers, weights_mod, x_mod)
            losses, _ = softmax_cross_entropy(lg, y)
            return losses[0]

        def rel(a, n):
            return abs(a - n) / max(1e-4, abs(a), abs(n))

        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            num = (loss_at(weights, xp) - loss_at(weights, xm)) / (2 * h)
            worst = max(worst, rel(grads.input[idx], num))
            checked += 1
        for li, g in enumerate(grads.params):
            if g is None:
                continue
            for part in (0, 1):
                arr = weights[li][part]
                for idx in np.ndindex(arr.shape):
                    wp = [None if e is None else (e[0].copy(), e[1].copy())
                          for e in weights]
                    wp[li][part][idx] += h
                    wm = [None if e is None else (e[0].copy(), e[1].copy())
                          for e in weights]
                    wm[li][part][idx] -= h
                    num = (loss_at(wp, x) - loss_at(wm, x)) / (2 * h)
                    worst = max(worst, rel(g[part][idx], num))
                    checked += 1
    elapsed = time.time() - t0
    report(1, "gradient correctness", worst < 1e-6 and elapsed < 30.0,
           f"{checked} components over 20 nets, max rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Attack efficacy.
# ---------------------------------------------------------------------------

def test_criterion_02_attack_efficacy(victim_bundle, corpus):
    net = victim_bundle.network
    sources = corpus.bank.images[:500]
    raw, _, _ = predict_batch(net, sources)
    targets = choose_targets(raw, "random-other", np.random.default_rng(303))
    t0 = time.time()
    records = gradient_box_attack_batch(net, sources, targets, AttackConfig())
    elapsed = time.time() - t0
    good = np.array([r.success and r.linf <= 0.2 for r in records])
    rate = good.mean()
    report(2, "attack efficacy", rate >= 0.95 and elapsed < 300.0,
           f"{rate:.1%} of 500 attacks reached confidence >= 0.9 with "
           f"linf <= 0.2 in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3. PCA bank correctness.
# ---------------------------------------------------------------------------

def test_criterion_03_pca_bank_correctness(victim_bundle, corpus, fitted_banks):
    net = victim_bundle.network
    pool = corpus.normal_bank[:500]
    layer_batches = layer_outputs_batch(net, pool)
    worst_gram = 0.0
    worst_mean = 0.0
    worst_std = 0.0
    zero_stat_ok = True
    for bank, batch in zip(fitted_banks, layer_batches):
        gram = bank.components.T @ bank.components
        worst_gram = max(worst_gram, np.abs(gram - np.eye(bank.k)).max())
        samples = batch.reshape(-1, bank.k)
        proj = (samples - bank.mean) @ bank.components / bank.stds
        worst_mean = max(worst_mean, np.abs(proj.mean(axis=0)).max())
        unfloored = bank.stds > bank.epsilon
        worst_std = max(worst_std,
                        np.abs(proj.std(axis=0)[unfloored] - 1.0).max())
        mean_img = np.broadcast_to(bank.mean, (3, 3, bank.k)).copy()
        zero_stat_ok &= bool((stat_matrix(mean_img[None], bank)[0, : bank.k] == 0.0).all())
    ok = worst_gram < 1e-8 and worst_mean < 1e-10 and worst_std < 1e-8 and zero_stat_ok
    report(3, "PCA bank correctness", ok,
           f"orthonormality {worst_gram:.1e}, projection mean {worst_mean:.1e}, "
           f"std dev from 1 {worst_std:.1e}, mean-image statistic zero: {zero_stat_ok}")


# ---------------------------------------------------------------------------
# 4. Percentile/extremal oracle equivalence.
# ---------------------------------------------------------------------------

def test_criterion_04_percentile_extremal_oracle():
    rng = np.random.default_rng(404)
    identity = PcaBank(layer_index=1, mean=np.zeros(1), components=np.eye(1), stds=np.ones(1))
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        values = rng.normal(scale=rng.uniform(0.1, 50.0), size=n)
        if rng.random() < 0.3:  # force duplicates
            values = np.round(values, 1)
        row = stat_matrix(values.reshape(1, n, 1, 1), identity)[0]
        ex, pc = row[1:3], row[3:]  # [pca | min | max | p25 | p50 | p75], one channel
        s = sorted(float(v) for v in values)
        for i, p in enumerate((25.0, 50.0, 75.0)):
            rank = (p / 100.0) * (n - 1)
            lo = math.floor(rank)
            frac = rank - lo
            want = s[lo] if lo + 1 >= n else s[lo] + (s[lo + 1] - s[lo]) * frac
            mismatches += int(pc[i] != want)
        mismatches += int(ex[0] != min(s)) + int(ex[1] != max(s))
    report(4, "percentile/extremal oracle equivalence", mismatches == 0,
           f"{mismatches} mismatches over 1000 random channels")


# ---------------------------------------------------------------------------
# 5. Cascade rate identity.
# ---------------------------------------------------------------------------

def test_criterion_05_cascade_rate_identity(victim_bundle, seed_runs):
    net = victim_bundle.network
    worst_gap = 0.0
    ok = True
    for run in seed_runs[:3]:
        advs = np.stack([r.image.array for r in run.holdout_advs])
        images = np.concatenate([run.holdout_normals, advs])
        labels = np.concatenate([np.zeros(len(run.holdout_normals), bool),
                                 np.ones(len(advs), bool)])
        is_adv, exit_stage, _ = cascade_predict_batch(run.model, net, images)
        rates = []
        for k in range(1, len(run.model.stages) + 1):
            reach_n = (~labels) & ((exit_stage == -1) | (exit_stage >= k))
            reach_a = labels & ((exit_stage == -1) | (exit_stage >= k))
            cont_n = (~labels) & ((exit_stage == -1) | (exit_stage > k))
            cont_a = labels & ((exit_stage == -1) | (exit_stage > k))
            rates.append((cont_n.sum() / reach_n.sum(),
                          cont_a.sum() / reach_a.sum()))
        f_prod, t_prod = compose_rates(rates)
        f_meas = is_adv[~labels].mean()
        t_meas = is_adv[labels].mean()
        for prod, meas, n in ((f_prod, f_meas, (~labels).sum()),
                              (t_prod, t_meas, labels.sum())):
            sigma = math.sqrt(max(meas * (1 - meas), 1e-12) / n)
            gap = abs(prod - meas)
            worst_gap = max(worst_gap, gap)
            ok &= gap <= 3 * sigma + 1e-12
    report(5, "cascade rate identity", ok,
           f"max |product - measured| = {worst_gap:.2e} over 3 seeds")


# ---------------------------------------------------------------------------
# 6. Detection quality.
# ---------------------------------------------------------------------------

def test_criterion_06_detection_auc(seed_runs, request):
    aucs = [run.auc for run in seed_runs]
    mean_auc = float(np.mean(aucs))
    elapsed = getattr(request.config, "_seed_run_time", float("nan"))
    report(6, "detection quality", mean_auc >= 0.85 and elapsed < 600.0,
           f"held-out AUC mean {mean_auc:.4f} over 5 seeds "
           f"({', '.join(f'{a:.3f}' for a in aucs)}), fit+eval {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Transfer to evolutionary adversarials.
# ---------------------------------------------------------------------------

def test_criterion_07_ea_transfer(victim_bundle, seed_runs, ea_records):
    net = victim_bundle.network
    ea_imgs = np.stack([r.image.array for r in ea_records if r.success])
    aucs = []
    for run in seed_runs:
        scores = np.concatenate([
            detector_score_batch(run.model, net, run.holdout_normals),
            detector_score_batch(run.model, net, ea_imgs),
        ])
        labels = np.concatenate([np.zeros(len(run.holdout_normals), bool),
                                 np.ones(len(ea_imgs), bool)])
        aucs.append(roc_auc(scores, labels).auc)
    ok = all(a >= 0.90 for a in aucs)
    report(7, "transfer to evolutionary adversarials", ok,
           f"per-seed AUC {', '.join(f'{a:.3f}' for a in aucs)} "
           f"(never trained on them)")


# ---------------------------------------------------------------------------
# 8. Census direction.
# ---------------------------------------------------------------------------

def test_criterion_08_census_direction(victim_bundle, seed_runs):
    net = victim_bundle.network
    ok = True
    gaps = []
    for run in seed_runs:
        advs = np.stack([r.image.array for r in run.holdout_advs])
        t90 = np.percentile(predict_batch(net, run.holdout_normals)[0], 90.0)
        normal_count = prediction_census(net, run.holdout_normals, [t90])
        adv_count = prediction_census(net, advs, [t90])
        gaps.append((normal_count.raw_mean_counts[0], adv_count.raw_mean_counts[0]))
        ok &= adv_count.raw_mean_counts[0] < normal_count.raw_mean_counts[0]
    detail = "; ".join(f"normal {n:.2f} vs adversarial {a:.2f}" for n, a in gaps)
    report(8, "census direction", ok, detail)


# ---------------------------------------------------------------------------
# 9. Recovery.
# ---------------------------------------------------------------------------

def test_criterion_09_recovery(victim_bundle, corpus):
    records = corpus.successful[:400]
    net = victim_bundle.network
    _, _, pre = predict_batch(net, np.stack([r.image.array for r in records]))
    filtered = recovery_eval(net, records, pre, 3)
    control = recovery_eval(net, records, pre, 1)
    ok = filtered.post_accuracy >= 0.5 and control.post_accuracy <= 0.05
    report(9, "average-filter recovery", ok,
           f"k=3 restores {filtered.post_accuracy:.1%} of {filtered.n} "
           f"successful attacks, k=1 control at {control.post_accuracy:.1%}")


# ---------------------------------------------------------------------------
# 10. ROC oracle.
# ---------------------------------------------------------------------------

def test_criterion_10_roc_oracle():
    rng = np.random.default_rng(1010)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        got = roc_auc(scores, labels).auc
        pos = scores[labels]
        neg = scores[~labels]
        total = 0.0
        for p in pos:
            for q in neg:
                total += 1.0 if p > q else (0.5 if p == q else 0.0)
        want = total / (len(pos) * len(neg))
        mismatches += int(got != want)
    report(10, "ROC pair-counting oracle", mismatches == 0,
           f"{mismatches} mismatches over 100 random score sets with ties")


# ---------------------------------------------------------------------------
# 11. Abstain rule and sweep.
# ---------------------------------------------------------------------------

def test_criterion_11_abstain_rule(victim_bundle, seed_runs):
    rng = np.random.default_rng(1111)
    mismatches = 0
    for _ in range(1000):
        p_omega = rng.random()
        p_err = rng.random()
        e_q = rng.uniform(0.1, 20.0)
        e_a = rng.uniform(0.1, 20.0)
        got = abstain_decide(p_omega, p_err, e_q, e_a)
        want = ("predict"
                if p_omega * p_err + (1.0 - p_omega) * e_q < e_a else "abstain")
        mismatches += int(got != want)

    net = victim_bundle.network
    run = seed_runs[0]
    half = len(run.holdout_normals) // 2
    cal_scores = np.concatenate([
        detector_score_batch(run.model, net, run.holdout_normals[:half]),
        detector_score_batch(
            run.model, net,
            np.stack([r.image.array for r in run.holdout_advs[:150]])),
    ])
    cal_labels = np.concatenate([np.zeros(half, bool), np.ones(150, bool)])
    calibration = calibrate_omega(cal_scores, cal_labels)
    val_images, val_labels = victim_bundle.dataset.split("val")
    table = ErrorTable.from_validation(net, val_images, val_labels)
    normals = run.holdout_normals[half:]
    advs = run.holdout_advs[150:]
    mix = np.concatenate([normals, np.stack([r.image.array for r in advs])])
    _, _, predicted = predict_batch(net, mix)
    labels = np.concatenate([run.holdout_normal_labels[half:],
                             [r.original_label for r in advs]])
    e_a_grid = np.concatenate([[0.01, 0.5, 1.0], np.linspace(2.0, 8.0, 13)])
    points = selfaware_sweep(detector_score_batch(run.model, net, mix), predicted,
                             np.arange(len(mix)) >= len(normals), labels,
                             calibration, table, 10.0, e_a_grid)
    full_abstention = [p for p in points if p.adversarial_abstain_rate == 1.0]
    retain_half = [p for p in points
                   if 2.0 <= p.e_a <= 8.0 and p.normal_retain_rate >= 0.5]
    ok = mismatches == 0 and full_abstention and retain_half
    detail = (f"{mismatches} grid mismatches; 100% adversarial abstention at "
              f"e_a <= {max(p.e_a for p in full_abstention):.2f}; " if full_abstention
              else f"{mismatches} grid mismatches; no full-abstention point; ")
    detail += (f"normal retention {max(p.normal_retain_rate for p in retain_half):.1%} "
               f"within [2, 8]" if retain_half else "no retention point in [2, 8]")
    report(11, "abstain rule and sweep", bool(ok), detail)


# ---------------------------------------------------------------------------
# 12. Persistence.
# ---------------------------------------------------------------------------

def test_criterion_12_persistence(tmp_path, victim_bundle, corpus, seed_runs):
    from cascade_guard import dataio

    net = victim_bundle.network
    run = seed_runs[0]

    p1, p2 = tmp_path / "n1.json", tmp_path / "n2.json"
    dataio.save_network(p1, net)
    dataio.save_network(p2, dataio.load_network(p1))
    net_ok = p1.read_bytes() == p2.read_bytes()

    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    dataio.save_detector(d1, run.model)
    reloaded = dataio.load_detector(d1)
    dataio.save_detector(d2, reloaded)
    det_ok = d1.read_bytes() == d2.read_bytes()

    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    dataio.save_adversarial_batch(b1, corpus.successful[:50], {"kind": "gradient-box"})
    dataio.save_adversarial_batch(b2, dataio.load_adversarial_batch(b1),
                                  {"kind": "gradient-box"})
    batch_ok = all((b1 / f).read_bytes() == (b2 / f).read_bytes()
                   for f in ["manifest.json"] + [f"img_{i:05d}.json" for i in range(50)])

    images = np.concatenate([
        run.holdout_normals,
        np.stack([r.image.array for r in run.holdout_advs]),
        corpus.normal_bank[:200],
    ])[:1000]
    before, _, _ = cascade_predict_batch(run.model, net, images)
    after, _, _ = cascade_predict_batch(reloaded, net, images)
    decisions_ok = bool((before == after).all())

    ok = net_ok and det_ok and batch_ok and decisions_ok
    report(12, "persistence", ok,
           f"network bytes {net_ok}, detector bytes {det_ok}, batch bytes "
           f"{batch_ok}, {len(images)} reloaded decisions exact {decisions_ok}")
