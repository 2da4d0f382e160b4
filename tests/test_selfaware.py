import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascade_guard.errors import ValidationError
from cascade_guard.selfaware import (
    _MIN_COUNT,
    ErrorTable,
    OmegaCalibration,
    abstain_decide,
    calibrate_omega,
    random_guess_error,
    selfaware_sweep,
)


def grid_search_calibration(scores, labels, ridge=1e-6):
    """Coarse-to-fine grid oracle on the same penalized mean log-loss."""
    normal = ~np.asarray(labels).astype(bool)
    t = normal.astype(np.float64)

    def nll(a, b):
        z = np.clip(a * scores + b, -500, 500)
        loss = np.where(normal, np.logaddexp(0.0, -z), np.logaddexp(0.0, z)).mean()
        return loss + ridge * (a * a + b * b)

    best = (0.0, 0.0, nll(0.0, 0.0))
    a_lo, a_hi, b_lo, b_hi = -60.0, 0.0, -30.0, 30.0
    for _ in range(6):
        for a in np.linspace(a_lo, a_hi, 41):
            for b in np.linspace(b_lo, b_hi, 41):
                v = nll(a, b)
                if v < best[2]:
                    best = (a, b, v)
        a_span = (a_hi - a_lo) / 8
        b_span = (b_hi - b_lo) / 8
        a_lo, a_hi = best[0] - a_span, best[0] + a_span
        b_lo, b_hi = best[1] - b_span, best[1] + b_span
    return best


class TestCalibrateOmega:
    def test_perfect_separation_saturates(self):
        scores = np.concatenate([np.full(50, -3.0), np.full(50, 3.0)])
        labels = np.concatenate([np.zeros(50, bool), np.ones(50, bool)])
        cal = calibrate_omega(scores, labels)
        assert cal.p_normal(-3.0) >= 0.99
        assert cal.p_normal(3.0) <= 0.01

    def test_symmetric_scores_cross_half_at_midpoint(self):
        rng = np.random.default_rng(0)
        sn = rng.normal(-1.0, 0.5, 300)
        sa = rng.normal(1.0, 0.5, 300)
        scores = np.concatenate([sn, sa])
        labels = np.concatenate([np.zeros(300, bool), np.ones(300, bool)])
        cal = calibrate_omega(scores, labels)
        midpoint = -cal.intercept / cal.slope
        assert abs(midpoint - 0.0) < 0.15
        assert cal.p_normal(midpoint) == pytest.approx(0.5, abs=1e-9)

    def test_log_likelihood_matches_grid_search_oracle(self):
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.normal(-1, 1, 200), rng.normal(1.5, 1, 200)])
        labels = np.concatenate([np.zeros(200, bool), np.ones(200, bool)])
        cal = calibrate_omega(scores, labels)
        normal = ~labels
        z = np.clip(cal.slope * scores + cal.intercept, -500, 500)
        got = np.where(normal, np.logaddexp(0.0, -z), np.logaddexp(0.0, z)).mean()
        got += 1e-6 * (cal.slope ** 2 + cal.intercept ** 2)
        _, _, oracle = grid_search_calibration(scores, labels)
        assert abs(got - oracle) < 1e-3
        assert got <= oracle + 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="both classes"):
            calibrate_omega(np.array([0.1, 0.2]), np.array([True, True]))

    def test_slope_never_positive(self):
        # adversarials scoring LOWER than normals would invert the fit;
        # the sign constraint clamps it flat instead
        scores = np.concatenate([np.full(20, 3.0), np.full(20, -3.0)])
        labels = np.concatenate([np.zeros(20, bool), np.ones(20, bool)])
        cal = calibrate_omega(scores, labels)
        assert cal.slope <= 0.0

    def test_monotone_non_increasing_in_score(self):
        rng = np.random.default_rng(2)
        scores = np.concatenate([rng.normal(-1, 1, 100), rng.normal(1, 1, 100)])
        labels = np.concatenate([np.zeros(100, bool), np.ones(100, bool)])
        cal = calibrate_omega(scores, labels)
        grid = np.linspace(-5, 5, 99)
        p = cal.p_normal(grid)
        assert (np.diff(p) <= 1e-15).all()


class TestAbstainDecide:
    def test_confident_normal_predicts(self):
        assert abstain_decide(1.0, 0.1, 10.0, 2.0) == "predict"  # 0.1 < 2

    def test_certain_adversarial_abstains(self):
        assert abstain_decide(0.0, 0.1, 10.0, 2.0) == "abstain"  # 10 < 2 is false

    def test_boundary_equality_abstains(self):
        # p_omega=0.5, p_err=0.2, e_q=3.8 -> LHS = 0.5*0.2 + 0.5*3.8 = 2.0
        assert abstain_decide(0.5, 0.2, 3.8, 2.0) == "abstain"

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValidationError):
            abstain_decide(1.5, 0.1, 10.0, 2.0)

    def test_costs_validated(self):
        with pytest.raises(ValidationError, match="costs"):
            abstain_decide(0.5, 0.1, -1.0, 2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        p_omega=st.floats(0, 1, width=64),
        p_err=st.floats(0, 1, width=64),
        e_q=st.floats(0.1, 20, width=64),
        ea_lo=st.floats(0.1, 10, width=64),
        ea_delta=st.floats(0, 10, width=64),
    )
    def test_monotone_in_abstain_cost(self, p_omega, p_err, e_q, ea_lo, ea_delta):
        lo = abstain_decide(p_omega, p_err, e_q, ea_lo)
        hi = abstain_decide(p_omega, p_err, e_q, ea_lo + ea_delta)
        if lo == "predict":
            assert hi == "predict"

    @settings(max_examples=200, deadline=None)
    @given(p_omega=st.floats(0, 1, width=64), p_err=st.floats(0, 1, width=64),
           e=st.floats(0.5, 20, width=64))
    def test_equal_costs_reduce_to_algebraic_identity(self, p_omega, p_err, e):
        # identity holds in exact arithmetic; stay off the float boundary
        assume(abs(p_omega * (e - p_err)) > 1e-9 * max(1.0, e))
        got = abstain_decide(p_omega, p_err, e, e)
        want = "predict" if p_omega * (e - p_err) > 0 else "abstain"
        assert got == want


class TestErrorTable:
    def test_per_class_fallback_below_min_count(self):
        counts = np.array([0, _MIN_COUNT - 1, _MIN_COUNT, _MIN_COUNT + 5])
        table = ErrorTable(per_class=np.array([0.0, 0.1, 0.2, 0.3]), counts=counts,
                           global_rate=0.5)
        assert [table.p_err(c) for c in range(4)] == [0.5, 0.5, 0.2, 0.3]

    def test_array_of_classes_looked_up_at_once(self):
        counts = np.array([0, _MIN_COUNT - 1, _MIN_COUNT, _MIN_COUNT + 5])
        table = ErrorTable(per_class=np.array([0.0, 0.1, 0.2, 0.3]), counts=counts,
                           global_rate=0.5)
        pred = np.array([3, 0, 2, 2, 1])
        got = table.p_err(pred)
        assert got.shape == pred.shape
        assert got.tolist() == [table.p_err(c) for c in pred.tolist()] == \
            [0.3, 0.5, 0.2, 0.2, 0.5]

    def test_random_guess_error(self):
        assert random_guess_error(10) == 0.9
        assert random_guess_error(2) == 0.5


@pytest.fixture(scope="module")
def sweep_setup(victim_bundle, corpus, fitted_banks, stat_rows):
    from cascade_guard.cascade import CascadeConfig, detector_score_batch, train_cascade
    from cascade_guard.victim import predict_batch

    net = victim_bundle.network
    advs = np.stack([r.image.array for r in corpus.successful[:400]])
    model = train_cascade(stat_rows(net, corpus.normal_bank[:600], fitted_banks),
                          stat_rows(net, advs, fitted_banks), fitted_banks, CascadeConfig(seed=5))
    cal_normals = corpus.normal_bank[600:900]
    cal_advs = np.stack([r.image.array for r in corpus.successful[400:550]])
    scores = np.concatenate([
        detector_score_batch(model, net, cal_normals),
        detector_score_batch(model, net, cal_advs),
    ])
    labels = np.concatenate([np.zeros(len(cal_normals), bool),
                             np.ones(len(cal_advs), bool)])
    calibration = calibrate_omega(scores, labels)
    val_images, val_labels = victim_bundle.dataset.split("val")
    table = ErrorTable.from_validation(net, val_images, val_labels)
    normals = corpus.normal_bank[900:1050]
    successful = corpus.successful[550:700]
    mix = np.concatenate([normals, np.stack([r.image.array for r in successful])])
    _, _, predicted = predict_batch(net, mix)
    mixture = (detector_score_batch(model, net, mix), predicted,
               np.arange(len(mix)) >= len(normals),
               np.concatenate([corpus.normal_labels[900:1050],
                               [r.original_label for r in successful]]))
    return mixture, calibration, table


class TestSweep:
    def test_tiny_abstain_cost_abstains_everything(self, sweep_setup):
        mixture, cal, table = sweep_setup
        pts = selfaware_sweep(*mixture, cal, table, 10.0, [1e-6])
        assert pts[0].abstain_fraction == 1.0

    def test_cost_above_eq_never_abstains(self, sweep_setup):
        mixture, cal, table = sweep_setup
        pts = selfaware_sweep(*mixture, cal, table, 10.0, [11.0])
        assert pts[0].abstain_fraction == 0.0

    def test_retained_accuracy_improves_with_abstention(self, sweep_setup):
        mixture, cal, table = sweep_setup
        pts = selfaware_sweep(*mixture, cal, table, 10.0,
                              np.linspace(2.0, 8.0, 13))
        by_abstention = sorted(pts, key=lambda p: p.abstain_fraction)
        acc = [p.retained_accuracy for p in by_abstention]
        # rises with abstention, within a +/- 2 point noise tolerance
        for lo, hi in zip(acc[:-1], acc[1:]):
            assert hi >= lo - 0.02

    def test_empty_mixture_rejected(self, sweep_setup):
        _, cal, table = sweep_setup
        with pytest.raises(ValidationError, match="empty"):
            selfaware_sweep([], [], [], [], cal, table, 10.0, [2.0])

    @pytest.mark.parametrize("e_q, e_a_values", [(-1.0, [2.0]), (0.0, [2.0]),
                                                 (10.0, [2.0, -2.0]), (10.0, [0.0])])
    def test_non_positive_costs_rejected(self, e_q, e_a_values):
        table = ErrorTable(per_class=np.zeros(2), counts=np.array([50, 50]), global_rate=0.0)
        with pytest.raises(ValidationError, match="costs must be positive"):
            selfaware_sweep([-1.0, 1.0], [0, 0], [False, True], [0, 1],
                            OmegaCalibration(-1.0, 0.0), table, e_q, e_a_values)

    def test_misaligned_arrays_rejected(self):
        table = ErrorTable(per_class=np.zeros(2), counts=np.array([50, 50]), global_rate=0.0)
        with pytest.raises(ValidationError, match="aligned"):
            selfaware_sweep([0.1, 0.2], [0], [False, True], [0, 1],
                            OmegaCalibration(-1.0, 0.0), table, 10.0, [2.0])

    def test_retained_item_without_label_counts_as_wrong(self):
        # e_a above e_q retains everything; both predictions are 0, and only
        # the first item's true label (0) is known.
        table = ErrorTable(per_class=np.zeros(2), counts=np.array([50, 50]), global_rate=0.0)
        pts = selfaware_sweep([-1.0, 1.0], [0, 0], [False, True], [0, -1],
                              OmegaCalibration(-1.0, 0.0), table, 10.0, [11.0])
        assert pts[0].abstain_fraction == 0.0
        assert pts[0].retained_accuracy == 0.5
