"""Discrete-time survival model: encoding, loss values, gradients, fits."""

import json

import numpy as np
import pytest

from gradcheck import check_op, numeric_grad, rel_err

from oncokit.autodiff import Tensor
from oncokit.ehr import Cohort
from oncokit.errors import ContractError
from oncokit.mtlr import (
    MtlrModel,
    censor_interval,
    event_interval,
    mtlr_cohort_risks,
    mtlr_fit,
    mtlr_from_json,
    mtlr_objective,
    mtlr_risk,
    mtlr_survival,
    save_mtlr,
    time_grid,
)
from oncokit.metrics import concordance_detail
from oncokit.synthetic import (
    calibrate_uniform_censoring,
    gen_synthetic_cohort,
    sample_weibull_times,
)

RNG = np.random.default_rng(31)


def _cohort(x, times, events):
    x = np.asarray(x, dtype=np.float64)
    return Cohort([f"s{i}" for i in range(len(times))], times, events, x,
                  [f"x{j}" for j in range(x.shape[1])])


def _objective(model, cohort):
    """The fit's objective, regularizer included, at the model's head."""
    return float(mtlr_objective(Tensor(model.theta), Tensor(model.bias),
                                Tensor(model.features(cohort.covariate_matrix())),
                                model.boundaries, cohort.times(), cohort.events(),
                                model.smoothing).data)


class TestEncoding:
    def test_event_interval_boundaries(self):
        grid = np.array([1.0, 2.0, 3.0])
        assert event_interval(grid, 0.5) == 0
        assert event_interval(grid, 1.0) == 0    # death at a boundary counts there
        assert event_interval(grid, 1.5) == 1
        assert event_interval(grid, 3.0) == 2

    def test_event_beyond_grid_rejected(self):
        with pytest.raises(ContractError):
            event_interval(np.array([1.0, 2.0]), 2.5)

    def test_censor_interval(self):
        grid = np.array([1.0, 2.0, 3.0])
        assert censor_interval(grid, 0.5) == 0
        assert censor_interval(grid, 1.0) == 1   # alive at the boundary
        assert censor_interval(grid, 9.0) == 3

    def test_time_grid_covers_data(self):
        times = np.array([1.0, 4.0, 2.0, 8.0, 3.0])
        events = np.array([1, 1, 0, 0, 1])
        grid = time_grid(times, events)
        assert grid[-1] == 8.0
        assert (np.diff(grid) > 0).all()


class TestLossValues:
    def test_zero_parameters_log_m_plus_one(self):
        # one uncensored subject, m = 2: loss is log 3 exactly
        model = MtlrModel(np.array([1.0, 2.0]), np.zeros((2, 1)), np.zeros(2), 0.0)
        cohort = _cohort([[0.3]], [1.5], [1])
        assert _objective(model, cohort) == pytest.approx(np.log(3.0), rel=1e-14)

    def test_zero_parameters_scales_with_subjects(self):
        model = MtlrModel(np.array([1.0, 2.0, 3.0]), np.zeros((3, 2)),
                          np.zeros(3), 0.0)
        cohort = _cohort([[0.0, 1.0]] * 5, [0.5, 1.5, 2.5, 3.0, 1.0], [1] * 5)
        assert _objective(model, cohort) == pytest.approx(5 * np.log(4.0), rel=1e-14)

    def test_smoothing_zero_removes_regularizer(self):
        theta = RNG.normal(size=(2, 1))
        grid = np.array([1.0, 2.0])
        cohort = _cohort([[0.3], [0.1]], [0.5, 1.5], [1, 1])
        m0 = MtlrModel(grid, theta, np.zeros(2), 0.0)
        m1 = MtlrModel(grid, theta, np.zeros(2), 4.0)
        assert _objective(m1, cohort) - _objective(m0, cohort) == pytest.approx(
            2.0 * float((theta ** 2).sum()), rel=1e-12)

    def test_m1_all_uncensored_is_logistic_nll(self):
        # every subject dead by the single boundary: labels are all one and
        # the loss is sum log(1 + exp(-g_i))
        x = RNG.normal(size=(7, 2))
        theta = RNG.normal(size=(1, 2))
        bias = RNG.normal(size=1)
        times = RNG.uniform(0.1, 4.9, size=7)
        grid = np.array([5.0])
        model = MtlrModel(grid, theta, bias, 0.0)
        cohort = _cohort(x, times, np.ones(7, dtype=int))
        g = x @ theta[0] + bias[0]
        expected = float(np.log1p(np.exp(-g)).sum())
        assert _objective(model, cohort) == pytest.approx(expected, abs=1e-10)

    def test_m1_censored_rows_act_as_negative_labels(self):
        # censored past the boundary: the marginal likelihood collapses to
        # the label-zero logistic term log(1 + exp(g))
        x = np.array([[0.7], [-0.2]])
        theta = np.array([[1.3]])
        bias = np.array([0.4])
        grid = np.array([5.0])
        model = MtlrModel(grid, theta, bias, 0.0)
        cohort = _cohort(x, [2.0, 6.0], [1, 0])
        g = x @ theta[0] + bias[0]
        expected = float(np.log1p(np.exp(-g[0])) + np.log1p(np.exp(g[1])))
        assert _objective(model, cohort) == pytest.approx(expected, abs=1e-12)

    def test_event_beyond_grid_raises(self):
        model = MtlrModel(np.array([1.0]), np.zeros((1, 1)), np.zeros(1), 0.0)
        cohort = _cohort([[0.0]], [2.0], [1])
        with pytest.raises(ContractError):
            _objective(model, cohort)


class TestGradients:
    def test_matches_finite_differences_mixed_censoring(self):
        n, p, m = 10, 3, 4
        x = RNG.normal(size=(n, p))
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        times = RNG.uniform(0.2, 3.9, size=n)
        events = (RNG.random(n) > 0.4).astype(int)
        theta0 = RNG.normal(size=(m, p)) * 0.3
        bias0 = RNG.normal(size=m) * 0.3

        def objective(theta, bias):
            return mtlr_objective(theta, bias, Tensor(x), grid, times, events, 0.7)

        assert check_op(objective, [theta0, bias0]) <= 1e-5


class TestSurvivalCurves:
    def test_zero_parameters_uniform_steps(self):
        m = 4
        model = MtlrModel(np.arange(1.0, m + 1), np.zeros((m, 2)), np.zeros(m), 0.0)
        curve = mtlr_survival(model, np.zeros(2))
        expected = [1.0] + [1.0 - k / (m + 1) for k in range(1, m + 1)]
        assert np.allclose(curve.survival, expected, atol=1e-12)

    def test_nonincreasing_for_random_models(self):
        for _ in range(1000):
            m = int(RNG.integers(1, 8))
            p = int(RNG.integers(1, 4))
            model = MtlrModel(np.sort(RNG.uniform(0.5, 10, size=m)),
                              RNG.normal(size=(m, p)) * 2, RNG.normal(size=m), 0.0)
            # strictly increasing grid required
            if np.any(np.diff(model.boundaries) == 0):
                continue
            curve = mtlr_survival(model, RNG.normal(size=p))
            assert (np.diff(curve.survival) <= 1e-12).all()
            assert curve.survival[0] == 1.0
            assert (curve.survival >= -1e-12).all()

    def test_interval_probabilities_sum_to_one(self):
        from oncokit.mtlr import _sequence_probabilities
        for _ in range(200):
            m = int(RNG.integers(1, 9))
            probs = _sequence_probabilities(RNG.normal(size=(3, m)) * 5)
            assert probs.shape == (3, m + 1)
            assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
            assert (probs >= 0).all()

    def test_risk_monotone_under_earlier_mass(self):
        # moving probability mass one interval earlier must raise the risk
        m = 3
        grid = np.arange(1.0, m + 1)
        late = MtlrModel(grid, np.zeros((m, 1)), np.array([0.0, 0.0, 2.0]), 0.0)
        early = MtlrModel(grid, np.zeros((m, 1)), np.array([2.0, 0.0, 0.0]), 0.0)
        x = np.zeros(1)
        assert mtlr_risk(early, x) > mtlr_risk(late, x)

    def test_width_mismatch(self):
        model = MtlrModel(np.array([1.0]), np.zeros((1, 2)), np.zeros(1), 0.0)
        with pytest.raises(ContractError):
            mtlr_survival(model, np.zeros(3))


class TestFit:
    def test_strong_signal_heldout_c_index(self):
        # the fitted ranking should match the planted-risk ceiling, which
        # sits at about 0.84 for this effect size
        train = gen_synthetic_cohort(500, seed=10, beta=[2.0], censor_frac=0.2)
        test = gen_synthetic_cohort(300, seed=11, beta=[2.0], censor_frac=0.2)
        model = mtlr_fit(train, smoothing=1.0)
        res = concordance_detail(test.times(), mtlr_cohort_risks(model, test),
                                 test.events())
        assert res.value >= 0.8

    def test_huge_smoothing_kills_weights(self):
        cohort = gen_synthetic_cohort(50, seed=12, beta=[1.0], censor_frac=0.0)
        model = mtlr_fit(cohort, m=3, smoothing=1e6)
        assert float(np.abs(model.theta).max()) <= 1e-3

    def test_refit_identical(self):
        cohort = gen_synthetic_cohort(60, seed=13, beta=[0.8], censor_frac=0.2)
        a = mtlr_fit(cohort, m=4, smoothing=1.0, iterations=300)
        b = mtlr_fit(cohort, m=4, smoothing=1.0, iterations=300)
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_iterations_count_updates_at_cap(self, monkeypatch):
        monkeypatch.setattr("oncokit.mtlr.GRAD_TOL", 0.0)
        cohort = gen_synthetic_cohort(40, seed=16, beta=[1.0], censor_frac=0.2)
        model = mtlr_fit(cohort, m=3, iterations=10)
        assert model.iterations == 10


class TestNeuralFit:
    def test_no_hidden_layers_matches_linear_fit(self):
        cohort = gen_synthetic_cohort(80, seed=14, beta=[1.0, -0.5], censor_frac=0.2)
        linear = mtlr_fit(cohort, m=4, smoothing=1.0, iterations=200)
        neural = mtlr_fit(cohort, m=4, smoothing=1.0, hidden_widths=(), iterations=200)
        assert np.allclose(neural.theta, linear.theta, atol=1e-12)
        assert np.allclose(neural.bias, linear.bias, atol=1e-12)

    def test_xor_hazard_beats_linear(self):
        # hazard driven by the product sign of two covariates: invisible to
        # a linear map, learnable by the MLP front end
        rng = np.random.default_rng(15)
        n = 1000
        x = rng.standard_normal((n, 2))
        eta = np.exp(1.5 * np.sign(x[:, 0] * x[:, 1]))
        t = sample_weibull_times(eta, 0.05, 1.5, rng)
        obs, ev = calibrate_uniform_censoring(t, 0.2, rng)
        cohort = _cohort(x, obs, ev)
        idx = np.arange(n)
        train, test = cohort.subset(idx[:700]), cohort.subset(idx[700:])

        linear = mtlr_fit(train, m=6, smoothing=1.0, iterations=800, seed=3)
        neural = mtlr_fit(train, m=6, smoothing=0.1, hidden_widths=(16,), iterations=800,
                          seed=3)

        lin_risks = [mtlr_risk(linear, s.covariates) for s in test.subjects]
        net_risks = mtlr_cohort_risks(neural, test)
        c_lin = concordance_detail(test.times(), np.array(lin_risks), test.events()).value
        c_net = concordance_detail(test.times(), net_risks, test.events()).value
        assert c_net >= c_lin + 0.05

    def test_gradient_through_mlp_head(self):
        # finite differences through the full neural objective
        from oncokit.autodiff import Tape, backward, matmul, relu, transpose
        from oncokit.mtlr import mtlr_nll_from_scores

        n, p, hidden, m = 6, 2, 3, 3
        x = RNG.normal(size=(n, p))
        grid = np.array([1.0, 2.0, 3.0])
        times = RNG.uniform(0.2, 2.9, size=n)
        events = np.array([1, 0, 1, 1, 0, 1])
        w1 = RNG.normal(size=(p, hidden)) * 0.5
        theta = RNG.normal(size=(m, hidden)) * 0.5

        def loss_np(w1_a, theta_a):
            h = np.maximum(x @ w1_a, 0.0)
            scores = h @ theta_a.T
            return float(mtlr_nll_from_scores(Tensor(scores), grid, times, events).data)

        w1_t = Tensor(w1, requires_grad=True)
        theta_t = Tensor(theta, requires_grad=True)
        with Tape() as tape:
            h = relu(matmul(Tensor(x), w1_t))
            scores = matmul(h, transpose(theta_t, (1, 0)))
            loss = mtlr_nll_from_scores(scores, grid, times, events)
        grads = backward(tape, loss)
        fd_w1 = numeric_grad(lambda a, b: loss_np(a, b), [w1, theta], 0)
        fd_theta = numeric_grad(lambda a, b: loss_np(a, b), [w1, theta], 1)
        assert rel_err(grads[w1_t].data, fd_w1) <= 1e-4
        assert rel_err(grads[theta_t].data, fd_theta) <= 1e-4


def test_persistence_roundtrip(tmp_path):
    cohort = gen_synthetic_cohort(60, seed=16, beta=[0.5], censor_frac=0.1)
    model = mtlr_fit(cohort, m=3, iterations=100)
    p = tmp_path / "mtlr.json"
    save_mtlr(model, p)
    back = mtlr_from_json(json.loads(p.read_text()), p)
    assert np.allclose(back.theta, model.theta)
    assert np.allclose(back.boundaries, model.boundaries)
    x = cohort.subjects[0].covariates
    assert mtlr_risk(back, x) == pytest.approx(mtlr_risk(model, x))


def test_persistence_roundtrip_hidden_layers(tmp_path):
    cohort = gen_synthetic_cohort(60, seed=17, beta=[0.5, -0.3], censor_frac=0.1)
    model = mtlr_fit(cohort, m=3, hidden_widths=(4, 3), iterations=50)
    p = tmp_path / "nmtlr.json"
    save_mtlr(model, p)
    saved = json.loads(p.read_text())
    assert (saved["type"], saved["hidden_widths"]) == ("nmtlr", [4, 3])
    back = mtlr_from_json(json.loads(p.read_text()), p)
    assert back.hidden_widths == (4, 3)
    assert np.array_equal(mtlr_cohort_risks(back, cohort), mtlr_cohort_risks(model, cohort))
    with pytest.raises(ContractError):              # the front end checks the width
        mtlr_risk(back, np.zeros(3))
    # a front end without layers is the linear model, saved as such
    save_mtlr(mtlr_fit(cohort, m=3, hidden_widths=(), iterations=50), p)
    assert "hidden_widths" not in json.loads(p.read_text())
    assert json.loads(p.read_text())["type"] == "mtlr"
