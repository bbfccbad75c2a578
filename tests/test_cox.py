"""Proportional-hazards fitting: score oracle, recovery, diagnostics."""

import json

import numpy as np
import pytest

from oncokit.cox import (
    CoxModel,
    _loglik_parts,
    _risk_sets,
    cox_cohort_risks,
    cox_fit,
    cox_from_json,
    cox_risk,
    save_cox,
)
from oncokit.ehr import Cohort
from oncokit.errors import ContractError, DivergenceError
from oncokit.metrics import concordance_detail
from oncokit.synthetic import gen_synthetic_cohort


def _cohort(x, times, events):
    x = np.asarray(x, dtype=np.float64)
    return Cohort([f"s{i}" for i in range(len(times))], times, events, x,
                  [f"x{j}" for j in range(x.shape[1])])


class TestScoreOracle:
    def test_two_subject_hand_score(self):
        # A(x=1, t=1, event) and B(x=0, t=2, event): d/dw ll at w=0 is 0.5
        x = np.array([[1.0], [0.0]])
        t = np.array([1.0, 2.0])
        e = np.array([1, 1])
        ll, score, hess = _loglik_parts(np.zeros(1), _risk_sets(x, t, e), 0.0)
        assert score[0] == pytest.approx(0.5)
        assert ll == pytest.approx(1.0 * 0 - np.log(2.0))

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        n, p = 40, 3
        x = rng.normal(size=(n, p))
        t = rng.uniform(1, 10, size=n)
        e = (rng.random(n) > 0.3).astype(int)
        beta = rng.normal(size=p) * 0.5
        ll, score, hess = _loglik_parts(beta, _risk_sets(x, t, e), ridge=0.1)
        h = 1e-6
        for j in range(p):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            fd = (_loglik_parts(bp, _risk_sets(x, t, e), 0.1)[0]
                  - _loglik_parts(bm, _risk_sets(x, t, e), 0.1)[0]) / (2 * h)
            assert score[j] == pytest.approx(fd, abs=1e-5)

    def test_ties_share_risk_set(self):
        # two events at the same time both see the full 3-subject risk set
        x = np.array([[1.0], [0.5], [0.0]])
        t = np.array([1.0, 1.0, 2.0])
        e = np.array([1, 1, 0])
        ll, _, _ = _loglik_parts(np.zeros(1), _risk_sets(x, t, e), 0.0)
        assert ll == pytest.approx(-2.0 * np.log(3.0))


class TestFit:
    def test_null_signal_small_coefficients(self):
        cohort = gen_synthetic_cohort(500, seed=1, beta=[0.0], censor_frac=0.1)
        model = cox_fit(cohort)
        assert abs(model.coefficients[0]) <= 0.1

    def test_recovers_planted_coefficients(self):
        cohort = gen_synthetic_cohort(500, seed=0, beta=[1.0, -0.5], censor_frac=0.2)
        model = cox_fit(cohort)
        assert model.coefficients[0] == pytest.approx(1.0, abs=0.15)
        assert model.coefficients[1] == pytest.approx(-0.5, abs=0.15)
        assert model.iterations <= 20

    def test_loglik_monotone(self):
        cohort = gen_synthetic_cohort(200, seed=3, beta=[0.8], censor_frac=0.3)
        model = cox_fit(cohort)
        diffs = np.diff(model.ll_trajectory)
        assert (diffs >= -1e-10).all()

    def test_requires_events(self):
        cohort = _cohort([[1.0], [0.0]], [1.0, 2.0], [0, 0])
        with pytest.raises(ContractError):
            cox_fit(cohort)

    def test_rejects_constant_feature(self):
        cohort = _cohort([[1.0, 3.0], [0.0, 3.0], [0.5, 3.0]],
                         [1.0, 2.0, 3.0], [1, 1, 1])
        with pytest.raises(ContractError) as err:
            cox_fit(cohort)
        assert "x1" in str(err.value)

    def test_separable_data_diverges_with_feature_name(self):
        # perfectly ordered risk: coefficient walks off
        n = 30
        x = np.linspace(-2, 2, n).reshape(-1, 1)
        times = np.linspace(10, 1, n)   # higher x always dies earlier
        cohort = _cohort(x, times, np.ones(n, dtype=int))
        with pytest.raises(DivergenceError) as err:
            cox_fit(cohort)
        assert "x0" in str(err.value)

    def test_ridge_tames_separation(self):
        n = 30
        x = np.linspace(-2, 2, n).reshape(-1, 1)
        times = np.linspace(10, 1, n)
        cohort = _cohort(x, times, np.ones(n, dtype=int))
        model = cox_fit(cohort, ridge=1.0)
        assert np.isfinite(model.coefficients).all()

    def test_baseline_hazard_nondecreasing(self):
        cohort = gen_synthetic_cohort(150, seed=4, beta=[0.5], censor_frac=0.2)
        model = cox_fit(cohort)
        values = [h for _, h in model.baseline_hazard]
        assert (np.diff(values) >= 0).all()
        assert len(values) == len({t for t, _ in model.baseline_hazard})


class TestRisk:
    def test_zero_coefficients_unit_risk(self):
        model = CoxModel(np.zeros(2), ["a", "b"], [])
        risks = cox_risk(model, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.allclose(risks, 1.0)

    def test_log_two_doubles(self):
        model = CoxModel(np.array([np.log(2.0)]), ["a"], [])
        assert cox_risk(model, np.array([1.0])) == pytest.approx(2.0)

    def test_zero_weight_feature_ignored(self):
        model = CoxModel(np.array([0.7, 0.0]), ["a", "b"], [])
        r1 = cox_risk(model, np.array([1.0, 1.0]))
        r2 = cox_risk(model, np.array([1.0, 2.0]))
        assert r1 == pytest.approx(r2)

    def test_width_mismatch(self):
        model = CoxModel(np.zeros(2), ["a", "b"], [])
        with pytest.raises(ContractError):
            cox_risk(model, np.zeros(3))

    def test_translation_invariant_ranking(self):
        cohort = gen_synthetic_cohort(120, seed=5, beta=[1.0, -0.3], censor_frac=0.1)
        model = cox_fit(cohort)
        base = np.argsort(cox_risk(model, cohort.covariate_matrix()))
        shifted = cohort.replace(covariates=cohort.covariate_matrix() + np.array([5.0, 0.0]))
        model2 = cox_fit(shifted)
        again = np.argsort(cox_risk(model2, shifted.covariate_matrix()))
        assert np.array_equal(base, again)

    def test_cohort_c_index_strong_signal(self):
        cohort = gen_synthetic_cohort(400, seed=6, beta=[1.5], censor_frac=0.2)
        model = cox_fit(cohort)
        res = concordance_detail(cohort.times(), cox_cohort_risks(model, cohort),
                                 cohort.events())
        assert res.value >= 0.7


def test_persistence_roundtrip(tmp_path):
    cohort = gen_synthetic_cohort(100, seed=7, beta=[0.5, 0.2], censor_frac=0.1)
    model = cox_fit(cohort)
    p = tmp_path / "cox.json"
    save_cox(model, p)
    back = cox_from_json(json.loads(p.read_text()), p)
    assert np.allclose(back.coefficients, model.coefficients)
    assert back.feature_names == model.feature_names
    assert back.baseline_hazard == pytest.approx(model.baseline_hazard)
