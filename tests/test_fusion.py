"""Risk ensembling and the joint segmentation+survival model."""

import numpy as np
import pytest

from oncokit.autodiff import Tape, Tensor, backward
from oncokit.cox import cox_fit, cox_cohort_risks
from oncokit.errors import ContractError
from oncokit.fusion import deep_fusion_risk
from oncokit.metrics import concordance_detail
from oncokit.mtlr import (
    mtlr_cohort_risks,
    mtlr_fit,
    risk_from_scores,
    survival_from_scores,
)
from oncokit.synthetic import gen_synthetic_cohort
from oncokit.tmss import TmssModel, tmss_loss
from oncokit.vit import EncoderConfig

RNG = np.random.default_rng(404)


class TestDeepFusion:
    def test_identical_normalized_inputs_idempotent(self):
        r = RNG.normal(size=20)
        z = (r - r.mean()) / r.std()
        fused = deep_fusion_risk(z, z)
        assert np.allclose(fused, z)

    def test_ranking_invariant_to_affine_rescaling(self):
        a = RNG.normal(size=30)
        b = RNG.normal(size=30)
        base = np.argsort(deep_fusion_risk(a, b))
        scaled = np.argsort(deep_fusion_risk(3.0 * a + 7.0, b))
        also = np.argsort(deep_fusion_risk(a, 0.2 * b - 4.0))
        assert np.array_equal(base, scaled)
        assert np.array_equal(base, also)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            deep_fusion_risk(np.zeros(3), np.zeros(4))

    def test_fused_not_worse_than_weakest_component(self):
        cohort = gen_synthetic_cohort(400, seed=21, beta=[1.2, -0.6], censor_frac=0.2)
        holdout = gen_synthetic_cohort(200, seed=22, beta=[1.2, -0.6], censor_frac=0.2)
        cox = cox_fit(cohort)
        mtlr = mtlr_fit(cohort, iterations=600)
        rc = cox_cohort_risks(cox, holdout)
        rm = mtlr_cohort_risks(mtlr, holdout)
        fused = deep_fusion_risk(rc, rm)
        t, e = holdout.times(), holdout.events()
        c_cox = concordance_detail(t, rc, e).value
        c_mtlr = concordance_detail(t, rm, e).value
        c_fused = concordance_detail(t, fused, e).value
        # observed behavior on aligned components, not a theorem
        assert c_fused >= min(c_cox, c_mtlr) - 0.01


class TestTmss:
    def _model(self):
        cfg = EncoderConfig((8, 8, 8), channels=2, patch=4, embed_dim=16,
                            layers=2, heads=2, mlp_ratio=2, ehr_dim=2)
        return TmssModel(cfg, boundaries=[1.0, 2.0, 3.0], decoder_width=4, seed=0)

    def test_forward_shapes(self):
        model = self._model()
        out = model.forward(Tensor(RNG.normal(size=(8, 8, 8, 2))),
                            Tensor(RNG.normal(size=2)))
        assert out.logits.shape == (1, 8, 8, 8)
        assert out.scores.shape == (1, 3)

    def test_requires_ehr_slot(self):
        cfg = EncoderConfig((8, 8, 8), channels=2, patch=4, embed_dim=16,
                            layers=2, heads=2, mlp_ratio=2)
        with pytest.raises(ContractError):
            TmssModel(cfg, boundaries=[1.0])

    def test_beta_zero_is_pure_segmentation(self):
        model = self._model()
        mask = (RNG.random((1, 8, 8, 8)) > 0.8).astype(float)
        out = model.forward(Tensor(RNG.normal(size=(8, 8, 8, 2))),
                            Tensor(RNG.normal(size=2)))
        from oncokit.losses import combined_loss
        from oncokit.autodiff import sigmoid
        joint = tmss_loss(out.logits, Tensor(mask), out.scores, 1.5, 1,
                          model.boundaries, beta=0.0)
        seg_only = combined_loss(sigmoid(out.logits), Tensor(mask))
        assert float(joint.data) == pytest.approx(float(seg_only.data))

    def test_one_backward_reaches_both_heads(self):
        model = self._model()
        mask = (RNG.random((1, 8, 8, 8)) > 0.8).astype(float)
        with Tape() as tape:
            out = model.forward(Tensor(RNG.normal(size=(8, 8, 8, 2))),
                                Tensor(RNG.normal(size=2)))
            loss = tmss_loss(out.logits, Tensor(mask), out.scores, 1.5, 1,
                             model.boundaries, beta=0.5)
        grads = backward(tape, loss)
        dec_grad = grads[model.decoder.params["head.w"]].data
        surv_grad = grads[model.params["surv.w"]].data
        ehr_grad = grads[model.encoder.params["ehr.w"]].data
        assert np.abs(dec_grad).max() > 0
        assert np.abs(surv_grad).max() > 0
        assert np.abs(ehr_grad).max() > 0

    def test_risk_prediction_runs(self):
        model = self._model()
        out = model.forward(Tensor(RNG.normal(size=(8, 8, 8, 2))),
                            Tensor(RNG.normal(size=2)))
        risk = risk_from_scores(model.boundaries, out.scores.data[0])
        assert 0.0 <= risk <= 3.0
        out = model.forward(Tensor(RNG.normal(size=(8, 8, 8, 2))),
                            Tensor(RNG.normal(size=2)))
        curve = survival_from_scores(model.boundaries, out.scores.data[0])
        assert curve.survival[0] == 1.0

    def test_set_params_roundtrip(self):
        model = self._model()
        flat = model.params
        doubled = {k: Tensor(2.0 * v.data, requires_grad=True) for k, v in flat.items()}
        model.set_params(doubled)
        assert np.allclose(model.encoder.params["embed.w"].data,
                           doubled["embed.w"].data)
        assert np.allclose(model.params["surv.w"].data, doubled["surv.w"].data)

    def _assert_set_params_refused(self, model, values, words):
        before = dict(model.params)
        with pytest.raises(ContractError, match=words):
            model.set_params(values)
        assert all(model.params[k] is t for k, t in before.items())

    def test_set_params_refuses_missing_names(self):
        cfg = EncoderConfig((8, 8, 8), channels=2, patch=4, embed_dim=16,
                            layers=1, heads=2, mlp_ratio=2, ehr_dim=2)
        one_layer = TmssModel(cfg, boundaries=[1.0, 2.0, 3.0], decoder_width=4)
        self._assert_set_params_refused(self._model(), one_layer.params, "blocks.1.q.w")

    def test_set_params_refuses_unknown_names(self):
        model = self._model()
        values = dict(model.params, **{"enc.embed.w": model.params["embed.w"]})
        self._assert_set_params_refused(model, values, "enc.embed.w")

    def test_set_params_refuses_mismatched_shapes(self):
        cfg = EncoderConfig((8, 8, 8), channels=2, patch=4, embed_dim=16,
                            layers=2, heads=2, mlp_ratio=2, ehr_dim=2)
        two_bounds = TmssModel(cfg, boundaries=[1.0, 2.0], decoder_width=4)
        self._assert_set_params_refused(self._model(), two_bounds.params, "surv.w")
