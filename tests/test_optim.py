"""AdamW step semantics, the warm-restart cosine schedule, the shared
training loop and parameter dicts shared among a model's parts."""

import math
import tracemalloc

import numpy as np
import pytest

from oncokit.autodiff import Tape, Tensor, backward, sigmoid
from oncokit.errors import ContractError, NumericError
from oncokit.losses import combined_loss
from oncokit.optim import FLOOR_LR, OptimState, adamw_step, cosine_lr, share_params, train
from oncokit.segnets import UNet
from oncokit.tmss import TmssModel, tmss_loss
from oncokit.vit import EncoderConfig, ViTEncoder


def test_zero_grad_zero_decay_leaves_params():
    params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = OptimState(weight_decay=0.0)
    out = adamw_step(params, {"w": np.zeros(2)}, state, lr=state.base_lr)
    assert np.array_equal(out["w"].data, params["w"].data)


def test_single_step_descends_quadratic():
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimState(weight_decay=0.0)
    out = adamw_step({"w": w}, {"w": np.array([2.0])}, state, lr=state.base_lr)  # grad of w^2 at 1
    assert abs(out["w"].data[0]) < 1.0


def test_converges_to_quadratic_minimizer():
    target = 0.3
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    state = OptimState(base_lr=0.05, weight_decay=0.0)
    for _ in range(200):
        g = 2.0 * (params["w"].data - target)
        params = adamw_step(params, {"w": g}, state, lr=state.base_lr)
    assert abs(params["w"].data[0] - target) <= 1e-3


def test_nan_grad_names_parameter():
    params = {"theta": Tensor(np.zeros(2), requires_grad=True)}
    with pytest.raises(NumericError) as e:
        adamw_step(params, {"theta": np.array([np.nan, 0.0])}, OptimState(), lr=1e-3)
    assert "theta" in str(e.value)


def test_deterministic_given_state():
    def run():
        rng = np.random.default_rng(7)
        params = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}
        state = OptimState()
        for step in range(50):
            with Tape() as tape:
                loss = (params["w"] * params["w"]).sum()
            grads = backward(tape, loss)
            params = adamw_step(params, {"w": grads[params["w"]]}, state,
                                lr=cosine_lr(step, state))
        return params["w"].data.tobytes()

    assert run() == run()


def test_decoupled_weight_decay_shrinks_weights():
    params = {"w": Tensor(np.array([10.0]), requires_grad=True)}
    state = OptimState(weight_decay=0.1)
    out = adamw_step(params, {"w": np.zeros(1)}, state, lr=state.base_lr)
    # moments stay zero so the only effect is the decay term
    assert out["w"].data[0] == pytest.approx(10.0 * (1 - state.base_lr * 0.1))


class TestCosineSchedule:
    def test_epoch_zero_is_base(self):
        assert cosine_lr(0, OptimState()) == pytest.approx(1e-3)

    def test_restart_at_period(self):
        assert cosine_lr(25, OptimState()) == pytest.approx(1e-3)

    def test_midpoint_is_mean_of_base_and_floor(self):
        state = OptimState()
        assert cosine_lr(12.5, state) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_end_of_period_near_floor(self):
        state = OptimState()
        assert cosine_lr(24.999, state) == pytest.approx(1e-5, rel=1e-2)

    def test_never_below_floor(self):
        state = OptimState()
        rates = [cosine_lr(e / 10.0, state) for e in range(0, 1000)]
        assert min(rates) >= FLOOR_LR


def _square_loss(params, targets, seen):
    """loss(index, epoch) = (w - targets[index])^2, noting each call's
    (epoch, w, loss) in ``seen``."""
    def loss(index, epoch):
        w = params["w"]
        value = ((w - Tensor(targets[index])) ** 2).sum()
        seen.append((epoch, float(w.data[0]), float(value.data)))
        return value
    return loss


class TestTrain:
    def test_stops_before_first_update_within_grad_tol(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        seen = []
        state = OptimState(base_lr=0.05, weight_decay=0.0)
        _, updates, grad_norm = train(params, _square_loss(params, [0.0], seen), 1,
                                      200, 1, state, seed=0, grad_tol=0.5)
        norms = [abs(2.0 * w) for _, w, _ in seen]      # d/dw w^2
        assert 0 < updates < 200
        assert updates == len(seen) - 1 == state.step
        assert all(norm > 0.5 for norm in norms[:-1])
        assert grad_norm == norms[-1] <= 0.5
        assert params["w"].data[0] == seen[-1][1]       # the last gradient was not applied

    def test_grad_tol_met_at_start_makes_no_update(self):
        w0 = Tensor(np.array([1.0]), requires_grad=True)
        params = {"w": w0}
        history, updates, grad_norm = train(params, _square_loss(params, [0.0], []), 1,
                                            5, 1, OptimState(), seed=0, grad_tol=2.0)
        assert (history, updates, grad_norm) == ([], 0, 2.0)
        assert params["w"] is w0

    def test_one_mean_loss_per_epoch(self):
        params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        seen = []
        targets = [1.0, -2.0, 0.5, 3.0]
        history, updates, _ = train(params, _square_loss(params, targets, seen), 4,
                                    3, 3, OptimState(), seed=5)
        assert len(history) == 3
        assert updates == 6                             # batches of 3 and 1, three times
        for epoch, mean in enumerate(history):
            losses = [value for e, _, value in seen if e == epoch]
            assert len(losses) == 4
            assert mean == pytest.approx(sum(losses) / 4, rel=1e-15)

    def test_updates_callers_dict_in_place(self):
        w0 = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        params = {"w": w0}
        loss = _square_loss(params, [np.zeros(2)], [])
        train(params, loss, 1, 2, 1, OptimState(), seed=0)
        assert params["w"] is not w0
        assert np.all(np.abs(params["w"].data) < 1.0)
        assert np.array_equal(w0.data, [1.0, -1.0])     # tensors stay immutable

    def test_holds_one_sample_tape_at_a_time(self):
        """Traced peaks on the toy 3D U-Net at 16x16x8. ``backward`` frees
        intermediate gradients and saved arrays as it goes, so one sample's
        forward and backward peaks at 1.86 times its forward alone; keeping
        every intermediate gradient until the tape dies reads 2.58. (Both
        read lower, 1.62 and 2.39, while ``conv`` kept a padded copy of its
        input on the tape, which raised the forward peak.) ``train`` frees
        each sample's tape before the next sample's forward, so a batch of 4
        peaks at 1.39 times one sample; keeping the previous tape through the
        next sample reads 2.18. ``grad_tol`` stops the batch before its
        update, whose optimizer state is not what is measured here."""
        rng = np.random.default_rng(5)
        xs = [Tensor(rng.normal(size=(2, 16, 16, 8))) for _ in range(4)]
        ys = [Tensor((rng.random((1, 16, 16, 8)) < 0.3).astype(float)) for _ in range(4)]
        net = UNet(3, in_channels=2, depth=3, base_width=8, seed=0)

        def loss(index, epoch):
            return combined_loss(sigmoid(net.forward(xs[index])), ys[index])

        def forward():
            with Tape() as tape:
                value = loss(0, 0)
            return tape, value

        def one_sample():
            grads = backward(*forward())
            return [grads[p] for p in net.params.values()]

        one_sample()        # allocations made once per process
        forward_peak = _traced_peak(forward)
        sample_peak = _traced_peak(one_sample)
        batch_peak = _traced_peak(lambda: train(net.params, loss, 4, 1, 4, OptimState(),
                                                seed=0, grad_tol=math.inf))
        assert sample_peak <= 2.0 * forward_peak
        assert batch_peak <= 1.75 * sample_peak

    def test_update_holds_few_parameter_copies(self):
        """One update's traced peak above the resting parameters and moments,
        in parameter-sized copies: four 500x500 parameters, the loss
        sum(p * c) over them, a batch of 2, measured on the second call so
        the moments exist. Summing into one array per parameter, dividing it
        in place and updating the moments in place reads 4.25; a fresh sum
        per sample, a divided copy and fresh moments every step read 5.75."""
        rng = np.random.default_rng(2)
        params = {f"p{i}": Tensor(rng.normal(size=(500, 500)), requires_grad=True)
                  for i in range(4)}
        consts = [Tensor(rng.normal(size=(500, 500))) for _ in range(4)]

        def loss(index, epoch):
            return sum((p * c).sum() for p, c in zip(params.values(), consts))

        state = OptimState()
        train(params, loss, 2, 1, 2, state, seed=0)
        copy = sum(p.data.nbytes for p in params.values())
        peak = _traced_peak(lambda: train(params, loss, 2, 1, 2, state, seed=0))
        assert state.step == 2
        assert peak / copy <= 5.0


def _traced_peak(f) -> int:
    """Peak bytes traced while ``f`` runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSharedParams:
    CFG = EncoderConfig((8, 8, 8), channels=2, patch=4, embed_dim=16, layers=1,
                        heads=2, mlp_ratio=2, ehr_dim=2)

    def test_train_step_reaches_every_part_of_tmss(self):
        model = TmssModel(self.CFG, boundaries=[1.0, 2.0], decoder_width=4, seed=0)
        rng = np.random.default_rng(3)
        vol, cov = Tensor(rng.normal(size=(8, 8, 8, 2))), Tensor(rng.normal(size=2))
        mask = Tensor((rng.random((1, 8, 8, 8)) > 0.8).astype(float))
        before = model.encoder.params["embed.w"]

        def loss(index, epoch):
            out = model.forward(vol, cov)
            return tmss_loss(out.logits, mask, out.scores, 1.5, 1, model.boundaries, beta=0.3)

        train(model.params, loss, 1, 1, 1, OptimState(), seed=0)
        assert model.encoder.params is model.params
        assert model.decoder.params is model.params
        assert not np.array_equal(model.encoder.params["embed.w"].data, before.data)

    def test_parts_sharing_a_name_refused(self):
        a, b = ViTEncoder(self.CFG, seed=0), ViTEncoder(self.CFG, seed=1)
        own_a, own_b = a.params, b.params
        with pytest.raises(ContractError, match="embed.w"):
            share_params(a, b)
        assert a.params is own_a and b.params is own_b
