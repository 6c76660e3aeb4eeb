"""MLP forward/backward, losses, optimizer, early stopping, logistic head."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from asas.errors import (
    DimMismatch,
    LabelOutOfRange,
    NonFiniteGradient,
    NonFiniteLoss,
    SingleClass,
    TooFewRows,
)
from asas import learners
from asas.learners import (
    LOGREG_MAX_ITER,
    LOGREG_TOL,
    AdamState,
    MlpModel,
    TrainConfig,
    adamw_step,
    bce_loss_grad,
    linear_lr,
    logreg_fit,
    logreg_logprobs,
    logreg_objective,
    mlp_forward,
    train_early_stop,
)
from asas.mathutil import log_softmax, logsumexp
from asas.metrics import qwk
from asas.serialize import Artifact
from oracles import (
    adamw_step_reference,
    bce_decimal,
    central_difference,
    logreg_fit_reference,
    logreg_objective_reference,
    mlp_forward_loops,
    one_hot_reference,
)


class TestMlpForward:
    def test_zero_model_gives_zero_logits(self):
        model = MlpModel(w1=np.zeros((3, 4)), b1=np.zeros(4), w2=np.zeros((4, 2)), b2=np.zeros(2))
        assert np.all(mlp_forward(model, np.ones((5, 3))) == 0.0)

    def test_scalar_network_closed_form(self):
        model = MlpModel(
            w1=np.array([[2.0]]), b1=np.array([-1.0]),
            w2=np.array([[3.0]]), b2=np.array([0.5]),
        )
        for x in (-2.0, 0.0, 1.5):
            expected = max(2.0 * x - 1.0, 0.0) * 3.0 + 0.5
            assert mlp_forward(model, np.array([[x]]))[0, 0] == pytest.approx(expected)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        model = MlpModel.init(6, 5, 3, seed=11)
        X = rng.normal(size=(7, 6))
        expected = mlp_forward_loops(model.w1, model.b1, model.w2, model.b2, X)
        assert np.allclose(mlp_forward(model, X), expected, atol=1e-10)

    def test_init_rejects_an_empty_hidden_layer(self):
        with pytest.raises(ValueError, match="n_hidden must be at least 1, got 0"):
            MlpModel.init(4, 0, 2, seed=0)

    def test_dim_mismatch(self):
        model = MlpModel.init(4, 3, 2, seed=0)
        with pytest.raises(DimMismatch):
            mlp_forward(model, np.zeros((2, 5)))


class TestBceLoss:
    def test_zero_logits_give_ln2(self):
        assert bce_loss_grad(np.zeros((3, 4)), [0, 1, 2])[0] == pytest.approx(math.log(2))

    def test_saturated_correct_logits_vanish(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 0] = 20.0
        logits[1, 2] = 20.0
        assert bce_loss_grad(logits, [0, 2])[0] <= 1e-8

    def test_matches_decimal_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(0, 3, size=(2, 3))
            labels = rng.integers(0, 3, size=2).tolist()
            assert bce_loss_grad(logits, labels)[0] == pytest.approx(
                bce_decimal(logits, labels), abs=1e-12
            )

    def test_no_overflow_for_large_logits(self):
        logits = np.array([[700.0, -700.0]])
        assert np.isfinite(bce_loss_grad(logits, [0])[0])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            bce_loss_grad(np.zeros((1, 2)), [2])

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0, 2, size=(3, 4))
        labels = rng.integers(0, 4, size=3).tolist()
        _, grad = bce_loss_grad(logits, labels)
        numeric = central_difference(
            lambda flat: bce_loss_grad(flat.reshape(3, 4), labels)[0], logits.flatten().copy()
        ).reshape(3, 4)
        assert np.max(np.abs(grad - numeric) / (np.abs(numeric) + 1e-10)) <= 1e-5


class TestOneHot:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_identity_rows_bitwise_equal_scattered_ones(self, dtype, k, data):
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), max_size=20)), dtype=int)
        got, want = learners._one_hot(labels, k, dtype), one_hot_reference(labels, k, dtype)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=float), np.array([], dtype=int)])
    def test_an_empty_vector_gives_no_rows(self, empty):
        assert learners._one_hot(empty, 3, np.float32).shape == (0, 3)

    def test_integral_floats_read_as_their_integers(self):
        floats = learners._one_hot([2.0, 0.0, 1.0], 3, np.float64)
        assert floats.tobytes() == learners._one_hot([2, 0, 1], 3, np.float64).tobytes()


# Each caller of metrics.as_labels, given labels for k = 3 classes.
_LABEL_CALLERS = {
    "qwk": lambda y: qwk(y, [0] * len(y), 3),
    "one_hot": lambda y: learners._one_hot(y, 3, np.float32),
    "logreg_objective": lambda y: logreg_objective(
        np.zeros((1, 3)), np.zeros(3), np.ones((len(y), 1)), y, 1e-3
    ),
}


class TestLabelCheckParity:
    """``qwk``, ``_one_hot`` and ``logreg_objective`` check labels with one rule."""

    @pytest.mark.parametrize("caller", _LABEL_CALLERS)
    @pytest.mark.parametrize("labels", [[0, 2, 1], [0.0, 2.0, 1.0], np.array([1, 2], np.int8)])
    def test_integral_labels_in_range_pass(self, caller, labels):
        _LABEL_CALLERS[caller](labels)

    @pytest.mark.parametrize("caller", _LABEL_CALLERS)
    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0], [0.5, 1], [np.nan, 1], [np.inf, 0]])
    def test_a_label_out_of_range_or_not_integral_fails(self, caller, labels):
        with pytest.raises(LabelOutOfRange):
            _LABEL_CALLERS[caller](labels)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_noop(self):
        params = [np.array([1.0, -2.0])]
        state = AdamState.for_params(params)
        new_params, _ = adamw_step(params, [np.zeros(2)], state, lr_t=0.1, weight_decay=0.0)
        assert np.array_equal(new_params[0], params[0])

    def test_first_step_moves_by_lr_in_gradient_sign(self):
        params = [np.array([0.0])]
        state = AdamState.for_params(params)
        new_params, _ = adamw_step(params, [np.array([3.7])], state, lr_t=0.01, weight_decay=0.0)
        # bias-corrected first step: m_hat = g, v_hat = g^2, update ~ lr * sign(g)
        assert new_params[0][0] == pytest.approx(-0.01, rel=1e-6)

    def test_decay_alone_shrinks_multiplicatively(self):
        params = [np.array([2.0])]
        state = AdamState.for_params(params)
        for _ in range(3):
            params, state = adamw_step(params, [np.zeros(1)], state, lr_t=0.1, weight_decay=0.5)
        assert params[0][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5) ** 3)

    def test_three_step_trace_matches_hand_stepped_adam(self):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        grads = [np.array([0.3, -1.2]), np.array([-0.7, 0.4]), np.array([1.1, 0.2])]
        lr = 0.05

        theta = np.array([0.5, -0.5])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)

        params = [np.array([0.5, -0.5])]
        state = AdamState.for_params(params)
        for g in grads:
            params, state = adamw_step(params, [g], state, lr_t=lr, weight_decay=0.0)
        assert np.allclose(params[0], theta, atol=1e-15)

    def test_non_finite_gradient(self):
        params = [np.zeros(2)]
        state = AdamState.for_params(params)
        with pytest.raises(NonFiniteGradient):
            adamw_step(params, [np.array([np.nan, 0.0])], state, 0.1, 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=4,
        ),
        steps=st.integers(100, 140),
        base_lr=st.floats(1e-5, 0.5),
        weight_decay=st.sampled_from([0.0, 1e-4, 0.01, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_to_reference_over_a_schedule(
        self, dtype, shapes, steps, base_lr, weight_decay, seed
    ):
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=shape).astype(dtype) for shape in shapes]
        caller_copy = [p.copy() for p in params]
        state = AdamState.for_params(params)
        ref_params = params
        ref_state = (0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])
        current = params
        for step in range(steps):
            # gradients spanning many magnitudes exercise the sqrt/eps rounding
            grads = [
                (rng.normal(size=shape) * 10.0 ** rng.integers(-9, 4)).astype(dtype)
                for shape in shapes
            ]
            lr_t = linear_lr(step, steps, base_lr)
            new, state = adamw_step(current, grads, state, lr_t, weight_decay)
            ref_params, ref_state = adamw_step_reference(
                ref_params, grads, ref_state, lr_t, weight_decay
            )
            assert [p.tobytes() for p in new] == [p.tobytes() for p in ref_params]
            assert all(p is not q for p, q in zip(new, current))
            current = new
        assert [m.tobytes() for m in state.m] == [m.tobytes() for m in ref_state[1]]
        assert [v.tobytes() for v in state.v] == [v.tobytes() for v in ref_state[2]]
        assert {a.dtype for a in [*new, *state.m, *state.v]} == {np.dtype(dtype)}
        assert state.step == steps
        # the caller's arrays are never written
        assert [p.tobytes() for p in params] == [p.tobytes() for p in caller_copy]


class TestLinearLr:
    def test_endpoints_and_midpoint(self):
        assert linear_lr(0, 10, 0.5) == 0.5
        assert linear_lr(10, 10, 0.5) == 0.0
        assert linear_lr(5, 10, 0.5) == 0.25

    def test_invalid_positions(self):
        with pytest.raises(ValueError):
            linear_lr(11, 10, 0.5)
        with pytest.raises(ValueError):
            linear_lr(0, 0, 0.5)


def _toy_problem(seed=0, n=48, d=6, k=3, separation=3.0):
    """Linearly separable features: class mean separation >> noise."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % k
    centers = rng.normal(0, 1, size=(k, d)) * separation
    X = centers[y] + rng.normal(0, 0.3, size=(n, d))
    return X, y


# The reference descent runs up to 5000 steps per example, so shrinking a
# failing example would take many minutes; report the first one found.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _stacker_design(n, k, strengths, seed):
    """Stacker-like design: members' log-probabilities leaning toward the
    labels. Collinear and ill-conditioned: plain descent often runs into
    its iteration cap here."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % k
    blocks = []
    for strength in strengths:
        logits = rng.normal(size=(n, k))
        logits[np.arange(n), y] += strength
        blocks.append(log_softmax(logits, axis=1))
    return np.hstack(blocks), y


class TestTrainEarlyStop:
    def _run(self, qwk_sequence, epochs):
        X, y = _toy_problem()
        it = iter(qwk_sequence)
        return train_early_stop(
            MlpModel.init(6, 4, 3, seed=0), X, y, X[:12], y[:12],
            TrainConfig(learning_rate=1e-3, batch_size=8, epochs=epochs, seed=0),
            qwk_fn=lambda *_: next(it),
        )

    def test_snapshot_at_best_epoch(self):
        result = self._run([0.3, 0.7, 0.5], epochs=3)
        assert result.best_epoch == 2
        assert result.best_dev_qwk == 0.7
        assert [h.dev_qwk for h in result.history] == [0.3, 0.7, 0.5]

    def test_tie_keeps_earliest_epoch(self):
        result = self._run([0.7, 0.7], epochs=2)
        assert result.best_epoch == 1

    def test_dev_predictions_are_the_kept_models(self):
        result = self._run([0.3, 0.7, 0.5], epochs=3)
        X, _ = _toy_problem()
        pred = np.argmax(mlp_forward(result.model, X[:12]), axis=1)
        assert np.array_equal(result.dev_pred, pred)

    def test_separable_problem_reaches_perfect_dev_qwk(self):
        X, y = _toy_problem(seed=3, n=72)
        train_X, train_y = X[:48], y[:48]
        dev_X, dev_y = X[48:], y[48:]
        result = train_early_stop(
            MlpModel.init(6, 16, 3, seed=1), train_X, train_y, dev_X, dev_y,
            TrainConfig(learning_rate=5e-3, batch_size=8, epochs=20, seed=1),
        )
        assert result.best_dev_qwk == 1.0

    def test_bit_reproducible(self):
        X, y = _toy_problem(seed=5)
        def run():
            return train_early_stop(
                MlpModel.init(6, 8, 3, seed=2), X, y, X[:12], y[:12],
                TrainConfig(learning_rate=2e-3, batch_size=8, epochs=5, seed=2),
            )
        a, b = run(), run()
        assert a.history == b.history
        assert a.best_epoch == b.best_epoch
        assert all(np.array_equal(p, q) for p, q in zip(a.model.params(), b.model.params()))

    def test_returned_model_attains_max_history_qwk(self):
        from asas.metrics import qwk

        X, y = _toy_problem(seed=6)
        dev_X, dev_y = X[:16], y[:16]
        result = train_early_stop(
            MlpModel.init(6, 8, 3, seed=3), X, y, dev_X, dev_y,
            TrainConfig(learning_rate=2e-3, batch_size=8, epochs=6, seed=3),
        )
        pred = np.argmax(mlp_forward(result.model, dev_X), axis=1)
        assert qwk(dev_y, pred, 3) == pytest.approx(max(h.dev_qwk for h in result.history))
        assert result.best_dev_qwk == max(h.dev_qwk for h in result.history)

    def test_float32_training_scores_in_float64(self):
        X, y = _toy_problem(seed=6, n=96, separation=0.6)
        train_X, train_y, dev_X, dev_y = X[:64], y[:64], X[64:], y[64:]
        result = train_early_stop(
            MlpModel.init(6, 8, 3, seed=3), train_X, train_y, dev_X, dev_y,
            TrainConfig(learning_rate=5e-3, batch_size=8, epochs=8, seed=3),
        )
        weights = result.model.params()
        assert {w.dtype for w in weights} == {np.dtype(float)}
        assert all(np.array_equal(w.astype(np.float32).astype(float), w) for w in weights)
        # the history's QWK is the float64 forward pass of the returned model, bit for bit
        pred = np.argmax(mlp_forward(result.model, dev_X), axis=1)
        assert qwk(dev_y, pred, 3) == result.best_dev_qwk == max(h.dev_qwk for h in result.history)
        saved = Artifact(kind="feature-model", arrays=result.model.to_arrays()).dump()
        again = MlpModel.from_arrays(Artifact.parse(saved).arrays)
        assert [w.tobytes() for w in again.params()] == [w.tobytes() for w in weights]

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.inf, math.nan])
    def test_config_rejects_a_learning_rate_that_is_not_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="invalid training config"):
            TrainConfig(learning_rate=lr, batch_size=8)

    def test_non_finite_loss_reports_epoch(self):
        X, y = _toy_problem(seed=7)
        with pytest.raises(NonFiniteLoss, match="epoch 1"):
            train_early_stop(
                MlpModel.init(6, 4, 3, seed=0), X, y, X[:8], y[:8],
                TrainConfig(learning_rate=1e308, batch_size=8, epochs=2, seed=0),
            )

    def test_float32_gradients_stay_float32(self):
        from asas.learners import _mlp_grads

        rng = np.random.default_rng(4)
        params = [p.astype(np.float32) for p in MlpModel.init(5, 4, 3, seed=2).params()]
        X = rng.normal(size=(7, 5)).astype(np.float32)
        loss, grads = _mlp_grads(params, X, rng.integers(0, 3, size=7))
        assert math.isfinite(loss)
        assert [g.dtype for g in grads] == [np.dtype(np.float32)] * 4

    def test_mlp_loss_gradient_matches_central_differences(self):
        from asas.learners import _mlp_grads

        rng = np.random.default_rng(8)
        model = MlpModel.init(4, 3, 2, seed=9)
        X = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        _, grads = _mlp_grads(model.params(), X, y)
        for index, name in enumerate(["w1", "b1", "w2", "b2"]):
            base = getattr(model, name)

            def loss_at(flat, index=index, base=base):
                params = model.params()
                params[index] = flat.reshape(base.shape)
                return bce_loss_grad(mlp_forward(model.with_params(params), X), y)[0]

            numeric = central_difference(loss_at, base.flatten().copy()).reshape(base.shape)
            denom = np.abs(numeric) + 1e-10
            assert np.max(np.abs(grads[index] - numeric) / denom) <= 1e-5


def _assert_fit_is_the_optimum(X, y, l2, k=None):
    """The fit's stopping contract, checked from outside: converged, no worse
    than the reference descent, biases summing to zero, and reproducible."""
    model = logreg_fit(X, y, l2, k=k)
    value, grad_w, grad_b = logreg_objective(model.weights, model.bias, X, y, l2)
    grad_norm = max(np.max(np.abs(grad_w), initial=0.0), np.max(np.abs(grad_b)))
    assert model.converged and model.grad_norm == grad_norm <= LOGREG_TOL
    # where the reference converges too, both stop with a gradient under
    # 1e-6, which leaves either up to about 1e-12 above the optimum
    weights, bias = logreg_fit_reference(X, y, l2, k=k)
    assert value <= logreg_objective(weights, bias, X, y, l2)[0] + 1e-10
    assert abs(np.sum(model.bias)) <= 1e-12
    again = logreg_fit(X, y, l2, k=k)
    assert again.weights.tobytes() == model.weights.tobytes()
    assert again.bias.tobytes() == model.bias.tobytes()
    return model


class TestLogReg:
    def test_separable_1d_reaches_perfect_accuracy(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = logreg_fit(X, y, l2=1e-4)
        pred = np.argmax(logreg_logprobs(model, X), axis=1)
        assert np.array_equal(pred, y)

    def test_heavy_regularization_pushes_to_uniform(self):
        X, y = _toy_problem(seed=10, n=30, k=3)  # balanced classes
        model = logreg_fit(X, y, l2=1e6)
        assert np.max(np.abs(model.weights)) <= 1e-4
        logprobs = logreg_logprobs(model, X)
        # weights vanish; balanced classes leave the uniform distribution
        assert np.allclose(logprobs, math.log(1 / 3), atol=1e-4)

    def test_stopping_contract_gradient_norm(self):
        X, y = _toy_problem(seed=11, n=40, k=3)
        model = logreg_fit(X, y, l2=1e-2)
        _, grad_w, grad_b = logreg_objective(model.weights, model.bias, X, y, 1e-2)
        assert max(np.max(np.abs(grad_w)), np.max(np.abs(grad_b))) <= 1e-6
        # the fit records how it stopped
        assert model.grad_norm == max(np.max(np.abs(grad_w)), np.max(np.abs(grad_b)))
        assert model.converged and 0 < model.iterations < LOGREG_MAX_ITER

    def test_logprob_rows_normalize(self):
        X, y = _toy_problem(seed=12, n=30)
        model = logreg_fit(X, y, l2=1e-3)
        logprobs = logreg_logprobs(model, X)
        assert np.max(np.abs(logsumexp(logprobs, axis=1))) <= 1e-10

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            logreg_fit(np.ones((4, 2)), [1, 1, 1, 1], 1e-4)

    def test_fewer_rows_than_classes_raises(self):
        with pytest.raises(TooFewRows, match="^need at least 3 rows, got 2$"):
            logreg_fit(np.ones((2, 2)), [0, 2], 1e-4)

    def test_k_can_exceed_observed_classes(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        model = logreg_fit(X, [0, 1, 0, 1], l2=1e-3, k=3)
        assert logreg_logprobs(model, X).shape == (4, 3)

    def test_fit_records_hitting_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(learners, "LOGREG_MAX_ITER", 1)
        X, y = _stacker_design(n=12, k=3, strengths=(0.9, 1.2, 1.5), seed=0)
        model = logreg_fit(X, y, l2=1e-4)
        _, grad_w, grad_b = logreg_objective(model.weights, model.bias, X, y, 1e-4)
        assert model.iterations == 1
        assert not model.converged
        assert model.grad_norm == max(np.max(np.abs(grad_w)), np.max(np.abs(grad_b))) > 1e-6

    def test_label_outside_k_raises(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        with pytest.raises(LabelOutOfRange):
            logreg_fit(X, [0, 1, 0, 2], l2=1e-3, k=2)
        with pytest.raises(LabelOutOfRange):
            logreg_objective(np.zeros((1, 2)), np.zeros(2), X, np.array([0, 1, -1, 1]), 1e-3)

    @pytest.mark.parametrize("l2", [0.0, -1e-3, math.nan, math.inf])
    def test_l2_must_be_finite_and_positive(self, l2):
        # Newton steps need a strictly convex objective
        X, y = _toy_problem(seed=14, n=12, k=3)
        with pytest.raises(ValueError, match="l2 must be finite and > 0"):
            logreg_fit(X, y, l2)

    @given(
        n=st.integers(5, 40),
        d=st.integers(0, 5),
        k=st.integers(2, 5),
        l2=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None, phases=_NO_SHRINK, derandomize=True)
    def test_fit_meets_the_stopping_contract(self, n, d, k, l2, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 5.0])
        y = rng.permutation(np.arange(n) % k)
        _assert_fit_is_the_optimum(X, y, l2)

    @given(
        n=st.integers(10, 16),
        k=st.integers(3, 4),
        strengths=st.lists(st.floats(0.9, 1.5), min_size=3, max_size=3),
        l2=st.sampled_from([1e-4, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=6, deadline=None, phases=_NO_SHRINK, derandomize=True)
    def test_fit_converges_on_stacker_designs(self, n, k, strengths, l2, seed):
        # where plain descent stops at its cap, unconverged
        X, y = _stacker_design(n, k, strengths, seed)
        _assert_fit_is_the_optimum(X, y, l2)

    @given(
        n=st.integers(6, 40),
        d=st.integers(1, 4),
        observed=st.integers(2, 3),
        extra=st.integers(1, 3),
        l2=st.sampled_from([1e-4, 1e-2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=5, deadline=None, phases=_NO_SHRINK, derandomize=True)
    def test_fit_converges_with_unobserved_classes(self, n, d, observed, extra, l2, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, observed, size=n)
        assume(np.unique(y).size >= 2)
        k = observed + extra
        assume(n >= k)
        model = _assert_fit_is_the_optimum(X, y, l2, k=k)
        assert model.weights.shape == (d, k)

    @given(
        n=st.integers(1, 40),
        d=st.integers(0, 6),
        top_label=st.integers(0, 4),
        unobserved=st.integers(0, 3),
        log10_scales=st.lists(st.floats(-3.0, math.log10(30.0)), min_size=6, max_size=6),
        weight_scale=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 100.0]),
        l2=st.floats(1e-4, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_objective_is_the_reference_bit_for_bit(
        self, n, d, top_label, unobserved, log10_scales, weight_scale, l2, seed
    ):
        rng = np.random.default_rng(seed)
        k = top_label + 1 + unobserved  # classes above every label stay unobserved
        X = rng.normal(size=(n, d)) * 10.0 ** np.array(log10_scales[:d])
        y = rng.integers(0, top_label + 1, size=n)
        W = rng.normal(size=(d, k)) * weight_scale
        b = rng.normal(size=k) * weight_scale
        got = logreg_objective(W, b, X, y, l2)
        want = logreg_objective_reference(W, b, X, y, l2)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 3, size=12)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        _, grad_w, grad_b = logreg_objective(W, b, X, y, 0.1)
        num_w = central_difference(
            lambda flat: logreg_objective(flat.reshape(4, 3), b, X, y, 0.1)[0],
            W.flatten().copy(),
        ).reshape(4, 3)
        num_b = central_difference(
            lambda flat: logreg_objective(W, flat, X, y, 0.1)[0], b.copy()
        )
        assert np.max(np.abs(grad_w - num_w) / (np.abs(num_w) + 1e-10)) <= 1e-5
        assert np.max(np.abs(grad_b - num_b) / (np.abs(num_b) + 1e-10)) <= 1e-5


class TestModelSerialization:
    def test_mlp_arrays_round_trip(self):
        model = MlpModel.init(5, 4, 3, seed=21)
        again = MlpModel.from_arrays(
            {k: np.atleast_2d(v) for k, v in model.to_arrays().items()}
        )
        X = np.random.default_rng(0).normal(size=(3, 5))
        assert np.array_equal(mlp_forward(model, X), mlp_forward(again, X))
